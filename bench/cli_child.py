"""Run one ``linkhom`` command with the benchmark's spans recorded.

    python3 bench/cli_child.py SPANS.json ARGS...

Installs the tracer of ``spans.py`` (generator-matrix builds included,
since a fresh interpreter pays them on the request path), calls
``linkhom.cli.main(ARGS)``, writes the spans to SPANS.json and exits with
the command's exit code.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402


def main() -> int:
    tracer = spans.Tracer()
    tracer.install(setup=True)
    import linkhom.cli

    try:
        return linkhom.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        Path(sys.argv[1]).write_text(json.dumps(tracer.to_json()))


if __name__ == "__main__":
    sys.exit(main())
