"""Command-line front end.

Subcommands: basis, magnus, nf, act, gamma, braid-eq, clasp, build, pc,
closure-eq, tables.  Braid words use the ``s<k>`` / ``a<i>,<j>`` grammar,
reduced-free-group words use ``x<k>`` tokens; both accept a ``^-1``
suffix.  When ``-n`` is omitted it is inferred as the smallest strand
count on which the input words parse.  An option is accepted only where
it is read (``-n`` by basis, magnus, nf, act, gamma, braid-eq and clasp,
``--order`` by basis, nf and gamma) and exits 64 elsewhere.

Exit codes: 0 success (also true / Equivalent), 1 false / Distinct,
2 Unknown (only closure-eq on 5 components with nonzero linking numbers,
outside the classification), 64 usage error, 65 data error (unreadable or
invalid files, values in them that are not JSON integers, integers of more
than 4300 digits, or inputs beyond the admitted size: every subcommand but
act and tables refuses n >= 8, basis, nf and magnus included, before
parsing; build and act refuse braid words, and act image words, of more
than 10^6 letters; act counts before it expands ``a<i>,<j>`` tokens).

closure-eq witness multipliers can exceed 4300 decimal digits; a Python
consumer of its JSON output needs ``sys.set_int_max_str_digits(0)``.

Only the matrix layer (``linkhom.gamma``) imports numpy, when a command
first needs it: gamma, braid-eq, clasp and pc.  basis, magnus, nf, act,
build, tables and closure-eq run without loading numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .braids import BraidError, BraidWord, expanded_length, infer_strands, parse_braid_word
from .braids import unparse_braid_word
from .claspers import ClaspVector, clasp_vector_to_braid, extract_clasp_vector
from .closure import PartialConjugation, closure_equivalent, move_tables, partial_conjugate
from .reduced_free import (
    MAX_BUILD_LETTERS,
    LimitError,
    RankError,
    admit_strands,
    artin_act,
    enumerate_basic_commutators,
    magnus_expand,
    parse_reduced_word,
    rfg_normal_form,
)

EX_OK = 0
EX_FALSE = 1
EX_UNKNOWN = 2
EX_USAGE = 64
EX_DATA = 65


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="linkhom", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, strands=True, order=False):
        p = sub.add_parser(name, help=help_text)
        if strands:
            p.add_argument("-n", "--strands", type=int,
                           help="strand count / rank (default: inferred from the input)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if order:
            p.add_argument("--order", default="weight-lex", choices=("weight-lex", "weight-revlex"),
                           help="basis order tag for commutator output")
        return p

    add("basis", "list the basic-commutator basis", order=True)
    p = add("magnus", "expand a reduced-free-group word into the square-free series")
    p.add_argument("word")
    p = add("nf", "normal-form exponents of a reduced-free-group word", order=True)
    p.add_argument("word")
    p = add("act", "act on a reduced-free-group word by a braid")
    p.add_argument("braid")
    p.add_argument("word")
    p = add("gamma", "matrix of a braid word in the linear representation", order=True)
    p.add_argument("braid")
    p = add("braid-eq", "decide link-homotopy equality of two braid words")
    p.add_argument("braid1")
    p.add_argument("braid2")
    p = add("clasp", "clasp-number normal form of a pure braid word")
    p.add_argument("braid")
    p = add("build", "braid word of a clasp vector (JSON file, '-' for stdin)", False)
    p.add_argument("vector")
    p = add("pc", "apply a partial conjugation to a clasp vector", False)
    p.add_argument("vector")
    p.add_argument("-i", "--strand", type=int, required=True,
                   help="strand whose loop class is conjugated")
    p.add_argument("-j", "--conjugator", type=int, required=True)
    p.add_argument("--sign", type=int, choices=(1, -1), default=1)
    p = add("closure-eq", "decide link-homotopy of the closures of two clasp vectors", False)
    p.add_argument("vector1")
    p.add_argument("vector2")
    p = add("tables", "dump the embedded clasp-number move tables", False)
    p.add_argument("--table", default=None, help="only this table id")
    return parser


def _load_vector(path: str) -> ClaspVector:
    try:
        if path == "-":
            data = json.load(sys.stdin, object_pairs_hook=_unique_keys)
        else:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle, object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:
        # ValueError: malformed JSON, or an integer past the int-to-str
        # digit cap, which stays on while input is parsed
        raise _DataError(f"cannot read clasp vector from {path}: {exc}") from exc
    try:
        return ClaspVector.from_json(data)
    except (BraidError, RankError) as exc:
        raise _DataError(str(exc)) from exc


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, refused with ValueError if it repeats a key:
    ``json.load`` would keep the last value without a word."""
    data: dict = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"repeated key {key!r}")
        data[key] = value
    return data


class _DataError(Exception):
    pass


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift the int-to-str digit cap of Python >= 3.10.7, then restore it."""
    if not hasattr(sys, "get_int_max_str_digits"):
        yield  # older interpreters have no cap
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _braids(args, *texts: str) -> list[BraidWord]:
    """The words on the given or inferred strand count, admitted before
    parsing, which expands ``a<i>,<j>`` tokens into 2 (j - i) letters."""
    n = args.strands if args.strands is not None else max(map(infer_strands, texts))
    admit_strands(n)
    return [parse_braid_word(text, n) for text in texts]


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _run(args) -> int:
    if args.command == "basis":
        if args.strands is None:
            raise _UsageError("basis needs -n")
        basis = enumerate_basic_commutators(args.strands, args.order)
        _emit(args, {"rank": basis.rank, "order": basis.order,
                     "basis": [a.key() for a in basis.elements]},
              [a.key() for a in basis.elements])
        return EX_OK

    if args.command == "magnus":
        series = magnus_expand(parse_reduced_word(args.word, args.strands))
        payload = series.to_json()
        lines = [f"{key or '1'}: {value}" for key, value in payload["coefficients"].items()]
        _emit(args, payload, lines)
        return EX_OK

    if args.command == "nf":
        word = parse_reduced_word(args.word, args.strands)
        vec = rfg_normal_form(word, enumerate_basic_commutators(word.rank, args.order))
        payload = vec.to_json()
        lines = [f"{key}: {value}" for key, value in payload["coefficients"].items()]
        _emit(args, payload, lines or ["(identity)"])
        return EX_OK

    if args.command == "act":
        braid_text, word_text = args.braid, args.word
        if (letters := expanded_length(braid_text)) > MAX_BUILD_LETTERS:
            raise LimitError(f"braid of {letters} letters, above the limit of {MAX_BUILD_LETTERS}")
        n = args.strands
        if n is None:
            n = max(infer_strands(braid_text), parse_reduced_word(word_text).rank)
        image = artin_act(parse_braid_word(braid_text, n), parse_reduced_word(word_text, n))
        _emit(args, {"rank": n, "word": str(image)}, [str(image) or "(identity)"])
        return EX_OK

    if args.command == "gamma":
        from .gamma import gamma_matrix

        (braid,) = _braids(args, args.braid)
        matrix = gamma_matrix(braid, enumerate_basic_commutators(braid.strands, args.order))
        payload = matrix.to_json()
        lines = [" ".join(f"{v:4d}" for v in row) for row in payload["rows"]]
        _emit(args, payload, lines)
        return EX_OK

    if args.command == "braid-eq":
        from .gamma import braid_equal_lh

        equal = braid_equal_lh(*_braids(args, args.braid1, args.braid2))
        _emit(args, {"equal": equal}, ["true" if equal else "false"])
        return EX_OK if equal else EX_FALSE

    if args.command == "clasp":
        vector = extract_clasp_vector(*_braids(args, args.braid))
        payload = vector.to_json()
        lines = [f"{key}: {value}" for key, value in payload["nu"].items()]
        _emit(args, payload, lines or ["(trivial)"])
        return EX_OK

    if args.command == "build":
        vector = _load_vector(args.vector)
        word = clasp_vector_to_braid(vector)
        _emit(args, {"n": word.strands, "braid": unparse_braid_word(word)},
              [unparse_braid_word(word) or "(identity)"])
        return EX_OK

    if args.command == "pc":
        vector = _load_vector(args.vector)
        try:
            moved = partial_conjugate(
                vector, PartialConjugation(args.strand, args.conjugator, args.sign)
            )
        except BraidError as exc:
            raise _DataError(str(exc)) from exc
        payload = moved.to_json()
        lines = [f"{key}: {value}" for key, value in payload["nu"].items()]
        _emit(args, payload, lines or ["(trivial)"])
        return EX_OK

    if args.command == "closure-eq":
        v1 = _load_vector(args.vector1)
        v2 = _load_vector(args.vector2)
        try:
            verdict = closure_equivalent(v1, v2)
        except BraidError as exc:
            # rank mismatch or out-of-scope strand count in the input files
            raise _DataError(str(exc)) from exc
        lines = [verdict.status]
        if verdict.invariant:
            lines.append(f"separating invariant: {verdict.invariant}")
        if verdict.note:
            lines.append(verdict.note)
        with _unlimited_int_digits():
            # witness multipliers can pass the 4300-digit int-to-str cap
            lines.extend(
                f"move {m.table}#{m.row} x{m.multiplier}" for m in verdict.witness or ()
            )
            _emit(args, verdict.to_json(), lines)
        return {"equivalent": EX_OK, "distinct": EX_FALSE}.get(verdict.status, EX_UNKNOWN)

    if args.command == "tables":
        tables = move_tables()
        if args.table is not None:
            if args.table not in tables:
                raise _UsageError(f"unknown table {args.table!r}; have {sorted(tables)}")
            tables = {args.table: tables[args.table]}
        payload = {
            name: [row.to_json() for row in rows] for name, rows in sorted(tables.items())
        }
        lines = []
        for name, rows in sorted(tables.items()):
            lines.append(f"[{name}]")
            for row in rows:
                pc = f" pc={row.pc}" if row.pc else ""
                incs = "; ".join(
                    f"{'.'.join(map(str, t))} += "
                    + " + ".join(
                        ("-" if sign < 0 else "") + ".".join(map(str, s))
                        for s, sign in pairs
                    )
                    for t, pairs in row.increments
                )
                lines.append(f"  row {row.row}{pc}: {incs}")
        _emit(args, payload, lines)
        return EX_OK

    raise _UsageError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except (LimitError, _DataError) as exc:
        print(f"linkhom: {exc}", file=sys.stderr)
        return EX_DATA
    except (_UsageError, BraidError, RankError) as exc:
        print(f"linkhom: {exc}", file=sys.stderr)
        return EX_USAGE


if __name__ == "__main__":
    sys.exit(main())
