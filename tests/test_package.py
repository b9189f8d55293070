"""The package's public names, with the matrix layer's resolved on first use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import linkhom
from linkhom import gamma

PUBLIC_NAMES = (
    "BasicCommutator", "BraidError", "BraidWord", "CertificationError", "ClaspVector",
    "CombClasper", "CommutatorBasis", "ExponentVector", "GammaMatrix", "LimitError",
    "MAX_BASIS_SIZE", "MagnusSeries", "Move", "MoveRow", "OrbitVerdict",
    "PartialConjugation", "Permutation", "PureGenerator", "RankError", "ReducedWord",
    "admit_strands", "apply_table_move", "artin_act", "basis_size_formula",
    "braid_equal_lh", "clasp_vector_to_braid", "closed_form_generator_matrix",
    "closure_equivalent", "comb_clasper_braid", "commutator_word", "compose",
    "delete_strand", "delete_strands", "enumerate_basic_commutators",
    "enumerate_comb_claspers", "expand_pure_generator", "extract_clasp_vector",
    "gamma_generator_closed_form", "gamma_matrix", "get_row", "infer_strands", "invert",
    "magnus_expand", "move_tables", "parse_braid_word", "parse_reduced_word",
    "partial_conjugate", "permutation_of", "pure_generator_word", "read_clasp_numbers",
    "replay_witness", "rfg_normal_form", "series_multiply", "unparse_braid_word",
)
GAMMA_NAMES = (
    "GammaMatrix", "braid_equal_lh", "closed_form_generator_matrix",
    "gamma_generator_closed_form", "gamma_matrix",
)
# test oracles, kept in tests/word_oracle.py and tests/test_reduced_free.py
REMOVED_NAMES = (
    "StructureReport", "structure_report", "gamma_matrix_definitional", "rfg_equal",
    "weight_size_formula", "milnor_triplet",
)


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_public_name_resolves(name):
    namespace = {}
    exec(f"from linkhom import {name}", namespace)
    assert namespace[name] is getattr(linkhom, name)
    assert name in dir(linkhom)
    if name in GAMMA_NAMES:
        assert namespace[name] is getattr(gamma, name)


def test_unknown_names_are_still_errors():
    for name in ("no_such_name",) + REMOVED_NAMES:
        with pytest.raises(ImportError):
            exec(f"from linkhom import {name}", {})
        with pytest.raises(AttributeError):
            getattr(linkhom, name)
        assert name not in dir(linkhom), name
    # nor does the matrix layer keep an oracle or re-export the size limit
    for name in ("gamma_matrix_definitional", "structure_report", "StructureReport",
                 "LimitError", "MAX_BASIS_SIZE", "admit_strands"):
        assert not hasattr(gamma, name), name


def test_cli_runs_as_a_module_without_warnings():
    # runpy warns when the package has already imported linkhom.cli
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "linkhom.cli", "tables"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("[n3-partial-conjugations]")


def test_no_assert_statements_in_the_package():
    # certificate checks must raise real exceptions: python -O strips assert
    found = []
    for path in sorted(Path(linkhom.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_every_import_is_read():
    # a name a module imports but never reads is a leftover: the package
    # root is exempt, as it imports to re-export
    unread = []
    for path in sorted(Path(linkhom.__file__).parent.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name != "annotations" and name not in read:
                        unread.append(f"{path.name}:{node.lineno} {name}")
    assert not unread, unread
