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
    "StructureReport", "admit_strands", "apply_table_move", "artin_act",
    "basis_size_formula", "braid_equal_lh", "clasp_vector_to_braid",
    "closed_form_generator_matrix", "closure_equivalent", "comb_clasper_braid",
    "commutator_word", "compose", "delete_strand", "delete_strands",
    "enumerate_basic_commutators", "enumerate_comb_claspers", "expand_pure_generator",
    "extract_clasp_vector", "gamma_generator_closed_form", "gamma_matrix",
    "gamma_matrix_definitional", "get_row", "infer_strands", "invert", "magnus_expand",
    "milnor_triplet", "move_tables", "parse_braid_word", "parse_reduced_word",
    "partial_conjugate", "permutation_of", "pure_generator_word", "read_clasp_numbers",
    "replay_witness", "rfg_equal", "rfg_normal_form", "series_multiply",
    "structure_report", "unparse_braid_word", "weight_size_formula",
)
GAMMA_NAMES = (
    "GammaMatrix", "StructureReport", "braid_equal_lh", "closed_form_generator_matrix",
    "gamma_generator_closed_form", "gamma_matrix", "gamma_matrix_definitional",
    "structure_report",
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
    with pytest.raises(ImportError):
        exec("from linkhom import no_such_name", {})
    with pytest.raises(AttributeError):
        linkhom.no_such_name


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
