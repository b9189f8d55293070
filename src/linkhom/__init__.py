"""Link-homotopy calculus for braids and links.

Decides link-homotopy questions symbolically: braid words act on the
reduced free group, the action linearises to a faithful integer matrix
representation, pure braids acquire a unique clasp-number normal form,
and partial-conjugation move tables classify braid closures for at most
4 components and for 5-component algebraically split links.

Only the matrix layer, :mod:`linkhom.gamma`, imports numpy.  Its public
names are resolved from it when used, so importing the package, or
running the clasper calculus on clasp vectors and move tables, does not
load numpy.
"""

from .braids import (
    BraidError,
    BraidWord,
    CertificationError,
    Permutation,
    PureGenerator,
    compose,
    delete_strand,
    delete_strands,
    expand_pure_generator,
    infer_strands,
    invert,
    parse_braid_word,
    permutation_of,
    pure_generator_word,
    unparse_braid_word,
)
from .reduced_free import (
    MAX_BASIS_SIZE,
    BasicCommutator,
    CommutatorBasis,
    ExponentVector,
    LimitError,
    MagnusSeries,
    RankError,
    ReducedWord,
    admit_strands,
    artin_act,
    basis_size_formula,
    commutator_word,
    enumerate_basic_commutators,
    magnus_expand,
    parse_reduced_word,
    rfg_equal,
    rfg_normal_form,
    series_invert,
    series_multiply,
    weight_size_formula,
)
from .claspers import (
    ClaspVector,
    CombClasper,
    clasp_vector_to_braid,
    comb_clasper_braid,
    enumerate_comb_claspers,
    extract_clasp_vector,
    read_clasp_numbers,
)
from .closure import (
    Move,
    MoveRow,
    OrbitVerdict,
    PartialConjugation,
    apply_table_move,
    closure_equivalent,
    get_row,
    milnor_triplet,
    move_tables,
    partial_conjugate,
    replay_witness,
)

__version__ = "0.1.0"

# Resolved from linkhom.gamma on access (PEP 562), so importing the package
# does not import numpy; never stored here, so they always read gamma's
# current bindings.
_GAMMA_NAMES = frozenset({
    "GammaMatrix",
    "StructureReport",
    "braid_equal_lh",
    "closed_form_generator_matrix",
    "gamma_generator_closed_form",
    "gamma_matrix",
    "gamma_matrix_definitional",
    "structure_report",
})


def __getattr__(name: str):
    if name in _GAMMA_NAMES:
        from . import gamma

        return getattr(gamma, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _GAMMA_NAMES)
