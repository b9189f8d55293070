"""Link-homotopy calculus for braids and links.

Decides link-homotopy questions symbolically: braid words act on the
reduced free group, the action linearises to a faithful integer matrix
representation, pure braids acquire a unique clasp-number normal form,
and partial-conjugation move tables classify braid closures for at most
4 components and for 5-component algebraically split links.
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
    BasicCommutator,
    CommutatorBasis,
    ExponentVector,
    MagnusSeries,
    RankError,
    ReducedWord,
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
from .gamma import (
    MAX_BASIS_SIZE,
    GammaMatrix,
    LimitError,
    StructureReport,
    admit_strands,
    braid_equal_lh,
    closed_form_generator_matrix,
    gamma_generator_closed_form,
    gamma_matrix,
    gamma_matrix_definitional,
    structure_report,
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
