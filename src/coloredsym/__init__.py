"""Colored descent combinatorics with exact symmetric-function identities.

Core objects: compositions and colored compositions with their subset
encodings, colored permutations with descent statistics, zigzag diagrams and
their colored analogues, r-partite standard tableaux, the structural
bijections between them, exact multi-alphabet polynomials for Schur /
fundamental / complete homogeneous elements, and exhaustive verifiers for
the ribbon identities.
"""

from .compositions import (
    AugmentedSubset,
    ColoredComposition,
    ColoredSet,
    Composition,
    RainbowDecomposition,
    augmented_set_to_comp,
    coarsening_covers,
    coarsenings,
    colored_comp_to_colored_set,
    colored_set_to_colored_comp,
    comp_to_augmented_set,
    composition_coarsenings,
    enumerate_colored_compositions,
    enumerate_compositions,
    extend_color_vector,
    extend_set_color_vector,
    parse_colored_composition,
    rainbow_decomposition,
    refines,
)
from .permutations import (
    ColoredPermutation,
    Permutation,
    colored_descent_composition,
    colored_descent_set,
    conj_inverse,
    conjugate,
    descent_composition,
    descent_set,
    enumerate_colored_permutations,
    enumerate_permutations,
    identity_colored,
    identity_permutation,
    inverse,
    multiply,
    parse_colored_permutation,
    steingrimsson_descent_set,
)
from .shapes import (
    ColoredZigzagShape,
    RPartiteTableau,
    SkewShape,
    StandardTableau,
    ZigzagShape,
    colored_composition_shape,
    colored_zigzag_of,
    colored_zigzag_to_comp,
    direct_sum,
    enumerate_rpartite_partitions,
    enumerate_rpartite_syt,
    enumerate_skew_shapes,
    enumerate_syt,
    hook_length_count,
    partitions,
    rpartite_color_vector,
    rpartite_descent_composition,
    rpartite_descent_set,
    rpartite_shape_of,
    tableau_descent_set,
    zigzag_of,
)
from .bijections import (
    colored_class_to_tableau,
    colored_rsk,
    colored_rsk_inverse,
    colored_tableau_to_class,
    conj_inverse_descent_class,
    descent_class,
    descent_class_size,
    reading_word,
    reading_word_inverse,
)
from .symfun import (
    Expansion,
    MultiAlphabetPolynomial,
    colored_F,
    colored_h,
    colored_ribbon,
    colored_schur,
    e_poly,
    expand_in_colored_schur,
    fundamental_F,
    h_index_of_colored_comp,
    h_poly,
    is_symmetric_per_alphabet,
    qsym_generating_function,
    ribbon_f_expansion,
    ribbon_h_expansion,
    ribbon_schur_by_counting,
    ribbon_schur_by_peeling,
    schur_poly,
)
from .identities import (
    IDENTITY_REGISTRY,
    VerificationReport,
    run_identity,
    verify_colored_class_tableau,
    verify_colored_ribbon_h,
    verify_colored_ribbon_schur,
    verify_colored_rsk,
    verify_colored_zigzag_count,
    verify_reading_word_bijection,
    verify_ribbon_h_alternating,
    verify_ribbon_schur_positive,
    verify_skew_schur_f_expansion,
)

__version__ = "0.1.0"
