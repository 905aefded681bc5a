"""Boolean permutations, Bruhat ideal intersections, matchings, and grades
of simple incidence-algebra modules, all in exact arithmetic."""

from .permcore import (
    Permutation,
    ReducedWord,
    all_permutations,
    boolean_permutations,
    canonical_reduced_word,
    descents,
    enumerate_reduced_words,
    is_boolean,
    parse_permutation,
    support,
)
from .bruhat import (
    BruhatIdeal,
    RunWord,
    bruhat_leq,
    intersect_ideals,
    maximal_elements,
    principal_ideal,
)
from .boolean_intersect import (
    Orientation,
    intersection_maximal_closed_form,
    maximal_selfish,
    obstructions,
    orientation,
    selfish_count,
)
from .runs_matching import (
    MatchingCertificate,
    build_matching,
    optimal_partner,
    optimal_rank,
    run_decompose,
    slim,
)
from .rs_afunction import YoungShape, a_function, longest_parabolic_element, rs_shape
from .bgg_homology import (
    GradeReport,
    RestrictedComplex,
    SignAssignment,
    build_sign_assignment,
    grade,
    homology_ranks,
    is_longest_parabolic_element,
    is_perfect,
    restricted_complex,
)

__all__ = [
    "Permutation",
    "ReducedWord",
    "all_permutations",
    "boolean_permutations",
    "canonical_reduced_word",
    "descents",
    "enumerate_reduced_words",
    "is_boolean",
    "parse_permutation",
    "support",
    "BruhatIdeal",
    "RunWord",
    "bruhat_leq",
    "intersect_ideals",
    "maximal_elements",
    "principal_ideal",
    "Orientation",
    "intersection_maximal_closed_form",
    "maximal_selfish",
    "obstructions",
    "orientation",
    "selfish_count",
    "MatchingCertificate",
    "build_matching",
    "optimal_partner",
    "optimal_rank",
    "run_decompose",
    "slim",
    "YoungShape",
    "a_function",
    "longest_parabolic_element",
    "rs_shape",
    "GradeReport",
    "RestrictedComplex",
    "SignAssignment",
    "build_sign_assignment",
    "grade",
    "homology_ranks",
    "is_longest_parabolic_element",
    "is_perfect",
    "restricted_complex",
]

__version__ = "0.1.0"
