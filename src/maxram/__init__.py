"""Exact machinery for max-norm Ramsey-type geometry.

Core objects: finite metric spaces and their isometric copies under the
Chebyshev distance, baton extraction from dense grid subsets, verified
anchor sequences, periodic avoidance colorings, exact small-case
chromatic numbers, and cube coverings of discrete tori.
"""

from .anchors import (
    AnchorSequence,
    DirichletWitness,
    GammaSet,
    VerificationReport,
    anchor_sequence_at,
    approximation_bound_holds,
    build_anchor_sequence,
    dirichlet_approx,
    gamma_set,
    scaled_round,
    verify_anchor_sequence,
)
from .chromatic import (
    ColoringCertificate,
    CopyHypergraph,
    GridChromaticReport,
    copy_hypergraph,
    exact_chromatic,
    grid_chromatic,
    is_proper,
)
from .colorings import (
    PeriodicColoring,
    avoidance_coloring,
    cube_tiling_coloring,
    pigeonhole_lower_bound,
    upper_bound_value,
)
from .cover import (
    CnRow,
    CoverInstance,
    CoverSolution,
    cn_table,
    counting_lower_bound,
    exact_cover,
    greedy_cover,
    is_cover,
    random_cover_within_expectation,
    random_translates_cover,
)
from .errors import DimensionMismatch, DomainError, ParseError, PreconditionError
from .extraction import (
    AnchorSet,
    GridSubset,
    anchor_set_one_alpha,
    extract_general_baton,
    extract_unit_baton,
    shift_map,
)
from .metric import (
    Baton,
    CopyEmbedding,
    FiniteMetricSpace,
    PointSet,
    chebyshev_distance,
    connectivity_threshold,
    diameter,
    find_copies,
    frechet_embed,
    grid_points,
)
from .rational import ceil_div, format_rational, parse_rational
from .validate import ValidationReport, validate_certificate

__version__ = "0.1.0"

__all__ = [
    "AnchorSequence",
    "AnchorSet",
    "Baton",
    "CnRow",
    "ColoringCertificate",
    "CopyEmbedding",
    "CopyHypergraph",
    "CoverInstance",
    "CoverSolution",
    "DimensionMismatch",
    "DirichletWitness",
    "DomainError",
    "FiniteMetricSpace",
    "GammaSet",
    "GridChromaticReport",
    "GridSubset",
    "ParseError",
    "PeriodicColoring",
    "PointSet",
    "PreconditionError",
    "ValidationReport",
    "VerificationReport",
    "anchor_sequence_at",
    "anchor_set_one_alpha",
    "approximation_bound_holds",
    "avoidance_coloring",
    "build_anchor_sequence",
    "ceil_div",
    "chebyshev_distance",
    "cn_table",
    "connectivity_threshold",
    "copy_hypergraph",
    "counting_lower_bound",
    "cube_tiling_coloring",
    "diameter",
    "dirichlet_approx",
    "exact_chromatic",
    "exact_cover",
    "extract_general_baton",
    "extract_unit_baton",
    "find_copies",
    "format_rational",
    "frechet_embed",
    "gamma_set",
    "greedy_cover",
    "grid_chromatic",
    "grid_points",
    "is_cover",
    "is_proper",
    "parse_rational",
    "pigeonhole_lower_bound",
    "random_cover_within_expectation",
    "random_translates_cover",
    "scaled_round",
    "shift_map",
    "upper_bound_value",
    "validate_certificate",
    "verify_anchor_sequence",
]
