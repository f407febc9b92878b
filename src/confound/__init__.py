"""Confounding-analysis toolkit for stratified two-group comparisons.

Detects aggregation reversals (the amalgamation paradox) with exact integer
arithmetic, scans row-level data for covariates that induce them, dissolves
them by standardizing both groups against a common stratum weighting,
decomposes group-level vs individual-level associations, and renders the
vector-diagram picture of a comparison as deterministic SVG.
"""

from .detector import (
    Classification,
    Finding,
    ReversalReport,
    ScanConfig,
    SkippedCandidate,
    bin_numeric,
    detect_reversal,
    scan,
    stratify,
)
from .ecological import (
    DivergenceReport,
    EcologicalDecomposition,
    GroupSummary,
    decompose,
    group_means,
    sign_divergence_report,
)
from .errors import AnalysisError, ConfoundError, InputError
from .geometry import (
    GroupPath,
    RenderOptions,
    VectorDiagram,
    render_svg,
    slope_bounds,
    to_vectors,
)
from .records import Column, RecordTable
from .standardize import (
    StandardizedComparison,
    WeightVector,
    reference_weights,
    standardized_comparison,
    standardized_rate,
)
from .synth import brute_force_classify, generate_reversal, minimal_reversal
from .tables import (
    Counts,
    Direction,
    Rate,
    StratifiedComparison,
    Stratum,
    aggregate,
    compare,
    pooled_rate,
    rate,
    unweighted_mean_rate,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisError",
    "Classification",
    "Column",
    "ConfoundError",
    "Counts",
    "Direction",
    "DivergenceReport",
    "EcologicalDecomposition",
    "Finding",
    "GroupPath",
    "GroupSummary",
    "InputError",
    "Rate",
    "RecordTable",
    "RenderOptions",
    "ReversalReport",
    "ScanConfig",
    "SkippedCandidate",
    "StandardizedComparison",
    "StratifiedComparison",
    "Stratum",
    "VectorDiagram",
    "WeightVector",
    "aggregate",
    "bin_numeric",
    "brute_force_classify",
    "compare",
    "decompose",
    "detect_reversal",
    "generate_reversal",
    "group_means",
    "minimal_reversal",
    "pooled_rate",
    "rate",
    "reference_weights",
    "render_svg",
    "scan",
    "sign_divergence_report",
    "slope_bounds",
    "standardized_comparison",
    "standardized_rate",
    "stratify",
    "to_vectors",
    "unweighted_mean_rate",
]
