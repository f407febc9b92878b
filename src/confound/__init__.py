"""Confounding-analysis toolkit for stratified two-group comparisons.

Detects aggregation reversals (the amalgamation paradox) with exact integer
arithmetic, scans row-level data for covariates that induce them, dissolves
them by standardizing both groups against a common stratum weighting,
decomposes group-level vs individual-level associations, and renders the
vector-diagram picture of a comparison as deterministic SVG.

Each public name loads its module on first use (PEP 562), so a process
imports only the modules it touches.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name and the submodule that defines it
_EXPORTS = {
    "AnalysisError": "errors",
    "Classification": "detector",
    "Column": "records",
    "ConfoundError": "errors",
    "Counts": "tables",
    "Direction": "tables",
    "DivergenceReport": "ecological",
    "EcologicalDecomposition": "ecological",
    "Finding": "scanning",
    "GroupPath": "geometry",
    "GroupSummary": "ecological",
    "InputError": "errors",
    "Rate": "tables",
    "RecordTable": "records",
    "RenderOptions": "geometry",
    "ReversalReport": "detector",
    "ScanConfig": "scanning",
    "SkippedCandidate": "scanning",
    "StandardizedComparison": "standardize",
    "StratifiedComparison": "tables",
    "Stratum": "tables",
    "VectorDiagram": "geometry",
    "WeightVector": "standardize",
    "aggregate": "tables",
    "bin_numeric": "scanning",
    "compare": "tables",
    "decompose": "ecological",
    "detect_reversal": "detector",
    "generate_reversal": "synth",
    "group_means": "ecological",
    "minimal_reversal": "synth",
    "pooled_rate": "tables",
    "rate": "tables",
    "reference_weights": "standardize",
    "render_svg": "geometry",
    "scan": "scanning",
    "sign_divergence_report": "ecological",
    "standardized_comparison": "standardize",
    "standardized_rate": "standardize",
    "stratify": "scanning",
    "to_vectors": "geometry",
}
_SUBMODULES = {*_EXPORTS.values(), "cli"}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
