"""Between-group vs within-group association decomposition.

Group-level (ecological) associations can differ from — even oppose — the
individual-level association inside the groups. This module splits the
population covariance of two numeric columns into a between-group part
(covariance of group means, weighted by group size) and a within-group part
(size-weighted mean of in-group covariances), and flags sign divergence
between the two.

Conventions: population (1/N) covariance throughout, so the split is an
exact identity; groups of size one contribute zero within-covariance;
correlations are ``None`` when the matching variance vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    InsufficientData,
    NonNumeric,
    NumericOverflow,
    UndefinedCorrelation,
)
from .records import RecordTable


@dataclass(frozen=True)
class GroupSummary:
    label: str
    n: int
    mean_x: float
    mean_y: float


@dataclass(frozen=True)
class EcologicalDecomposition:
    """Covariance split plus the matching correlations.

    ``total_cov == between_cov + within_cov`` holds exactly up to float
    rounding. A correlation is ``None`` (undefined) when the corresponding
    x or y variance is zero.
    """

    total_cov: float
    between_cov: float
    within_cov: float
    total_corr: float | None
    between_corr: float | None
    within_corr: float | None
    group_summaries: tuple[GroupSummary, ...]


@dataclass(frozen=True)
class DivergenceReport:
    divergent: bool
    between_corr: float
    within_corr: float

    @property
    def verdict(self) -> str:
        return "DIVERGENT" if self.divergent else "NOT_DIVERGENT"


def _numeric_values(records: RecordTable, col: str) -> list[float]:
    if records.kind(col) != "numeric":
        raise NonNumeric(f"column {col!r} is {records.kind(col)}, need numeric")
    return list(map(float, records.values(col)))


def _grouped(
    records: RecordTable, group_col: str, x_col: str, y_col: str
) -> tuple[list[float], list[float], list[tuple[GroupSummary, list]]]:
    """The x and y columns, and each group's summary with its (x, y)
    points, ordered by group label."""
    xs = _numeric_values(records, x_col)
    ys = _numeric_values(records, y_col)
    buckets: dict[str, list[tuple[float, float]]] = {}
    for group, x, y in zip(records.values(group_col), xs, ys):
        buckets.setdefault(str(group), []).append((x, y))
    groups = []
    for label, pts in sorted(buckets.items()):
        m = len(pts)
        gx, gy = sum(p[0] for p in pts) / m, sum(p[1] for p in pts) / m
        groups.append((GroupSummary(label, m, gx, gy), pts))
    return xs, ys, groups


def group_means(
    records: RecordTable, group_col: str, x_col: str, y_col: str
) -> list[GroupSummary]:
    """Per-group sizes and (x, y) means, ordered by group label."""
    return [g for g, _ in _grouped(records, group_col, x_col, y_col)[2]]


def _corr(cov: float, var_x: float, var_y: float) -> float | None:
    if var_x <= 0.0 or var_y <= 0.0:
        return None
    # sqrt each factor first: var_x * var_y can underflow to 0 even when
    # both variances are positive
    denom = math.sqrt(var_x) * math.sqrt(var_y)
    if denom == 0.0:
        return None
    r = cov / denom
    return max(-1.0, min(1.0, r))


def decompose(
    records: RecordTable, group_col: str, x_col: str, y_col: str
) -> EcologicalDecomposition:
    """Split the total x-y covariance into between- and within-group parts.

    Values whose sums or squares leave the float range raise
    :class:`NumericOverflow` rather than yield infinite or NaN moments.
    """
    if records.n_rows < 2:
        raise InsufficientData(
            f"need at least 2 rows to decompose, got {records.n_rows}"
        )
    xs, ys, groups = _grouped(records, group_col, x_col, y_col)
    n = records.n_rows
    overflow = NumericOverflow(
        f"columns {x_col!r} and {y_col!r} are too large for float moments"
    )
    try:
        mean_x = sum(xs) / n
        mean_y = sum(ys) / n
        total_cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / n
        var_x = sum((x - mean_x) ** 2 for x in xs) / n
        var_y = sum((y - mean_y) ** 2 for y in ys) / n

        between_cov = within_cov = 0.0
        bvar_x = bvar_y = wvar_x = wvar_y = 0.0
        for g, pts in groups:
            m, gx, gy = g.n, g.mean_x, g.mean_y
            share = m / n
            between_cov += share * (gx - mean_x) * (gy - mean_y)
            bvar_x += share * (gx - mean_x) ** 2
            bvar_y += share * (gy - mean_y) ** 2
            within_cov += share * (sum((p[0] - gx) * (p[1] - gy) for p in pts) / m)
            wvar_x += share * (sum((p[0] - gx) ** 2 for p in pts) / m)
            wvar_y += share * (sum((p[1] - gy) ** 2 for p in pts) / m)
    except OverflowError:
        raise overflow from None
    moments = (
        total_cov, var_x, var_y, between_cov, bvar_x, bvar_y, within_cov, wvar_x, wvar_y
    )
    if not all(map(math.isfinite, moments)):
        raise overflow

    return EcologicalDecomposition(
        total_cov=total_cov,
        between_cov=between_cov,
        within_cov=within_cov,
        total_corr=_corr(total_cov, var_x, var_y),
        between_corr=_corr(between_cov, bvar_x, bvar_y),
        within_corr=_corr(within_cov, wvar_x, wvar_y),
        group_summaries=tuple(g for g, _ in groups),
    )


def sign_divergence_report(d: EcologicalDecomposition) -> DivergenceReport:
    """Flag strictly opposite signs of the between- and within-correlations.

    Both correlations must be defined; a zero correlation on either side is
    not a sign, so it never counts as divergent.
    """
    if d.between_corr is None or d.within_corr is None:
        missing = [
            name
            for name, v in (("between", d.between_corr), ("within", d.within_corr))
            if v is None
        ]
        raise UndefinedCorrelation(
            f"{' and '.join(missing)} correlation undefined (zero variance)"
        )
    divergent = d.between_corr * d.within_corr < 0.0
    return DivergenceReport(divergent, d.between_corr, d.within_corr)
