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
from collections import defaultdict
from itertools import chain, repeat
from math import fsum
from operator import mul, sub
from typing import TYPE_CHECKING

from .errors import (
    InsufficientData, NonNumeric, NumericOverflow, UndefinedCorrelation, ValidationError
)
from .tables import _Value

if TYPE_CHECKING:
    from .records import RecordTable

_TOO_LARGE = "columns {!r} and {!r} are too large for float moments"


class GroupSummary(_Value):
    """One group's label, size and x and y means."""

    label: str
    n: int
    mean_x: float
    mean_y: float


class EcologicalDecomposition(_Value):
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


class DivergenceReport(_Value):
    """Whether the between-group and within-group correlations have opposite signs."""

    divergent: bool
    between_corr: float
    within_corr: float

    @property
    def verdict(self) -> str:
        return "DIVERGENT" if self.divergent else "NOT_DIVERGENT"


def _grouped(
    records: RecordTable, group_col: str, x_col: str, y_col: str
) -> list[tuple[GroupSummary, list[float], list[float]]]:
    """Each group's summary with its x and y values, ordered by group label."""
    for col in (x_col, y_col):
        if records.kind(col) != "numeric":
            raise NonNumeric(f"column {col!r} is {records.kind(col)}, need numeric")
    if records.kind(group_col) != "categorical":
        raise ValidationError(f"group column {group_col!r} must be categorical")
    buckets: dict[str, tuple[list, list]] = defaultdict(lambda: ([], []))
    for group, x, y in zip(*map(records.values, (group_col, x_col, y_col))):
        gx, gy = buckets[group]
        gx.append(x)
        gy.append(y)
    return [
        (GroupSummary(label, len(gx), _mean(gx), _mean(gy)), gx, gy)
        for label, (gx, gy) in sorted(buckets.items())
    ]


def _mean(values: list[float]) -> float:
    """The mean of finite floats, which is always finite: ``math.fsum``
    raises when a partial sum leaves the float range, and then the exact
    sum is divided by the count, rounding once."""
    try:
        return fsum(values) / len(values)
    except OverflowError:
        return _exact_sum(values, repeat(1), len(values))


def group_means(
    records: RecordTable, group_col: str, x_col: str, y_col: str
) -> list[GroupSummary]:
    """Per-group sizes and (x, y) means, ordered by group label."""
    return [g for g, _, _ in _grouped(records, group_col, x_col, y_col)]


def _exact_sum(values: list[float], sizes, divisor: int = 1) -> float:
    """Σ size·value / divisor of finite floats, rounded once and correctly,
    as ``math.fsum`` rounds: a float is an integer over a power of two, so
    the sum is an integer over the largest; :class:`OverflowError` when the
    result is past the float range or a value is infinite, and
    :class:`ValueError` when one is NaN."""
    ratios = list(map(float.as_integer_ratio, values))
    den = max(q for _, q in ratios)
    return sum(k * p * (den // q) for (p, q), k in zip(ratios, sizes)) / (den * divisor)


def _centered(groups: list[list[float]], sizes: list[int], n: int):
    """One variable's values, group by group, centered on their mean; each
    group's mean of the centered values; and each group's between value,
    its mean centered again on the rows' mean of those means, which the
    rounded overall mean leaves off zero. A single group has no
    between-group spread, so its mean is zero rather than that rounding
    residue."""
    mean = fsum(chain.from_iterable(groups)) / n
    centered = [list(map(sub, g, repeat(mean))) for g in groups]
    means = [fsum(c) / len(c) for c in centered] if len(groups) > 1 else [0.0]
    offset = _exact_sum(means, sizes) / n
    return centered, means, [m - offset for m in means]


def _moments(us, vs, n: int) -> tuple[float, float, float]:
    """Population covariance and variances ``(cov, var_u, var_v)`` of two
    centered columns of ``n`` rows, each a list of its groups' values. Every
    sum is exactly rounded, so neither row order nor Python version changes it."""
    pairs = ((us, vs), (us, us), (vs, vs))
    rows = chain.from_iterable
    return tuple(fsum(map(mul, rows(a), rows(b))) / n for a, b in pairs)


def _between_moments(us, vs, sizes: list[int], n: int) -> tuple[float, float, float]:
    """:func:`_moments` of two between columns, each a list of one value per
    group that stands for the group's rows, summed per group."""
    pairs = ((us, vs), (us, us), (vs, vs))
    return tuple(_exact_sum(list(map(mul, a, b)), sizes) / n for a, b in pairs)


def _corr(cov: float, var_x: float, var_y: float) -> float | None:
    if var_x <= 0.0 or var_y <= 0.0:
        return None
    # a root apiece: var_x * var_y can underflow to 0, a product of the
    # roots of two positive floats cannot
    r = cov / (math.sqrt(var_x) * math.sqrt(var_y))
    return max(-1.0, min(1.0, r))


def decompose(
    records: RecordTable, group_col: str, x_col: str, y_col: str
) -> EcologicalDecomposition:
    """Split the total x-y covariance into between- and within-group parts.

    Values whose sums or products leave the float range raise
    :class:`NumericOverflow` rather than yield infinite or NaN moments.
    """
    n = records.n_rows
    if n < 2:
        raise InsufficientData(f"need at least 2 rows to decompose, got {n}")
    groups = _grouped(records, group_col, x_col, y_col)
    sizes = [g.n for g, _, _ in groups]
    try:
        cx, mx, bx = _centered([gx for _, gx, _ in groups], sizes, n)
        cy, my, by = _centered([gy for _, _, gy in groups], sizes, n)
        total, between = _moments(cx, cy, n), _between_moments(bx, by, sizes, n)
        # within = centered - group mean, in place: no second column is held
        for c, m in zip(cx + cy, mx + my):
            c[:] = map(sub, c, repeat(m))
        within = _moments(cx, cy, n)
    except (OverflowError, ValueError):  # a sum past the float range, inf or nan
        raise NumericOverflow(_TOO_LARGE.format(x_col, y_col)) from None
    if not all(map(math.isfinite, total + between + within)):
        raise NumericOverflow(_TOO_LARGE.format(x_col, y_col))
    return EcologicalDecomposition(
        total[0], between[0], within[0],
        _corr(*total), _corr(*between), _corr(*within),
        tuple(g for g, _, _ in groups),
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
