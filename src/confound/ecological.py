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

One core serves every decomposition. :class:`_Groups` puts a block of rows
at a time into their groups, each group's x and y values in row order: the
command line feeds it the CSV's typed blocks, :func:`decompose` and
:func:`group_means` a table's stored columns as one block (:func:`_grouped`).
The groups of a file's two halves, read at once, merge through
:meth:`_Groups.state` and :meth:`_Groups.merge`.
Building the groups checks nothing; :meth:`_Groups.groups` checks the
columns after the last block, so the command's row faults come first.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import chain, repeat
from math import fsum
from operator import mul, sub
from typing import TYPE_CHECKING

from .errors import (
    InsufficientData,
    NonNumeric,
    NumericOverflow,
    UndefinedCorrelation,
    UnknownColumn,
    ValidationError,
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


class _Groups:
    """The rows of a decomposition, put into their groups block by block.

    Construction checks nothing: ``kinds`` maps each column name to its
    kind, in the order of a block's columns. While the group column is
    categorical and x and y are numeric, each block's x and y values are
    appended to their group's lists, in row order; otherwise the rows are
    only counted, and :meth:`groups` will raise.
    """

    def __init__(self, kinds: dict[str, str], group_col: str, x_col: str, y_col: str):
        self.kinds = kinds
        self.columns = (group_col, x_col, y_col)
        self.n_rows = 0
        self.buckets: dict[str, tuple[list[float], list[float]]] = defaultdict(
            lambda: ([], [])
        )
        wanted = ("categorical", "numeric", "numeric")
        index = {name: i for i, name in enumerate(kinds)}
        fits = tuple(map(kinds.get, self.columns)) == wanted
        self._index = [index[name] for name in self.columns] if fits else None

    def add(self, block) -> None:
        """Put one block of rows, given as its columns, into their groups."""
        self.n_rows += len(block[0])
        if self._index is None:
            return
        labels, xs, ys = (block[i] for i in self._index)
        for (gx, gy), x, y in zip(map(self.buckets.__getitem__, labels), xs, ys):
            gx.append(x)
            gy.append(y)

    def state(self) -> tuple:
        """The rows put into their groups, in types ``marshal`` writes, for
        :meth:`merge`."""
        return self.n_rows, dict(self.buckets)

    def merge(self, state: tuple) -> None:
        """Put into their groups, after this object's rows, those of another
        of the same columns, given as its :meth:`state`."""
        n_rows, buckets = state
        self.n_rows += n_rows
        for label, (xs, ys) in buckets.items():
            gx, gy = self.buckets[label]
            gx += xs
            gy += ys

    def groups(self) -> list[tuple[GroupSummary, list[float], list[float]]]:
        """Each group's summary with its x and y values, ordered by group
        label, after the column checks: x, then y, numeric, then the group
        column categorical."""
        def kind(col: str) -> str:
            if col not in self.kinds:
                raise UnknownColumn(f"no column named {col!r}")
            return self.kinds[col]

        group_col, x_col, y_col = self.columns
        for col in (x_col, y_col):
            if kind(col) != "numeric":
                raise NonNumeric(f"column {col!r} is {kind(col)}, need numeric")
        if kind(group_col) != "categorical":
            raise ValidationError(f"group column {group_col!r} must be categorical")
        return [
            (GroupSummary(label, len(gx), _mean(gx), _mean(gy)), gx, gy)
            for label, (gx, gy) in sorted(self.buckets.items())
        ]


def _grouped(records: RecordTable, group_col: str, x_col: str, y_col: str) -> _Groups:
    """A table's stored columns put into their groups, as one block."""
    groups = _Groups({c.name: c.kind for c in records.columns}, group_col, x_col, y_col)
    if records.columns:
        groups.add(records._data)
    else:  # rows of no cells, which no block holds
        groups.n_rows = records.n_rows
    return groups


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
    return [g for g, _, _ in _grouped(records, group_col, x_col, y_col).groups()]


def _exact_sum(values: list[float], sizes, divisor: int = 1) -> float:
    """Σ size·value / divisor of finite floats, rounded once and correctly,
    as ``math.fsum`` rounds: a float is an integer over a power of two, so
    the sum is an integer over the largest; :class:`OverflowError` when the
    result is past the float range or a value is infinite, and
    :class:`ValueError` when one is NaN."""
    ratios = list(map(float.as_integer_ratio, values))
    den = max(q for _, q in ratios)
    return sum(k * p * (den // q) for (p, q), k in zip(ratios, sizes)) / (den * divisor)


def _centered(groups: list[list[float]], sizes: list[int]):
    """One variable's values, group by group (``groups``, of ``sizes``
    rows), centered on their mean, which ``math.fsum`` rounds exactly, so it
    is the same in row or group order; each group's mean of the centered
    values; and each group's between value, its mean centered again on the
    rows' mean of those means, which the rounded overall mean leaves off
    zero. A single group has no between-group spread, so its mean is zero
    rather than that rounding residue."""
    n = sum(sizes)
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
    return _decomposition(_grouped(records, group_col, x_col, y_col))


def _decomposition(grouped: _Groups) -> EcologicalDecomposition:
    """:func:`decompose` of rows put into their groups: at least two rows,
    then the column checks, then the split."""
    n = grouped.n_rows
    if n < 2:
        raise InsufficientData(f"need at least 2 rows to decompose, got {n}")
    groups = grouped.groups()
    _, x_col, y_col = grouped.columns
    sizes = [g.n for g, _, _ in groups]
    try:
        cx, mx, bx = _centered([gx for _, gx, _ in groups], sizes)
        cy, my, by = _centered([gy for _, _, gy in groups], sizes)
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
