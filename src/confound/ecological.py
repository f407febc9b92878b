"""Between-group vs within-group association decomposition.

Group-level (ecological) associations can differ from — even oppose — the
individual-level association inside the groups (W. S. Robinson, 1950).
This module splits the population covariance of two numeric columns into a
between-group part (covariance of group means, weighted by group size) and
a within-group part (size-weighted mean of in-group covariances), and flags
sign divergence between the two.

Conventions: population (1/N) covariance throughout, so the split is an
exact identity; groups of size one contribute zero within-covariance;
correlations are ``None`` when the matching variance vanishes.

One core serves every decomposition, exact until a value is reported.
:class:`_Groups` reduces a block of rows at a time to integer sums: a
finite float is an integer over a power of two, so each column is taken as
integers at one power of two, and only each group's row count, x sum and y
sum and the all-row x·y, x² and y² sums are kept. The command line feeds it
the CSV's typed blocks, :func:`decompose` and :func:`group_means` a table's
stored columns as one block (:func:`_grouped`); the sums of a file's two
halves, read at once, merge through :meth:`_Groups.state` and
:meth:`_Groups.merge`. Each covariance, variance and group mean is one
integer ratio, rounded once and correctly, and each correlation comes from
the rounded moments. Building the groups checks nothing;
:meth:`_Groups.groups` checks the columns after the last block, so the
command's row faults come first.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import repeat
from operator import mul
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

    Each covariance is its exact value correctly rounded, and
    ``total_cov == between_cov + within_cov`` holds exactly before rounding.
    A correlation is ``None`` (undefined) when the corresponding x or y
    variance is zero.
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
    """The rows of a decomposition, reduced block by block to integer sums.

    Construction checks nothing: ``kinds`` maps each column name to its
    kind, in the order of a block's columns. While the group column is
    categorical and x and y are numeric, each block's x and y values become
    integers ``X`` and ``Y`` at the powers of two ``scales`` holds (x times
    ``2**scales[0]``, y times ``2**scales[1]``), which are summed into
    their group's ``[n, ΣX, ΣY]`` in ``sums`` and into the all-row ``[ΣXY,
    ΣXX, ΣYY]`` of ``products``; otherwise the rows are only counted, and
    :meth:`groups` will raise.
    """

    def __init__(self, kinds: dict[str, str], group_col: str, x_col: str, y_col: str):
        self.kinds = kinds
        self.columns = (group_col, x_col, y_col)
        self.n_rows = 0
        self.scales = [0, 0]
        self.products = [0, 0, 0]
        self.sums: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        wanted = ("categorical", "numeric", "numeric")
        index = {name: i for i, name in enumerate(kinds)}
        fits = tuple(map(kinds.get, self.columns)) == wanted
        self._index = [index[name] for name in self.columns] if fits else None

    def add(self, block) -> None:
        """Sum one block of rows, given as its columns, into their groups."""
        self.n_rows += len(block[0])
        if self._index is None:
            return
        labels, xs, ys = (block[i] for i in self._index)
        self._rescale(list(map(max, self.scales, map(_scale, (xs, ys)))))
        xs, ys = map(_integers, (xs, ys), self.scales)
        for i, (u, v) in enumerate(((xs, ys), (xs, xs), (ys, ys))):
            self.products[i] += sum(map(mul, u, v))
        sums = self.sums
        for label, x, y in zip(labels, xs, ys):
            s = sums[label]
            s[0] += 1
            s[1] += x
            s[2] += y

    def _rescale(self, scales: list[int]) -> None:
        """Shift the held sums up to ``scales``, none below the held ones."""
        dx, dy = map(int.__sub__, scales, self.scales)
        if dx or dy:
            self.scales = scales
            self.products = [p << k for p, k in zip(self.products, (dx + dy, 2 * dx, 2 * dy))]
            for s in self.sums.values():
                s[1:] = s[1] << dx, s[2] << dy

    def state(self) -> tuple:
        """The row count and integer sums, in types ``marshal`` writes, for
        :meth:`merge`."""
        return self.n_rows, self.scales, self.products, dict(self.sums)

    def merge(self, state: tuple) -> None:
        """Add the rows of another object of the same columns, given as its
        :meth:`state`, at the larger power of two of each column."""
        n_rows, scales, products, sums = state
        self.n_rows += n_rows
        self._rescale(list(map(max, self.scales, scales)))
        dx, dy = map(int.__sub__, self.scales, scales)
        shifts = (dx + dy, 2 * dx, 2 * dy)
        self.products = [p + (q << k) for p, q, k in zip(self.products, products, shifts)]
        for label, (size, a, b) in sums.items():
            s = self.sums[label]
            s[:] = s[0] + size, s[1] + (a << dx), s[2] + (b << dy)

    def groups(self) -> list[GroupSummary]:
        """Each group's summary, its means correctly rounded, ordered by
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
        sx, sy = self.scales
        return [
            GroupSummary(label, n, a / (n << sx), b / (n << sy))
            for label, (n, a, b) in sorted(self.sums.items())
        ]


def _scale(values: list[float]) -> int:
    """A power of two, at most 1074, at which every value is an integer: a
    float of frexp exponent ``e`` is a multiple of ``2**(e - 53)``, and of
    ``2**-1074``, so the least nonzero magnitude settles it."""
    least = min(filter(None, map(abs, values)), default=0.0)
    return max(0, min(1074, 53 - math.frexp(least)[1])) if least else 0


def _integers(values: list[float], scale: int) -> list[int]:
    """Each value times ``2**scale``, exactly: a float product where it is
    finite, else the value's integer ratio."""
    try:
        return list(map(int, map(mul, values, repeat(2.0**scale))))
    except OverflowError:  # 2.0**scale or a product past the float range
        ratios = map(float.as_integer_ratio, values)
        return [p << scale >> q.bit_length() - 1 for p, q in ratios]


def _grouped(records: RecordTable, group_col: str, x_col: str, y_col: str) -> _Groups:
    """A table's stored columns put into their groups, as one block."""
    groups = _Groups({c.name: c.kind for c in records.columns}, group_col, x_col, y_col)
    if records.columns:
        groups.add(records._data)
    else:  # rows of no cells, which no block holds
        groups.n_rows = records.n_rows
    return groups


def group_means(
    records: RecordTable, group_col: str, x_col: str, y_col: str
) -> list[GroupSummary]:
    """Per-group sizes and (x, y) means, ordered by group label."""
    return _grouped(records, group_col, x_col, y_col).groups()


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

    A covariance or variance past the float range raises
    :class:`NumericOverflow` rather than yield an infinite moment.
    """
    return _decomposition(_grouped(records, group_col, x_col, y_col))


def _decomposition(grouped: _Groups) -> EcologicalDecomposition:
    """:func:`decompose` of rows put into their groups: at least two rows,
    then the column checks, then the split.

    Over the integers (``N`` rows, group ``g`` of ``n_g`` rows and sums
    ``a_g`` and ``b_g`` of a column pair, ``L`` the lcm of the group
    sizes), each part times ``N²·L`` and the columns' powers of two is an
    integer: the total is ``L·(N·Σab − Σa·Σb)``, the within part
    ``N·(L·Σab − Σ_g (L/n_g)·a_g·b_g)``, and the between part their
    difference."""
    n = grouped.n_rows
    if n < 2:
        raise InsufficientData(f"need at least 2 rows to decompose, got {n}")
    groups = grouped.groups()
    by_size = defaultdict(lambda: (0, 0, 0))  # Σ a_g·b_g of each pair, by n_g
    for size, a, b in grouped.sums.values():
        by_size[size] = tuple(map(int.__add__, by_size[size], (a * b, a * a, b * b)))
    lcm = math.lcm(*by_size)
    x, y = (sum(s[i] for s in grouped.sums.values()) for i in (1, 2))
    sx, sy = grouped.scales
    moments = []  # (total, between, within) of each pair
    try:
        for i, (u, v, scale) in enumerate(((x, y, sx + sy), (x, x, 2 * sx), (y, y, 2 * sy))):
            total = lcm * (n * grouped.products[i] - u * v)
            groupwise = sum(lcm // size * t[i] for size, t in by_size.items())
            within = n * (lcm * grouped.products[i] - groupwise)
            moments.append([c / (n * n * lcm << scale) for c in (total, total - within, within)])
    except OverflowError:  # a moment past the float range
        _, x_col, y_col = grouped.columns
        raise NumericOverflow(_TOO_LARGE.format(x_col, y_col)) from None
    cov, var_x, var_y = moments
    return EcologicalDecomposition(*cov, *map(_corr, cov, var_x, var_y), tuple(groups))


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
