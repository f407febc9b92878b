"""Record-level confounder scanning.

The scan takes row-level records, stratifies them by each candidate
covariate (categorical passthrough or numeric binning), and reports which
candidates induce a reversal, as :mod:`confound.detector` classifies it.
Scan-wide faults (options, group and outcome columns) raise; candidate
faults become skip records, and :func:`stratify` is one candidate that
raises instead. The result order is deterministic regardless of evaluation
order.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from itertools import accumulate, compress
from operator import add, not_
from typing import TYPE_CHECKING, Iterable, Literal, Sequence, Union

from .detector import Classification, ReversalReport, detect_reversal
from .errors import (
    AllStrataFiltered,
    ConfoundError,
    EmptyCandidates,
    NotTwoGroups,
    NumericOverflow,
    TooFewDistinctValues,
    ValidationError,
)
from .tables import StratifiedComparison, _flag, _integer, _Value

if TYPE_CHECKING:
    from .records import RecordTable


# ---------------------------------------------------------------------------
# Stratification of row-level records (see :mod:`confound.records`)


BinStrategy = Literal["quantile", "equal_width"]
# a binning builds bins - 1 edges and bins labels whatever the row count, and
# a scan prints every edge, so the bin count is bounded
MAX_BINS = 10_000


def bin_numeric(
    values: Sequence[float], strategy: BinStrategy = "quantile", k: int = 4
) -> list[float]:
    """Interior edges (k-1 of them) splitting ``values`` into k bins.

    Bins are left-closed and right-open except the last, which is closed.
    Quantile edges use linear interpolation on the sorted data and require
    at least k distinct values; equal-width edges require a non-degenerate
    range. Each value is an int or a float, not a bool, as in a numeric
    :class:`RecordTable` column.
    """
    ScanConfig(strategy, k)
    values = list(values)
    if not set(map(type, values)) <= {float, int}:
        for v in values:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValidationError(f"expected a number, got {v!r}")
    try:
        vals = list(map(float, values))
    except OverflowError:  # an int past the float range
        vals = [math.inf]
    if not all(map(math.isfinite, vals)):
        raise ValidationError("values must be finite")
    return _edges(Counter(vals), strategy, k, vals)


def _edges(
    counts: dict[float, int], strategy: str, k: int, values: Iterable[float]
) -> list[float]:
    """:func:`bin_numeric`'s edges from each distinct value's row count.
    ``values`` (the rows, in order) is read only when zeros are among them.
    An edge past the float range is a :class:`NumericOverflow`."""
    if strategy == "quantile":
        if len(counts) < k:
            raise TooFewDistinctValues(
                f"quantile binning into {k} bins needs at least {k} distinct "
                f"values, got {len(counts)}"
            )
        edges = _quantiles(counts, k, values)
    else:
        if len(counts) < 2:
            raise TooFewDistinctValues("all values are identical")
        lo, hi = min(counts), max(counts)
        edges = [lo + (hi - lo) * j / k for j in range(1, k)]
    if not all(map(math.isfinite, edges)):
        raise NumericOverflow(f"{strategy} bin edges overflow the float range: {edges}")
    return edges


def _quantiles(counts: dict[float, int], k: int, values: Iterable[float]) -> list[float]:
    """``statistics.quantiles(values, n=k, method="inclusive")`` by its own
    formula, reading each order statistic off the distinct values' counts
    rather than a sorted copy of the rows."""
    distinct = sorted(counts)
    ends = list(accumulate(map(counts.__getitem__, distinct)))  # rows up to each value
    # sorted() keeps equal values in row order, and -0.0 == 0.0, so the
    # zeros' signs in the sorted rows are those of the zero rows in order
    zeros = [v for v in values if v == 0] if 0 in counts else []

    def nth(j: int) -> float:  # sorted(values)[j]
        i = bisect_right(ends, j)
        if distinct[i] == 0:
            return zeros[j - (ends[i - 1] if i else 0)]
        return distinct[i]

    m = ends[-1] - 1
    edges = []
    for i in range(1, k):
        j, delta = divmod(i * m, k)
        edges.append((nth(j) * (k - delta) + nth(j + 1) * delta) / k)
    return edges


def _bin_label(i: int, lo: float, hi: float, last: bool) -> str:
    close = "]" if last else ")"
    return f"bin{i:02d} [{lo:.6g}, {hi:.6g}{close}"


def _binned(
    tallies: list[tuple[Counter, Counter]], column: Sequence[float], strategy: str, k: int
) -> tuple[list[tuple[Counter, Counter]], list[str], str]:
    """Each group's ``(totals, positives)`` tally of ``column`` re-keyed by
    bin, with the bin labels and the binning's description. Each distinct
    value is binned once; its key in the row counts is its first row's value
    (-0.0 or 0.0), which is what ``min`` and ``max`` over the rows return."""
    rows = Counter()
    for totals, _ in tallies:
        rows.update(totals)
    if 0 in rows:
        rows[column[column.index(0)]] = rows.pop(0)
    edges = _edges(rows, strategy, k, column)
    bounds = [min(rows), *edges, max(rows)]
    labels = [_bin_label(i, *bounds[i : i + 2], i == k - 1) for i in range(k)]
    bin_of = {value: bisect_right(edges, value) for value in rows}

    def by_bin(tally: Counter) -> Counter:
        binned = Counter()
        for value, n in tally.items():
            binned[bin_of[value]] += n
        return binned

    binned = [(by_bin(totals), by_bin(positives)) for totals, positives in tallies]
    return binned, labels, f"{strategy} k={k} edges={[round(e, 6) for e in edges]}"


def _sides(
    records: RecordTable, group_col: str, outcome_col: str
) -> tuple[list, list[tuple[list[bool], list[bool]]]]:
    """The two sorted group labels, and for each group its row selector and
    its rows' outcomes: the one check of the group and outcome columns."""
    if records.kind(group_col) != "categorical":
        raise ValidationError(f"group column {group_col!r} must be categorical")
    if records.kind(outcome_col) != "boolean":
        raise ValidationError(f"outcome column {outcome_col!r} must be boolean")
    group = records._cells(group_col)
    groups = sorted(set(group))
    if len(groups) != 2:
        raise NotTwoGroups(
            f"group column {group_col!r} must take exactly two values, "
            f"found {len(groups)}: {groups}"
        )
    first = list(map({groups[0]: True, groups[1]: False}.__getitem__, group))
    outcome = records._cells(outcome_col)
    selectors = (first, list(map(not_, first)))
    return groups, [(select, list(compress(outcome, select))) for select in selectors]


def _stratified(
    records: RecordTable, covariate: str, sides: list, config: ScanConfig
) -> tuple[list[list], str]:
    """Stratify records by one covariate into the columns of a
    :class:`StratifiedComparison` (see :meth:`StratifiedComparison._fill`),
    plus a binning description. The covariate's kind alone picks the strata:
    categorical labels pass through, numeric values are binned by ``config``.

    ``sides`` is each group's row selector and outcomes from :func:`_sides`.
    Strata with no rows at all are never formed (numeric bins can be empty);
    strata smaller than ``config.min_stratum_size`` are dropped. A stratum
    may still be empty on one side, which building the comparison rejects.
    """
    kind = records.kind(covariate)
    if kind == "boolean":
        raise ValidationError(
            f"covariate {covariate!r} is boolean; numeric binning needs a numeric column"
        )
    column = records._cells(covariate)
    tallies = []
    for select, outcome in sides:
        part = list(compress(column, select))
        tallies.append((Counter(part), Counter(compress(part, outcome))))
    labels, description = None, "categorical"
    if kind == "numeric":
        tallies, labels, description = _binned(tallies, column, config.binning, config.bins)
    (total1, positive1), (total2, positive2) = tallies
    size = config.min_stratum_size
    keys = sorted(total1.keys() | total2.keys())
    keys = [key for key in keys if total1[key] + total2[key] >= size]
    if not keys:
        raise AllStrataFiltered(f"every stratum of {covariate!r} is smaller than {size}")
    names = keys if labels is None else list(map(labels.__getitem__, keys))
    tallies = (total1, positive1, total2, positive2)
    return [names, *(list(map(t.__getitem__, keys)) for t in tallies)], description


def stratify(
    records: RecordTable,
    group_col: str,
    outcome_col: str,
    covariate: str,
    *,
    binning: BinStrategy = "quantile",
    bins: int = 4,
) -> StratifiedComparison:
    """Build a StratifiedComparison from records, stratified by a covariate:
    one candidate of :func:`scan` under ``ScanConfig(binning, bins)``, raising
    where the scan would skip. Categorical strata are ordered lexicographically,
    numeric strata in bin order, and the two group labels lexicographically."""
    config = ScanConfig(binning, bins)
    for name in (group_col, outcome_col, covariate):
        records.column_index(name)
    groups, sides = _sides(records, group_col, outcome_col)
    columns = _stratified(records, covariate, sides, config)[0]
    return StratifiedComparison._of_columns(*groups, *columns)


# ---------------------------------------------------------------------------
# Covariate scan


class ScanConfig(_Value):
    """How :func:`scan` bins numeric candidates, which strata it drops and
    whether tied strata may stand in a full reversal."""

    binning: BinStrategy
    bins: int
    min_stratum_size: int
    allow_tied_strata: bool

    def __init__(
        self,
        binning: BinStrategy = "quantile",
        bins: int = 4,
        min_stratum_size: int = 1,
        allow_tied_strata: bool = False,
    ):
        if binning not in ("quantile", "equal_width"):
            raise ValidationError(f"unknown binning {binning!r}")
        _integer("bins", bins)
        _integer("min_stratum_size", min_stratum_size)
        if bins < 2:
            raise ValidationError(f"bin count must be >= 2, got {bins}")
        if bins > MAX_BINS:
            raise ValidationError(f"bin count must be <= {MAX_BINS}, got {bins}")
        if min_stratum_size < 0:
            raise ValidationError(
                f"minimum stratum size must be >= 0, got {min_stratum_size}"
            )
        _flag("allow_tied_strata", allow_tied_strata)
        self.__dict__.update(
            binning=binning, bins=bins, min_stratum_size=min_stratum_size,
            allow_tied_strata=allow_tied_strata,
        )


class Finding(_Value):
    """One candidate covariate that supported a full classification."""

    covariate: str
    binning: str
    report: ReversalReport
    stratum_sizes: tuple[int, ...]


class SkippedCandidate(_Value):
    """One candidate covariate that could not be classified, and why."""

    covariate: str
    reason: str
    detail: str


ScanResult = Union[Finding, SkippedCandidate]

_CLASS_ORDER = {
    Classification.FULL_REVERSAL: 0,
    Classification.MIXED: 1,
    Classification.CONSISTENT: 2,
}


def scan(
    records: RecordTable,
    group_col: str,
    outcome_col: str,
    candidates: Sequence[str],
    config: ScanConfig = ScanConfig(),
) -> list[ScanResult]:
    """Try every candidate covariate and rank what it does to the verdict.

    Strata smaller than ``config.min_stratum_size`` (row count over both
    groups) are dropped before detection. The candidates and the group and
    outcome columns are checked once, before any candidate, and raise; a
    candidate's own failure becomes a :class:`SkippedCandidate` record.
    Findings come first — FULL_REVERSAL, then MIXED, then CONSISTENT, ties
    broken by covariate name — followed by skips sorted by name, so any
    evaluation schedule yields the same list.
    """
    if not candidates:
        raise EmptyCandidates("no candidate covariates given")
    if len(set(candidates)) != len(candidates):
        raise ValidationError(f"duplicate candidates in {list(candidates)}")
    for name in (group_col, outcome_col):
        records.column_index(name)
    groups, sides = _sides(records, group_col, outcome_col)

    results: list[ScanResult] = []
    for cand in candidates:
        try:
            columns, description = _stratified(records, cand, sides, config)
            sc = StratifiedComparison._of_columns(*groups, *columns)
            report = detect_reversal(sc, allow_tied_strata=config.allow_tied_strata)
        except ConfoundError as exc:
            results.append(SkippedCandidate(cand, exc.code, str(exc)))
        else:
            _, t1, _, t2, _ = columns
            sizes = tuple(map(add, t1, t2))
            results.append(Finding(cand, description, report, sizes))

    return sorted(results, key=lambda r: (
        _CLASS_ORDER[r.report.classification] if isinstance(r, Finding) else 3,
        r.covariate,
    ))

