"""Reversal classification and record-level confounder scanning.

A reversal (the aggregation paradox) is a *strict*-inequality phenomenon:
every stratum favors one group while the amalgamated table favors the
other. Classification therefore runs on exact comparisons from
:mod:`confound.tables`. By default a tied stratum blocks the
``FULL_REVERSAL`` verdict; ``allow_tied_strata=True`` relaxes that to
"all non-tie stratum directions unanimous and opposed by the aggregate".

The scan half of the module takes row-level records, stratifies them by
each candidate covariate (categorical passthrough or numeric binning), and
reports which candidates induce a reversal. Scan-wide faults (options,
group and outcome columns) raise; candidate faults become skip records, and
:func:`stratify` is one candidate that raises instead. The result order is
deterministic regardless of evaluation order.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from operator import add
from typing import TYPE_CHECKING, Iterable, Literal, Sequence, Union

from .errors import (
    AllStrataFiltered,
    ConfoundError,
    EmptyCandidates,
    NotTwoGroups,
    NumericOverflow,
    TooFewDistinctValues,
    ValidationError,
)
from .tables import Direction, StratifiedComparison, _integer, cross_direction

if TYPE_CHECKING:
    from .records import RecordTable


class Classification(Enum):
    """Verdict over a stratified comparison."""

    FULL_REVERSAL = "FULL_REVERSAL"
    CONSISTENT = "CONSISTENT"
    MIXED = "MIXED"


@dataclass(frozen=True)
class ReversalReport:
    """Per-stratum directions plus the aggregate direction and verdict.

    ``majority_direction`` is the mode of the non-tie stratum directions,
    ``TIE`` when there is no mode.
    """

    stratum_directions: tuple[tuple[str, Direction], ...]
    aggregate_direction: Direction
    classification: Classification
    majority_direction: Direction


def _classify(
    stratum_dirs: Sequence[Direction],
    aggregate_dir: Direction,
    allow_tied_strata: bool,
) -> Classification:
    non_tie = [d for d in stratum_dirs if d is not Direction.TIE]
    if non_tie and len(set(non_tie)) == 1:
        if aggregate_dir is non_tie[0].flipped() and (
            allow_tied_strata or len(non_tie) == len(stratum_dirs)
        ):
            return Classification.FULL_REVERSAL
    if all(d is aggregate_dir for d in non_tie):
        return Classification.CONSISTENT
    return Classification.MIXED


def detect_reversal(
    sc: StratifiedComparison, *, allow_tied_strata: bool = False
) -> ReversalReport:
    """Classify a stratified comparison; every stratum has subjects on both
    sides, which the comparison's constructor ensures."""
    cells = [
        (s.first.total, s.first.positive, s.second.total, s.second.positive)
        for s in sc.strata
    ]
    return _report(sc.stratum_labels(), cells, allow_tied_strata)


def _report(
    labels: Sequence[str],
    cells: Sequence[tuple[int, int, int, int]],
    allow_tied_strata: bool,
) -> ReversalReport:
    """The report over each stratum's ``(total, positive)`` for the first
    group then the second, every total positive: a stratum's direction and
    the aggregate's come from integer cross-products, with no ``Rate`` built."""
    dirs = [cross_direction(p1 * t2, p2 * t1) for t1, p1, t2, p2 in cells]
    t1, p1, t2, p2 = map(sum, zip(*cells))
    aggregate_dir = cross_direction(p1 * t2, p2 * t1)
    return ReversalReport(
        stratum_directions=tuple(zip(labels, dirs)),
        aggregate_direction=aggregate_dir,
        classification=_classify(dirs, aggregate_dir, allow_tied_strata),
        majority_direction=cross_direction(
            dirs.count(Direction.FIRST_HIGHER), dirs.count(Direction.SECOND_HIGHER)
        ),
    )


# ---------------------------------------------------------------------------
# Stratification of row-level records (see :mod:`confound.records`)


BinStrategy = Literal["quantile", "equal_width"]


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
    tally: Counter, column: Sequence[float], strategy: str, k: int
) -> tuple[Counter, list[str], str]:
    """A ``(value, side)`` tally of ``column`` re-keyed by bin, with the bin
    labels and the binning's description. Each distinct value is binned
    once; its key is its first row's value (-0.0 or 0.0), which is what
    ``min`` and ``max`` over the rows return."""
    rows = Counter()
    for (value, _), n in tally.items():
        rows[value] += n
    edges = _edges(rows, strategy, k, column)
    bounds = [min(rows), *edges, max(rows)]
    labels = [_bin_label(i, *bounds[i : i + 2], i == k - 1) for i in range(k)]
    bin_of = {value: bisect_right(edges, value) for value in rows}
    binned = Counter()
    for (value, side), n in tally.items():
        binned[bin_of[value], side] += n
    return binned, labels, f"{strategy} k={k} edges={[round(e, 6) for e in edges]}"


def _sides(
    records: RecordTable, group_col: str, outcome_col: str
) -> tuple[list, list[int]]:
    """The two sorted group labels, and each row's side code ``2 * group
    index + outcome``: the one check of the group and outcome columns."""
    if records.kind(group_col) != "categorical":
        raise ValidationError(f"group column {group_col!r} must be categorical")
    if records.kind(outcome_col) != "boolean":
        raise ValidationError(f"outcome column {outcome_col!r} must be boolean")
    groups = sorted(set(records.values(group_col)))
    if len(groups) != 2:
        raise NotTwoGroups(
            f"group column {group_col!r} must take exactly two values, "
            f"found {len(groups)}: {groups}"
        )
    side = {groups[0]: 0, groups[1]: 2}.__getitem__
    group, outcome = records.values(group_col), records.values(outcome_col)
    return groups, list(map(add, map(side, group), outcome))


def _stratified(
    records: RecordTable, covariate: str, code: list[int], config: ScanConfig
) -> tuple[list[tuple[str, tuple[int, int], tuple[int, int]]], str]:
    """Stratify records by one covariate into ``(label, (total, positive),
    (total, positive))`` rows for :meth:`StratifiedComparison.from_pairs`,
    plus a binning description. The covariate's kind alone picks the strata:
    categorical labels pass through, numeric values are binned by ``config``.

    ``code`` is each row's side code from :func:`_sides`. Strata with no
    rows at all are never formed (numeric bins can be empty); strata smaller
    than ``config.min_stratum_size`` are dropped. A stratum may still be
    empty on one side, which building the comparison rejects.
    """
    kind = records.kind(covariate)
    if kind == "boolean":
        raise ValidationError(
            f"covariate {covariate!r} is boolean; numeric binning needs a numeric column"
        )
    column = records.values(covariate)
    tally = Counter(zip(column, code))
    labels, description = None, "categorical"
    if kind == "numeric":
        tally, labels, description = _binned(tally, column, config.binning, config.bins)

    def counts(key, side: int) -> tuple[int, int]:
        positive = tally[key, side + 1]
        return positive + tally[key, side], positive

    rows = [
        (key if labels is None else labels[key], counts(key, 0), counts(key, 2))
        for key in sorted({key for key, _ in tally})
    ]
    size = config.min_stratum_size
    kept = [(label, a, b) for label, a, b in rows if a[0] + b[0] >= size]
    if not kept:
        raise AllStrataFiltered(f"every stratum of {covariate!r} is smaller than {size}")
    return kept, description


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
    groups, code = _sides(records, group_col, outcome_col)
    rows = _stratified(records, covariate, code, config)[0]
    return StratifiedComparison.from_pairs(*groups, rows)


# ---------------------------------------------------------------------------
# Covariate scan


@dataclass(frozen=True)
class ScanConfig:
    binning: BinStrategy = "quantile"
    bins: int = 4
    min_stratum_size: int = 1
    allow_tied_strata: bool = False

    def __post_init__(self):
        if self.binning not in ("quantile", "equal_width"):
            raise ValidationError(f"unknown binning {self.binning!r}")
        for name in ("bins", "min_stratum_size"):
            _integer(name, getattr(self, name))
        if self.bins < 2:
            raise ValidationError(f"bin count must be >= 2, got {self.bins}")


@dataclass(frozen=True)
class Finding:
    """One candidate covariate that supported a full classification."""

    covariate: str
    binning: str
    report: ReversalReport
    stratum_sizes: tuple[int, ...]


@dataclass(frozen=True)
class SkippedCandidate:
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
    groups, code = _sides(records, group_col, outcome_col)

    results: list[ScanResult] = []
    for cand in candidates:
        try:
            rows, description = _stratified(records, cand, code, config)
            sc = StratifiedComparison.from_pairs(*groups, rows)
            report = detect_reversal(sc, allow_tied_strata=config.allow_tied_strata)
        except ConfoundError as exc:
            results.append(SkippedCandidate(cand, exc.code, str(exc)))
        else:
            sizes = tuple(s.first.total + s.second.total for s in sc.strata)
            results.append(Finding(cand, description, report, sizes))

    return sorted(results, key=lambda r: (
        _CLASS_ORDER[r.report.classification] if isinstance(r, Finding) else 3,
        r.covariate,
    ))

