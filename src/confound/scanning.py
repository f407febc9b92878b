"""Record-level confounder scanning.

The scan stratifies row-level records by each candidate covariate
(categorical passthrough or numeric binning) and reports which candidates
induce a reversal, as :mod:`confound.detector` classifies it. Scan-wide
faults (options, group and outcome columns) raise; candidate faults become
skip records, and :func:`stratify` is one candidate that raises instead.
The result order is deterministic regardless of evaluation order.

One tally serves every scan. :class:`_Tally` counts a block of columns at a
time, each candidate's cells per group label and outcome, keyed by the cell
as stored, and converts each distinct numeric key with ``float`` once: the
command line feeds it the CSV's blocks with labels and numbers as read,
:func:`scan` and :func:`stratify` a table's stored columns as one block.
The tallies of a file's two halves, read at once, merge through
:meth:`_Tally.state` and :meth:`_Tally.merge`. Building the tally checks
nothing; :meth:`_Tally.groups` makes every scan-wide check after the last
block, so the command's row faults come first. One findings step then bins
the counts and builds each candidate's comparison.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from itertools import accumulate, chain, islice
from operator import add, itemgetter
from typing import TYPE_CHECKING, Literal, Sequence, Union

from .detector import Classification, ReversalReport, detect_reversal
from .errors import (
    AllStrataFiltered,
    ConfoundError,
    EmptyCandidates,
    NotTwoGroups,
    NumericOverflow,
    TooFewDistinctValues,
    UnknownColumn,
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
    counts = Counter(vals)
    return _edges(counts, strategy, k, [v for v in vals if v == 0] if 0 in counts else [])


def _edges(
    counts: dict[float, int], strategy: str, k: int, zeros: Sequence[float]
) -> list[float]:
    """:func:`bin_numeric`'s edges from each distinct value's row count and
    the zero rows' values (-0.0 or 0.0) in row order. An edge past the float
    range is a :class:`NumericOverflow`."""
    if strategy == "quantile":
        if len(counts) < k:
            raise TooFewDistinctValues(
                f"quantile binning into {k} bins needs at least {k} distinct "
                f"values, got {len(counts)}"
            )
        edges = _quantiles(counts, k, zeros)
    else:
        if len(counts) < 2:
            raise TooFewDistinctValues("all values are identical")
        lo, hi = min(counts), max(counts)
        edges = [lo + (hi - lo) * j / k for j in range(1, k)]
    if not all(map(math.isfinite, edges)):
        raise NumericOverflow(f"{strategy} bin edges overflow the float range: {edges}")
    return edges


def _quantiles(counts: dict[float, int], k: int, zeros: Sequence[float]) -> list[float]:
    """``statistics.quantiles(values, n=k, method="inclusive")`` by its own
    formula, reading each order statistic off the distinct values' counts
    rather than a sorted copy of the rows."""
    distinct = sorted(counts)
    ends = list(accumulate(map(counts.__getitem__, distinct)))  # rows up to each value
    # sorted() keeps equal values in row order, and -0.0 == 0.0, so the
    # zeros' signs in the sorted rows are those of the zero rows in order

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
    pairs: list[tuple[Counter, Counter]], values: dict, zeros: Sequence[float],
    strategy: str, k: int,
) -> tuple[list[tuple[Counter, Counter]], list[str], str]:
    """Each group's ``(negatives, positives)`` tally of a numeric candidate
    re-keyed by bin, with the bin labels and the binning's description.
    ``values`` holds each distinct key's float and ``zeros`` the zero rows'
    values in row order. Each distinct key is binned once; the row count of
    zero is keyed by the first zero row's value (-0.0 or 0.0), which is what
    ``min`` and ``max`` over the rows return."""
    rows = Counter()
    for tally in chain.from_iterable(pairs):
        for key, n in tally.items():
            rows[values[key]] += n
    if zeros:
        rows[zeros[0]] = rows.pop(0)
    edges = _edges(rows, strategy, k, zeros)
    bounds = [min(rows), *edges, max(rows)]
    labels = [_bin_label(i, *bounds[i : i + 2], i == k - 1) for i in range(k)]
    bin_of = {key: bisect_right(edges, value) for key, value in values.items()}

    def by_bin(tally: Counter) -> Counter:
        binned = Counter()
        for key, n in tally.items():
            binned[bin_of[key]] += n
        return binned

    binned = [(by_bin(negatives), by_bin(positives)) for negatives, positives in pairs]
    return binned, labels, f"{strategy} k={k} edges={[round(e, 6) for e in edges]}"


class _Tally:
    """The rows of a scan, counted block by block.

    Construction checks nothing: ``kinds`` maps each column name to its
    kind, in the order of a block's columns; ``keep``, when given, names the
    group labels whose rows count. A block without the group column or a
    boolean outcome column counts nothing, and a repeated candidate is
    counted once.
    :meth:`groups`, after the last block, makes the scan-wide checks.

    For each categorical or numeric candidate, ``counts`` holds per group
    label a ``(negatives, positives)`` pair of Counters of the cell as
    stored, over the label's rows with a false and with a true outcome.
    Once a third group label is found the rows are no longer counted, only
    their labels collected: the scan will fail.
    """

    def __init__(
        self, kinds: dict[str, str], group_col: str, outcome_col: str,
        candidates: Sequence[str], keep: Sequence[str] | None = None,
    ):
        index = {name: i for i, name in enumerate(kinds)}
        counted = [
            n for n in dict.fromkeys(candidates) if kinds.get(n) in ("categorical", "numeric")
        ]
        self.kinds = kinds
        self.group_col, self.outcome_col = group_col, outcome_col
        self.candidates = list(candidates)
        self.keep = keep
        self.labels: set[str] = set()
        self.n_rows = 0
        self.counts: dict[str, dict[str, tuple[Counter, Counter]]] = {
            name: {} for name in counted
        }
        # a numeric candidate's float per key, its zero keys and zero rows' values
        self.numbers: dict[str, tuple[dict, set, list[float]]] = {
            name: ({}, set(), []) for name in counted if kinds[name] == "numeric"
        }
        outcome = index.get(outcome_col) if kinds.get(outcome_col) == "boolean" else None
        self._index = (index.get(group_col), outcome, [index[n] for n in counted])

    def add(self, block: Sequence[Sequence]) -> None:
        """Count one block of rows, given as its columns."""
        g, o, candidates = self._index
        if g is None or o is None:
            return
        group = block[g]
        found = set(group)
        kept = found if self.keep is None else found.intersection(self.keep)
        self.labels |= kept
        if len(self.labels) > 2 or not kept:
            return
        # each kept label's rows with a false, then a true outcome, in one
        # pass: a row's part is 2 x its label's place + its outcome, and the
        # rows of a label not kept go to the last two parts
        kept = list(kept)
        places = dict.fromkeys(found, 2 * len(kept))
        places.update(zip(kept, range(0, 2 * len(kept), 2)))
        parts = [[] for _ in range(2 * len(kept) + 2)]
        part = map(parts.__getitem__, map(add, map(places.__getitem__, group), block[o]))
        any(map(list.append, part, range(len(group))))
        split = [(label, *parts[2 * i : 2 * i + 2]) for i, label in enumerate(kept)]
        order = list(chain.from_iterable(parts[:-2]))
        self.n_rows += len(order)
        # one index more than the rows, so the getter returns a tuple even
        # for one row; the slices below never reach it
        gather = itemgetter(*order, 0)
        for name, j in zip(self.counts, candidates):
            column = block[j]
            cells = gather(column)
            sides = self.counts[name]
            end, new = 0, []
            for label, *parts in split:
                if label not in sides:
                    sides[label] = (Counter(), Counter())
                for tally, rows in zip(sides[label], parts):
                    start, end = end, end + len(rows)
                    known = len(tally)
                    tally.update(cells[start:end])
                    new += islice(reversed(tally), len(tally) - known)  # its new keys
            if name in self.numbers:
                self._numbers(name, new, column, order)

    def _numbers(self, name: str, new: list, column: Sequence, order: list[int]) -> None:
        """Convert a numeric candidate's keys new in this block, and keep its
        zero rows' values in row order: once a zero has been counted, every
        block's kept rows are searched for zeros."""
        values, zero_keys, zeros = self.numbers[name]
        fresh = set(new).difference(values)
        values.update(zip(fresh, map(float, fresh)))
        zero_keys.update(key for key in fresh if values[key] == 0)
        if zero_keys:
            zeros.extend(float(column[i]) for i in sorted(order) if column[i] in zero_keys)

    def state(self) -> tuple:
        """What this tally has counted, in types ``marshal`` writes (Counters
        as dicts, sets as lists), for :meth:`merge`."""
        counts = {
            name: {label: tuple(map(dict, pair)) for label, pair in sides.items()}
            for name, sides in self.counts.items()
        }
        numbers = {
            name: (values, list(zero_keys), zeros)
            for name, (values, zero_keys, zeros) in self.numbers.items()
        }
        return list(self.labels), self.n_rows, counts, numbers

    def merge(self, state: tuple) -> None:
        """Count, after this tally's rows, those of a tally of the same
        columns and candidates, given as its :meth:`state`."""
        labels, n_rows, counts, numbers = state
        self.labels.update(labels)
        self.n_rows += n_rows
        for name, sides in counts.items():
            mine = self.counts[name]
            for label, pair in sides.items():
                for tally, more in zip(mine.setdefault(label, (Counter(), Counter())), pair):
                    tally.update(more)
        for name, (values, zero_keys, zeros) in numbers.items():
            mine = self.numbers[name]
            mine[0].update(values)
            mine[1].update(zero_keys)
            mine[2].extend(zeros)

    def groups(self) -> list[str]:
        """The two group labels, sorted, after the scan-wide checks in the
        order their faults take: ``keep``, candidates, columns, labels."""
        group_col, outcome_col, kinds = self.group_col, self.outcome_col, self.kinds
        if self.keep is not None:
            if len(self.keep) != 2:
                raise NotTwoGroups(f"--groups needs exactly two labels, got {self.keep}")
            if group_col not in kinds:
                raise UnknownColumn(f"no column named {group_col!r}")
        if not self.candidates:
            raise EmptyCandidates("no candidate covariates given")
        if len(set(self.candidates)) != len(self.candidates):
            raise ValidationError(f"duplicate candidates in {self.candidates}")
        for name in (group_col, outcome_col):
            if name not in kinds:
                raise UnknownColumn(f"no column named {name!r}")
        if kinds[group_col] != "categorical":
            raise ValidationError(f"group column {group_col!r} must be categorical")
        if kinds[outcome_col] != "boolean":
            raise ValidationError(f"outcome column {outcome_col!r} must be boolean")
        groups = sorted(self.labels)
        if len(groups) != 2:
            raise NotTwoGroups(
                f"group column {group_col!r} must take exactly two values, "
                f"found {len(groups)}: {groups}"
            )
        return groups


def _record_tally(
    records: RecordTable, group_col: str, outcome_col: str, candidates: Sequence[str]
) -> _Tally:
    """The tally of a table's stored columns, as one block."""
    tally = _Tally(
        {c.name: c.kind for c in records.columns}, group_col, outcome_col, candidates
    )
    tally.add(records._data)
    return tally


def _stratified(
    tally: _Tally, covariate: str, groups: list, config: ScanConfig
) -> tuple[list[list], str]:
    """One candidate's tally as the columns of a
    :class:`StratifiedComparison` (see :meth:`StratifiedComparison._fill`),
    plus a binning description. The covariate's kind alone picks the strata:
    categorical labels pass through, numeric values are binned by ``config``.

    Strata with no rows at all are never formed (numeric bins can be empty);
    strata smaller than ``config.min_stratum_size`` are dropped. A stratum
    may still be empty on one side, which building the comparison rejects.
    """
    kind = tally.kinds.get(covariate)
    if kind is None:
        raise UnknownColumn(f"no column named {covariate!r}")
    if kind == "boolean":
        raise ValidationError(
            f"covariate {covariate!r} is boolean; numeric binning needs a numeric column"
        )
    sides = tally.counts[covariate]
    pairs = [sides.get(label, (Counter(), Counter())) for label in groups]
    labels, description = None, "categorical"
    if kind == "numeric":
        values, _, zeros = tally.numbers[covariate]
        pairs, labels, description = _binned(
            pairs, values, zeros, config.binning, config.bins
        )
    (total1, positive1), (total2, positive2) = (
        (negatives + positives, positives) for negatives, positives in pairs
    )
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
    tally = _record_tally(records, group_col, outcome_col, [covariate])
    groups = tally.groups()
    columns = _stratified(tally, covariate, groups, config)[0]
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
    return _findings(_record_tally(records, group_col, outcome_col, candidates), config)


def _findings(tally: _Tally, config: ScanConfig) -> list[ScanResult]:
    """:func:`scan`'s results from a finished tally: its two groups, then
    each candidate's finding or skip, in the scan's order."""
    groups = tally.groups()
    results: list[ScanResult] = []
    for cand in tally.candidates:
        try:
            columns, description = _stratified(tally, cand, groups, config)
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
