"""Reversal classification, stratification, binning, and scanning."""

from __future__ import annotations

import math
import random
import statistics
from bisect import bisect_right
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confound.detector import Classification, detect_reversal
from confound.scanning import (
    Finding,
    MAX_BINS,
    ScanConfig,
    SkippedCandidate,
    _record_tally,
    _stratified,
    bin_numeric,
    scan,
    stratify,
)
from confound.ecological import decompose
from confound.errors import (
    ConfoundError,
    EmptyCandidates,
    EmptyStratumSide,
    NotTwoGroups,
    NumericOverflow,
    TooFewDistinctValues,
    UnknownColumn,
    ValidationError,
)
from confound.records import Column, RecordTable
from confound.tables import Counts, Direction, StratifiedComparison, Stratum
from support import (
    BERKELEY,
    HOSPITAL,
    comparisons,
    hospital_records,
    records_from_columns,
    swap_groups,
)

F = Direction.FIRST_HIGHER
S = Direction.SECOND_HIGHER
T = Direction.TIE


def scale_counts(sc: StratifiedComparison, m: int) -> StratifiedComparison:
    return StratifiedComparison(
        sc.group_first_label,
        sc.group_second_label,
        tuple(
            Stratum(
                s.label,
                Counts(s.first.total * m, s.first.positive * m),
                Counts(s.second.total * m, s.second.positive * m),
            )
            for s in sc.strata
        ),
    )


class TestDetectReversal:
    def test_hospital_full_reversal(self):
        report = detect_reversal(HOSPITAL)
        assert [d for _, d in report.stratum_directions] == [S, S]
        assert report.aggregate_direction is F
        assert report.classification is Classification.FULL_REVERSAL
        assert report.majority_direction is S

    def test_berkeley_mixed(self):
        report = detect_reversal(BERKELEY)
        assert [d for _, d in report.stratum_directions] == [S, S, F, S, F, S]
        assert report.aggregate_direction is F
        assert report.classification is Classification.MIXED
        assert report.majority_direction is S

    def test_identical_groups_all_tie(self):
        sc = StratifiedComparison.from_pairs(
            "g1", "g2", [("a", (10, 4), (10, 4)), ("b", (6, 1), (6, 1))]
        )
        report = detect_reversal(sc)
        assert all(d is T for _, d in report.stratum_directions)
        assert report.aggregate_direction is T
        assert report.classification is Classification.CONSISTENT
        assert report.majority_direction is T

    def test_empty_side_rejected_not_dropped(self):
        # the table is rejected when built, so no stratum is dropped unseen
        with pytest.raises(EmptyStratumSide, match="gap"):
            StratifiedComparison.from_pairs(
                "g1", "g2", [("ok", (5, 1), (5, 2)), ("gap", (0, 0), (5, 1))]
            )

    def test_tied_stratum_blocks_full_reversal_by_default(self):
        # strata: one tie (low rate, g2-heavy), one strict S (high rate,
        # g1-heavy); the aggregate flips to F
        sc = StratifiedComparison.from_pairs(
            "g1",
            "g2",
            [("even", (10, 2), (60, 12)), ("skew", (60, 36), (10, 7))],
        )
        report = detect_reversal(sc)
        assert [d for _, d in report.stratum_directions] == [T, S]
        assert report.aggregate_direction is F
        assert report.classification is Classification.MIXED
        relaxed = detect_reversal(sc, allow_tied_strata=True)
        assert relaxed.classification is Classification.FULL_REVERSAL

    def test_all_ties_with_unequal_weights_is_consistent(self):
        sc = StratifiedComparison.from_pairs(
            "g1",
            "g2",
            [("a", (2, 1), (100, 50)), ("b", (100, 0), (1, 0))],
        )
        report = detect_reversal(sc)
        assert all(d is T for _, d in report.stratum_directions)
        assert report.aggregate_direction is not T
        assert report.classification is Classification.CONSISTENT


class TestDetectorInvariances:
    @given(comparisons(min_total=1))
    def test_group_swap_flips_directions_keeps_class(self, sc):
        report = detect_reversal(sc)
        swapped = detect_reversal(swap_groups(sc))
        assert swapped.classification is report.classification
        assert swapped.aggregate_direction is report.aggregate_direction.flipped()
        assert swapped.majority_direction is report.majority_direction.flipped()
        assert [d for _, d in swapped.stratum_directions] == [
            d.flipped() for _, d in report.stratum_directions
        ]

    @given(comparisons(min_total=1), st.randoms())
    def test_stratum_permutation_keeps_class(self, sc, rnd):
        strata = list(sc.strata)
        rnd.shuffle(strata)
        permuted = StratifiedComparison(
            sc.group_first_label, sc.group_second_label, tuple(strata)
        )
        a = detect_reversal(sc)
        b = detect_reversal(permuted)
        assert a.classification is b.classification
        assert a.aggregate_direction is b.aggregate_direction
        assert a.majority_direction is b.majority_direction
        assert dict(a.stratum_directions) == dict(b.stratum_directions)

    @given(comparisons(min_total=1), st.integers(2, 50))
    def test_count_scaling_keeps_report(self, sc, m):
        assert detect_reversal(scale_counts(sc, m)) == detect_reversal(sc)

    @given(st.data())
    def test_equal_exposure_never_reverses(self, data):
        """Unanimous strict stratum directions with identical per-stratum
        totals on both sides must come out CONSISTENT."""
        k = data.draw(st.integers(1, 5))
        strata = []
        for i in range(k):
            t = data.draw(st.integers(2, 100))
            p2 = data.draw(st.integers(1, t))
            p1 = data.draw(st.integers(0, p2 - 1))
            strata.append(Stratum(f"s{i + 1}", Counts(t, p1), Counts(t, p2)))
        report = detect_reversal(
            StratifiedComparison("g1", "g2", tuple(strata))
        )
        assert report.classification is Classification.CONSISTENT
        assert report.aggregate_direction is S

    def test_k2_full_reversal_matches_inequality_system(self):
        from confound.synth import generate_reversal

        tables = [HOSPITAL] + [generate_reversal(2, 60, seed) for seed in range(50)]
        for sc in tables:
            assert (
                detect_reversal(sc).classification is Classification.FULL_REVERSAL
            )
            (a, b), (c, d) = [
                (s.first.total, s.first.positive) for s in sc.strata
            ]
            (A, B), (C, D) = [
                (s.second.total, s.second.positive) for s in sc.strata
            ]
            # every full reversal satisfies the strict two-stratum system
            # in one orientation or the other
            forward = (
                b * A < B * a
                and d * C < D * c
                and (b + d) * (A + C) > (B + D) * (a + c)
            )
            mirrored = (
                b * A > B * a
                and d * C > D * c
                and (b + d) * (A + C) < (B + D) * (a + c)
            )
            assert forward or mirrored


def numeric_group_records():
    return records_from_columns(
        g=[1.0, 1.0, 2.0, 2.0], out=[True, False, True, False], cov=["u"] * 4
    )


def text_outcome_records():
    return records_from_columns(
        g=["a", "a", "b", "b"], out=["y", "n", "y", "n"], cov=["u"] * 4
    )


def _cols(*spec: str) -> tuple[Column, ...]:
    """Columns from ``name:kind`` strings."""
    return tuple(Column(*item.split(":")) for item in spec)


class TestRecordTableValidation:
    """The public constructor's errors, each pinned by its exact message."""

    @pytest.mark.parametrize(
        "columns, rows, message",
        [
            (_cols("a:categorical", "a:numeric"), [],
             "duplicate column names: ['a', 'a']"),
            (_cols("a:categorical", "b:text"), [("x", "y")],
             "unknown column kind 'text'"),
            (_cols("g:categorical", "x:numeric"), [("a", 1.0), ("b",)],
             "row 1 has 1 cells, expected 2"),
            (_cols("g:categorical", "x:numeric"), [("a", 1.0), ("b", 2.0, 3.0)],
             "row 1 has 3 cells, expected 2"),
            (_cols("g:categorical"), [("a",), (3,)],
             "row 1, column 'g': expected text, got 3"),
            (_cols("g:categorical", "out:boolean"), [("a", True), ("b", 1)],
             "row 1, column 'out': expected bool, got 1"),
            (_cols("out:boolean"), [("yes",)],
             "row 0, column 'out': expected bool, got 'yes'"),
            (_cols("x:numeric"), [(1,), (True,)],
             "row 1, column 'x': expected a number, got True"),
            (_cols("x:numeric"), [("1.5",)],
             "row 0, column 'x': expected a number, got '1.5'"),
            (_cols("x:numeric"), [(1.0,), (float("inf"),)],
             "row 1, column 'x': non-finite value"),
            (_cols("x:numeric"), [(float("nan"),)],
             "row 0, column 'x': non-finite value"),
            # an int float() cannot convert, named without its digits
            (_cols("x:numeric"), [(10**400,)],
             "row 0, column 'x': non-finite value"),
        ],
    )
    def test_message(self, columns, rows, message):
        with pytest.raises(ValidationError) as err:
            RecordTable(columns, rows)
        assert str(err.value) == message

    def test_first_bad_cell_in_row_order_wins(self):
        columns = _cols("g:categorical", "out:boolean", "x:numeric")
        rows = [("a", True, 1.0), ("b", True, "2"), (3, "no", 1.0)]
        with pytest.raises(ValidationError) as err:
            RecordTable(columns, rows)
        assert str(err.value) == "row 1, column 'x': expected a number, got '2'"

    def test_leftmost_bad_cell_of_a_row_wins(self):
        columns = _cols("g:categorical", "out:boolean", "x:numeric")
        with pytest.raises(ValidationError) as err:
            RecordTable(columns, [("a", True, 1.0), ("b", 0, float("nan"))])
        assert str(err.value) == "row 1, column 'out': expected bool, got 0"

    def test_ragged_row_is_checked_before_its_cells(self):
        columns = _cols("g:categorical", "x:numeric")
        with pytest.raises(ValidationError) as err:
            RecordTable(columns, [("a", 1.0), (1, "x", 3)])
        assert str(err.value) == "row 1 has 3 cells, expected 2"

    def test_bad_cell_before_a_ragged_row_wins(self):
        columns = _cols("g:categorical", "x:numeric")
        with pytest.raises(ValidationError) as err:
            RecordTable(columns, [("a", 1.0), ("b", "x"), ("c",)])
        assert str(err.value) == "row 1, column 'x': expected a number, got 'x'"

    def test_valid_table_keeps_rows_and_values(self):
        columns = _cols("g:categorical", "out:boolean", "x:numeric")
        rows = [("a", True, 1), ["b", False, 2.5]]
        records = RecordTable(columns, rows)
        assert records.n_rows == 2
        assert records.rows == (("a", True, 1), ("b", False, 2.5))
        assert records.values("x") == [1, 2.5]
        assert list(map(type, records.values("x"))) == [float, float]
        assert records.values("out") == [True, False]
        assert records == RecordTable(columns, records.rows)

    def test_empty_table(self):
        records = RecordTable(_cols("g:categorical", "x:numeric"), [])
        assert records.n_rows == 0
        assert records.rows == ()
        assert records.values("x") == []


class TestStratify:
    def test_reconstructs_hospital_table(self):
        records = hospital_records()
        sc = stratify(records, "hospital", "death", "condition")
        assert sc.group_first_label == "A"
        assert sc.group_second_label == "B"
        # lexicographic stratum order: healthy before non-healthy
        assert sc.stratum_labels() == ("healthy", "non-healthy")
        by_label = {s.label: s for s in sc.strata}
        assert by_label["non-healthy"].first == Counts(60, 36)
        assert by_label["non-healthy"].second == Counts(20, 14)
        assert by_label["healthy"].first == Counts(20, 4)
        assert by_label["healthy"].second == Counts(60, 18)
        assert detect_reversal(sc).classification is Classification.FULL_REVERSAL

    def test_single_category_is_consistent_by_construction(self):
        records = records_from_columns(
            g=["a", "a", "b", "b"],
            out=[True, False, True, True],
            cov=["only"] * 4,
        )
        sc = stratify(records, "g", "out", "cov")
        assert len(sc.strata) == 1
        assert detect_reversal(sc).classification is Classification.CONSISTENT

    def test_quantile_bins_are_balanced(self):
        rng = random.Random(11)
        n = 1000
        records = records_from_columns(
            g=[rng.choice(["x", "y"]) for _ in range(n)],
            out=[rng.random() < 0.5 for _ in range(n)],
            age=[rng.random() for _ in range(n)],
        )
        sc = stratify(records, "g", "out", "age", binning="quantile", bins=4)
        sizes = [s.first.total + s.second.total for s in sc.strata]
        assert len(sizes) == 4
        assert all(abs(size - 250) <= 1 for size in sizes)
        assert sum(sizes) == n

    def test_unknown_column(self):
        with pytest.raises(UnknownColumn):
            stratify(hospital_records(), "hospital", "death", "nope")

    def test_not_two_groups(self):
        records = records_from_columns(
            g=["a", "b", "c"], out=[True, False, True], cov=["u", "u", "u"]
        )
        with pytest.raises(NotTwoGroups):
            stratify(records, "g", "out", "cov")

    def test_empty_stratum_side(self):
        records = records_from_columns(
            g=["a", "a", "b"],
            out=[True, False, True],
            cov=["u", "v", "u"],  # category v has no b rows
        )
        with pytest.raises(EmptyStratumSide, match="v"):
            stratify(records, "g", "out", "cov")

    def test_group_and_outcome_kinds_are_checked(self):
        with pytest.raises(ValidationError, match="group column 'g' must be categorical"):
            stratify(numeric_group_records(), "g", "out", "cov")
        with pytest.raises(ValidationError, match="outcome column 'out' must be boolean"):
            stratify(text_outcome_records(), "g", "out", "cov")

    @pytest.mark.parametrize(
        "binning, message",
        [
            ("categorical", "unknown binning 'categorical'"),
            ("kmeans", "unknown binning 'kmeans'"),
        ],
    )
    def test_binning_must_fit_the_covariate(self, binning, message):
        records = records_from_columns(
            g=["a", "b"], out=[True, False], x=[1.0, 2.0]
        )
        with pytest.raises(ValidationError) as err:
            stratify(records, "g", "out", "x", binning=binning)
        assert str(err.value) == message

    @pytest.mark.parametrize("covariate", ["x", "cov"])
    def test_bin_count_below_two(self, covariate):
        records = records_from_columns(
            g=["a", "b"], out=[True, False], x=[1.0, 2.0], cov=["u", "u"]
        )
        with pytest.raises(ValidationError, match=r"^bin count must be >= 2, got 1$"):
            stratify(records, "g", "out", covariate, bins=1)

    def test_unknown_covariate_wins_over_group_kind(self):
        with pytest.raises(UnknownColumn, match="ghost"):
            stratify(numeric_group_records(), "g", "out", "ghost")


class TestBinNumeric:
    def test_equal_width_midpoint(self):
        assert bin_numeric([1, 2, 3, 4], "equal_width", 2) == [2.5]

    def test_quantile_matches_sort_based_oracle(self):
        rng = random.Random(3)
        values = [rng.random() for _ in range(1000)]

        def oracle(q: float) -> float:
            s = sorted(values)
            pos = (len(s) - 1) * q
            base = int(pos)
            nxt = min(base + 1, len(s) - 1)
            return s[base] + (s[nxt] - s[base]) * (pos - base)

        edges = bin_numeric(values, "quantile", 4)
        assert edges == pytest.approx([oracle(0.25), oracle(0.5), oracle(0.75)])
        for edge, q in zip(edges, (0.25, 0.5, 0.75)):
            assert abs(edge - q) < 0.05

    def test_constant_list_rejected(self):
        with pytest.raises(TooFewDistinctValues):
            bin_numeric([7.0] * 10, "equal_width", 2)
        with pytest.raises(TooFewDistinctValues):
            bin_numeric([7.0] * 10, "quantile", 2)

    def test_quantile_needs_k_distinct(self):
        with pytest.raises(TooFewDistinctValues):
            bin_numeric([1.0, 1.0, 2.0, 2.0], "quantile", 3)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValidationError):
            bin_numeric([1.0, 2.0], "quantile", 1)

    @pytest.mark.parametrize(
        "values, strategy, error, message",
        [
            ([1.0, math.nan, 2.0], "quantile", ValidationError, "values must be finite"),
            ([1.0, -math.inf], "equal_width", ValidationError, "values must be finite"),
            ([1.0, 2.0], "median", ValidationError, "unknown binning 'median'"),
            # every value is finite, but an edge is not
            ([-1.7e308, 1.7e308], "equal_width", NumericOverflow,
             "equal_width bin edges overflow the float range: [inf]"),
            ([-1.7e308, 1.6e308, 1.7e308], "quantile", NumericOverflow,
             "quantile bin edges overflow the float range: [inf]"),
            # an int float() cannot convert, and an empty list
            ([10**400, 1], "equal_width", ValidationError, "values must be finite"),
            ([], "equal_width", TooFewDistinctValues, "all values are identical"),
            # numbers only, as in a numeric RecordTable column: no text, no
            # bool, no None, even where float() would take it
            (["1", "2", "3"], "equal_width", ValidationError,
             "expected a number, got '1'"),
            ([1.0, "x"], "quantile", ValidationError, "expected a number, got 'x'"),
            ([None, 1], "equal_width", ValidationError, "expected a number, got None"),
            ([2.0, True, 3.0], "equal_width", ValidationError,
             "expected a number, got True"),
        ],
    )
    def test_rejected_inputs(self, values, strategy, error, message):
        with pytest.raises(error) as err:
            bin_numeric(values, strategy, 2)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"bins": 1}, "bin count must be >= 2, got 1"),
            ({"bins": -3}, "bin count must be >= 2, got -3"),
            ({"binning": "kmeans"}, "unknown binning 'kmeans'"),
            ({"bins": 2.5}, "bins must be an integer, got 2.5"),
            ({"bins": "3"}, "bins must be an integer, got '3'"),
            ({"bins": True}, "bins must be an integer, got True"),
            ({"min_stratum_size": 1.5}, "min_stratum_size must be an integer, got 1.5"),
            ({"min_stratum_size": False}, "min_stratum_size must be an integer, got False"),
            ({"bins": MAX_BINS + 1}, "bin count must be <= 10000, got 10001"),
            ({"bins": 10**30}, f"bin count must be <= 10000, got {10**30}"),
            ({"min_stratum_size": -5}, "minimum stratum size must be >= 0, got -5"),
            ({"min_stratum_size": -1, "bins": 1}, "bin count must be >= 2, got 1"),
            ({"min_stratum_size": -1.5}, "min_stratum_size must be an integer, got -1.5"),
            ({"allow_tied_strata": "no"}, "allow_tied_strata must be a bool, got 'no'"),
            ({"allow_tied_strata": 1}, "allow_tied_strata must be a bool, got 1"),
            # after the binning checks
            ({"allow_tied_strata": None, "bins": 1}, "bin count must be >= 2, got 1"),
        ],
    )
    def test_scan_config_checks_its_binning_once(self, options, message):
        with pytest.raises(ValidationError) as err:
            ScanConfig(**options)
        assert str(err.value) == message

    def test_bin_count_bound(self):
        assert MAX_BINS == 10_000
        assert ScanConfig(bins=MAX_BINS).bins == MAX_BINS
        values = [float(i) for i in range(MAX_BINS + 1)]
        assert len(bin_numeric(values, "equal_width", MAX_BINS)) == MAX_BINS - 1
        with pytest.raises(ValidationError, match=r"^bin count must be <= 10000, got 10001$"):
            bin_numeric(values, "equal_width", MAX_BINS + 1)
        records = records_from_columns(
            g=["a", "b"], out=[True, False], x=[1.0, 2.0], cov=["u", "u"]
        )
        for covariate in ("x", "cov"):
            with pytest.raises(ValidationError, match=r"^bin count must be <= 10000"):
                stratify(records, "g", "out", covariate, bins=MAX_BINS + 1)

    def test_scan_skips_an_overflowing_binning(self):
        records = records_from_columns(
            g=["a", "b", "a", "b"], out=[True, False, False, True],
            x=[-1.7e308, 1.7e308, 1.6e308, -1.6e308],
        )
        config = ScanConfig(binning="equal_width", bins=2)
        [skip] = scan(records, "g", "out", ["x"], config)
        assert (skip.reason, skip.detail) == (
            "numeric-overflow", "equal_width bin edges overflow the float range: [inf]"
        )

    def test_ints_past_two_to_the_53_bin_as_their_floats(self):
        # a table stores an int cell as its float, so 2**53 and 2**53 + 1 are
        # one value to every analysis, as if they had been given as floats
        columns = (Column("g", "categorical"), Column("out", "boolean"),
                   Column("x", "numeric"))
        big = 2**53
        ints = RecordTable(columns, [("a", True, big), ("a", False, big + 1),
                                     ("b", False, big), ("b", True, big + 1)])
        floats = RecordTable(columns, [(g, o, float(x)) for g, o, x in ints.rows])
        assert ints.values("x") == [float(big)] * 4
        config = ScanConfig(binning="equal_width", bins=2)
        [skip] = scan(ints, "g", "out", ["x"], config)
        assert (skip.reason, skip.detail) == (
            "too-few-distinct-values", "all values are identical"
        )
        assert scan(floats, "g", "out", ["x"], config) == [skip]
        with pytest.raises(TooFewDistinctValues):
            stratify(ints, "g", "out", "x", binning="equal_width", bins=2)


def _sort_based_binning(column, code, strategy, k):
    """Numeric binning the way it was done on the sorted rows: edges from
    ``statistics.quantiles``, bounds from ``min``/``max`` of the rows, one
    bisection per row. ``None`` where there are too few distinct values."""
    vals = list(map(float, column))
    if strategy == "quantile":
        if len(set(vals)) < k:
            return None
        edges = statistics.quantiles(vals, n=k, method="inclusive")
    else:
        lo, hi = min(vals), max(vals)
        if lo == hi:
            return None
        edges = [lo + (hi - lo) * j / k for j in range(1, k)]
    bounds = [min(column), *edges, max(column)]
    labels = [
        f"bin{i:02d} [{lo:.6g}, {hi:.6g}{']' if i == k - 1 else ')'}"
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]
    tally = Counter(zip((bisect_right(edges, v) for v in column), code))
    strata = [
        (labels[b], (tally[b, 0] + tally[b, 1], tally[b, 1]), (tally[b, 2] + tally[b, 3], tally[b, 3]))
        for b in sorted({b for b, _ in tally})
    ]
    return edges, f"{strategy} k={k} edges={[round(e, 6) for e in edges]}", strata


def test_binning_matches_the_sort_based_binning():
    # ties, signed zeros (equal, but printed as -0 and 0), an int zero,
    # subnormals and large values; edges are compared bit for bit
    pool = [-0.0, 0.0, 0, -1.5, 2.0, 3.25, 5e-324, -7, 0.1, 1e300]
    rng = random.Random(11)
    signed_zero_edges = one_sided = 0
    for case in range(300):
        n = rng.randrange(2, 40)
        column = [
            rng.choice(pool) if rng.random() < 0.7 else round(rng.uniform(-2, 2), 1)
            for _ in range(n)
        ]
        rows = [("ab"[i % 2], rng.random() < 0.5, v) for i, v in enumerate(column)]
        records = RecordTable(_cols("g:categorical", "out:boolean", "x:numeric"), rows)
        # each row's side code, 2 * group index + outcome, derived here
        code = [2 * "ab".index(g) + out for g, out, _ in rows]
        tally = _record_tally(records, "g", "out", ["x"])
        groups = tally.groups()
        strategy, k = rng.choice(["quantile", "equal_width"]), rng.randrange(2, 7)
        config = ScanConfig(strategy, k)
        expected = _sort_based_binning(column, code, strategy, k)
        if expected is None:
            with pytest.raises(TooFewDistinctValues):
                bin_numeric(column, strategy, k)
            with pytest.raises(TooFewDistinctValues):
                _stratified(tally, "x", groups, config)
            continue
        edges, description, strata = expected
        assert list(map(repr, bin_numeric(column, strategy, k))) == list(map(repr, edges)), case
        # the rows, not the comparison built from them: a stratum may be
        # empty on one side, which building the comparison rejects
        got_columns, got_description = _stratified(tally, "x", groups, config)
        got_strata = [(label, (t1, p1), (t2, p2)) for label, t1, p1, t2, p2 in zip(*got_columns)]
        assert got_description == description, case
        assert got_strata == strata, case
        signed_zero_edges += "-0.0" in description
        one_sided += any(0 in (t1, t2) for _, (t1, _), (t2, _) in strata)
    assert signed_zero_edges >= 5  # the inputs reach the signed-zero trap
    assert one_sided >= 100  # and tables empty on one side


class TestScan:
    def test_condition_found_noise_consistent(self):
        records = hospital_records(noise_seed=5)
        results = scan(records, "hospital", "death", ["noise", "condition"])
        assert [type(r) for r in results] == [Finding, Finding]
        first, second = results
        assert first.covariate == "condition"
        assert first.report.classification is Classification.FULL_REVERSAL
        assert first.binning == "categorical"
        assert sum(first.stratum_sizes) == 160
        assert second.covariate == "noise"
        assert second.report.classification is Classification.CONSISTENT

    def test_order_is_deterministic_in_candidate_order(self):
        records = hospital_records(noise_seed=5)
        a = scan(records, "hospital", "death", ["noise", "condition"])
        b = scan(records, "hospital", "death", ["condition", "noise"])
        assert a == b

    def test_empty_candidates_rejected(self):
        with pytest.raises(EmptyCandidates):
            scan(hospital_records(), "hospital", "death", [])

    def test_min_stratum_size_filters_and_skips(self):
        records = hospital_records()
        config = ScanConfig(min_stratum_size=1000)
        results = scan(records, "hospital", "death", ["condition"], config)
        assert results == [
            SkippedCandidate(
                "condition",
                "all-strata-filtered",
                "every stratum of 'condition' is smaller than 1000",
            )
        ]

    def test_unknown_candidate_becomes_skip(self):
        records = hospital_records()
        results = scan(records, "hospital", "death", ["condition", "ghost"])
        kinds = {r.covariate: type(r) for r in results}
        assert kinds == {"condition": Finding, "ghost": SkippedCandidate}
        skip = [r for r in results if isinstance(r, SkippedCandidate)][0]
        assert skip.reason == "unknown-column"

    @pytest.mark.parametrize("candidates", [["cov", "ghost"], ["ghost"]])
    def test_group_and_outcome_kinds_fail_the_scan(self, candidates):
        """A numeric group column or a non-boolean outcome column fails the
        scan before any candidate is tried, as a three-valued group column
        does, even when every candidate is unknown."""
        for records, message in (
            (numeric_group_records(), "group column 'g' must be categorical"),
            (text_outcome_records(), "outcome column 'out' must be boolean"),
        ):
            with pytest.raises(ValidationError) as err:
                scan(records, "g", "out", candidates)
            assert str(err.value) == message

    def test_filtering_can_restore_detectability(self):
        # one tiny stratum with an empty side; min size 2 drops it
        records = records_from_columns(
            g=["a", "a", "b", "b", "a"],
            out=[True, False, False, True, True],
            cov=["big", "big", "big", "big", "solo"],
        )
        bare = scan(records, "g", "out", ["cov"])
        assert isinstance(bare[0], SkippedCandidate)
        assert bare[0].reason == "empty-stratum-side"
        filtered = scan(
            records, "g", "out", ["cov"], ScanConfig(min_stratum_size=2)
        )
        assert isinstance(filtered[0], Finding)
        assert filtered[0].stratum_sizes == (4,)


def test_stratify_is_one_scan_candidate():
    """``stratify`` under ``ScanConfig(binning, bins)`` is that scan's
    candidate: the same report and stratum sizes where the scan finds, and
    an error with the skip's code and message where the scan skips."""
    rng = random.Random(12)
    candidates = ["site", "age", "died", "flat", "level", "ghost"]
    seen = Counter()
    for case in range(30):
        n = rng.randrange(6, 50)
        records = records_from_columns(
            g=["a", "b", *(rng.choice("ab") for _ in range(n - 2))],
            out=[rng.random() < 0.4 for _ in range(n)],
            site=[rng.choice(["s1", "s2", "s3"]) for _ in range(n)],
            age=[round(rng.uniform(0, 9), rng.choice([0, 1])) for _ in range(n)],
            died=[rng.random() < 0.5 for _ in range(n)],
            flat=[1.5] * n,
            level=["only"] * n,
        )
        for binning in ("quantile", "equal_width"):
            for bins in range(2, 7):
                config = ScanConfig(binning, bins)
                for result in scan(records, "g", "out", candidates, config):
                    try:
                        sc = stratify(
                            records, "g", "out", result.covariate, binning=binning, bins=bins
                        )
                    except ConfoundError as exc:
                        got = SkippedCandidate(result.covariate, exc.code, str(exc))
                    else:
                        sizes = tuple(s.first.total + s.second.total for s in sc.strata)
                        got = Finding(result.covariate, result.binning, detect_reversal(sc), sizes)
                    assert got == result, (case, binning, bins)
                    seen[getattr(result, "reason", "finding")] += 1
    assert seen.keys() == {
        "finding", "unknown-column", "invalid-value", "too-few-distinct-values",
        "empty-stratum-side",
    }


def _outcome(analysis, *args, **kwargs):
    """An analysis's result, or the code and message of its error."""
    try:
        return analysis(*args, **kwargs)
    except ConfoundError as exc:
        return exc.code, str(exc)


def test_int_cells_analyse_as_their_floats():
    """A table of int cells and the table of their floats are one table:
    every stratification, scan and decomposition of the two agrees, also
    where an int above 2**53 rounds (2**53 + 3 is the float 2**53 + 4)."""
    pool = [0, 3, -7, 2**53 + 1, 2**53 + 3, 2**53 + 4, 2**53 + 5, 2**54 + 8,
            2**54 + 9, -(2**53) - 3, 10**17 + 1]
    # the first column bins 4 and 4 as ints but 2 and 6 as floats under
    # equal-width binning into 2 when ints are compared unconverted
    columns = [[0, 0, 2**53 + 3, 2**53 + 3, 2**53 + 4, 2**53 + 4, 2**54 + 8, 2**54 + 8]]
    rng = random.Random(13)
    columns += [[rng.choice(pool) for _ in range(rng.randrange(4, 30))] for _ in range(40)]
    kinds = _cols("g:categorical", "out:boolean", "x:numeric", "y:numeric", "r:categorical")
    for case, xs in enumerate(columns):
        rows = [
            ("ab"[i % 2], rng.random() < 0.5, x, rng.choice(pool), rng.choice("pqr"))
            for i, x in enumerate(xs)
        ]
        as_int = RecordTable(kinds, rows)
        as_float = RecordTable(kinds, [(g, o, float(x), float(y), r) for g, o, x, y, r in rows])
        for binning in ("equal_width", "quantile"):
            for bins in range(2, 7):
                config = ScanConfig(binning, bins)
                assert scan(as_int, "g", "out", ["x", "r"], config) == scan(
                    as_float, "g", "out", ["x", "r"], config
                ), (case, binning, bins)
                assert _outcome(
                    stratify, as_int, "g", "out", "x", binning=binning, bins=bins
                ) == _outcome(
                    stratify, as_float, "g", "out", "x", binning=binning, bins=bins
                ), (case, binning, bins)
        assert _outcome(decompose, as_int, "r", "x", "y") == _outcome(
            decompose, as_float, "r", "x", "y"
        ), case


@settings(max_examples=30)
@given(st.randoms(use_true_random=False))
def test_scan_is_schedule_independent(rnd):
    records = hospital_records(noise_seed=1)
    candidates = ["condition", "noise"]
    rnd.shuffle(candidates)
    results = scan(records, "hospital", "death", candidates)
    assert [r.covariate for r in results] == ["condition", "noise"]
