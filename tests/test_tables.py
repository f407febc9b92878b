"""Exact-arithmetic core: counts, rates, comparison, pooling."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from confound import scan, stratify
from confound.cli import TABLE_HEADER, parse_table_csv, serialize_table_csv
from confound.errors import ConfoundError, EmptyInput, EmptyStratumSide, ValidationError
from confound.geometry import GroupPath
from confound.records import Column, RecordTable
from confound.standardize import reference_weights, standardized_rate
from confound.tables import (
    Counts,
    Direction,
    Rate,
    StratifiedComparison,
    Stratum,
    aggregate,
    compare,
    pooled_rate,
    rate,
)
from support import (
    BERKELEY,
    HOSPITAL,
    brute_force_classify,
    comparisons,
    counts,
    rates,
    records_from_columns,
)


class TestCounts:
    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            Counts(-1, 0)
        with pytest.raises(ValidationError):
            Counts(5, -1)

    def test_rejects_positive_above_total(self):
        with pytest.raises(ValidationError):
            Counts(3, 4)

    def test_rejects_non_integers(self):
        with pytest.raises(ValidationError):
            Counts(3.0, 1)
        with pytest.raises(ValidationError):
            Counts(True, True)

    @pytest.mark.parametrize(
        "total, positive, message",
        [
            (True, 1, "total must be an integer, got True"),
            (5, False, "positive must be an integer, got False"),
            (3.0, 1, "total must be an integer, got 3.0"),
            (3, 1.0, "positive must be an integer, got 1.0"),
            (-1, 0, "total must be >= 0, got -1"),
            (5, -1, "positive must be >= 0, got -1"),
            (3, 4, "positive (4) exceeds total (3)"),
            # total is checked whole before positive, and both before the pair
            (-1, "x", "total must be >= 0, got -1"),
            (2.5, -1, "total must be an integer, got 2.5"),
            (-2, -3, "total must be >= 0, got -2"),
            (0, None, "positive must be an integer, got None"),
        ],
    )
    def test_first_fault_and_its_message(self, total, positive, message):
        with pytest.raises(ValidationError) as err:
            Counts(total, positive)
        assert str(err.value) == message

    def test_int_subclasses_are_integers(self):
        class Count(int):
            pass

        assert Counts(Count(5), Count(2)) == Counts(5, 2)
        with pytest.raises(ValidationError, match=r"positive \(5\) exceeds total \(2\)"):
            Counts(Count(2), Count(5))


class TestRate:
    def test_hospital_cell(self):
        r = rate(Counts(60, 36))
        assert (r.numerator, r.denominator) == (36, 60)  # kept unreduced
        assert r.percent() == "60.0%"

    def test_zero_events(self):
        assert rate(Counts(17, 0)).percent() == "0.0%"
        assert rate(Counts(17, 0)).value == 0.0

    def test_berkeley_cell(self):
        assert rate(Counts(825, 512)).percent() == "62.1%"

    def test_zero_total_rejected(self):
        with pytest.raises(EmptyStratumSide):
            rate(Counts(0, 0))

    @pytest.mark.parametrize(
        "num,den,expected",
        [
            (1, 400, "0.3%"),  # 0.25% rounds half-up
            (1241, 2000, "62.1%"),  # 62.05% rounds half-up
            (89, 108, "82.4%"),
            (557, 1835, "30.4%"),
            (202, 593, "34.1%"),
            (1, 1, "100.0%"),
        ],
    )
    def test_percent_rounds_half_up(self, num, den, expected):
        assert Rate(num, den).percent() == expected

    def test_invalid_rate(self):
        with pytest.raises(ValidationError):
            Rate(1, 0)
        with pytest.raises(ValidationError):
            Rate(5, 4)
        with pytest.raises(ValidationError, match="numerator must be an integer"):
            Rate(1.0, 2)

    @pytest.mark.parametrize(
        "numerator, denominator, message",
        [
            (5, 4, "numerator (5) exceeds denominator (4)"),
            (1, 0, "numerator (1) exceeds denominator (0)"),
            (0, 0, "denominator must be > 0, got 0"),
            (1, -1, "denominator must be >= 0, got -1"),
            (-1, 5, "numerator must be >= 0, got -1"),
            (1.0, 2, "numerator must be an integer, got 1.0"),
            (True, 2, "numerator must be an integer, got True"),
            # the denominator is checked whole before the numerator, as a
            # cell's total is before its positive count
            (-1, 2.0, "denominator must be an integer, got 2.0"),
            ("x", -3, "denominator must be >= 0, got -3"),
            (None, 0, "numerator must be an integer, got None"),
        ],
    )
    def test_first_fault_and_its_message(self, numerator, denominator, message):
        with pytest.raises(ValidationError) as err:
            Rate(numerator, denominator)
        assert str(err.value) == message


def _path(total, positive):
    return GroupPath("g", ((0, 0), (total, positive)))


class TestOneCountPairRule:
    """Cells, rates and path points share one count-pair rule, so a bad pair
    meets the same first fault in each, under each one's own names."""

    BUILDS = [
        (Counts, ("total", "positive")),
        (lambda t, p: Rate(p, t), ("denominator", "numerator")),
        (_path, ("x", "y")),
    ]

    @pytest.mark.parametrize("build, names", BUILDS)
    @pytest.mark.parametrize(
        "total, positive, fault",
        [
            (True, 1, "{t} must be an integer, got True"),
            (5, False, "{p} must be an integer, got False"),
            (2.5, 1, "{t} must be an integer, got 2.5"),
            (3, "1", "{p} must be an integer, got '1'"),
            (None, None, "{t} must be an integer, got None"),
            (-1, 0, "{t} must be >= 0, got -1"),
            (5, -1, "{p} must be >= 0, got -1"),
            (-2, -3, "{t} must be >= 0, got -2"),
            (3, 4, "{p} (4) exceeds {t} (3)"),
        ],
    )
    def test_same_first_fault(self, build, names, total, positive, fault):
        with pytest.raises(ValidationError) as err:
            build(total, positive)
        assert err.value.code == "invalid-value"
        t, p = names
        assert str(err.value) == fault.format(t=t, p=p)


class TestAggregate:
    def test_hospital_total_row(self):
        assert aggregate([Counts(60, 36), Counts(20, 4)]) == Counts(80, 40)

    def test_identity(self):
        assert aggregate([Counts(7, 3)]) == Counts(7, 3)

    def test_berkeley_men(self):
        assert aggregate(BERKELEY.counts("first")) == Counts(2691, 1198)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            aggregate([])

    @given(st.lists(counts(), min_size=1, max_size=8), st.randoms())
    def test_commutative_and_associative(self, cells, rnd):
        shuffled = list(cells)
        rnd.shuffle(shuffled)
        assert aggregate(shuffled) == aggregate(cells)
        mid = len(cells) // 2
        if 0 < mid < len(cells):
            two_step = aggregate(
                [aggregate(cells[:mid]), aggregate(cells[mid:])]
            )
            assert two_step == aggregate(cells)


class TestCompare:
    def test_hospital_fixture_inequalities(self):
        assert compare(Rate(36, 60), Rate(14, 20)) is Direction.SECOND_HIGHER
        assert compare(Rate(4, 20), Rate(18, 60)) is Direction.SECOND_HIGHER
        assert compare(Rate(40, 80), Rate(32, 80)) is Direction.FIRST_HIGHER

    def test_tie_across_representations(self):
        assert compare(Rate(1, 2), Rate(2, 4)) is Direction.TIE

    @given(rates(), rates())
    def test_agrees_with_exact_rationals(self, r1, r2):
        f1 = Fraction(r1.numerator, r1.denominator)
        f2 = Fraction(r2.numerator, r2.denominator)
        expected = (
            Direction.FIRST_HIGHER
            if f1 > f2
            else Direction.SECOND_HIGHER
            if f2 > f1
            else Direction.TIE
        )
        assert compare(r1, r2) is expected

    @given(rates(), rates())
    def test_antisymmetric(self, r1, r2):
        assert compare(r1, r2) is compare(r2, r1).flipped()

    @given(rates(), rates(), rates())
    def test_transitive(self, r1, r2, r3):
        if (
            compare(r1, r2) is Direction.FIRST_HIGHER
            and compare(r2, r3) is Direction.FIRST_HIGHER
        ):
            assert compare(r1, r3) is Direction.FIRST_HIGHER

    @given(rates())
    def test_tie_is_reflexive(self, r):
        assert compare(r, r) is Direction.TIE


class TestPooledRate:
    def test_hospital(self):
        assert pooled_rate(HOSPITAL, "first") == Rate(40, 80)
        assert pooled_rate(HOSPITAL, "first").percent() == "50.0%"
        assert pooled_rate(HOSPITAL, "second").percent() == "40.0%"

    def test_berkeley_women(self):
        r = pooled_rate(BERKELEY, "second")
        assert (r.numerator, r.denominator) == (557, 1835)
        assert r.percent() == "30.4%"

    def test_single_stratum_is_identity(self):
        sc = StratifiedComparison.from_pairs(
            "g1", "g2", [("only", (30, 12), (10, 9))]
        )
        assert pooled_rate(sc, "first") == Rate(12, 30)

    def test_zero_side_rejected(self):
        # a side with no subjects cannot be built, so is never pooled
        with pytest.raises(EmptyStratumSide):
            StratifiedComparison.from_pairs("g1", "g2", [("s", (0, 0), (5, 2))])


def unweighted_mean_rate(sc: StratifiedComparison, side: str) -> float:
    """The naive "average of the ratios", which ignores stratum sizes: the
    standardized rate under the ``equal`` reference."""
    got = standardized_rate(sc, side, reference_weights(sc, "equal"))
    rates = [c.positive / c.total for c in sc.counts(side)]
    assert got == pytest.approx(sum(rates) / len(rates))
    return got


class TestUnweightedMeanRate:
    def test_hospital_naive_averages(self):
        assert unweighted_mean_rate(HOSPITAL, "first") == pytest.approx(0.40)
        assert unweighted_mean_rate(HOSPITAL, "second") == pytest.approx(0.50)

    def test_equal_rates_yield_that_rate(self):
        sc = StratifiedComparison.from_pairs(
            "g1", "g2", [("a", (10, 3), (10, 3)), ("b", (40, 12), (20, 6))]
        )
        assert unweighted_mean_rate(sc, "first") == pytest.approx(0.3)

    @given(comparisons(min_total=1))
    def test_is_the_equal_reference_standardized_rate(self, sc):
        for side in ("first", "second"):
            unweighted_mean_rate(sc, side)

    def test_names_the_offending_stratum(self):
        # the table is rejected when built, before any rate is averaged
        with pytest.raises(EmptyStratumSide, match="bad"):
            StratifiedComparison.from_pairs(
                "g1", "g2", [("ok", (5, 1), (5, 1)), ("bad", (0, 0), (5, 1))]
            )


# one table whose stratum 'gap' has no subjects in group 'g1' (the first side)
_GAP_ROWS = [("ok", (5, 1), (5, 2)), ("gap", (0, 0), (5, 1))]
_GAP_STRATA = tuple(Stratum(l, Counts(*a), Counts(*b)) for l, a, b in _GAP_ROWS)
_GAP_CSV = "stratum,group,total,positive\nok,g1,5,1\nok,g2,5,2\ngap,g1,0,0\ngap,g2,5,1\n"
_GAP_MESSAGE = "stratum 'gap' has no rows for group 'g1'"


def _gap_records():
    # stratifies by 'cov' into the strata of _GAP_ROWS
    return records_from_columns(
        g=["g1", "g2", "g2"], out=[True, False, True], cov=["ok", "ok", "gap"]
    )


def _scan_gap():
    # a scan reports the fault as a skip; raise it again to compare it
    [skip] = scan(_gap_records(), "g", "out", ["cov"])
    assert skip.reason == EmptyStratumSide.code
    raise EmptyStratumSide(skip.detail)


class TestEmptyStratumSide:
    @pytest.mark.parametrize(
        "call, same_message",
        [
            (lambda: StratifiedComparison("g1", "g2", _GAP_STRATA), True),
            (lambda: StratifiedComparison.from_pairs("g1", "g2", _GAP_ROWS), True),
            (lambda: parse_table_csv(_GAP_CSV), True),
            (lambda: stratify(_gap_records(), "g", "out", "cov"), True),
            (_scan_gap, True),
            (lambda: rate(_GAP_STRATA[1].first), False),
            # the oracle checks its own input: a stand-in the constructor rejects
            (lambda: brute_force_classify(SimpleNamespace(
                group_first_label="g1", group_second_label="g2", strata=_GAP_STRATA
            )), False),
        ],
        ids=[
            "StratifiedComparison", "from_pairs", "parse_table_csv", "stratify",
            "scan", "rate", "brute_force_classify",
        ],
    )
    def test_one_class_and_one_message(self, call, same_message):
        with pytest.raises(EmptyStratumSide) as err:
            call()
        assert err.value.code == "empty-stratum-side"
        if same_message:  # rate() sees one cell; the oracle is held to its class
            assert str(err.value) == _GAP_MESSAGE

    def test_strata_in_order_then_sides_in_order(self):
        # stratum a has no g2 rows and stratum b no g1 rows
        rows = [("a", (5, 1), (0, 0)), ("b", (0, 0), (5, 1))]
        with pytest.raises(EmptyStratumSide, match="^stratum 'a' .* 'g2'$"):
            StratifiedComparison.from_pairs("g1", "g2", rows)
        # after every other check: a later stratum empty on both sides wins
        with pytest.raises(ValidationError, match="^stratum 'c' has no subjects"):
            StratifiedComparison.from_pairs("g1", "g2", [*rows, ("c", (0, 0), (0, 0))])


    @pytest.mark.parametrize(
        "row, group", [(("b", (0, 0), (5, 2)), "g1"), (("b", (5, 1), (0, 0)), "g2")]
    )
    def test_one_empty_side_among_positive_totals(self, row, group):
        # the only zero total of the table is in one column or the other
        with pytest.raises(EmptyStratumSide, match=f"^stratum 'b' .* '{group}'$"):
            StratifiedComparison.from_pairs("g1", "g2", [("a", (5, 1), (5, 2)), row])


class TestComparisonInvariants:
    def test_requires_a_stratum(self):
        with pytest.raises(ValidationError):
            StratifiedComparison("a", "b", ())

    def test_rejects_duplicate_stratum_labels(self):
        with pytest.raises(ValidationError, match=r"^duplicate stratum labels: \['s'\]$"):
            StratifiedComparison.from_pairs(
                "a", "b", [("s", (1, 0), (1, 0)), ("s", (1, 0), (1, 0))]
            )
        # each repeated label once, sorted
        rows = [(label, (1, 0), (1, 0)) for label in "stusts"]
        with pytest.raises(ValidationError) as err:
            StratifiedComparison.from_pairs("a", "b", rows)
        assert err.value.code == "invalid-value"
        assert str(err.value) == "duplicate stratum labels: ['s', 't']"

    def test_rejects_equal_group_labels(self):
        with pytest.raises(ValidationError):
            StratifiedComparison.from_pairs("a", "a", [("s", (1, 0), (1, 0))])

    def test_rejects_stratum_empty_on_both_sides(self):
        with pytest.raises(ValidationError):
            StratifiedComparison.from_pairs("a", "b", [("s", (0, 0), (0, 0))])

    @pytest.mark.parametrize(
        "first, second, stratum, bad",
        [(1, 2, 3, 1), ("a", 2, "s", 2), ("a", "b", 3, 3), ("a", "b", None, None),
         (b"a", "b", "s", b"a")],
    )
    def test_labels_are_text(self, first, second, stratum, bad):
        with pytest.raises(ValidationError) as err:
            StratifiedComparison.from_pairs(first, second, [(stratum, (60, 36), (20, 14))])
        assert err.value.code == "invalid-value"
        assert str(err.value) == f"labels must be text, got {bad!r}"

    @pytest.mark.parametrize(
        "build, bad",
        [
            (lambda: StratifiedComparison("A", "B", [Stratum("s", (5, 2), (4, 1))]),
             Stratum("s", (5, 2), (4, 1))),
            (lambda: StratifiedComparison("A", "B", [Stratum("s", Counts(5, 2), None)]),
             Stratum("s", Counts(5, 2), None)),
            (lambda: StratifiedComparison("A", "B", [("s", (5, 2), (4, 1))]),
             ("s", (5, 2), (4, 1))),
            (lambda: StratifiedComparison.from_pairs("A", "B", [("s", (5, 2))]),
             ("s", (5, 2))),
            (lambda: StratifiedComparison.from_pairs("A", "B", [("s", (5, 2, 1), (4, 1))]),
             ("s", (5, 2, 1), (4, 1))),
            (lambda: StratifiedComparison.from_pairs("A", "B", ["s52"]), "s52"),
            (lambda: StratifiedComparison.from_pairs("A", "B", [("s", 5, (4, 1))]),
             ("s", 5, (4, 1))),
        ],
        ids=["tuple-counts", "none-counts", "tuple-stratum", "short-row", "long-pair",
             "text-row", "int-pair"],
    )
    def test_malformed_strata_are_invalid_values(self, build, bad):
        with pytest.raises(ValidationError) as err:
            build()
        assert err.value.code == "invalid-value"
        assert str(err.value).endswith(f", got {bad!r}")

    def test_sides_are_first_and_second(self):
        for call in (HOSPITAL.counts, HOSPITAL.group_label):
            with pytest.raises(ValidationError, match="got 'third'"):
                call("third")


# one cell as (total, positive), empty now and then
_cell = st.integers(0, 5).flatmap(lambda t: st.tuples(st.just(t), st.integers(0, t)))


def _ways(cells: list[tuple[tuple[int, int], tuple[int, int]]]) -> tuple[dict, str]:
    """Each way to build the table of ``cells`` (one pair of first and
    second ``(total, positive)`` per stratum), as a call, and the table's
    CSV text as :func:`serialize_table_csv` writes it."""
    labels = [f"s{i:02d}" for i in range(len(cells))]  # sorted, as stratify sorts
    rows = [(label, a, b) for label, (a, b) in zip(labels, cells)]
    columns = [labels, *map(list, zip(*(a + b for a, b in cells)))]
    cell_rows = [
        (label, group, t, p)
        for label, a, b in rows for group, (t, p) in (("g1", a), ("g2", b))
    ]
    text = "".join(",".join(map(str, row)) + "\n" for row in [TABLE_HEADER, *cell_rows])
    ways = {
        "from_pairs": lambda: StratifiedComparison.from_pairs("g1", "g2", rows),
        "constructor": lambda: StratifiedComparison("g1", "g2", [
            Stratum(label, Counts(*a), Counts(*b)) for label, a, b in rows
        ]),
        "parse_table_csv": lambda: parse_table_csv(text),
        "_of_columns": lambda: StratifiedComparison._of_columns("g1", "g2", *columns),
    }
    # records hold no stratum without rows, and need rows in both groups
    t1, t2 = columns[1], columns[3]
    if all(map(max, t1, t2)) and sum(t1) and sum(t2):
        schema = (
            Column("g", "categorical"), Column("out", "boolean"), Column("cov", "categorical")
        )
        records = RecordTable(schema, [
            (group, i < p, label) for label, group, t, p in cell_rows for i in range(t)
        ])
        ways["stratify"] = lambda: stratify(records, "g", "out", "cov")
    return ways, text


class TestOneBuildPath:
    @given(st.lists(st.tuples(_cell, _cell), min_size=1, max_size=6))
    def test_every_way_builds_the_same_table(self, cells):
        ways, text = _ways(cells)
        outcomes = {}
        for name, build in ways.items():
            try:
                outcomes[name] = build()
            except ConfoundError as exc:
                outcomes[name] = (type(exc), str(exc))
        first, *others = outcomes.values()
        if isinstance(first, tuple):  # the same error, naming the same stratum
            assert all(o == first for o in others), outcomes
            return
        for sc in outcomes.values():
            assert sc == first and hash(sc) == hash(first) and repr(sc) == repr(first)
            assert sc._columns == first._columns
            # the text parsed above, so that way is parse(serialize(table))
            assert serialize_table_csv(sc) == text
            backs = [pickle.loads(pickle.dumps(sc, protocol))
                     for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for back in [*backs, copy.copy(sc), copy.deepcopy(sc)]:
                assert type(back) is StratifiedComparison
                assert back == sc and hash(back) == hash(sc) and repr(back) == repr(sc)


def _refuse(self, *args):
    raise AssertionError(f"built a {type(self).__name__}")


# two draws from a small space of tables are often equal
_small_tables = comparisons(max_strata=2, max_total=1)


@given(_small_tables, _small_tables, st.booleans())
def test_table_equality_reads_the_columns(one, two, swap):
    """``==`` and ``!=`` on tables build no ``Counts`` or ``Stratum`` and
    agree with comparing the fields, strata included."""
    if swap:
        two = StratifiedComparison(two.group_second_label, two.group_first_label, two.strata)
    one_fields, two_fields = ((sc.group_label("first"), sc.group_label("second"), sc.strata)
                              for sc in (one, two))
    same = one_fields == two_fields
    rebuilt = StratifiedComparison._of_columns(*one_fields[:2], *one._columns)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(Counts, "__init__", _refuse)
        m.setattr(Stratum, "__init__", _refuse)
        assert (one == two) is same and (two == one) is same
        assert (one != two) is not same and (two != one) is not same
        assert one == rebuilt and not one != rebuilt
        assert one != HOSPITAL and not HOSPITAL == one


@given(comparisons(min_total=1))
def test_mediant_property(sc):
    """The pooled rate lies in [min, max] of the stratum rates, strictly
    inside when the stratum rates are not all equal."""
    for side in ("first", "second"):
        cells = sc.counts(side)
        stratum_rates = [rate(c) for c in cells]
        pooled = pooled_rate(sc, side)
        lo = hi = stratum_rates[0]
        for r in stratum_rates[1:]:
            if compare(r, lo) is Direction.SECOND_HIGHER:
                lo = r
            if compare(r, hi) is Direction.FIRST_HIGHER:
                hi = r
        assert compare(pooled, lo) is not Direction.SECOND_HIGHER
        assert compare(pooled, hi) is not Direction.FIRST_HIGHER
        if compare(lo, hi) is not Direction.TIE:
            assert compare(pooled, lo) is Direction.FIRST_HIGHER
            assert compare(pooled, hi) is Direction.SECOND_HIGHER
