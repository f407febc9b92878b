"""Between/within covariance decomposition and sign divergence."""

from __future__ import annotations

import json
import math
import random
import sys
from fractions import Fraction
from itertools import chain, repeat
from math import fsum
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confound import ecological
from confound.cli import parse_records_csv, run
from confound.ecological import (
    DivergenceReport,
    EcologicalDecomposition,
    GroupSummary,
    _between_moments,
    _centered,
    _corr,
    _exact_sum,
    _grouped,
    decompose,
    group_means,
    sign_divergence_report,
)
from confound.errors import (
    InsufficientData,
    NonNumeric,
    NumericOverflow,
    UndefinedCorrelation,
    UnknownColumn,
    ValidationError,
)
from confound.records import RecordTable
from support import records_from_columns


# one group whose x mean is inexact, and the same rows with x scaled by 2.5
ONE_GROUP_XS = ([2.0, 0.00029261938329580936], [5.0, 0.0007315484582395234])
ONE_GROUP_Y = [1.0, 0.00029261938329580936]


def _records(groups, xs, ys):
    return records_from_columns(g=list(groups), x=list(xs), y=list(ys))


class TestGroupMeans:
    def test_single_group_plain_means(self):
        r = _records("aaaa", [1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 4.0, 4.0])
        assert group_means(r, "g", "x", "y") == [GroupSummary("a", 4, 2.5, 3.0)]

    def test_two_well_separated_groups(self):
        r = _records("aabb", [0.0, 1.0, 10.0, 11.0], [0.0, 1.0, 10.0, 11.0])
        assert group_means(r, "g", "x", "y") == [
            GroupSummary("a", 2, 0.5, 0.5),
            GroupSummary("b", 2, 10.5, 10.5),
        ]

    def test_non_numeric_rejected(self):
        r = records_from_columns(g=["a", "a"], x=[1.0, 2.0], y=["u", "v"])
        with pytest.raises(NonNumeric):
            group_means(r, "g", "x", "y")

    @pytest.mark.parametrize(
        "groups", [[-0.0, 0.0, 1.0], [True, False, True]], ids=["numeric", "boolean"]
    )
    def test_group_column_must_be_categorical(self, groups):
        # as in a scan: -0.0 and 0.0 are one value, never two groups
        r = records_from_columns(
            g=groups, x=[1.0, 2.0, 3.0], y=[1.0, 3.0, 2.0], t=["u", "v", "w"]
        )
        for analysis in (group_means, decompose):
            with pytest.raises(ValidationError) as err:
                analysis(r, "g", "x", "y")
            assert str(err.value) == "group column 'g' must be categorical"
        # the x and y kinds are checked first
        with pytest.raises(NonNumeric):
            group_means(r, "g", "x", "t")

    @pytest.mark.parametrize(
        "groups, xs, mean_x",
        [
            ("aab", [1.7e308, 1.7e308, 0.0], 1.7e308),
            ("aaa", [1e308, 1e308, -1e308], 3.333333333333333e307),
        ],
        ids=["sum", "partial-sum"],
    )
    def test_mean_past_the_fsum_range(self, groups, xs, mean_x):
        # math.fsum raises on these sums; the mean of finite floats is finite
        first = group_means(_records(groups, xs, [1.0, 2.0, 3.0]), "g", "x", "y")[0]
        assert (first.label, first.mean_x) == ("a", mean_x)
        assert mean_x == float(Fraction(sum(map(Fraction, xs[: first.n])), first.n))


class TestDecompose:
    def test_single_group_is_all_within(self):
        r = _records("aaaa", [1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0])
        d = decompose(r, "g", "x", "y")
        assert d.between_cov == pytest.approx(0.0, abs=1e-15)
        assert d.within_cov == pytest.approx(d.total_cov, abs=1e-15)

    def test_singleton_groups_are_all_between(self):
        r = _records("abcd", [1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0])
        d = decompose(r, "g", "x", "y")
        assert d.within_cov == pytest.approx(0.0, abs=1e-15)
        assert d.between_cov == pytest.approx(d.total_cov, abs=1e-15)

    @pytest.mark.parametrize("xs", ONE_GROUP_XS, ids=["x", "x-scaled"])
    def test_single_group_has_no_between_spread(self, xs):
        # the mean of these x values is rounded: the between column must be
        # zero, not that rounding residue with a correlation of +-1
        d = decompose(_records("aa", xs, ONE_GROUP_Y), "g", "x", "y")
        assert d.between_cov == 0.0
        assert d.between_corr is None
        assert d.within_cov == d.total_cov
        with pytest.raises(UndefinedCorrelation):
            sign_divergence_report(d)

    def test_constant_groups_have_no_within_spread(self):
        # centering the between column again on its own mean would leave
        # residue here, and a within correlation of +-1
        d = decompose(_records("aab", [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]), "g", "x", "y")
        assert d.within_cov == 0.0
        assert d.within_corr is None

    def test_two_groups_have_a_unit_between_correlation(self):
        # the rounded overall mean leaves these group means off center; the
        # between column is centered again, so its correlation is not 0.577
        ys = [0.8474337369372327, 0.763774618976614, 0.2550690257394217]
        d = decompose(_records("aab", [0.2, 1.1, 0.65], ys), "g", "x", "y")
        assert abs(abs(d.between_corr) - 1.0) <= 1e-12

    def test_two_groups_seeded(self):
        # group b's x values sit at group a's mean, so the two x means differ
        # by rounding alone; two means per variable lie on one line, so the
        # between correlation is +-1 whenever it is defined
        rng = random.Random(9)
        for _ in range(300):
            a = [rng.uniform(-1.0, 1.0) for _ in range(rng.randint(1, 6))]
            xs = a + [fsum(a) / len(a)] * rng.randint(1, 6)
            ys = [rng.uniform(-1.0, 1.0) for _ in xs]
            groups = ["a"] * len(a) + ["b"] * (len(xs) - len(a))
            d = decompose(_records(groups, xs, ys), "g", "x", "y")
            if d.between_corr is not None:
                assert abs(abs(d.between_corr) - 1.0) <= 1e-12, (xs, ys)

    def test_single_row_rejected(self):
        r = _records("a", [1.0], [1.0])
        with pytest.raises(InsufficientData):
            decompose(r, "g", "x", "y")

    @pytest.mark.parametrize("rows, error", [(1, InsufficientData), (2, UnknownColumn)])
    def test_a_table_of_no_columns_keeps_its_rows(self, rows, error):
        # no block holds the rows of a table without columns, yet they count
        with pytest.raises(error):
            decompose(RecordTable([], [()] * rows), "g", "x", "y")

    @pytest.mark.parametrize(
        "entry, xs, ys",
        [
            (decompose, [1e200, -1e200, 3.0], [1.0, 2.0, 3.0]),
            # products overflow to both infinities, whose sum is undefined
            (decompose, [1e200, -1e200, 0.0], [1e200, 1e200, 0.0]),
            (decompose, [1.7e308, 1.7e308, 0.0], [1.0, 2.0, 3.0]),
            # the mean is finite, but fsum's partial sum and the squares are not
            (decompose, [1e308, 1e308, -1e308], [1.0, 2.0, 3.0]),
        ],
        ids=["decompose-square", "decompose-infinities", "decompose-sum", "decompose-partial-sum"],
    )
    def test_float_overflow_rejected(self, entry, xs, ys):
        r = _records("aab", xs, ys)
        with pytest.raises(
            NumericOverflow, match="^columns 'x' and 'y' are too large for float moments$"
        ):
            entry(r, "g", "x", "y")

    def test_robinson_fixture(self, robinson_csv):
        records = parse_records_csv(
            robinson_csv, numeric_columns=("foreign_born", "literate")
        )
        d = decompose(records, "region", "foreign_born", "literate")
        assert d.within_corr < 0 < d.between_corr
        assert d.total_cov == pytest.approx(-0.06, abs=1e-12)
        assert d.between_cov == pytest.approx(1 / 60, abs=1e-12)
        assert d.within_cov == pytest.approx(-(0.06 + 1 / 60), abs=1e-12)
        report = sign_divergence_report(d)
        assert report.divergent
        assert report.verdict == "DIVERGENT"
        means = group_means(records, "region", "foreign_born", "literate")
        assert [g.label for g in means] == ["middle", "north", "south"]
        # cross-group trend is positive: larger immigrant share, higher literacy
        ordered = sorted(means, key=lambda g: g.mean_x)
        assert [g.mean_y for g in ordered] == sorted(g.mean_y for g in ordered)

    @pytest.mark.parametrize(
        "xs, covariance",
        [
            (ONE_GROUP_XS[0], "total +0.499781 = between +0.000000 + within +0.499781"),
            (ONE_GROUP_XS[1], "total +1.249451 = between +0.000000 + within +1.249451"),
        ],
        ids=["x", "x-scaled"],
    )
    def test_single_group_reports(self, tmp_path, capsys, xs, covariance):
        p = tmp_path / "one.csv"
        rows = "".join(f"a,{x!r},{y!r}\n" for x, y in zip(xs, ONE_GROUP_Y))
        p.write_text("region,x,y\n" + rows)
        argv = ["decompose", str(p), "--group-col", "region", "--x", "x", "--y", "y"]
        assert run(argv) == 0
        text = capsys.readouterr().out.splitlines()
        assert text[-3:] == [
            f"covariance: {covariance}",
            "correlation: total +1.0000  between undefined  within +1.0000",
            "divergence: undefined (a correlation has zero variance)",
        ]
        assert run([*argv, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["covariance"]["between"] == 0.0
        assert doc["covariance"]["within"] == doc["covariance"]["total"]
        assert doc["correlation"]["between"] is None
        assert doc["divergence"] is None

    def test_subnormal_variances_give_a_correlation(self):
        # var_x * var_y underflows to 0 here; the correlation is still defined
        assert 5e-324 * 5e-324 == 0.0
        assert _corr(5e-324, 5e-324, 5e-324) == 1.0
        assert _corr(-5e-324, 5e-324, 1e-320) < 0.0
        d = decompose(_records("aa", [0.0, 1e-161], [0.0, 1e-161]), "g", "x", "y")
        assert 0.0 < d.total_cov < 1e-300
        assert d.total_corr is not None and d.total_corr > 0.0

    def test_undefined_correlations_are_flagged(self):
        r = _records("aabb", [1.0, 2.0, 3.0, 4.0], [5.0, 5.0, 5.0, 5.0])
        d = decompose(r, "g", "x", "y")
        assert d.total_corr is None
        assert d.between_corr is None
        assert d.within_corr is None


class TestSignDivergence:
    def _decomp(self, between, within):
        return EcologicalDecomposition(
            total_cov=0.0,
            between_cov=0.0,
            within_cov=0.0,
            total_corr=0.0,
            between_corr=between,
            within_corr=within,
            group_summaries=(),
        )

    def test_opposite_signs_diverge(self):
        report = sign_divergence_report(self._decomp(0.8, -0.3))
        assert report == DivergenceReport(True, 0.8, -0.3)

    def test_same_signs_do_not(self):
        assert not sign_divergence_report(self._decomp(0.8, 0.3)).divergent

    def test_zero_is_not_a_sign(self):
        assert not sign_divergence_report(self._decomp(0.8, 0.0)).divergent

    def test_undefined_rejected(self):
        with pytest.raises(UndefinedCorrelation):
            sign_divergence_report(self._decomp(None, -0.3))


finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


@settings(max_examples=150)
@given(st.data())
def test_law_of_total_covariance(data):
    n = data.draw(st.integers(2, 60))
    xs = data.draw(st.lists(finite, min_size=n, max_size=n))
    ys = data.draw(st.lists(finite, min_size=n, max_size=n))
    groups = data.draw(
        st.lists(st.sampled_from("abcde"), min_size=n, max_size=n)
    )
    d = decompose(_records(groups, xs, ys), "g", "x", "y")
    assert d.total_cov == pytest.approx(
        d.between_cov + d.within_cov, abs=1e-9
    )
    for corr in (d.total_corr, d.between_corr, d.within_corr):
        if corr is not None:
            assert -1.0 <= corr <= 1.0


@given(st.data())
def test_invariances(data):
    n = data.draw(st.integers(2, 30))
    xs = data.draw(st.lists(finite, min_size=n, max_size=n))
    ys = data.draw(st.lists(finite, min_size=n, max_size=n))
    groups = data.draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
    base = decompose(_records(groups, xs, ys), "g", "x", "y")

    # row permutation
    rnd = random.Random(data.draw(st.integers(0, 2**16)))
    order = list(range(n))
    rnd.shuffle(order)
    permuted = decompose(
        _records(
            [groups[i] for i in order],
            [xs[i] for i in order],
            [ys[i] for i in order],
        ),
        "g",
        "x",
        "y",
    )
    # every sum is exactly rounded, so row order changes no bit
    assert permuted == base

    # group relabeling changes labels, not covariances
    relabeled = decompose(
        _records([g.upper() for g in groups], xs, ys), "g", "x", "y"
    )
    assert relabeled.between_cov == pytest.approx(base.between_cov, abs=1e-12)

    # translation leaves every covariance unchanged
    shifted = decompose(
        _records(groups, [x + 3.0 for x in xs], [y - 7.0 for y in ys]),
        "g",
        "x",
        "y",
    )
    assert shifted.total_cov == pytest.approx(base.total_cov, abs=1e-9)
    assert shifted.between_cov == pytest.approx(base.between_cov, abs=1e-9)
    assert shifted.within_cov == pytest.approx(base.within_cov, abs=1e-9)

    # positive scaling of x scales covariances, keeps correlation signs
    scaled = decompose(
        _records(groups, [2.5 * x for x in xs], ys), "g", "x", "y"
    )
    assert scaled.total_cov == pytest.approx(2.5 * base.total_cov, abs=1e-9)
    assert scaled.between_cov == pytest.approx(2.5 * base.between_cov, abs=1e-9)
    assert scaled.within_cov == pytest.approx(2.5 * base.within_cov, abs=1e-9)
    for a, b in (
        (scaled.total_corr, base.total_corr),
        (scaled.between_corr, base.between_corr),
        (scaled.within_corr, base.within_corr),
    ):
        if a is not None and b is not None and abs(b) > 1e-7:
            assert a * b > 0  # sign preserved under positive scaling


def _row_fsum(values, sizes):
    """The row-level sum the group-level one stands for: each value once per row."""
    return fsum(chain.from_iterable(map(repeat, values, sizes)))


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except (OverflowError, ValueError) as exc:  # fsum past the float range, inf - inf
        return type(exc).__name__


def _settled(f, *args):
    """``f``'s moments as decompose takes them: their repr when all are
    finite, else the one NumericOverflow it raises for an error or for a
    moment that is not finite."""
    try:
        moments = f(*args)
    except (OverflowError, ValueError):
        return "NumericOverflow"
    return repr(moments) if all(map(math.isfinite, moments)) else "NumericOverflow"


class TestGroupLevelSums:
    """The between moments and the mean offset are summed per group, as an
    exact integer total; they must give the row-level fsum's bits wherever
    fsum gives a float, and a float wherever the exact total is one."""

    @staticmethod
    def _values(rng, kind, n):
        if kind == "huge":  # around 2**996 over the row count
            edge = 2.0**996 / n
            return lambda: rng.choice([-1, 1]) * edge * rng.choice(
                [rng.uniform(0.5, 1.0), 1.0, rng.uniform(1.0, 2.0), 2.0**20, 2.0**27]
            )
        if kind == "tiny":  # subnormal and near the normal range
            return lambda: rng.choice([-1, 1]) * rng.choice(
                [5e-324 * rng.randrange(1, 2**20), 2.2250738585072014e-308 * rng.random(),
                 rng.uniform(0, 1) * 2.0 ** rng.randint(-1074, -900)]
            )
        if kind == "mixed":  # magnitudes far apart, so terms cancel
            return lambda: rng.uniform(-1, 1) * 2.0 ** rng.randint(-60, 60)
        return lambda: rng.uniform(-1e3, 1e3)

    @pytest.mark.parametrize("kind", ["huge", "tiny", "mixed", "plain"])
    def test_repeated_sum_is_the_row_sum(self, kind):
        rng = random.Random(f"group-level sums:{kind}")
        for case in range(400):
            k = rng.choice([1, 1, 2, 3, 7, 20])  # a single group, and more
            sizes = [rng.choice([1, 1, 2, rng.randrange(1, 300)]) for _ in range(k)]
            draw = self._values(rng, kind, sum(sizes))
            values = [draw() for _ in range(k)]
            assert _outcome(_exact_sum, values, sizes) == _outcome(
                _row_fsum, values, sizes
            ), (values, sizes)

    def test_repeated_sum_of_large_groups_is_exact(self):
        # groups too large to sum row by row here: the exactly rounded total
        rng = random.Random("group-level sums: large groups")
        for case in range(300):
            k = rng.randrange(1, 5)
            sizes = [rng.randrange(1, (2**27 - 1) // k) for _ in range(k)]
            values = [rng.uniform(-1, 1) * 2.0 ** rng.randint(-1074, 900) for _ in range(k)]
            exact = sum(Fraction(v) * n for v, n in zip(values, sizes))
            assert _exact_sum(values, sizes) == float(exact), (values, sizes)

    @pytest.mark.parametrize(
        "scale", [1.0, 1e-300, 5e-324, 1e150, 1e300, 2.0**990, 2.0**1000]
    )
    def test_between_values_and_moments_are_the_row_level_ones(self, scale):
        # against the row-level formulas they replaced: each row's between
        # value (its group's mean less the offset, the rows' mean of the
        # group means), then fsum over the rows of their products
        rng = random.Random(f"between moments:{scale}")
        for case in range(60):
            n = rng.randrange(2, 40)
            labels = [f"g{rng.randrange(rng.choice([1, 3, 12]))}" for _ in range(n)]
            xs = [rng.uniform(-1, 1) * scale for _ in range(n)]
            ys = [rng.uniform(-2, 1) * rng.choice([1.0, scale]) for _ in range(n)]
            records = _records(labels, xs, ys)
            groups = _grouped(records, "g", "x", "y").groups()
            sizes = [g.n for g, _, _ in groups]

            def reference(cols):
                mean = fsum(chain.from_iterable(cols)) / n
                means = [fsum(v - mean for v in c) / len(c) for c in cols]
                means = means if len(cols) > 1 else [0.0]
                rows = [[m] * len(c) for m, c in zip(means, cols)]
                offset = fsum(chain.from_iterable(rows)) / n
                return list(chain.from_iterable([m - offset for m in r] for r in rows))

            def new(cols):
                between = _centered(cols, sizes)[2]
                return list(chain.from_iterable(map(repeat, between, sizes)))

            for pick in (1, 2):
                cols = [g[pick] for g in groups]
                assert _outcome(new, cols) == _outcome(reference, cols), case
            try:
                bx, by = (
                    _centered([g[i] for g in groups], sizes)[2] for i in (1, 2)
                )
            except (OverflowError, ValueError):
                continue
            rx, ry = (list(chain.from_iterable(map(repeat, b, sizes))) for b in (bx, by))
            pairs = ((rx, ry), (rx, rx), (ry, ry))
            assert _settled(_between_moments, bx, by, sizes, n) == _settled(
                lambda: tuple(fsum(map(mul, a, b)) / n for a, b in pairs)
            ), case

    @pytest.mark.parametrize(
        "values, sizes, total",
        [
            ([1e308, -1e308], [2, 2], 0.0),
            ([1e308, -1e308], [3, 2], 1e308),
            ([-1e308, 1e308, 5e-324], [2, 2, 3], 1.5e-323),
        ],
    )
    def test_exact_where_the_row_sum_overflows_part_way(self, values, sizes, total):
        # fsum's running sum over the rows leaves the float range, so it
        # raises; the group-level sum is the exact total, correctly rounded
        assert _outcome(_row_fsum, values, sizes) == "OverflowError"
        assert _outcome(_exact_sum, values, sizes) == repr(total)

    @pytest.mark.parametrize(
        "values, sizes, outcome",
        [
            ([1e308], [2], "OverflowError"),
            # half an ulp past the largest float rounds up, out of the range
            ([sys.float_info.max, 2.0**970], [1, 1], "OverflowError"),
            ([sys.float_info.max, 2.0**969], [1, 1], repr(sys.float_info.max)),
            ([math.inf, 1.0], [2, 3], "inf"),
            ([math.inf, -math.inf], [1, 1], "ValueError"),
            ([math.nan, 1.0], [1, 1], "nan"),
        ],
    )
    def test_past_the_float_range_and_non_finite(self, values, sizes, outcome):
        # the row-level sum's outcome is the exact sum's for finite values;
        # a non-finite one has no integer ratio, so the exact sum raises, and
        # decompose reports either as one NumericOverflow (see below)
        assert _outcome(_row_fsum, values, sizes) == outcome
        if all(map(math.isfinite, values)):
            assert _outcome(_exact_sum, values, sizes) == outcome
        else:
            with pytest.raises((OverflowError, ValueError)):
                _exact_sum(values, sizes)

    @pytest.mark.parametrize(
        "xs, ys",
        [
            # a row centered past the float range: one group mean is inf
            ([1.7e308, -1.7e308, -1.7e308], [1.0, 2.0, 3.0]),
            # and -inf
            ([-1.7e308, 1.7e308, 1.7e308], [1.0, 2.0, 3.0]),
            # between products past the float range, all inf
            ([1e200, -1e200], [1e200, -1e200]),
            # inf and -inf, whose row-level sum is inf - inf
            ([1e200, -1e200, 0.0], [1e200, 1e200, -2e200]),
        ],
    )
    def test_non_finite_group_sums_are_numeric_overflow(self, xs, ys):
        # a group-level sum of an inf takes no integer ratio; the rows' fsum
        # of it is inf, nan or an error, which decompose reports the same way
        records = _records("abc"[: len(xs)], xs, ys)
        with pytest.raises(NumericOverflow) as err:
            decompose(records, "g", "x", "y")
        assert str(err.value) == ecological._TOO_LARGE.format("x", "y")

    @staticmethod
    def _near_the_top(rng):
        # groups whose centered rows sum to negatives first, past -top
        # together, then to positives; the mean keeps the raw rows' running
        # sum in range, so the row-level sum of the group means overflows
        # part-way and the exact one does not
        top = sys.float_info.max
        neg, pos = ([rng.uniform(0.4, 0.9) for _ in range(rng.randrange(2, 4))] for _ in "np")
        scale = min(sum(neg), sum(pos))
        sums = [-u * scale / sum(neg) for u in neg] + [v * scale / sum(pos) for v in pos]
        sizes = [rng.choice([1, 1, 2]) for _ in sums]
        mean = rng.uniform(0.2, 1) * top / sum(sizes)
        xs = [s * (top - mean) / k + mean for s, k in zip(sums, sizes) for _ in range(k)]
        labels = [f"g{i}" for i, k in enumerate(sizes) for _ in range(k)]
        return labels, xs, [rng.uniform(-1, 1) for _ in xs]

    @staticmethod
    def _near_1e150(rng):
        # products near 1e300 and finite moments: decompose's bytes
        n = rng.randrange(2, 40)
        labels = [f"g{rng.randrange(rng.choice([1, 3, 12]))}" for _ in range(n)]
        xs = [rng.uniform(-1, 1) * 1e150 for _ in range(n)]
        return labels, xs, [rng.uniform(-2, 1) * rng.choice([1.0, 1e150]) for _ in range(n)]

    @pytest.mark.parametrize("kind", ["_near_the_top", "_near_1e150"])
    def test_decompose_is_that_of_the_row_level_sums(self, kind, monkeypatch):
        # decompose gives the same bytes, or the same NumericOverflow, as with
        # every group-level sum taken row by row: where a group-level sum is
        # finite but the row-level fsum overflows part-way, a variance sum
        # overflows too (Cauchy-Schwarz)
        rng = random.Random(f"decompose, row-level sums:{kind}")
        part_way = 0

        def row_level(values, sizes, divisor=1):
            nonlocal part_way
            if divisor != 1:  # a mean's exact fallback, not a group-level sum
                return _exact_sum(values, sizes, divisor)
            try:
                return _row_fsum(values, sizes)
            except OverflowError:
                part_way += _outcome(_exact_sum, values, sizes) != "OverflowError"
                raise

        def outcome(records):
            try:
                return repr(decompose(records, "g", "x", "y"))
            except NumericOverflow as exc:
                return str(exc)

        for case in range(200):
            records = _records(*getattr(self, kind)(rng))
            new = outcome(records)
            with monkeypatch.context() as m:
                m.setattr(ecological, "_exact_sum", row_level)
                assert outcome(records) == new, case
        assert part_way > 0 or kind == "_near_1e150"
