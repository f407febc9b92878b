"""Between/within covariance decomposition and sign divergence."""

from __future__ import annotations

import json
import marshal
import math
import random
from collections import defaultdict
from fractions import Fraction
from math import fsum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confound import ecological
from confound.cli import parse_records_csv, run
from confound.ecological import (
    DivergenceReport,
    EcologicalDecomposition,
    GroupSummary,
    _corr,
    _decomposition,
    _Groups,
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
from goldens import FLIP, golden_path
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


def _exact(labels, xs, ys):
    """The decomposition by its definitions, in ``Fraction``: the (total,
    between, within) covariance of x and y and variances of x and of y, and
    each group's (label, n, mean x, mean y), ordered by label."""
    members = defaultdict(list)
    for i, label in enumerate(labels):
        members[label].append(i)
    n = len(labels)
    fx, fy = list(map(Fraction, xs)), list(map(Fraction, ys))

    def mean(v, rows):
        return sum(v[i] for i in rows) / len(rows)

    def parts(u, v):
        mu, mv = mean(u, range(n)), mean(v, range(n))
        total = sum((a - mu) * (b - mv) for a, b in zip(u, v)) / n
        between = within = Fraction(0)
        for rows in members.values():
            gu, gv = mean(u, rows), mean(v, rows)
            between += len(rows) * (gu - mu) * (gv - mv) / n
            within += sum((u[i] - gu) * (v[i] - gv) for i in rows) / n
        return total, between, within

    groups = [(g, len(r), mean(fx, r), mean(fy, r)) for g, r in sorted(members.items())]
    return parts(fx, fy), parts(fx, fx), parts(fy, fy), groups


def _sign(v) -> int:
    return (v > 0) - (v < 0)


class TestExactDifferential:
    """Every decomposition against its definitions in ``Fraction``: each
    covariance, variance and group mean is the exact value correctly
    rounded, each correlation has the exact covariance's sign or is ``None``
    exactly when a variance is 0 (a variance below the float range rounds
    to 0), and ``NumericOverflow`` is raised exactly
    when an exact moment is past the float range. Each case is read as one
    block, as blocks of a few rows, and as two halves merged through
    ``state()`` and ``merge()`` with ``marshal``, as the command's helper
    sends them."""

    @staticmethod
    def _grid(rng):
        # each group's x and y take two values apiece, on a full grid: the
        # exact within covariance is 0
        labels, xs, ys = [], [], []
        for g in range(rng.randint(1, 4)):
            base = rng.choice([0.0, 10.0, 1e3])
            pairs = [(base + rng.uniform(0, 1), base + rng.uniform(0, 1)) for _ in "xy"]
            k = rng.randint(1, 3)
            for x in pairs[0]:
                for y in pairs[1]:
                    labels += [f"g{g}"] * k
                    xs += [x] * k
                    ys += [y] * k
        return labels, xs, ys

    @staticmethod
    def _offset(rng):
        offset = rng.choice([1e6, 1e9, 1e12, 1.7e12])
        n = rng.randint(2, 30)
        labels = [f"g{rng.randrange(rng.choice([1, 3, 6]))}" for _ in range(n)]
        return labels, *([offset + rng.random() for _ in range(n)] for _ in "xy")

    @staticmethod
    def _subnormal(rng):
        def value():
            return rng.choice([-1, 1]) * rng.choice(
                [5e-324 * rng.randrange(0, 2**20), 2.2250738585072014e-308 * rng.random()]
            )

        n = rng.randint(2, 20)
        labels = [f"g{rng.randrange(rng.choice([1, 3]))}" for _ in range(n)]
        return labels, [value() for _ in range(n)], [value() for _ in range(n)]

    @staticmethod
    def _top(rng):
        n = rng.randint(2, 12)
        labels = [f"g{rng.randrange(rng.choice([1, 3]))}" for _ in range(n)]
        xs = [rng.choice([-1.7e308, 1.7e308, rng.uniform(-1e154, 1e154), 0.0]) for _ in range(n)]
        return labels, xs, [rng.uniform(-1, 1) * rng.choice([1.0, 1e150]) for _ in range(n)]

    @staticmethod
    def _mixed(rng):
        # a column of 1e300 (or 1e150) and 1e-300 is an integer only at a
        # power of two past the float range: it takes the integer-ratio path
        n = rng.randint(2, 16)
        labels = [f"g{rng.randrange(rng.choice([1, 3]))}" for _ in range(n)]
        top = rng.choice([1e150, 1e300])
        xs = [rng.uniform(-1, 1) * rng.choice([top, 1e-300]) for _ in range(n)]
        xs[:2] = [rng.uniform(0.5, 1) * top, rng.uniform(0.5, 1) * 1e-300]
        return labels, xs, [rng.uniform(-1, 1) for _ in range(n)]

    @staticmethod
    def _outcomes(labels, xs, ys, rng, x_col, y_col):
        """The group summaries and the decomposition of columns ``x_col``
        and ``y_col``, or ``"NumericOverflow"``, read as one block, as blocks
        of a few rows and as two halves merged."""
        kinds = {"g": "categorical", "x": "numeric", "y": "numeric"}

        def read(*spans):
            groups = _Groups(kinds, "g", x_col, y_col)
            for start, stop in spans:
                groups.add((labels[start:stop], xs[start:stop], ys[start:stop]))
            return groups

        n = len(labels)
        cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(1, 4))))
        first, second = read((0, cuts[0])), read((cuts[0], n))
        first.merge(marshal.loads(marshal.dumps(second.state())))
        for groups in (read((0, n)), read(*zip([0, *cuts], [*cuts, n])), first):
            try:
                yield groups.groups(), _decomposition(groups)
            except NumericOverflow:
                yield groups.groups(), "NumericOverflow"

    @pytest.mark.parametrize("kind", ["_grid", "_offset", "_subnormal", "_top", "_mixed"])
    def test_matches_the_exact_decomposition(self, kind):
        rng = random.Random(f"exact decomposition:{kind}")
        overflowed = 0
        for case in range(300):
            labels, xs, ys = getattr(self, kind)(rng)
            assert kind != "_mixed" or ecological._scale(xs) > 1023
            cov, var_x, var_y, groups = _exact(labels, xs, ys)
            d, dx, dy = (
                list(self._outcomes(labels, xs, ys, rng, *columns))
                for columns in (("x", "y"), ("x", "x"), ("y", "y"))
            )
            assert d == d[:1] * 3 and dx == dx[:1] * 3 and dy == dy[:1] * 3, case
            # the means are correctly rounded whether a moment overflows or not
            (summaries, d), (_, dx), (_, dy) = d[0], dx[0], dy[0]
            assert summaries == [
                GroupSummary(g, k, float(mx), float(my)) for g, k, mx, my in groups
            ], case
            try:
                rounded = [[float(m) for m in part] for part in (cov, var_x, var_y)]
            except OverflowError:
                assert d == "NumericOverflow", case
                overflowed += 1
                continue
            assert d != "NumericOverflow", case
            assert [d.total_cov, d.between_cov, d.within_cov] == rounded[0], case
            for v, part in ((dx, rounded[1]), (dy, rounded[2])):
                assert [v.total_cov, v.between_cov, v.within_cov] == part, case
            assert list(d.group_summaries) == summaries, case
            corrs = (d.total_corr, d.between_corr, d.within_corr)
            for corr, c, vx, vy, rx, ry in zip(corrs, cov, var_x, var_y, *rounded[1:]):
                if not (rx and ry):
                    assert corr is None, case
                    continue
                assert corr is not None and _sign(corr) == _sign(c), case
                square = float(c * c / (vx * vy))
                if square > 1e-300:
                    assert math.isclose(abs(corr), math.sqrt(square), rel_tol=1e-15), case
            if kind == "_grid":
                assert d.within_cov == 0.0, case
                assert d.between_corr is None or not sign_divergence_report(d).divergent
        if kind in ("_top", "_mixed"):
            assert 0 < overflowed < 300
        else:
            assert overflowed == 0

    def test_the_flip_golden_is_the_exact_decomposition(self):
        # the golden case's grid: its exact within covariance is 0, which
        # sums of floats printed as -0.000000 with a DIVERGENT verdict
        records = parse_records_csv(FLIP, numeric_columns=("x", "y"))
        cov, var_x, var_y, groups = _exact(*map(records.values, "gxy"))
        doc = json.loads(golden_path("decompose.flip.json").read_text(encoding="utf-8"))
        parts = ("total", "between", "within")
        assert [doc["covariance"][p] for p in parts] == list(map(float, cov))
        assert [doc["correlation"][p] for p in parts] == [
            _corr(*map(float, moments)) for moments in zip(cov, var_x, var_y)
        ]
        assert [tuple(g.values()) for g in doc["groups"]] == [
            (g, n, float(mx), float(my)) for g, n, mx, my in groups
        ]
        assert (cov[2], doc["divergence"]["verdict"]) == (0, "NOT_DIVERGENT")
