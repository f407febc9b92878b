"""Reference weights and standardized comparisons."""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from confound import standardize
from confound.errors import EmptyStratumSide, ValidationError, WeightMismatch
from confound.standardize import (
    WeightVector,
    reference_weights,
    standardized_comparison,
    standardized_rate,
)
from confound.tables import Direction, StratifiedComparison, pooled_rate
from support import BERKELEY, HOSPITAL, comparisons, dominating_comparison

# frozen from an exact rational recomputation of the six-department table
# under combined weights (933, 585, 918, 792, 584, 714 over 4526)
BERKELEY_STD_FIRST = 0.387318582689422
BERKELEY_STD_SECOND = 0.429955380460725

REFERENCES = ("combined", "first", "second", "equal")


class TestWeightVector:
    def test_needs_a_stratum(self):
        with pytest.raises(ValidationError, match="at least one stratum"):
            WeightVector(())

    def test_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            WeightVector((("a", 0.6), ("b", 0.6)))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            WeightVector((("a", -0.2), ("b", 1.2)))

    def test_accepts_tiny_float_slack(self):
        thirds = 1.0 / 3.0
        WeightVector((("a", thirds), ("b", thirds), ("c", thirds)))

    def test_many_strata_sum_to_one(self):
        # a plain float sum of these 40,000 weights is off by 1e-12
        k = 40_000
        WeightVector(tuple((f"s{i}", 1 / k) for i in range(k)))

    def test_int_weights_become_floats(self):
        w = WeightVector((("a", 1), ("b", 0)))
        assert w.weights == (("a", 1.0), ("b", 0.0))
        assert all(type(x) is float for _, x in w.weights)

    @pytest.mark.parametrize("bad", ["1", True, False, None, "x", b"1", [0.5], 1j])
    def test_rejects_non_numbers(self, bad):
        with pytest.raises(ValidationError) as err:
            WeightVector((("a", 1.0), ("b", bad)))
        assert err.value.code == "invalid-value"
        assert str(err.value) == f"weight for 'b' must be a number, got {bad!r}"

    @pytest.mark.parametrize("big", [10**400, -(10**400), 2**1024])
    def test_rejects_int_past_float_range(self, big):
        with pytest.raises(ValidationError) as err:
            WeightVector((("a", big),))
        assert err.value.code == "invalid-value"
        assert str(err.value) == (
            f"weight for 'a' must be within the float range, got a "
            f"{big.bit_length()}-bit integer"
        )

    @pytest.mark.parametrize(
        "weights, entry",
        [((("a",),), ("a",)), ((("a", 1.0, 2),), ("a", 1.0, 2)), ("ab", "a")],
    )
    def test_entries_are_pairs(self, weights, entry):
        with pytest.raises(ValidationError) as err:
            WeightVector(weights)
        assert err.value.code == "invalid-value"
        assert str(err.value) == f"a weight is a (label, weight) pair, got {entry!r}"



class TestReferenceWeights:
    def test_hospital_equal(self):
        w = reference_weights(HOSPITAL, "equal")
        assert w.weights == (("non-healthy", 0.5), ("healthy", 0.5))

    def test_hospital_combined_equals_equal(self):
        # both strata hold 80 patients in total
        assert reference_weights(HOSPITAL, "combined").weights == (
            ("non-healthy", 0.5),
            ("healthy", 0.5),
        )

    def test_berkeley_combined_shares(self):
        w = dict(reference_weights(BERKELEY, "combined").weights)
        assert w["A"] == pytest.approx(933 / 4526)
        assert w["F"] == pytest.approx(714 / 4526)
        assert sum(w.values()) == pytest.approx(1.0)

    def test_side_reference_needs_subjects_everywhere(self):
        # the table is rejected when built, so every side reference has
        # subjects in every stratum
        with pytest.raises(EmptyStratumSide):
            StratifiedComparison.from_pairs(
                "g1", "g2", [("a", (5, 1), (5, 1)), ("b", (0, 0), (5, 1))]
            )

    @pytest.mark.parametrize("reference", ["combined", "first", "second", "equal"])
    def test_many_strata(self, reference):
        k = 40_000
        sc = StratifiedComparison.from_pairs(
            "g1", "g2", [(f"s{i}", (5, 2), (5, 3)) for i in range(k)]
        )
        w = reference_weights(sc, reference)
        assert set(w.weights) == {(f"s{i}", 1 / k) for i in range(k)}

    def test_unknown_reference(self):
        with pytest.raises(ValidationError):
            reference_weights(HOSPITAL, "bogus")

    @given(comparisons())
    def test_public_constructor_accepts_the_weights(self, sc):
        # the weights are built without the public checks, which pass on them
        for reference in REFERENCES:
            w = reference_weights(sc, reference)
            assert WeightVector(w.weights) == w

    def test_public_constructor_accepts_the_weights_of_huge_counts(self):
        # 1,000-digit totals beside small ones: the small shares underflow to
        # 0.0, and the large ones carry the sum
        rng = random.Random(1000)
        for _ in range(200):
            cells = []
            for _ in range(rng.randint(1, 12)):
                t1, t2 = (
                    rng.choice((rng.randint(1, 9), rng.randrange(10**999, 10**1000)))
                    for _ in range(2)
                )
                cells.append((t1, rng.randint(0, t1), t2, rng.randint(0, t2)))
            sc = _table(cells)
            for reference in REFERENCES:
                w = reference_weights(sc, reference)
                assert WeightVector(w.weights) == w


class TestStandardizedRate:
    def test_hospital_under_equal_weights(self):
        w = reference_weights(HOSPITAL, "equal")
        assert standardized_rate(HOSPITAL, "first", w) == pytest.approx(0.40)
        assert standardized_rate(HOSPITAL, "second", w) == pytest.approx(0.50)

    def test_hospital_combined_same_as_equal(self):
        w = reference_weights(HOSPITAL, "combined")
        assert standardized_rate(HOSPITAL, "first", w) == pytest.approx(0.40)

    def test_weight_mismatch(self):
        w = WeightVector((("x", 0.5), ("y", 0.5)))
        with pytest.raises(WeightMismatch):
            standardized_rate(HOSPITAL, "first", w)

    def test_zero_side(self):
        # the table is rejected when built, so no stratum rate divides by zero
        with pytest.raises(EmptyStratumSide):
            StratifiedComparison.from_pairs(
                "g1", "g2", [("a", (5, 1), (0, 0)), ("b", (5, 1), (5, 1))]
            )


class TestStandardizedComparison:
    def test_hospital_reverses_the_naive_verdict(self):
        for reference in ("combined", "first", "second", "equal"):
            comp = standardized_comparison(HOSPITAL, reference)
            assert comp.direction is Direction.SECOND_HIGHER, reference

    def test_identical_sides_tie(self):
        sc = StratifiedComparison.from_pairs(
            "g1", "g2", [("a", (10, 4), (10, 4)), ("b", (30, 3), (30, 3))]
        )
        assert standardized_comparison(sc).direction is Direction.TIE

    def test_berkeley_combined_favors_women(self):
        comp = standardized_comparison(BERKELEY, "combined")
        assert comp.rate_first == pytest.approx(BERKELEY_STD_FIRST, abs=1e-12)
        assert comp.rate_second == pytest.approx(BERKELEY_STD_SECOND, abs=1e-12)
        assert comp.rate_second > comp.rate_first
        assert comp.direction is Direction.SECOND_HIGHER


class TestProperties:
    @given(comparisons(min_total=1))
    def test_own_weights_recover_pooled_rate(self, sc):
        for side in ("first", "second"):
            w = reference_weights(sc, side)
            std = standardized_rate(sc, side, w)
            assert std == pytest.approx(pooled_rate(sc, side).value, abs=1e-12)

    @given(comparisons(min_strata=2, min_total=1), st.randoms(use_true_random=False))
    def test_invariant_under_stratum_permutation(self, sc, rnd):
        w = reference_weights(sc, "combined")
        order = list(range(len(sc.strata)))
        rnd.shuffle(order)
        permuted = StratifiedComparison(
            sc.group_first_label,
            sc.group_second_label,
            tuple(sc.strata[i] for i in order),
        )
        wp = reference_weights(permuted, "combined")
        assert standardized_rate(permuted, "first", wp) == pytest.approx(
            standardized_rate(sc, "first", w), abs=1e-12
        )

    @given(comparisons(min_total=1), st.floats(0.0, 1.0))
    def test_linear_in_weights(self, sc, alpha):
        labels = sc.stratum_labels()
        k = len(labels)
        w1 = reference_weights(sc, "equal")
        w2 = reference_weights(sc, "combined")
        blended = WeightVector(
            tuple(
                (label, alpha * a + (1 - alpha) * b)
                for (label, a), (_, b) in zip(w1.weights, w2.weights)
            )
        )
        lhs = standardized_rate(sc, "first", blended)
        rhs = alpha * standardized_rate(sc, "first", w1) + (
            1 - alpha
        ) * standardized_rate(sc, "first", w2)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_common_weight_dominance_sample(self):
        rng = random.Random(99)
        for _ in range(100):
            sc = dominating_comparison(rng)
            comp = standardized_comparison(sc, "combined")
            assert comp.direction is Direction.SECOND_HIGHER


def _table(cells) -> StratifiedComparison:
    """A table from ``(t1, p1, t2, p2)`` rows."""
    return StratifiedComparison.from_pairs(
        "g1", "g2",
        [(f"s{i}", (t1, p1), (t2, p2)) for i, (t1, p1, t2, p2) in enumerate(cells)],
    )


def fraction_gap(sc: StratifiedComparison, reference: str) -> Fraction:
    """The exact first-minus-second standardized rate, from Fractions alone."""
    pairs = list(zip(sc.counts("first"), sc.counts("second")))
    sizes = [
        {"combined": a.total + b.total, "first": a.total, "second": b.total,
         "equal": 1}[reference]
        for a, b in pairs
    ]
    grand = sum(sizes)
    return sum(
        Fraction(k, grand)
        * (Fraction(a.positive, a.total) - Fraction(b.positive, b.total))
        for k, (a, b) in zip(sizes, pairs)
    )


def direction_of(gap: Fraction) -> Direction:
    if gap > 0:
        return Direction.FIRST_HIGHER
    return Direction.SECOND_HIGHER if gap < 0 else Direction.TIE


def _cell(rng: random.Random, digits: int) -> tuple[int, int, int, int]:
    t1, t2 = rng.randrange(1, 10**digits), rng.randrange(1, 10**digits)
    return t1, rng.randint(0, t1), t2, rng.randint(0, t2)


def _nudged(rng: random.Random, t: int, p: int) -> int:
    return min(t, max(0, p + rng.choice((-1, 0, 1))))


def mirrored_table(rng: random.Random) -> list:
    """Each stratum and its mirror: an exact tie under ``combined`` and
    ``equal``, and under every reference when the two totals are equal."""
    digits = rng.choice((1, 3, 17, 40))
    cells = [_cell(rng, digits) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.5:
        cells = [(t1, p1, t1, min(p2, t1)) for t1, p1, _, p2 in cells]
    return cells + [(t2, p2, t1, p1) for t1, p1, t2, p2 in cells]


def near_tie_table(rng: random.Random) -> list:
    """Stratum rates at most one count apart over totals of 1e12 or more,
    so that 0 < |D| < 1e-12 or D == 0."""
    cells = []
    for _ in range(rng.randint(1, 5)):
        t = rng.randrange(10**12, 10**16)
        p = rng.randint(0, t)
        scale = rng.choice((1, 1, 2, 3))
        cells.append((t, p, scale * t, _nudged(rng, scale * t, scale * p)))
    return cells


def shared_denominator_table(rng: random.Random) -> list:
    """Mirrored pairs and near ties, plus strata that repeat another's
    totals with nudged positives, in any order: strata share denominators,
    and their summed numerators are zero for some and not for others."""
    cells = mirrored_table(rng) + near_tie_table(rng)
    cells += [
        (t1, _nudged(rng, t1, p1), t2, _nudged(rng, t2, p2))
        for t1, p1, t2, p2 in rng.sample(cells, rng.randint(0, len(cells)))
    ]
    rng.shuffle(cells)
    return cells


def huge_table(rng: random.Random) -> list:
    """4,000-digit counts, near ties among them, and sometimes a small
    stratum whose weight underflows to zero, or to a subnormal."""
    cells = []
    for _ in range(rng.randint(1, 3)):
        t = rng.randrange(10**3999, 10**4000)
        p = rng.randint(0, t)
        cells.append((t, p, t, _nudged(rng, t, p)) if rng.random() < 0.7
                     else (t, p, t, rng.randint(0, t)))
    if rng.random() < 0.5:
        t = rng.choice((rng.randint(1, 9), 10**3690 + rng.randrange(10**3689)))
        cells.append((t, rng.randint(0, t), t, rng.randint(0, t)))
    rng.shuffle(cells)
    return cells


class TestExactDirection:
    """The standardized direction agrees with Fraction arithmetic, decided
    from the floats past their error bound and exactly inside it."""

    def test_agrees_with_fractions(self):
        rng = random.Random(2024)
        mismatches, ties, near, huge = [], 0, 0, 0
        families = (
            (mirrored_table, 250), (near_tie_table, 250), (huge_table, 100),
            (shared_denominator_table, 250),
        )
        for family, count in families:
            for _ in range(count):
                cells = family(rng)
                sc = _table(cells)
                huge += max(t1 for t1, *_ in cells) >= 10**3999
                for reference in REFERENCES:
                    gap = fraction_gap(sc, reference)
                    ties += gap == 0
                    near += 0 < abs(gap) < Fraction(1, 10**12)
                    got = standardized_comparison(sc, reference).direction
                    if got is not direction_of(gap):
                        mismatches.append((cells, reference))
        assert mismatches == []
        assert ties >= 500 and near >= 500 and huge == 100

    def test_float_gap_on_both_sides_of_the_bound(self, monkeypatch):
        # one stratum's second rate climbs by 2e-17 per step, so the float
        # gap passes through the bound in steps much finer than the bound
        calls = []
        exact_gap = standardize._exact_gap
        monkeypatch.setattr(
            standardize, "_exact_gap",
            lambda sc, sizes: calls.append(sc) or exact_gap(sc, sizes),
        )
        t, p = 10**17, 3 * 10**16
        inside, past = [], []
        for d in range(0, 400, 2):
            sc = _table([(t, p, t, p + d), (t, 2 * p, t, 2 * p)])
            calls.clear()
            comp = standardized_comparison(sc, "combined")
            assert comp.direction is direction_of(fraction_gap(sc, "combined"))
            (inside if calls else past).append(abs(comp.rate_first - comp.rate_second))
        assert inside and past
        assert max(inside) < min(past) <= 1.1 * max(inside)

    def test_sizes_not_rounded_weights(self):
        # an exact tie that the rounded weights fl(0.4) and fl(0.6) turn into
        # the float rates 0.19999999999999998 and 0.2
        sc = _table([(2, 0, 2, 1), (3, 1, 3, 0)])
        comp = standardized_comparison(sc, "combined")
        assert fraction_gap(sc, "combined") == 0
        assert comp.rate_first < comp.rate_second
        assert comp.direction is Direction.TIE


@pytest.fixture(scope="module")
def wide_cells():
    """The benchmark's 4,000-stratum ``wide_table`` table for seed 1."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        from workloads import reversal_cells
    finally:
        sys.path.remove(bench)
    return reversal_cells(1)


class TestExactSumOnlyInsideTheBound:
    def test_wide_table_decides_from_the_floats(self, wide_cells, monkeypatch):
        def refuse(sc, sizes):
            raise AssertionError("exact sum outside the bound")

        monkeypatch.setattr(standardize, "_exact_gap", refuse)
        sc = _table(wide_cells)
        for reference in REFERENCES:
            direction = standardized_comparison(sc, reference).direction
            assert direction is direction_of(fraction_gap(sc, reference)), reference

    def test_mirrored_wide_table_ties_exactly(self, wide_cells, monkeypatch):
        calls = []
        exact_gap = standardize._exact_gap
        monkeypatch.setattr(
            standardize, "_exact_gap",
            lambda sc, sizes: calls.append(sc) or exact_gap(sc, sizes),
        )
        sc = _table(wide_cells + [(t2, p2, t1, p1) for t1, p1, t2, p2 in wide_cells])
        assert len(sc.strata) == 8_000
        for reference in ("combined", "equal"):
            start = perf_counter()
            assert standardized_comparison(sc, reference).direction is Direction.TIE
            assert perf_counter() - start < 1.0
        assert len(calls) == 2
