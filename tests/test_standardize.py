"""Reference weights and standardized comparisons."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
