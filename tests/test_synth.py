"""Generator soundness, differential oracle, and the minimal witness."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given

from confound import synth
from confound.cli import run
from confound.detector import Classification, detect_reversal
from confound.errors import GenerationFailed, NotFound, ValidationError
from confound.synth import (
    _candidate,
    brute_force_classify,
    generate_reversal,
    minimal_reversal,
)
from confound.tables import StratifiedComparison
from support import BERKELEY, HOSPITAL, comparisons, random_comparison

# canonical witness of minimal_reversal, frozen from the exhaustive search:
# 9 subjects, lexicographically smallest tuple (a, b, c, d, A, B, C, D)
MINIMAL_WITNESS = (1, 0, 3, 2, 4, 1, 1, 1)


def witness_tuple(sc):
    (a, b), (c, d) = [(s.first.total, s.first.positive) for s in sc.strata]
    (A, B), (C, D) = [(s.second.total, s.second.positive) for s in sc.strata]
    return (a, b, c, d, A, B, C, D)


class TestGenerateReversal:
    def test_output_is_full_reversal(self):
        sc = generate_reversal(2, 80, seed=0)
        assert detect_reversal(sc).classification is Classification.FULL_REVERSAL

    def test_same_seed_same_table(self):
        assert generate_reversal(2, 80, seed=123) == generate_reversal(2, 80, seed=123)

    def test_different_seeds_differ(self):
        tables = {witness_tuple(generate_reversal(2, 80, seed=s)) for s in range(20)}
        assert len(tables) > 1

    def test_many_strata(self):
        sc = generate_reversal(6, 200, seed=4)
        assert len(sc.strata) == 6
        assert detect_reversal(sc).classification is Classification.FULL_REVERSAL

    def test_single_stratum_rejected(self):
        with pytest.raises(ValidationError):
            generate_reversal(1, 80, seed=0)

    def test_tiny_scale_rejected(self):
        with pytest.raises(ValidationError):
            generate_reversal(2, 9, seed=0)

    @pytest.mark.parametrize(
        "k, scale, message",
        [
            (4, 80.5, "scale must be an integer, got 80.5"),
            (2.5, 80, "k must be an integer, got 2.5"),
            (True, 80, "k must be an integer, got True"),
            (2, "80", "scale must be an integer, got '80'"),
            # before either range check
            (1.0, 9, "k must be an integer, got 1.0"),
        ],
    )
    def test_arguments_are_integers(self, k, scale, message):
        with pytest.raises(ValidationError) as err:
            generate_reversal(k, scale, 0)
        assert err.value.code == "invalid-value"
        assert str(err.value) == message

    def test_spent_budget_fails_generation(self, monkeypatch, capsys):
        monkeypatch.setattr(synth, "GENERATION_BUDGET", 0)
        with pytest.raises(GenerationFailed, match="no full reversal found in 0 "):
            generate_reversal(2, 80, 0)
        assert run(["generate"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:generation-failed: ")

    @pytest.mark.parametrize(
        "k, scale", [(2, 10), (2, 80), (3, 12), (5, 40), (10, 100), (50, 500)]
    )
    def test_accepts_the_attempt_the_oracle_accepts(self, k, scale):
        # replay the generator's draws, wrap every attempt as a table and
        # let the Fraction oracle pick: generate must return that attempt
        for seed in range(300):
            rng = random.Random(seed)
            while True:
                sc = StratifiedComparison.from_pairs(
                    "g1",
                    "g2",
                    [
                        (f"s{i}", (t1, p1), (t2, p2))
                        for i, (t1, p1, t2, p2) in enumerate(
                            _candidate(rng, k, scale), 1
                        )
                    ],
                )
                verdict = brute_force_classify(sc).classification
                if verdict is Classification.FULL_REVERSAL:
                    break
            assert generate_reversal(k, scale, seed) == sc


class TestBruteForceClassify:
    def test_hospital(self):
        report = brute_force_classify(HOSPITAL)
        assert report.classification is Classification.FULL_REVERSAL
        assert report == detect_reversal(HOSPITAL)

    def test_berkeley(self):
        report = brute_force_classify(BERKELEY)
        assert report.classification is Classification.MIXED
        assert report == detect_reversal(BERKELEY)

    @given(comparisons(min_total=1))
    def test_differential_arbitrary_tables(self, sc):
        assert brute_force_classify(sc) == detect_reversal(sc)

    def test_differential_seeded_sample(self):
        rng = random.Random(2024)
        for _ in range(500):
            sc = random_comparison(rng)
            assert brute_force_classify(sc) == detect_reversal(sc)


class TestMinimalReversal:
    def test_too_small_bound_is_not_found(self):
        with pytest.raises(NotFound):
            minimal_reversal(2)
        with pytest.raises(NotFound):
            minimal_reversal(8)

    def test_canonical_witness(self):
        sc = minimal_reversal(40)
        assert witness_tuple(sc) == MINIMAL_WITNESS
        assert detect_reversal(sc).classification is Classification.FULL_REVERSAL
        assert brute_force_classify(sc).classification is Classification.FULL_REVERSAL

    def test_stable_across_calls_and_bounds(self):
        assert witness_tuple(minimal_reversal(9)) == MINIMAL_WITNESS
        assert witness_tuple(minimal_reversal(60)) == MINIMAL_WITNESS

    def test_smaller_than_hospital(self):
        sc = minimal_reversal(160)
        total = sum(s.first.total + s.second.total for s in sc.strata)
        hospital_total = sum(
            s.first.total + s.second.total for s in HOSPITAL.strata
        )
        assert hospital_total == 160
        assert total == 9 < hospital_total

    def test_first_found_is_the_smallest_reversal(self):
        # every two-stratum table with positive totals and at most 12
        # subjects, judged by Fraction; the witness is the min over
        # (subjects, a, b, c, d, A, B, C, D)
        reversing = []
        for a, c, A, C in product(range(1, 10), repeat=4):
            if a + c + A + C > 12:
                continue
            positives = (range(a + 1), range(c + 1), range(A + 1), range(C + 1))
            for b, d, B, D in product(*positives):
                s1 = Fraction(b, a) - Fraction(B, A)
                s2 = Fraction(d, c) - Fraction(D, C)
                pooled = Fraction(b + d, a + c) - Fraction(B + D, A + C)
                if s1 * s2 > 0 and s1 * pooled < 0:
                    reversing.append((a + c + A + C, a, b, c, d, A, B, C, D))
        for bound in range(2, 13):
            smallest = min((t for t in reversing if t[0] <= bound), default=None)
            if smallest is None:
                with pytest.raises(NotFound):
                    minimal_reversal(bound)
            else:
                assert witness_tuple(minimal_reversal(bound)) == smallest[1:]

    def test_invalid_bound(self):
        with pytest.raises(ValidationError):
            minimal_reversal(1)

    @pytest.mark.parametrize(
        "bound, message",
        [
            (5.5, "max_total must be an integer, got 5.5"),
            (True, "max_total must be an integer, got True"),
            (None, "max_total must be an integer, got None"),
        ],
    )
    def test_bound_is_an_integer(self, bound, message):
        with pytest.raises(ValidationError) as err:
            minimal_reversal(bound)
        assert str(err.value) == message
