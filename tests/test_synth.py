"""Generator soundness, differential oracle, and the minimal witness."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from types import CodeType, ModuleType

import pytest
from hypothesis import given
from hypothesis import strategies as st

import support

from confound import synth
from confound.cli import run
from confound.detector import Classification, detect_reversal
from confound.errors import GenerationFailed, NotFound, ValidationError
from confound.synth import (
    _MAX_SCALE,
    _candidate,
    _shape,
    generate_reversal,
    minimal_reversal,
)
from confound.tables import Direction, StratifiedComparison
from support import (
    BERKELEY, HOSPITAL, brute_force_classify, comparisons, random_comparison,
    reference_candidate,
)

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
                            reference_candidate(rng, k, scale), 1
                        )
                    ],
                )
                verdict = brute_force_classify(sc).classification
                if verdict is Classification.FULL_REVERSAL:
                    break
            assert generate_reversal(k, scale, seed) == sc

    def test_columns_match_the_row_wise_reference(self):
        # 300 (k, scale) pairs, three seeds each and six attempts per seed:
        # every attempt's columns and the generator's state after it agree
        scales = [10, 11, 12, 14, 19, _MAX_SCALE]
        pairs = [(2, scale) for scale in scales]
        rng = random.Random(24)
        while len(pairs) < 300:
            scale = rng.choice([*scales, rng.randint(10, 10**6), rng.randint(10, 10**300)])
            pairs.append((rng.randint(2, 60), scale))
        for k, scale in pairs:
            shape = _shape(k, scale)
            for seed in range(3):
                ours, theirs = random.Random(seed), random.Random(seed)
                for _ in range(6):
                    rows = reference_candidate(theirs, k, scale)
                    columns = _candidate(ours, k, shape)
                    assert columns == list(map(list, zip(*rows))), (k, scale, seed)
                    assert ours.getstate() == theirs.getstate()


def tied_comparison(rng: random.Random) -> StratifiedComparison:
    """A table of 1 to 4 strata of at most 12 subjects a side, each stratum
    a planted tie (one rate, both sides a multiple of it) with odds 2 in 5."""
    rows = []
    for i in range(rng.randint(1, 4)):
        if rng.random() < 0.4:
            total = rng.randint(1, 6)
            positive = rng.randint(0, total)
            a, b = rng.randint(1, 2), rng.randint(1, 2)
            rows.append((f"s{i + 1}", (a * total, a * positive), (b * total, b * positive)))
        else:
            t1, t2 = rng.randint(1, 12), rng.randint(1, 12)
            rows.append((f"s{i + 1}", (t1, rng.randint(0, t1)), (t2, rng.randint(0, t2))))
    return StratifiedComparison.from_pairs("g1", "g2", rows)


class TestBruteForceClassify:
    def test_hospital(self):
        report = brute_force_classify(HOSPITAL)
        assert report.classification is Classification.FULL_REVERSAL
        assert report == detect_reversal(HOSPITAL)

    def test_berkeley(self):
        report = brute_force_classify(BERKELEY)
        assert report.classification is Classification.MIXED
        assert report == detect_reversal(BERKELEY)

    @given(comparisons(min_total=1), st.booleans())
    def test_differential_arbitrary_tables(self, sc, allow):
        assert brute_force_classify(sc, allow_tied_strata=allow) == detect_reversal(
            sc, allow_tied_strata=allow
        )

    def test_differential_seeded_sample(self):
        rng = random.Random(2024)
        for _ in range(500):
            sc = random_comparison(rng)
            assert brute_force_classify(sc) == detect_reversal(sc)
            assert brute_force_classify(sc, allow_tied_strata=True) == detect_reversal(
                sc, allow_tied_strata=True
            )

    def test_differential_planted_ties(self):
        # small tables with 40% of strata planted as ties; only with tied
        # strata allowed do some of them become full reversals
        rng = random.Random(26)
        allowed_only_by_flag = 0
        for _ in range(4000):
            sc = tied_comparison(rng)
            strict = brute_force_classify(sc)
            relaxed = brute_force_classify(sc, allow_tied_strata=True)
            assert strict == detect_reversal(sc)
            assert relaxed == detect_reversal(sc, allow_tied_strata=True)
            if relaxed.classification is not strict.classification:
                assert strict.classification is Classification.MIXED
                assert relaxed.classification is Classification.FULL_REVERSAL
                assert any(d is Direction.TIE for _, d in relaxed.stratum_directions)
                allowed_only_by_flag += 1
        assert allowed_only_by_flag >= 100

    def test_shares_no_logic_with_the_package(self):
        # the package objects the oracle reads are the types it returns and
        # the error it raises; it imports nothing from confound itself
        names = set()
        codes = [brute_force_classify.__code__]
        while codes:
            code = codes.pop()
            names.update(code.co_names)
            codes.extend(c for c in code.co_consts if isinstance(c, CodeType))
        assert not any(name.startswith("confound") for name in names)
        read = {name: vars(support)[name] for name in names & vars(support).keys()}
        from_package = {
            name for name, value in read.items()
            if (value.__name__ if isinstance(value, ModuleType)
                else getattr(value, "__module__", "")).split(".")[0] == "confound"
        }
        assert from_package == {
            "Classification", "ReversalReport", "Direction", "EmptyStratumSide"
        }


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
