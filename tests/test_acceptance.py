"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

from __future__ import annotations

import random
import subprocess
import sys
from contextlib import contextmanager
from time import perf_counter

import pytest

from confound.cli import parse_records_csv, serialize_table_csv
from confound.detector import Classification, detect_reversal
from confound.ecological import decompose, sign_divergence_report
from confound.geometry import to_vectors
from confound.standardize import (
    WeightVector,
    standardized_comparison,
    standardized_rate,
)
from confound.synth import generate_reversal, minimal_reversal
from confound.tables import Direction, Rate, compare, pooled_rate, rate
from conftest import fixture_text
from support import (
    BERKELEY,
    HOSPITAL,
    brute_force_classify,
    dominating_comparison,
    random_comparison,
    records_from_columns,
    swap_groups,
)

F = Direction.FIRST_HIGHER
S = Direction.SECOND_HIGHER


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {description}", flush=True)
        raise
    print(f"ACCEPTANCE {number:02d} PASS: {description}", flush=True)


def test_criterion_01_hospital_exact_report(tmp_path):
    with criterion(1, "hospital fixture: exact rates, FULL_REVERSAL, < 1 s"):
        path = tmp_path / "hospital.csv"
        path.write_text(fixture_text("hospital.csv"))
        started = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "confound", "analyze", str(path)],
            capture_output=True,
            text=True,
        )
        elapsed = perf_counter() - started
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout
        for cell in (
            "36/60 (60.0%)",
            "4/20 (20.0%)",
            "14/20 (70.0%)",
            "18/60 (30.0%)",
            "40/80 (50.0%)",
            "32/80 (40.0%)",
        ):
            assert cell in out
        assert "classification: FULL_REVERSAL" in out
        # the same figures as exact rationals, not parsed floats
        assert pooled_rate(HOSPITAL, "first") == Rate(40, 80)
        assert pooled_rate(HOSPITAL, "second") == Rate(32, 80)
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


# expected per-department percentages at one decimal, derived from the
# fixture counts themselves (see the displayed-rate tests in test_tables)
BERKELEY_FIRST_PCT = {"A": 62.1, "B": 63.0, "C": 36.9, "D": 33.1, "E": 27.7, "F": 5.9}
BERKELEY_SECOND_PCT = {"A": 82.4, "B": 68.0, "C": 34.1, "D": 34.9, "E": 23.9, "F": 7.0}


def test_criterion_02_berkeley_rates_and_directions():
    with criterion(2, "six-department fixture: rates +/-0.05%, MIXED verdict"):
        for s in BERKELEY.strata:
            first_pct = 100.0 * s.first.positive / s.first.total
            second_pct = 100.0 * s.second.positive / s.second.total
            assert abs(first_pct - BERKELEY_FIRST_PCT[s.label]) <= 0.05, s.label
            assert abs(second_pct - BERKELEY_SECOND_PCT[s.label]) <= 0.05, s.label
        assert pooled_rate(BERKELEY, "first").percent() == "44.5%"
        assert pooled_rate(BERKELEY, "second").percent() == "30.4%"
        report = detect_reversal(BERKELEY)
        assert dict(report.stratum_directions) == {
            "A": S, "B": S, "C": F, "D": S, "E": F, "F": S,
        }
        assert report.aggregate_direction is F
        assert report.classification is Classification.MIXED


def test_criterion_03_standardization_reverses_berkeley():
    with criterion(3, "combined-weight standardization favors the second group"):
        comp = standardized_comparison(BERKELEY, "combined")
        # frozen from an exact rational recomputation of the fixture counts
        assert comp.rate_first == pytest.approx(0.387318582689422, abs=1e-9)
        assert comp.rate_second == pytest.approx(0.429955380460725, abs=1e-9)
        assert comp.rate_second > comp.rate_first
        assert comp.direction is Direction.SECOND_HIGHER


def test_criterion_04_common_weight_dominance():
    with criterion(4, "dominance under common weights: 1000 tables, 0 violations"):
        rng = random.Random(1404)
        violations = 0
        for _ in range(1000):
            sc = dominating_comparison(rng)
            raw = [rng.uniform(0.05, 1.0) for _ in sc.strata]
            total = sum(raw)
            w = WeightVector(
                tuple((s.label, u / total) for s, u in zip(sc.strata, raw))
            )
            first = standardized_rate(sc, "first", w)
            second = standardized_rate(sc, "second", w)
            if not second - first > 1e-12:
                violations += 1
            for reference in ("combined", "first", "second", "equal"):
                if standardized_comparison(sc, reference).direction is not S:
                    violations += 1
        assert violations == 0


def test_criterion_05_mediant_property():
    with criterion(5, "mediant containment: 10000 tables, 0 violations"):
        rng = random.Random(1505)
        violations = 0
        for _ in range(10_000):
            sc = random_comparison(rng)
            for side in ("first", "second"):
                rates = [rate(c) for c in sc.counts(side)]
                pooled = pooled_rate(sc, side)
                lo = hi = rates[0]
                for r in rates[1:]:
                    if compare(r, lo) is S:
                        lo = r
                    if compare(r, hi) is F:
                        hi = r
                inside = (
                    compare(pooled, lo) is not S and compare(pooled, hi) is not F
                )
                strict_ok = compare(lo, hi) is Direction.TIE or (
                    compare(pooled, lo) is F and compare(pooled, hi) is S
                )
                if not (inside and strict_ok):
                    violations += 1
        assert violations == 0


def test_criterion_06_differential_oracle():
    with criterion(6, "detector == brute force on 10000 generated + fixtures, < 30 s"):
        started = perf_counter()
        disagreements = first_wins_everywhere = 0
        for seed in range(10_000):
            sc = generate_reversal(2 + seed % 4, 10 + (seed * 7) % 191, seed)
            # the second group leads every generated stratum, the first every
            # swapped one: the oracle's two full-reversal branches
            for table in (sc, swap_groups(sc)):
                report = brute_force_classify(table)
                if report != detect_reversal(table):
                    disagreements += 1
            first_wins_everywhere += report.aggregate_direction is S and all(
                d is F for _, d in report.stratum_directions
            )
        for fixture in (HOSPITAL, BERKELEY):
            if brute_force_classify(fixture) != detect_reversal(fixture):
                disagreements += 1
        elapsed = perf_counter() - started
        assert disagreements == 0
        assert first_wins_everywhere == 10_000
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_07_generator_soundness():
    with criterion(7, "1000 generated tables all reverse; same seed, same bytes"):
        for seed in range(1000):
            sc = generate_reversal(2 + seed % 3, 10 + seed % 200, seed)
            report = brute_force_classify(sc)
            assert report.classification is Classification.FULL_REVERSAL, seed
        a = serialize_table_csv(generate_reversal(3, 90, seed=77))
        b = serialize_table_csv(generate_reversal(3, 90, seed=77))
        assert a.encode() == b.encode()


def test_criterion_08_minimal_witness():
    with criterion(8, "canonical minimal witness: 9 subjects, stable"):
        sc = minimal_reversal(160)
        counts = [
            (s.first.total, s.first.positive, s.second.total, s.second.positive)
            for s in sc.strata
        ]
        # frozen regression value from the exhaustive enumeration itself
        assert counts == [(1, 0, 4, 1), (3, 2, 1, 1)]
        total = sum(s.first.total + s.second.total for s in sc.strata)
        assert total == 9 < 160
        assert detect_reversal(sc).classification is Classification.FULL_REVERSAL
        assert minimal_reversal(160) == sc  # stable across calls


def test_criterion_09_covariance_identity_and_divergence():
    with criterion(9, "covariance identity to 1e-9 on 1000 datasets, also shifted "
                      "by 1e6 and 1e9; fixture diverges"):
        for offset in (0.0, 1e6, 1e9):
            rng = random.Random(1909)
            for _ in range(1000):
                n = rng.randint(2, 120)
                labels = "abcdefgh"[: rng.randint(1, 8)]
                rows = tuple(
                    (rng.choice(labels), rng.uniform(-5, 5), rng.uniform(-5, 5))
                    for _ in range(n)
                )
                records = records_from_columns(
                    g=[r[0] for r in rows],
                    x=[r[1] + offset for r in rows],
                    y=[r[2] + offset for r in rows],
                )
                d = decompose(records, "g", "x", "y")
                assert abs(d.total_cov - (d.between_cov + d.within_cov)) <= 1e-9
        records = parse_records_csv(
            fixture_text("robinson_synthetic.csv"),
            numeric_columns=("foreign_born", "literate"),
        )
        d = decompose(records, "region", "foreign_born", "literate")
        assert d.within_corr < 0 < d.between_corr
        assert sign_divergence_report(d).verdict == "DIVERGENT"


def test_criterion_10_geometry_agreement_and_plot_determinism(tmp_path):
    with criterion(10, "diagram slopes match detector on 1000 tables; plot bytes stable"):
        for seed in range(1000):
            sc = generate_reversal(2 + seed % 3, 10 + seed % 90, seed)
            report = detect_reversal(sc)
            diagram = to_vectors(sc)
            first, second = diagram.groups
            derived = [
                compare(a, b)
                for a, b in zip(first.segment_slopes, second.segment_slopes)
            ]
            assert derived == [d for _, d in report.stratum_directions]
            agg = compare(first.terminal_slope, second.terminal_slope)
            assert agg is report.aggregate_direction
            # full reversal is exactly the steeper-everywhere /
            # shallower-overall chord pattern
            assert len(set(derived)) == 1 and derived[0] is not Direction.TIE
            assert agg is derived[0].flipped()

        path = tmp_path / "hospital.csv"
        path.write_text(fixture_text("hospital.csv"))
        outs = []
        for name in ("one.svg", "two.svg"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "confound", "plot", str(path),
                 "--out", str(out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == ""
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
