"""Reversal construction, exhaustive minimal search, and a brute-force oracle.

``generate_reversal`` builds tables that are guaranteed full reversals by a
constructive recipe (one group's exposure skewed toward the high-rate
strata, the other's toward the low-rate strata, with every stratum strictly
favoring the second group). Each attempt is a list of plain integer rows
that the detector's own classification judges; a rejected attempt is
dropped before any ``Counts`` or ``Stratum`` exists, and the next one draws
fresh jitter from the same generator.

``brute_force_classify`` re-derives the detector's whole report from
first principles with ``fractions.Fraction`` and longhand case analysis,
sharing no logic with the detector so the two can serve as differential
oracles for each other.

``minimal_reversal`` enumerates every two-stratum table up to a subject
bound and returns the canonical smallest reversal: fewest subjects, ties
broken lexicographically on (a, b, c, d, A, B, C, D) — group one's
(total, positive) per stratum, then group two's.
"""

from __future__ import annotations

import random
import sys

from .detector import Classification, ReversalReport, _report
from .errors import EmptyStratumSide, GenerationFailed, NotFound, ValidationError
from .tables import Direction, StratifiedComparison, _integer

GENERATION_BUDGET = 100_000
# the jitter draws totals of up to 1.2 x scale, which must be finite floats
_MAX_SCALE = int(sys.float_info.max / 1.2)


def _candidate(
    rng: random.Random, k: int, scale: int
) -> list[tuple[int, int, int, int]]:
    """One attempt as ``(t1, p1, t2, p2)`` rows, one per stratum: stratum
    rates fall from front to back, the first group's exposure is
    front-loaded and the second group's back-loaded, and the second group
    strictly leads inside every stratum."""
    low_exposure = max(1, scale // 5)
    top = rng.uniform(0.55, 0.85)
    bottom = rng.uniform(0.05, 0.35)
    gap = rng.uniform(0.06, 0.2)

    # rng.uniform(0.8, 1.2) by its documented formula, with the draw bound once
    random_ = rng.random
    spread = 1.2 - 0.8
    half_gap = gap / 2
    last = k - 1
    rows = []
    for i in range(k):
        frac = i / last
        heavy = scale * (1 - frac) + low_exposure * frac
        light = scale * frac + low_exposure * (1 - frac)
        t1 = max(1, round(heavy * (0.8 + spread * random_())))
        t2 = max(1, round(light * (0.8 + spread * random_())))
        level = top * (1 - frac) + bottom * frac
        # level <= 0.85 and half_gap <= 0.1, so 0 <= r1 < r2 <= 0.95 and
        # 0 <= round(r * t) <= t: neither count needs clamping to [0, t]
        r1 = max(0.0, level - half_gap)
        r2 = level + half_gap
        p1 = round(r1 * t1)
        p2 = round(r2 * t2)
        # integer rounding can break strictness; nudge until p1/t1 < p2/t2
        while p1 * t2 >= p2 * t1:
            if p2 < t2:
                p2 += 1
            else:
                p1 -= 1
        rows.append((t1, p1, t2, p2))
    return rows


def generate_reversal(k: int, scale: int, seed: int) -> StratifiedComparison:
    """A k-stratum table whose verdict is FULL_REVERSAL, deterministic per seed.

    The detector judges each attempt on its integer rows; only the first it
    accepts is built into a validated table."""
    _integer("k", k)
    _integer("scale", scale)
    if k < 2:
        raise ValidationError(
            f"reversal needs at least 2 strata, got {k} (a single stratum's "
            "pooled rate is its own rate)"
        )
    if scale < 10:
        raise ValidationError(f"scale must be >= 10, got {scale}")
    if scale > _MAX_SCALE:
        raise ValidationError(f"scale must be <= {_MAX_SCALE}, got {scale}")
    rng = random.Random(seed)
    labels = [f"s{i}" for i in range(1, k + 1)]
    for _ in range(GENERATION_BUDGET):
        rows = _candidate(rng, k, scale)
        if _report(labels, rows, False).classification is Classification.FULL_REVERSAL:
            pairs = [(s, (t1, p1), (t2, p2)) for s, (t1, p1, t2, p2) in zip(labels, rows)]
            return StratifiedComparison.from_pairs("g1", "g2", pairs)
    raise GenerationFailed(
        f"no full reversal found in {GENERATION_BUDGET} attempts "
        f"(k={k}, scale={scale}, seed={seed})"
    )


def brute_force_classify(sc: StratifiedComparison) -> ReversalReport:
    """Same contract as the detector, independently derived with Fractions."""
    from fractions import Fraction  # only the oracle needs it, not generate

    directions = []
    t1 = p1 = t2 = p2 = 0
    for s in sc.strata:
        if s.first.total == 0 or s.second.total == 0:
            side = (
                sc.group_first_label if s.first.total == 0 else sc.group_second_label
            )
            raise EmptyStratumSide(f"stratum {s.label!r} has no {side!r} subjects")
        f = Fraction(s.first.positive, s.first.total)
        g = Fraction(s.second.positive, s.second.total)
        if f > g:
            d = Direction.FIRST_HIGHER
        elif g > f:
            d = Direction.SECOND_HIGHER
        else:
            d = Direction.TIE
        directions.append((s.label, d))
        t1 += s.first.total
        p1 += s.first.positive
        t2 += s.second.total
        p2 += s.second.positive

    pooled1 = Fraction(p1, t1)
    pooled2 = Fraction(p2, t2)
    if pooled1 > pooled2:
        agg = Direction.FIRST_HIGHER
    elif pooled2 > pooled1:
        agg = Direction.SECOND_HIGHER
    else:
        agg = Direction.TIE

    n = len(directions)
    firsts = sum(1 for _, d in directions if d is Direction.FIRST_HIGHER)
    seconds = sum(1 for _, d in directions if d is Direction.SECOND_HIGHER)
    if firsts == n and agg is Direction.SECOND_HIGHER:
        verdict = Classification.FULL_REVERSAL
    elif seconds == n and agg is Direction.FIRST_HIGHER:
        verdict = Classification.FULL_REVERSAL
    elif firsts == 0 and seconds == 0:
        verdict = Classification.CONSISTENT
    elif agg is Direction.FIRST_HIGHER and seconds == 0:
        verdict = Classification.CONSISTENT
    elif agg is Direction.SECOND_HIGHER and firsts == 0:
        verdict = Classification.CONSISTENT
    else:
        verdict = Classification.MIXED

    if firsts > seconds:
        majority = Direction.FIRST_HIGHER
    elif seconds > firsts:
        majority = Direction.SECOND_HIGHER
    else:
        majority = Direction.TIE

    return ReversalReport(tuple(directions), agg, verdict, majority)


def minimal_reversal(max_total: int) -> StratifiedComparison:
    """Canonical smallest two-stratum full reversal within a subject bound.

    Enumerates exhaustively by ascending total subject count, and within
    one count in lexicographic order of (a, b, c, d, A, B, C, D), so the
    first reversal found is the witness. The detector's integer
    cross-products judge each table, so the result is stable across runs
    and platforms. Raises :class:`NotFound` when nothing reverses within
    the bound.
    """
    _integer("max_total", max_total)
    if max_total < 2:
        raise ValidationError(f"max_total must be >= 2, got {max_total}")
    for n in range(4, max_total + 1):
        tables = (
            (a, b, c, d, A, B, n - a - c - A, D)
            for a in range(1, n - 2) for b in range(a + 1)
            for c in range(1, n - a - 1) for d in range(c + 1)
            for A in range(1, n - a - c) for B in range(A + 1)
            for D in range(n - a - c - A + 1)
        )
        for a, b, c, d, A, B, C, D in tables:
            report = _report(("s1", "s2"), [(a, b, A, B), (c, d, C, D)], False)
            if report.classification is Classification.FULL_REVERSAL:
                return StratifiedComparison.from_pairs(
                    "g1", "g2", [("s1", (a, b), (A, B)), ("s2", (c, d), (C, D))]
                )
    raise NotFound(f"no full reversal exists with at most {max_total} subjects")
