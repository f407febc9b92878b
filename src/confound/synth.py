"""Reversal construction and exhaustive minimal search.

``generate_reversal`` builds tables that are guaranteed full reversals by a
constructive recipe (one group's exposure skewed toward the high-rate
strata, the other's toward the low-rate strata, with every stratum strictly
favoring the second group). Each attempt is built as four plain integer
columns, screened by its pooled cross-product and then judged by the
detector's own classification on those columns, which become the table it
accepts; a rejected attempt is dropped, and the next one draws fresh jitter
from the same generator.

``minimal_reversal`` enumerates every two-stratum table up to a subject
bound and returns the canonical smallest reversal: fewest subjects, ties
broken lexicographically on (a, b, c, d, A, B, C, D) — group one's
(total, positive) per stratum, then group two's.
"""

from __future__ import annotations

import random
import sys
from itertools import compress, repeat, starmap
from operator import add, ge, mul, sub, truediv

from .detector import Classification, _report
from .errors import GenerationFailed, NotFound, ValidationError
from .tables import StratifiedComparison, _integer

GENERATION_BUDGET = 100_000
# the jitter draws totals of up to 1.2 x scale, which must be finite floats
_MAX_SCALE = int(sys.float_info.max / 1.2)


def _shape(k: int, scale: int) -> tuple[list[float], ...]:
    """The exposure columns every attempt shares: each stratum's position
    ``frac`` from 0 (front) to 1 (back), ``1 - frac``, and the first group's
    ``heavy`` and the second group's ``light`` expected sizes."""
    low_exposure = scale // 5
    frac = list(map(truediv, range(k), repeat(k - 1)))
    rest = list(map(sub, repeat(1), frac))
    heavy = list(map(add, map(mul, repeat(scale), rest), map(mul, repeat(low_exposure), frac)))
    light = list(map(add, map(mul, repeat(scale), frac), map(mul, repeat(low_exposure), rest)))
    return frac, rest, heavy, light


def _candidate(
    rng: random.Random, k: int, shape: tuple[list[float], ...]
) -> list[list[int]]:
    """One attempt as the columns ``t1, p1, t2, p2``, one entry per stratum:
    stratum rates fall from front to back, the first group's exposure is
    front-loaded and the second group's back-loaded, and the second group
    strictly leads inside every stratum. ``shape`` is :func:`_shape`'s."""
    frac, rest, heavy, light = shape
    top = rng.uniform(0.55, 0.85)
    bottom = rng.uniform(0.05, 0.35)
    gap = rng.uniform(0.06, 0.2)

    # each total is size * rng.uniform(0.8, 1.2) by its documented formula,
    # the first group's from the even draws and the second's from the odd
    spread = 1.2 - 0.8
    draws = starmap(rng.random, repeat((), 2 * k))
    jitter = list(map(add, repeat(0.8), map(mul, repeat(spread), draws)))
    # scale >= 10, so low_exposure >= 2 and every size is at least 2: each
    # total is at least round(2 * 0.8) = 2, and none needs clamping to 1
    t1 = list(map(round, map(mul, heavy, jitter[0::2])))
    t2 = list(map(round, map(mul, light, jitter[1::2])))
    half_gap = gap / 2
    level = list(map(add, map(mul, repeat(top), rest), map(mul, repeat(bottom), frac)))
    # level <= 0.85 and half_gap <= 0.1, so r1 < r2 <= 0.95 and
    # round(r * t) <= t; a negative r1 gives round(r1 * t1) <= 0, the count
    # of a rate of 0, so a negative p1 becomes 0
    p1 = list(map(round, map(mul, map(sub, level, repeat(half_gap)), t1)))
    p2 = list(map(round, map(mul, map(add, level, repeat(half_gap)), t2)))
    if min(p1) < 0:
        p1 = [p if p > 0 else 0 for p in p1]
    # integer rounding can break strictness; nudge until p1/t1 < p2/t2
    for i in compress(range(k), list(map(ge, map(mul, p1, t2), map(mul, p2, t1)))):
        while p1[i] * t2[i] >= p2[i] * t1[i]:
            if p2[i] < t2[i]:
                p2[i] += 1
            else:
                p1[i] -= 1
    return [t1, p1, t2, p2]


def generate_reversal(k: int, scale: int, seed: int) -> StratifiedComparison:
    """A k-stratum table whose verdict is FULL_REVERSAL, deterministic per seed.

    An attempt whose pooled rates do not favor the first group is dropped
    at once; the detector judges the others on their integer columns, and
    only the first it accepts is built into a table."""
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
    shape = _shape(k, scale)
    for _ in range(GENERATION_BUDGET):
        columns = _candidate(rng, k, shape)
        # every stratum of an attempt leans to the second group, so it is a
        # full reversal exactly when the pooled first rate is the higher one
        t1, p1, t2, p2 = map(sum, columns)
        if p1 * t2 <= p2 * t1:
            continue
        if _report(labels, *columns, False).classification is Classification.FULL_REVERSAL:
            return StratifiedComparison._of_columns("g1", "g2", labels, *columns)
    raise GenerationFailed(
        f"no full reversal found in {GENERATION_BUDGET} attempts "
        f"(k={k}, scale={scale}, seed={seed})"
    )


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
            columns = ("s1", "s2"), (a, c), (b, d), (A, C), (B, D)
            if _report(*columns, False).classification is Classification.FULL_REVERSAL:
                return StratifiedComparison._of_columns("g1", "g2", *columns)
    raise NotFound(f"no full reversal exists with at most {max_total} subjects")
