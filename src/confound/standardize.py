"""Reference-weighted pooling of stratum rates (direct standardization).

Amalgamation weights each group's stratum rates by that group's *own*
exposure structure, which is what lets the pooled comparison contradict
every stratum. Pooling both groups against one common weight vector removes
the artifact: if every stratum strictly favors the same group, any strictly
positive common weighting preserves that direction.

Standardized rates are reported as floats, but the direction of a
standardized comparison is exact: the float rates decide it only where
their proven error bound cannot change the order, and exact integer
arithmetic decides the rest.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import add, truediv
from typing import Literal, NamedTuple, Sequence

from .errors import ValidationError, WeightMismatch
from .tables import Direction, Side, StratifiedComparison, _Value, cross_direction

Reference = Literal["combined", "first", "second", "equal"]

_WEIGHT_SUM_TOLERANCE = 1e-12


class WeightVector(_Value):
    """Non-negative per-stratum weights summing to one, each an int (not a
    bool) or a float, and stored as a float."""

    weights: tuple[tuple[str, float], ...]

    def __init__(self, weights: Sequence[tuple[str, float]]):
        weights = tuple(weights)
        for entry in weights:
            if not isinstance(entry, (tuple, list)) or len(entry) != 2:
                raise ValidationError(
                    f"a weight is a (label, weight) pair, got {entry!r}"
                )
        weights = tuple((label, _weight(label, w)) for label, w in weights)
        if not weights:
            raise ValidationError("a weight vector needs at least one stratum")
        for label, w in weights:
            if not w >= 0.0:  # also rejects NaN
                raise ValidationError(f"weight for {label!r} must be >= 0, got {w}")
        # exactly rounded: a plain sum's error grows with the stratum count
        total = math.fsum(w for _, w in weights)
        if abs(total - 1.0) > _WEIGHT_SUM_TOLERANCE:
            raise ValidationError(f"weights must sum to 1, got {total!r}")
        self.__dict__.update(weights=weights)

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.weights)


def _weight(label: str, w) -> float:
    if isinstance(w, bool) or not isinstance(w, (int, float)):
        raise ValidationError(f"weight for {label!r} must be a number, got {w!r}")
    try:
        return float(w)
    except OverflowError:  # an int past the float range
        raise ValidationError(
            f"weight for {label!r} must be within the float range, got a "
            f"{w.bit_length()}-bit integer"
        ) from None


def reference_weights(
    sc: StratifiedComparison, reference: Reference = "combined"
) -> WeightVector:
    """Stratum weights for a chosen reference population.

    ``combined`` — each stratum's share of subjects over both groups
    (the default: symmetric between the groups and the usual direct-
    standardization convention). ``first``/``second`` — that group's own
    stratum shares.
    ``equal`` — 1/K per stratum.
    """
    sizes = _sizes(sc, reference)
    grand = sum(sizes)
    # Built trusted: each check of WeightVector holds by construction. A
    # table has at least one stratum, and each entry pairs its text label
    # with a share n / grand of integer sizes 0 <= n <= grand, grand > 0.
    # int / int rounds correctly, so a share is a finite float >= 0, off its
    # exact value by at most 2**-53 of itself, plus 2**-1075 if it underflows.
    # The exact shares sum to 1, so over K strata the floats sum to within
    # 2**-53 + K * 2**-1075 of 1, which fsum rounds once more: far inside the
    # public 1e-12 tolerance.
    shares = map(truediv, sizes, repeat(grand))
    return WeightVector._of(tuple(zip(sc.stratum_labels(), shares)))


def _sizes(sc: StratifiedComparison, reference: Reference) -> list[int]:
    """Each stratum's integer size under a reference; its weight is its share."""
    labels, t1, _, t2, _ = sc._columns
    if reference == "equal":
        return [1] * len(labels)
    if reference == "combined":
        return list(map(add, t1, t2))
    if reference in ("first", "second"):
        return list(t1 if reference == "first" else t2)
    raise ValidationError(f"unknown reference {reference!r}")


def standardized_rate(
    sc: StratifiedComparison, side: Side, w: WeightVector
) -> float:
    """One group's stratum rates averaged under a common weight vector."""
    if w.labels() != sc.stratum_labels():
        raise WeightMismatch(
            f"weight labels {list(w.labels())} do not match strata "
            f"{list(sc.stratum_labels())}"
        )
    total = 0.0
    for (_, weight), t, p in zip(w.weights, *sc._side(side)):
        total += weight * (p / t)
    return total


class StandardizedComparison(NamedTuple):
    rate_first: float
    rate_second: float
    direction: Direction


def standardized_comparison(
    sc: StratifiedComparison, reference: Reference = "combined"
) -> StandardizedComparison:
    """Both groups' standardized rates under one reference, plus the exact
    direction of their difference."""
    return _weights_and_comparison(sc, reference)[1]


def _weights_and_comparison(
    sc: StratifiedComparison, reference: Reference
) -> tuple[WeightVector, StandardizedComparison]:
    """A reference's weights and the comparison under them, weighed once."""
    w = reference_weights(sc, reference)
    first = standardized_rate(sc, "first", w)
    second = standardized_rate(sc, "second", w)
    # Each rate sums fl(fl(k_i/K) * fl(p_i/t_i)) left to right over n strata
    # (int / int rounds correctly): n + 2 roundings of relative size u =
    # 2**-53 reach each term, and a quotient or product that goes subnormal
    # adds at most 2**-1075, so under 2**-1072 per term. Hence, as (n + 2) u
    # < 1/4, a rate is off its exact value by at most 2 (n + 2) u rate +
    # 1.5 n 2**-1072. The bound doubles the first part and rounds the second
    # up to 2 n 2**-1072 per rate, which covers the rounding of its own
    # arithmetic and of the gap: past it, the float order is the exact order.
    n = len(w.weights)
    if abs(first - second) > (n + 2) * 2.0**-51 * (first + second) + n * 2.0**-1070:
        direction = cross_direction(first, second)
    else:
        direction = cross_direction(_exact_gap(sc, _sizes(sc, reference)), 0)
    return w, StandardizedComparison(first, second, direction)


def _exact_gap(sc: StratifiedComparison, sizes: list[int]) -> int:
    """The sign of sum(k_i * (p1_i/t1_i - p2_i/t2_i)) as an integer: the
    numerators are summed per distinct denominator t1_i * t2_i, zero sums
    dropped (a stratum and its mirror cancel there), and the rest added
    pairwise over positive denominators. With distinct denominators nothing
    merges: the product of them all is then the size of the proof."""
    numerators: dict[int, int] = {}
    for k, t1, p1, t2, p2 in zip(sizes, *sc._columns[1:]):
        d, n = t1 * t2, k * (p1 * t2 - p2 * t1)
        numerators[d] = numerators.get(d, 0) + n
    terms = [(n, d) for d, n in numerators.items() if n] or [(0, 1)]
    while len(terms) > 1:  # a (0, 1) pads an odd count
        pairs = zip(terms[::2], [*terms[1::2], (0, 1)])
        terms = [(n1 * d2 + n2 * d1, d1 * d2) for (n1, d1), (n2, d2) in pairs]
    return terms[0][0]
