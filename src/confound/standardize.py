"""Reference-weighted pooling of stratum rates (direct standardization).

Amalgamation weights each group's stratum rates by that group's *own*
exposure structure, which is what lets the pooled comparison contradict
every stratum. Pooling both groups against one common weight vector removes
the artifact: if every stratum strictly favors the same group, any strictly
positive common weighting preserves that direction.

Standardized rates are real-valued (weights are reals), so the direction of
a standardized comparison uses a fixed tie tolerance instead of exact
arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, NamedTuple

from .errors import ValidationError, WeightMismatch
from .tables import Direction, Side, StratifiedComparison

Reference = Literal["combined", "first", "second", "equal"]

TIE_TOLERANCE = 1e-12
_WEIGHT_SUM_TOLERANCE = 1e-12


@dataclass(frozen=True)
class WeightVector:
    """Non-negative per-stratum weights summing to one."""

    weights: tuple[tuple[str, float], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "weights", tuple((label, float(w)) for label, w in self.weights)
        )
        if not self.weights:
            raise ValidationError("a weight vector needs at least one stratum")
        for label, w in self.weights:
            if not w >= 0.0:  # also rejects NaN
                raise ValidationError(f"weight for {label!r} must be >= 0, got {w}")
        # exactly rounded: a plain sum's error grows with the stratum count
        total = math.fsum(w for _, w in self.weights)
        if abs(total - 1.0) > _WEIGHT_SUM_TOLERANCE:
            raise ValidationError(f"weights must sum to 1, got {total!r}")

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.weights)


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
    if reference == "equal":
        sizes = [1] * len(sc.strata)
    elif reference == "combined":
        sizes = [s.first.total + s.second.total for s in sc.strata]
    elif reference in ("first", "second"):
        sizes = [c.total for c in sc.counts(reference)]
    else:
        raise ValidationError(f"unknown reference {reference!r}")
    grand = sum(sizes)
    return WeightVector(tuple((s.label, n / grand) for s, n in zip(sc.strata, sizes)))


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
    for (_, weight), c in zip(w.weights, sc.counts(side)):
        total += weight * (c.positive / c.total)
    return total


class StandardizedComparison(NamedTuple):
    rate_first: float
    rate_second: float
    direction: Direction


def standardized_comparison(
    sc: StratifiedComparison, reference: Reference = "combined"
) -> StandardizedComparison:
    """Both groups' standardized rates under one reference, plus direction.

    Ties are declared within ``TIE_TOLERANCE`` (1e-12); everything else is
    a strict real comparison.
    """
    return _comparison(sc, reference_weights(sc, reference))


def _comparison(sc: StratifiedComparison, w: WeightVector) -> StandardizedComparison:
    """:func:`standardized_comparison` under the weights ``w`` of a reference."""
    first = standardized_rate(sc, "first", w)
    second = standardized_rate(sc, "second", w)
    if abs(first - second) <= TIE_TOLERANCE:
        direction = Direction.TIE
    elif first > second:
        direction = Direction.FIRST_HIGHER
    else:
        direction = Direction.SECOND_HIGHER
    return StandardizedComparison(first, second, direction)
