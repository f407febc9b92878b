"""Exact-arithmetic contingency primitives: counts, rates, pooling, comparison.

Counts are plain integers. Rates stay as unreduced ``positive/total`` pairs
so the provenance of every figure survives, and every ordering decision is
made by integer cross-multiplication — never by floating point, so there is
no tolerance parameter at this layer. Percent strings round half-up to one
decimal, which is purely a display concern.

All values are immutable after construction and every operation is a pure
function, so unrestricted concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Literal, Sequence

from .errors import EmptyInput, EmptyStratumSide, ValidationError

Side = Literal["first", "second"]


class Direction(Enum):
    """Outcome of an exact two-rate comparison."""

    FIRST_HIGHER = "FIRST_HIGHER"
    SECOND_HIGHER = "SECOND_HIGHER"
    TIE = "TIE"

    def flipped(self) -> "Direction":
        """The direction seen after swapping the two sides."""
        if self is Direction.FIRST_HIGHER:
            return Direction.SECOND_HIGHER
        if self is Direction.SECOND_HIGHER:
            return Direction.FIRST_HIGHER
        return Direction.TIE


def _integer(name: str, v) -> None:
    """Require an ``int`` that is not a ``bool``."""
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValidationError(f"{name} must be an integer, got {v!r}")


def _pair(total, positive, names=("total", "positive")) -> None:
    """Require two integers >= 0 with ``positive <= total``."""
    # the valid case in one test; any other input meets the checks below,
    # which name its first fault: the total whole, then the positive, then the pair
    if type(total) is int and type(positive) is int and 0 <= positive <= total:
        return
    for name, v in zip(names, (total, positive)):
        _integer(name, v)
        if v < 0:
            raise ValidationError(f"{name} must be >= 0, got {v}")
    if positive > total:
        raise ValidationError(f"{names[1]} ({positive}) exceeds {names[0]} ({total})")


def _require_side(side: str) -> None:
    if side not in ("first", "second"):
        raise ValidationError(f"side must be 'first' or 'second', got {side!r}")


@dataclass(frozen=True)
class Counts:
    """Subjects and outcome events for one group within one stratum.

    ``total`` is the number of subjects, ``positive`` the number of outcome
    events (deaths, admissions, ...). Both are non-negative and
    ``positive <= total``.
    """

    total: int
    positive: int

    def __post_init__(self):
        _pair(self.total, self.positive)


@dataclass(frozen=True)
class Rate:
    """An event proportion kept as an unreduced numerator/denominator pair.

    Reduction is deliberately not performed: ``Rate(36, 60)`` and
    ``Rate(3, 5)`` compare as equal in value but remember different
    provenance. Use :func:`compare` for ordering; ``value`` is a float
    approximation for display and weighting only.
    """

    numerator: int
    denominator: int

    def __post_init__(self):
        _pair(self.denominator, self.numerator, ("denominator", "numerator"))
        if self.denominator == 0:
            raise ValidationError("denominator must be > 0, got 0")

    @property
    def value(self) -> float:
        return self.numerator / self.denominator

    def percent(self) -> str:
        """Percent display rounded half-up to one decimal, e.g. ``'62.1%'``."""
        return percent(self.numerator, self.denominator)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


@dataclass(frozen=True)
class Stratum:
    """One stratum's counts for both groups."""

    label: str
    first: Counts
    second: Counts


@dataclass(frozen=True)
class StratifiedComparison:
    """Two named groups observed across one or more named strata.

    Invariants enforced here: at least one stratum, text labels, unique
    stratum labels, distinct group labels, and subjects on both sides of
    every stratum: a stratum empty on both sides is a :class:`ValidationError`,
    and then the first stratum empty on one side is an :class:`EmptyStratumSide`.
    """

    group_first_label: str
    group_second_label: str
    strata: tuple[Stratum, ...]

    def __post_init__(self):
        object.__setattr__(self, "strata", tuple(self.strata))
        if not self.strata:
            raise ValidationError("a comparison needs at least one stratum")
        labels = [s.label for s in self.strata]
        for label in (self.group_first_label, self.group_second_label, *labels):
            if not isinstance(label, str):
                raise ValidationError(f"labels must be text, got {label!r}")
        if self.group_first_label == self.group_second_label:
            raise ValidationError(
                f"group labels must differ, both are {self.group_first_label!r}"
            )
        if len(set(labels)) != len(labels):
            dupes = sorted({l for l in labels if labels.count(l) > 1})
            raise ValidationError(f"duplicate stratum labels: {dupes}")
        empty = [s for s in self.strata if not (s.first.total and s.second.total)]
        for s in empty:
            if not (s.first.total or s.second.total):
                raise ValidationError(
                    f"stratum {s.label!r} has no subjects on either side"
                )
        if empty:
            s = empty[0]
            group = self.group_second_label if s.first.total else self.group_first_label
            raise EmptyStratumSide(f"stratum {s.label!r} has no rows for group {group!r}")

    @classmethod
    def from_pairs(
        cls,
        group_first_label: str,
        group_second_label: str,
        rows: Sequence[tuple[str, tuple[int, int], tuple[int, int]]],
    ) -> "StratifiedComparison":
        """Build from ``(label, (total, positive), (total, positive))`` rows."""
        strata = tuple(
            Stratum(label, Counts(*first), Counts(*second))
            for label, first, second in rows
        )
        return cls(group_first_label, group_second_label, strata)

    def stratum_labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.strata)

    def group_label(self, side: Side) -> str:
        _require_side(side)
        return self.group_first_label if side == "first" else self.group_second_label

    def counts(self, side: Side) -> tuple[Counts, ...]:
        """All strata's counts for one side, in stratum order."""
        _require_side(side)
        if side == "first":
            return tuple(s.first for s in self.strata)
        return tuple(s.second for s in self.strata)


def percent(positive: int, total: int) -> str:
    """``positive / total`` as a percent rounded half-up to one decimal, for
    a valid pair with ``total > 0``."""
    # integer half-up: floor((1000 * positive / total) + 1/2) in tenths of a percent
    tenths = (2000 * positive + total) // (2 * total)
    return f"{tenths // 10}.{tenths % 10}%"


# C0 and C1 control characters and DEL, written as \xNN, so a label cannot
# move the cursor or set colours on a terminal; and U+FFFE and U+FFFF, which
# XML 1.0 cannot carry, written as \ufffe and \uffff
_ESCAPES = {c: f"\\x{c:02x}" for c in (*range(0x20), *range(0x7F, 0xA0))}
_ESCAPES.update({0xFFFE: "\\ufffe", 0xFFFF: "\\uffff"})
# the same, plus the three characters XML text cannot carry as themselves:
# SVG labels are text escaped once, then markup-escaped, in one pass
_MARKUP_ESCAPES = {**_ESCAPES, ord("&"): "&amp;", ord("<"): "&lt;", ord(">"): "&gt;"}


def escaped(label: str) -> str:
    """``label`` as text reports and SVG labels display it."""
    return label.translate(_ESCAPES)


def rate(c: Counts) -> Rate:
    """The event rate of one cell as an unreduced Rate."""
    if c.total == 0:
        raise EmptyStratumSide("cannot take a rate over zero subjects")
    return Rate(c.positive, c.total)


def aggregate(cells: Iterable[Counts]) -> Counts:
    """Componentwise sum of count cells (the amalgamated table row).

    Python integers are arbitrary precision, so the sum is exact for any
    representable input.
    """
    cells = list(cells)
    if not cells:
        raise EmptyInput("nothing to aggregate")
    return Counts(sum(c.total for c in cells), sum(c.positive for c in cells))


def cross_direction(lhs: float, rhs: float) -> Direction:
    """Order two exact quantities, such as two rates' cross-products: ``lhs``
    the first rate's numerator times the second's denominator, ``rhs`` the
    reverse."""
    if lhs > rhs:
        return Direction.FIRST_HIGHER
    if lhs < rhs:
        return Direction.SECOND_HIGHER
    return Direction.TIE


def compare(r1: Rate, r2: Rate) -> Direction:
    """Order two rates exactly by integer cross-multiplication."""
    return cross_direction(r1.numerator * r2.denominator, r2.numerator * r1.denominator)


def pooled_rate(sc: StratifiedComparison, side: Side) -> Rate:
    """Rate of one group after summing its counts across all strata."""
    return rate(aggregate(sc.counts(side)))


def unweighted_mean_rate(sc: StratifiedComparison, side: Side) -> float:
    """Arithmetic mean of one group's per-stratum rates.

    This is the naive "average of the ratios" that ignores stratum sizes;
    it generally differs from :func:`pooled_rate`.
    """
    rates = [c.positive / c.total for c in sc.counts(side)]
    return sum(rates) / len(rates)
