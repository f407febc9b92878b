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

from collections import Counter
from enum import Enum
from itertools import repeat
from operator import attrgetter
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


def _flag(name: str, v) -> None:
    """Require a ``bool``: a flag that took any value would act on its truth."""
    if not isinstance(v, bool):
        raise ValidationError(f"{name} must be a bool, got {v!r}")


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


class _Value:
    """Base of the package's immutable value classes.

    A subclass annotates its fields, in order; the annotations become
    ``_fields``, read with ``getattr``, so a field may be a property. A
    subclass that defines no ``__init__`` gets one that takes each field and
    stores it, built once from a source template as ``collections.namedtuple``
    builds its methods; one that checks its arguments stores them with one
    ``self.__dict__.update``. :meth:`_of` builds a value over fields that are
    already checked and checks nothing again. Two values are equal when they
    are of the same class and their stored state is equal, the hash is the
    hash of the fields, and a field can be neither assigned nor deleted.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # a class's own annotations, in order (on Python 3.10 and later)
        cls._fields = tuple(cls.__annotations__)
        # positional class patterns: ``case Counts(total, positive)``
        cls.__match_args__ = cls._fields
        if "__init__" not in cls.__dict__:
            names = ", ".join(cls._fields)
            stores = ", ".join(f"{name}={name}" for name in cls._fields)
            namespace = {"__name__": cls.__module__}
            exec(f"def __init__(self, {names}):\n self.__dict__.update({stores})", namespace)
            cls.__init__ = namespace["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    @classmethod
    def _of(cls, *fields):
        """A value over fields that are already checked, kept as they are."""
        value = cls.__new__(cls)
        value.__dict__.update(zip(cls._fields, fields))
        return value

    def _values(self) -> tuple:
        return tuple(map(getattr, repeat(self), self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._values())
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Counts(_Value):
    """Subjects and outcome events for one group within one stratum.

    ``total`` is the number of subjects, ``positive`` the number of outcome
    events (deaths, admissions, ...). Both are non-negative and
    ``positive <= total``.
    """

    total: int
    positive: int

    def __init__(self, total: int, positive: int):
        _pair(total, positive)
        self.__dict__.update(total=total, positive=positive)


class Rate(_Value):
    """An event proportion kept as an unreduced numerator/denominator pair.

    Reduction is deliberately not performed: ``Rate(36, 60)`` and
    ``Rate(3, 5)`` compare as equal in value but remember different
    provenance. Use :func:`compare` for ordering; ``value`` is a float
    approximation for display and weighting only.
    """

    numerator: int
    denominator: int

    def __init__(self, numerator: int, denominator: int):
        _pair(denominator, numerator, ("denominator", "numerator"))
        if denominator == 0:
            raise ValidationError("denominator must be > 0, got 0")
        self.__dict__.update(numerator=numerator, denominator=denominator)

    @property
    def value(self) -> float:
        return self.numerator / self.denominator

    def percent(self) -> str:
        """Percent display rounded half-up to one decimal, e.g. ``'62.1%'``."""
        return percent(self.numerator, self.denominator)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


class Stratum(_Value):
    """One stratum's counts for both groups."""

    label: str
    first: Counts
    second: Counts


class StratifiedComparison(_Value):
    """Two named groups observed across one or more named strata.

    Stored as columns, from which ``strata`` and :meth:`counts` are derived.
    Invariants enforced here: at least one stratum, text labels, unique
    stratum labels, distinct group labels, and subjects on both sides of
    every stratum: a stratum empty on both sides is a :class:`ValidationError`,
    and then the first stratum empty on one side is an :class:`EmptyStratumSide`.
    """

    group_first_label: str
    group_second_label: str
    strata: tuple[Stratum, ...]

    def __init__(
        self, group_first_label: str, group_second_label: str, strata: Sequence[Stratum]
    ):
        strata = tuple(strata)
        for s in strata:
            cells = (s.first, s.second) if isinstance(s, Stratum) else ()
            if not (cells and all(isinstance(c, Counts) for c in cells)):
                raise ValidationError(f"a stratum is a Stratum of two Counts, got {s!r}")
        fields = ("label", "first.total", "first.positive", "second.total", "second.positive")
        columns = (list(map(attrgetter(field), strata)) for field in fields)
        self._fill(group_first_label, group_second_label, *columns)

    @classmethod
    def from_pairs(
        cls,
        group_first_label: str,
        group_second_label: str,
        rows: Sequence[tuple[str, tuple[int, int], tuple[int, int]]],
    ) -> "StratifiedComparison":
        """Build from ``(label, (total, positive), (total, positive))`` rows."""
        cells = []
        for row in rows:
            try:
                label, (t1, p1), (t2, p2) = row
            except (TypeError, ValueError):
                raise ValidationError(
                    f"a row is (label, (total, positive), (total, positive)), got {row!r}"
                ) from None
            _pair(t1, p1)
            _pair(t2, p2)
            cells.append((label, t1, p1, t2, p2))
        columns = list(zip(*cells)) or [()] * 5
        return cls._of_columns(group_first_label, group_second_label, *columns)

    @classmethod
    def _of_columns(cls, *columns) -> "StratifiedComparison":
        """A table over :meth:`_fill`'s arguments, whose ``(total, positive)``
        pairs are already checked; only the table-level rules are checked."""
        sc = cls.__new__(cls)
        sc._fill(*columns)
        return sc

    def _fill(self, first, second, labels, t1, p1, t2, p2) -> None:
        """Check the table-level rules, in order, and store the group labels
        and the columns: the stratum labels, then each stratum's total and
        positive count for the first group and for the second."""
        labels, t1, t2 = tuple(labels), tuple(t1), tuple(t2)
        if not labels:
            raise ValidationError("a comparison needs at least one stratum")
        for label in (first, second, *labels):
            if not isinstance(label, str):
                raise ValidationError(f"labels must be text, got {label!r}")
        if first == second:
            raise ValidationError(f"group labels must differ, both are {first!r}")
        if len(set(labels)) != len(labels):
            dupes = sorted(l for l, n in Counter(labels).items() if n > 1)
            raise ValidationError(f"duplicate stratum labels: {dupes}")
        # the totals are checked counts, so a side is empty exactly where it is 0
        if 0 in t1 or 0 in t2:
            empty = [i for i, n in enumerate(map(min, t1, t2)) if not n]
            for i in empty:
                if not (t1[i] or t2[i]):
                    raise ValidationError(
                        f"stratum {labels[i]!r} has no subjects on either side"
                    )
            i = empty[0]
            group = second if t1[i] else first
            raise EmptyStratumSide(f"stratum {labels[i]!r} has no rows for group {group!r}")
        self.__dict__.update(
            group_first_label=first, group_second_label=second,
            _columns=(labels, t1, tuple(p1), t2, tuple(p2)),
        )

    @property
    def strata(self) -> tuple[Stratum, ...]:
        labels, t1, p1, t2, p2 = self._columns
        return tuple(map(Stratum, labels, map(Counts, t1, p1), map(Counts, t2, p2)))

    def __hash__(self) -> int:
        # the hash of the fields, built from plain tuples: a tuple's hash is
        # made of its items' hashes, and a Stratum's and a Counts' hashes
        # are those of their fields' tuples
        labels, t1, p1, t2, p2 = self._columns
        strata = tuple(zip(labels, zip(t1, p1), zip(t2, p2)))
        return hash((self.group_first_label, self.group_second_label, strata))

    def stratum_labels(self) -> tuple[str, ...]:
        return self._columns[0]

    def group_label(self, side: Side) -> str:
        _require_side(side)
        return self.group_first_label if side == "first" else self.group_second_label

    def counts(self, side: Side) -> tuple[Counts, ...]:
        """All strata's counts for one side, in stratum order."""
        return tuple(map(Counts, *self._side(side)))

    def _side(self, side: Side) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """One side's total and positive columns."""
        _require_side(side)
        _, t1, p1, t2, p2 = self._columns
        return (t1, p1) if side == "first" else (t2, p2)


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
