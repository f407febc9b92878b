"""Reversal classification.

A reversal (the aggregation paradox) is a *strict*-inequality phenomenon:
every stratum favors one group while the amalgamated table favors the
other. Classification therefore runs on exact comparisons from
:mod:`confound.tables`. By default a tied stratum blocks the
``FULL_REVERSAL`` verdict; ``allow_tied_strata=True`` relaxes that to
"all non-tie stratum directions unanimous and opposed by the aggregate".
"""

from __future__ import annotations

from enum import Enum
from operator import mul
from typing import Sequence

from .tables import Direction, StratifiedComparison, _Value, cross_direction


class Classification(Enum):
    """Verdict over a stratified comparison."""

    FULL_REVERSAL = "FULL_REVERSAL"
    CONSISTENT = "CONSISTENT"
    MIXED = "MIXED"


class ReversalReport(_Value):
    """Per-stratum directions plus the aggregate direction and verdict.

    ``majority_direction`` is the mode of the non-tie stratum directions,
    ``TIE`` when there is no mode.
    """

    stratum_directions: tuple[tuple[str, Direction], ...]
    aggregate_direction: Direction
    classification: Classification
    majority_direction: Direction


def _classify(
    stratum_dirs: Sequence[Direction],
    aggregate_dir: Direction,
    allow_tied_strata: bool,
) -> Classification:
    non_tie = [d for d in stratum_dirs if d is not Direction.TIE]
    if non_tie and len(set(non_tie)) == 1:
        if aggregate_dir is non_tie[0].flipped() and (
            allow_tied_strata or len(non_tie) == len(stratum_dirs)
        ):
            return Classification.FULL_REVERSAL
    if all(d is aggregate_dir for d in non_tie):
        return Classification.CONSISTENT
    return Classification.MIXED


def detect_reversal(
    sc: StratifiedComparison, *, allow_tied_strata: bool = False
) -> ReversalReport:
    """Classify a stratified comparison; every stratum has subjects on both
    sides, which the comparison's constructor ensures."""
    return _report(*sc._columns, allow_tied_strata)


def _report(labels, t1, p1, t2, p2, allow_tied_strata: bool) -> ReversalReport:
    """The report over a table's columns: the stratum labels, then each
    stratum's total and positive count for the first group and the second,
    every total positive. A stratum's direction and the aggregate's come
    from integer cross-products, with no ``Rate`` built."""
    dirs = list(map(cross_direction, map(mul, p1, t2), map(mul, p2, t1)))
    total1, positive1, total2, positive2 = map(sum, (t1, p1, t2, p2))
    aggregate_dir = cross_direction(positive1 * total2, positive2 * total1)
    return ReversalReport(
        stratum_directions=tuple(zip(labels, dirs)),
        aggregate_direction=aggregate_dir,
        classification=_classify(dirs, aggregate_dir, allow_tied_strata),
        majority_direction=cross_direction(
            dirs.count(Direction.FIRST_HIGHER), dirs.count(Direction.SECOND_HIGHER)
        ),
    )
