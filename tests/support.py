"""Shared builders and hypothesis strategies for the test suite."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from confound.records import Column, RecordTable
from confound.tables import Counts, Rate, StratifiedComparison, Stratum

HOSPITAL = StratifiedComparison.from_pairs(
    "A",
    "B",
    [
        ("non-healthy", (60, 36), (20, 14)),
        ("healthy", (20, 4), (60, 18)),
    ],
)

BERKELEY = StratifiedComparison.from_pairs(
    "Men",
    "Women",
    [
        ("A", (825, 512), (108, 89)),
        ("B", (560, 353), (25, 17)),
        ("C", (325, 120), (593, 202)),
        ("D", (417, 138), (375, 131)),
        ("E", (191, 53), (393, 94)),
        ("F", (373, 22), (341, 24)),
    ],
)


@st.composite
def counts(draw, min_total: int = 0, max_total: int = 400):
    total = draw(st.integers(min_total, max_total))
    positive = draw(st.integers(0, total))
    return Counts(total, positive)


@st.composite
def rates(draw, max_denominator: int = 10**6):
    den = draw(st.integers(1, max_denominator))
    num = draw(st.integers(0, den))
    return Rate(num, den)


@st.composite
def comparisons(
    draw,
    min_strata: int = 1,
    max_strata: int = 5,
    min_total: int = 1,
    max_total: int = 200,
):
    k = draw(st.integers(min_strata, max_strata))
    strata = tuple(
        Stratum(
            f"s{i + 1}",
            draw(counts(min_total, max_total)),
            draw(counts(min_total, max_total)),
        )
        for i in range(k)
    )
    return StratifiedComparison("g1", "g2", strata)


def swap_groups(sc: StratifiedComparison) -> StratifiedComparison:
    return StratifiedComparison(
        sc.group_second_label,
        sc.group_first_label,
        tuple(Stratum(s.label, s.second, s.first) for s in sc.strata),
    )


def dominating_comparison(rng: random.Random) -> StratifiedComparison:
    """Random table where the second group strictly leads in every stratum."""
    k = rng.randint(2, 5)
    strata = []
    for i in range(k):
        t1 = rng.randint(1, 300)
        t2 = rng.randint(1, 300)
        p1 = rng.randint(0, t1 - 1) if t1 > 1 else 0
        p2_min = p1 * t2 // t1 + 1  # smallest p2 with p2/t2 > p1/t1
        p2 = rng.randint(p2_min, t2)
        strata.append(Stratum(f"s{i + 1}", Counts(t1, p1), Counts(t2, p2)))
    return StratifiedComparison("g1", "g2", tuple(strata))


def random_comparison(
    rng: random.Random, max_strata: int = 6, max_total: int = 500
) -> StratifiedComparison:
    """Seeded random table with positive totals on both sides everywhere."""
    k = rng.randint(1, max_strata)
    strata = []
    for i in range(k):
        t1 = rng.randint(1, max_total)
        t2 = rng.randint(1, max_total)
        strata.append(
            Stratum(
                f"s{i + 1}",
                Counts(t1, rng.randint(0, t1)),
                Counts(t2, rng.randint(0, t2)),
            )
        )
    return StratifiedComparison("g1", "g2", tuple(strata))


def hospital_records(noise_seed: int | None = None) -> RecordTable:
    """The hospital table expanded to one row per patient.

    With a seed, adds an independent fair-coin covariate named ``noise``.
    """
    plan = [
        ("non-healthy", "A", 60, 36),
        ("non-healthy", "B", 20, 14),
        ("healthy", "A", 20, 4),
        ("healthy", "B", 60, 18),
    ]
    rng = random.Random(noise_seed) if noise_seed is not None else None
    columns = [
        Column("hospital", "categorical"),
        Column("death", "boolean"),
        Column("condition", "categorical"),
    ]
    if rng is not None:
        columns.append(Column("noise", "categorical"))
    rows = []
    for condition, hospital, total, dead in plan:
        for i in range(total):
            row = [hospital, i < dead, condition]
            if rng is not None:
                row.append(rng.choice(["heads", "tails"]))
            rows.append(tuple(row))
    return RecordTable(tuple(columns), tuple(rows))


def records_from_columns(**cols) -> RecordTable:
    """Build a RecordTable from keyword columns; kinds are inferred per value."""
    names = list(cols)
    kinds = []
    for name in names:
        v = cols[name][0]
        if isinstance(v, bool):
            kinds.append("boolean")
        elif isinstance(v, (int, float)):
            kinds.append("numeric")
        else:
            kinds.append("categorical")
    n = len(cols[names[0]])
    rows = tuple(tuple(cols[name][i] for name in names) for i in range(n))
    columns = tuple(Column(name, kind) for name, kind in zip(names, kinds))
    return RecordTable(columns, rows)
