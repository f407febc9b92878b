"""Shared builders and hypothesis strategies for the test suite."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Mapping

from hypothesis import strategies as st

import confound
from confound.errors import DegenerateRange
from confound.geometry import (
    COLORS, DASH, FONT_SIZE, MARGIN, RenderOptions, VectorDiagram, _fmt,
)
from confound.records import Column, RecordTable
from confound.tables import (
    _MARKUP_ESCAPES, Counts, Direction, Rate, StratifiedComparison, Stratum, aggregate,
    compare, percent, rate,
)

# the directory the confound package under test is imported from
SRC = Path(confound.__file__).resolve().parent.parent

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


def slope_bounds(cells: list[Counts]) -> tuple[Rate, Rate, Rate]:
    """(min, max, aggregate) slope over a list of cells, compared exactly.

    The aggregate slope is the mediant of the cell rates, which lies weakly
    between the extremes: the property the tests state with this helper.
    """
    rates = [rate(c) for c in cells]
    lo = hi = rates[0]
    for r in rates[1:]:
        if compare(r, lo) is Direction.SECOND_HIGHER:  # r below current min
            lo = r
        if compare(r, hi) is Direction.FIRST_HIGHER:  # r above current max
            hi = r
    return lo, hi, rate(aggregate(cells))


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


def reference_render_svg(d: VectorDiagram, options: RenderOptions = RenderOptions()) -> str:
    """``geometry.render_svg`` written one point at a time, each chord end and
    marker mapped to the canvas by its own ``px()`` call: the reference the
    column-wise renderer must match byte for byte."""
    span_x = max((g.terminal[0] for g in d.groups), default=0)
    span_y = max((g.terminal[1] for g in d.groups), default=0)
    if span_x == 0 and span_y == 0:
        raise DegenerateRange("all points coincide at the origin")

    ox, oy = float(MARGIN), float(options.height - MARGIN)
    plot_w = options.width - 2 * MARGIN
    plot_h = options.height - 2 * MARGIN
    span_x, span_y = max(span_x, 1), max(span_y, 1)

    def px(p: tuple[int, int]) -> tuple[float, float]:
        # exact integer products divided once: no float overflow on huge counts
        return ox + p[0] * plot_w / span_x, oy - p[1] * plot_h / span_y

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{options.width}" height="{options.height}" '
        f'viewBox="0 0 {options.width} {options.height}" '
        f'font-family="sans-serif" font-size="{FONT_SIZE}">',
        f'<path class="axes" d="M {_fmt(ox)} {_fmt(oy)} L {_fmt(ox + plot_w)} '
        f'{_fmt(oy)} M {_fmt(ox)} {_fmt(oy)} L {_fmt(ox)} {_fmt(oy - plot_h)}" '
        f'stroke="#444444" stroke-width="1" fill="none"/>',
        f'<text class="axis-label" x="{_fmt(ox + plot_w)}" y="{_fmt(oy + 18)}" '
        f'text-anchor="end" fill="#444444">total</text>',
        f'<text class="axis-label" x="{_fmt(ox - 6)}" y="{_fmt(oy - plot_h - 8)}" '
        f'text-anchor="start" fill="#444444">positive</text>',
    ]

    # each element is one %-template per group, its constant parts filled in
    origin = f"M {_fmt(ox)} {_fmt(oy)} L %.2f %.2f"
    for gi, g in enumerate(d.groups):
        color = COLORS[gi % len(COLORS)]
        tx, ty = px(g.terminal)
        chord = (
            f'<path class="stratum-chord" d="{origin}'
            + (f' M %.2f %.2f L {_fmt(tx)} {_fmt(ty)}' if options.parallelogram else "")
            + f'" stroke="{color}" stroke-width="1.5" stroke-dasharray="{DASH}" '
            'fill="none"/>'
        )
        vectors = g.vectors
        total, positive = g.terminal
        for v in vectors:
            if v == g.terminal:  # single stratum: chord and aggregate coincide
                continue
            coords = px(v)
            if options.parallelogram:
                coords += px((total - v[0], positive - v[1]))
            parts.append(chord % coords)
        parts.append(
            f'<line class="aggregate-chord" x1="{_fmt(ox)}" y1="{_fmt(oy)}" '
            f'x2="{_fmt(tx)}" y2="{_fmt(ty)}" stroke="{color}" stroke-width="2"/>'
        )

        # a path's steps and terminal are (total, positive) pairs it has checked
        marked = {g.terminal: f"{g.label} {g.terminal} {percent(positive, total)}"}
        for v in vectors:
            marked.setdefault(v, f"{v} {percent(v[1], v[0])}")
        marker = (
            f'<circle class="marker" cx="%.2f" cy="%.2f" r="3" fill="{color}"/>\n'
            f'<text class="marker-label" x="%.2f" y="%.2f" fill="{color}">%s</text>'
        )
        for p, label in marked.items():
            cx, cy = px(p)
            text = label.translate(_MARKUP_ESCAPES)
            parts.append(marker % (cx, cy, cx + 6, cy - 6, text))

    parts.append(
        f'<circle class="marker" cx="{_fmt(ox)}" cy="{_fmt(oy)}" r="3" fill="#000000"/>'
    )
    parts.append(
        f'<text class="marker-label" x="{_fmt(ox + 6)}" y="{_fmt(oy - 6)}" '
        f'fill="#000000">(0, 0)</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def python(
    *args: str, cwd: Path | None = None, env: Mapping[str, str] = os.environ,
    stdout=subprocess.PIPE,
) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports the confound under
    test, in ``env`` (by default this process's environment); stderr, and by
    default stdout, are captured."""
    path = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, stdout=stdout, stderr=subprocess.PIPE,
        timeout=60, env=dict(env, PYTHONPATH=path),
    )
