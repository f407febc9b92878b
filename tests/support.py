"""Shared builders and hypothesis strategies for the test suite."""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Mapping
from unittest import mock

from hypothesis import strategies as st

import confound
from confound import cli, ingest
from confound.commands.scan import _split_list
from confound.detector import Classification, ReversalReport
from confound.errors import DegenerateRange, EmptyStratumSide, NotTwoGroups
from confound.geometry import (
    COLORS, DASH, FONT_SIZE, MARGIN, RenderOptions, VectorDiagram, _fmt,
)
from confound.records import Column, RecordTable
from confound.scanning import ScanConfig, scan
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


def brute_force_classify(
    sc: StratifiedComparison, *, allow_tied_strata: bool = False
) -> ReversalReport:
    """Same contract as the detector, independently derived with Fractions.

    The differential oracle: it shares no logic with the detector and takes
    from ``confound`` only the types it returns and the error it raises."""
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
    # with tied strata allowed, the ties stand aside: every other stratum
    # leans one way, at least one stratum leans, and the pool leans the other
    elif allow_tied_strata and firsts > 0 and seconds == 0 and agg is Direction.SECOND_HIGHER:
        verdict = Classification.FULL_REVERSAL
    elif allow_tied_strata and seconds > 0 and firsts == 0 and agg is Direction.FIRST_HIGHER:
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


def reference_candidate(
    rng: random.Random, k: int, scale: int
) -> list[tuple[int, int, int, int]]:
    """``synth._candidate`` written one stratum at a time, as ``(t1, p1, t2,
    p2)`` rows, with each total clamped to at least 1 and the first group's
    rate to at least 0: the reference the columnar generator must match
    attempt for attempt, draw for draw."""
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


def reference_cmd_scan(ns) -> int:
    """``confound scan`` composed from the library: ``parse_records_csv``,
    ``RecordTable.where`` for ``--groups``, ``scan``, ``build_scan_report``
    and the chosen writer, each check where that composition makes it. The
    reference the command's block-by-block tally must match."""
    config = ScanConfig(
        binning=ns.binning,
        bins=ns.bins,
        min_stratum_size=ns.min_stratum_size,
        allow_tied_strata=ns.allow_tied_strata,
    )
    candidates = _split_list(ns.candidates)
    records = ingest.parse_records_csv(
        ingest._read_text(ns.records),
        numeric_columns=_split_list(ns.numeric),
        boolean_columns=(ns.outcome_col,),
    )
    if ns.groups:
        pair = _split_list(ns.groups)
        if len(pair) != 2:
            raise NotTwoGroups(f"--groups needs exactly two labels, got {pair}")
        records = records.where(ns.group_col, pair)
    results = scan(records, ns.group_col, ns.outcome_col, candidates, config)
    doc = cli.build_scan_report(records, candidates, results)
    return cli._emit(ns, doc, cli.render_scan_text)


def reference_cmd_decompose(ns) -> int:
    """``confound decompose`` composed from the library: the whole file read
    as one string, ``parse_records_csv``, ``build_decompose_report`` over the
    ``RecordTable`` and the chosen writer. The reference the command's
    block-by-block bucketing must match."""
    records = ingest.parse_records_csv(
        ingest._read_text(ns.records), numeric_columns=(ns.x, ns.y)
    )
    doc = cli.build_decompose_report(records, ns.group_col, ns.x, ns.y)
    return cli._emit(ns, doc, cli.render_decompose_text)


@contextlib.contextmanager
def block_chars(chars: int):
    """The reader's ``BLOCK_CHARS`` set to ``chars``, first seen to take
    effect: the reader then takes a string ``chars`` characters at a time.
    A patch the reader does not read fails here instead of leaving every
    block at the default size."""
    with mock.patch.object(ingest, "BLOCK_CHARS", chars):
        assert [len(p) for p in ingest._Text.of("x" * (chars + 1)).pieces()] == [chars, 1]
        yield


@contextlib.contextmanager
def serial_read():
    """The records reader as on a host of one CPU: it reads every file
    serially, and a fork fails the test."""
    def refuse():
        raise AssertionError("forked on a host of one CPU")

    with mock.patch.object(ingest, "_cpus", lambda: 1), mock.patch.object(os, "fork", refuse):
        yield


@contextlib.contextmanager
def split_read():
    """The records reader free to read a file in two halves on any host, as
    on one with two CPUs, yielding ``(forked, merged)``: the pid of each
    helper it forks, and for each split read whether the helper's rows were
    merged (``False`` when the serial reader read the file again). Every
    helper is reaped when the reader returns, so none is left on exit."""
    forked, merged = [], []
    fork, halves = os.fork, ingest._read_halves

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def spied_halves(*args):
        split = halves(*args)
        merged.append(split is not None)
        return split

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(ingest, "_cpus", lambda: 2))
        stack.enter_context(mock.patch.object(os, "fork", counted_fork))
        stack.enter_context(mock.patch.object(ingest, "_read_halves", spied_halves))
        yield forked, merged
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child process, running or unreaped
        return
    raise AssertionError(f"a child process outlived the command: {left}")


@contextlib.contextmanager
def count_digits(digits: int):
    """The reader's ``MAX_COUNT_DIGITS`` set to ``digits``, first seen to
    take effect: a count one digit longer is then refused."""
    with mock.patch.object(ingest, "MAX_COUNT_DIGITS", digits):
        longer = ingest._typed_column("count", ["9" * (digits + 1)])
        assert longer == f"has {digits + 1} digits, more than {digits}"
        yield


def quoted(text: str) -> str:
    """``text`` with every field of every non-blank line in double quotes."""
    return "\n".join(
        ",".join(f'"{f}"' for f in line.split(",")) if line else ""
        for line in text.split("\n")
    )


def run_captured(argv: list[str], *, reference: bool = False) -> tuple[int, str, str]:
    """``cli.run(argv)``'s exit code, stdout and stderr; with ``reference``,
    ``scan`` runs as :func:`reference_cmd_scan` and ``decompose`` as
    :func:`reference_cmd_decompose`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        if reference:
            stack.enter_context(mock.patch.object(cli, "_cmd_scan", reference_cmd_scan))
            stack.enter_context(
                mock.patch.object(cli, "_cmd_decompose", reference_cmd_decompose)
            )
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


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
