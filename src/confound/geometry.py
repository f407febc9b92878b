"""Vector picture of a stratified comparison, and its SVG rendering.

Each group's strata become 2D vectors ``(total, positive)``. Laid tip to
tail they form a cumulative path whose chords have the stratum rates as
slopes; the path ends at the pooled counts, so the origin-to-terminal chord
has the pooled rate as its slope. A reversal is then visible geometry: one
group's stratum chords are all steeper, yet its origin-to-terminal chord is
shallower.

Rendering is deterministic — identical diagram and options give identical
bytes. Stratum chords are dashed; each one is a single path holding the
chord from the origin plus (by default) its translated copy anchored at the
terminal point, completing the vector parallelogram. Aggregate chords are
solid lines. Coordinates are mapped affinely from data space; slope labels
always come from data coordinates, never canvas ones.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .errors import DegenerateRange, ValidationError
from .tables import (
    _MARKUP_ESCAPES, Counts, Direction, Rate, StratifiedComparison, _integer, _pair,
    aggregate, compare, percent, rate,
)


@dataclass(frozen=True)
class GroupPath:
    """One group's cumulative vector path.

    ``points`` starts at the origin and accumulates stratum counts: each
    point and step is a count pair ``0 <= y <= x`` and each step runs
    ``dx > 0``, so its slope is the (unreduced) rate of its stratum.
    """

    label: str
    points: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(tuple(p) for p in self.points))
        if len(self.points) < 2 or self.points[0] != (0, 0):
            raise ValidationError("a path starts at (0, 0) and has >= 1 segment")
        for x, y in self.points:
            _pair(x, y, ("x", "y"))
        for dx, dy in self.vectors:
            _pair(dx, dy, ("dx", "dy"))
            if dx == 0:
                raise ValidationError("step (0, 0) needs dx > 0")

    @property
    def segment_slopes(self) -> tuple[Rate, ...]:
        """Each stratum's rate: the slope of its step."""
        return tuple(Rate(dy, dx) for dx, dy in self.vectors)

    @property
    def terminal_slope(self) -> Rate:
        """The pooled rate: the slope of the origin-to-terminal chord."""
        tx, ty = self.terminal
        return Rate(ty, tx)

    @property
    def terminal(self) -> tuple[int, int]:
        return self.points[-1]

    @property
    def vectors(self) -> tuple[tuple[int, int], ...]:
        """Per-stratum steps (the fan endpoints when drawn from the origin)."""
        return tuple(
            (x1 - x0, y1 - y0)
            for (x0, y0), (x1, y1) in zip(self.points, self.points[1:])
        )


@dataclass(frozen=True)
class VectorDiagram:
    stratum_labels: tuple[str, ...]
    groups: tuple[GroupPath, ...]

    def __post_init__(self):
        object.__setattr__(self, "stratum_labels", tuple(self.stratum_labels))
        object.__setattr__(self, "groups", tuple(self.groups))
        for g in self.groups:
            if len(g.points) - 1 != len(self.stratum_labels):
                raise ValidationError(
                    f"group {g.label!r} has {len(g.points) - 1} segments "
                    f"for {len(self.stratum_labels)} strata"
                )


def to_vectors(sc: StratifiedComparison) -> VectorDiagram:
    """Cumulative vector paths for both groups, in stratum order."""

    def path(side: str) -> GroupPath:
        points = [(0, 0)]
        for c in sc.counts(side):
            x, y = points[-1]
            points.append((x + c.total, y + c.positive))
        return GroupPath(sc.group_label(side), tuple(points))

    return VectorDiagram(sc.stratum_labels(), (path("first"), path("second")))


def slope_bounds(cells: list[Counts]) -> tuple[Rate, Rate, Rate]:
    """(min, max, aggregate) slope over a list of cells, compared exactly.

    The aggregate slope is the mediant of the cell rates and always lies
    weakly between the extremes.
    """
    rates = [rate(c) for c in cells]
    lo = hi = rates[0]
    for r in rates[1:]:
        if compare(r, lo) is Direction.SECOND_HIGHER:  # r below current min
            lo = r
        if compare(r, hi) is Direction.FIRST_HIGHER:  # r above current max
            hi = r
    return lo, hi, rate(aggregate(cells))


# ---------------------------------------------------------------------------
# SVG rendering


MARGIN = 48
COLORS = ("#b22222", "#27408b")  # first group, second group
DASH = "6,4"
FONT_SIZE = 12


@dataclass(frozen=True)
class RenderOptions:
    """Canvas size in pixels, each above ``2 * MARGIN`` so the plot area is
    not empty and at most the largest float so that it can be scaled, and
    whether stratum chords complete their parallelograms."""

    width: int = 640
    height: int = 480
    parallelogram: bool = True

    def __post_init__(self):
        for name in ("width", "height"):
            v = getattr(self, name)
            _integer(name, v)
            if v <= 2 * MARGIN:
                raise ValidationError(
                    f"{name} must be an integer above {2 * MARGIN}, got {v!r}"
                )
            if v > sys.float_info.max:  # repr(v) may pass the int-string limit
                raise ValidationError(
                    f"{name} must be at most the largest float, got a "
                    f"{v.bit_length()}-bit integer"
                )


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_svg(d: VectorDiagram, options: RenderOptions = RenderOptions()) -> str:
    """Render a diagram as a standalone SVG 1.1 document (deterministic)."""
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
