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
from itertools import accumulate, chain, repeat
from operator import add, mul, sub, truediv
from typing import Sequence

from .errors import DegenerateRange, ValidationError
from .tables import (
    _MARKUP_ESCAPES, Rate, StratifiedComparison, _flag, _integer, _pair, _Value, percent,
)


class GroupPath(_Value):
    """One group's cumulative vector path.

    ``points`` starts at the origin and accumulates stratum counts: each
    point and step is a count pair ``0 <= y <= x`` and each step runs
    ``dx > 0``, so its slope is the (unreduced) rate of its stratum.
    """

    label: str
    points: tuple[tuple[int, int], ...]

    def __init__(self, label: str, points: Sequence[Sequence[int]]):
        points = tuple(points)
        for p in points:
            if not isinstance(p, (tuple, list)) or len(p) != 2:
                raise ValidationError(f"a path point is an (x, y) pair, got {p!r}")
        points = tuple(map(tuple, points))
        if len(points) < 2 or points[0] != (0, 0):
            raise ValidationError("a path starts at (0, 0) and has >= 1 segment")
        for x, y in points:
            _pair(x, y, ("x", "y"))
        self.__dict__.update(label=label, points=points)
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


class VectorDiagram(_Value):
    """The strata's labels and each group's path, one step per stratum."""

    stratum_labels: tuple[str, ...]
    groups: tuple[GroupPath, ...]

    def __init__(self, stratum_labels: Sequence[str], groups: Sequence[GroupPath]):
        stratum_labels = tuple(stratum_labels)
        groups = tuple(groups)
        for g in groups:
            if len(g.points) - 1 != len(stratum_labels):
                raise ValidationError(
                    f"group {g.label!r} has {len(g.points) - 1} segments "
                    f"for {len(stratum_labels)} strata"
                )
        self.__dict__.update(stratum_labels=stratum_labels, groups=groups)


def to_vectors(sc: StratifiedComparison) -> VectorDiagram:
    """Cumulative vector paths for both groups, in stratum order: a table's
    counts are checked pairs, none empty, so its paths are checked already."""

    def path(side: str) -> GroupPath:
        points = zip(*(accumulate(column, initial=0) for column in sc._side(side)))
        return GroupPath._of(sc.group_label(side), tuple(points))

    return VectorDiagram._of(sc.stratum_labels(), (path("first"), path("second")))


# ---------------------------------------------------------------------------
# SVG rendering


MARGIN = 48
COLORS = ("#b22222", "#27408b")  # first group, second group
DASH = "6,4"
FONT_SIZE = 12


class RenderOptions(_Value):
    """Canvas size in pixels, each above ``2 * MARGIN`` so the plot area is
    not empty and at most the largest float so that it can be scaled, and
    whether stratum chords complete their parallelograms."""

    width: int
    height: int
    parallelogram: bool

    def __init__(self, width: int = 640, height: int = 480, parallelogram: bool = True):
        for name, v in (("width", width), ("height", height)):
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
        _flag("parallelogram", parallelogram)
        self.__dict__.update(width=width, height=height, parallelogram=parallelogram)


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

    def canvas(xs, ys) -> tuple[list[float], list[float]]:
        """The canvas points ``(ox + x * plot_w / span_x, oy - y * plot_h /
        span_y)`` of count points ``(x, y)``, as a column of canvas x and one
        of canvas y: exact integer products divided once, so huge counts
        cannot overflow a float."""
        qx = map(truediv, map(mul, xs, repeat(plot_w)), repeat(span_x))
        qy = map(truediv, map(mul, ys, repeat(plot_h)), repeat(span_y))
        return list(map(add, repeat(ox), qx)), list(map(sub, repeat(oy), qy))

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

    # each element is one %-template per group, its constant parts filled in,
    # and each group's points are columns of counts and of canvas coordinates
    origin = f"M {_fmt(ox)} {_fmt(oy)} L %.2f %.2f"
    for gi, g in enumerate(d.groups):
        color = COLORS[gi % len(COLORS)]
        total, positive = g.terminal
        (tx,), (ty,) = canvas((total,), (positive,))
        chord = (
            f'<path class="stratum-chord" d="{origin}'
            + (f' M %.2f %.2f L {_fmt(tx)} {_fmt(ty)}' if options.parallelogram else "")
            + f'" stroke="{color}" stroke-width="1.5" stroke-dasharray="{DASH}" '
            'fill="none"/>'
        )
        xs, ys = zip(*g.points)
        dxs, dys = list(map(sub, xs[1:], xs)), list(map(sub, ys[1:], ys))
        # every step of a path runs dx > 0, so a step is the whole path only
        # when it is the only one: then chord and aggregate coincide
        if len(dxs) > 1:
            ends = canvas(dxs, dys)
            if options.parallelogram:
                far = map(sub, repeat(total), dxs), map(sub, repeat(positive), dys)
                ends += canvas(*far)
            parts += map(chord.__mod__, zip(*ends))
        parts.append(
            f'<line class="aggregate-chord" x1="{_fmt(ox)}" y1="{_fmt(oy)}" '
            f'x2="{_fmt(tx)}" y2="{_fmt(ty)}" stroke="{color}" stroke-width="2"/>'
        )

        # one marker per distinct point, the terminal first with its own label;
        # a path's steps and terminal are (total, positive) pairs it has checked
        mx, my = zip(*dict.fromkeys(chain((g.terminal,), zip(dxs, dys))))
        label = f"{g.label} {g.terminal} {percent(positive, total)}"
        labels = [label.translate(_MARKUP_ESCAPES)]
        # the other labels are digits and punctuation that need no escape
        sx, sy = mx[1:], my[1:]
        labels += map("(%r, %r) %s".__mod__, zip(sx, sy, map(percent, sy, sx)))
        marker = (
            f'<circle class="marker" cx="%.2f" cy="%.2f" r="3" fill="{color}"/>\n'
            f'<text class="marker-label" x="%.2f" y="%.2f" fill="{color}">%s</text>'
        )
        cx, cy = canvas(mx, my)
        cells = zip(cx, cy, map(add, cx, repeat(6)), map(sub, cy, repeat(6)), labels)
        parts += map(marker.__mod__, cells)

    parts.append(
        f'<circle class="marker" cx="{_fmt(ox)}" cy="{_fmt(oy)}" r="3" fill="#000000"/>'
    )
    parts.append(
        f'<text class="marker-label" x="{_fmt(ox + 6)}" y="{_fmt(oy - 6)}" '
        f'fill="#000000">(0, 0)</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
