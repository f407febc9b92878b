"""``confound plot``: a table's vector diagram, written as SVG."""

from __future__ import annotations

import sys
from pathlib import Path
from typing import TYPE_CHECKING

from ..ingest import _read_text, parse_table_csv

if TYPE_CHECKING:
    import argparse


def run(ns: argparse.Namespace) -> int:
    from ..geometry import RenderOptions, render_svg, to_vectors

    # the sizes are checked before the table is read
    options = RenderOptions(
        width=ns.width,
        height=ns.height,
        parallelogram=not ns.fan_only,
    )
    sc = parse_table_csv(_read_text(ns.table))
    svg = render_svg(to_vectors(sc), options)
    Path(ns.out).write_text(svg, encoding="utf-8")
    print(f"wrote {ns.out}", file=sys.stderr)
    return 0
