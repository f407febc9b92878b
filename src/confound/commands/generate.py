"""``confound generate``: a synthetic reversal, as a table CSV or a report."""

from __future__ import annotations

import _csv  # the C writer the csv package re-exports, without that package
import io
import sys
from typing import TYPE_CHECKING

from ..cli import FORMAT_VERSION, _emit
from ..tables import TABLE_HEADER, StratifiedComparison

if TYPE_CHECKING:
    import argparse


def serialize_table_csv(sc: StratifiedComparison) -> str:
    """Inverse of :func:`parse_table_csv` (parse -> serialize -> parse is id)."""
    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(TABLE_HEADER)
    for label, t1, p1, t2, p2 in zip(*sc._columns):
        writer.writerow([label, sc.group_first_label, t1, p1])
        writer.writerow([label, sc.group_second_label, t2, p2])
    return buf.getvalue()


def build_generate_report(sc: StratifiedComparison, k: int, scale: int, seed: int) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "command": "generate",
        "seed": seed,
        "strata": k,
        "scale": scale,
        "table": {
            "group_first": sc.group_first_label,
            "group_second": sc.group_second_label,
            "strata": [
                {
                    "label": label,
                    "first": {"total": t1, "positive": p1},
                    "second": {"total": t2, "positive": p2},
                }
                for label, t1, p1, t2, p2 in zip(*sc._columns)
            ],
        },
        "table_csv": serialize_table_csv(sc),
    }


def run(ns: argparse.Namespace) -> int:
    from ..synth import generate_reversal

    sc = generate_reversal(ns.strata, ns.scale, ns.seed)
    if ns.format == "json":
        return _emit(ns, build_generate_report(sc, ns.strata, ns.scale, ns.seed), None)
    sys.stdout.write(serialize_table_csv(sc))
    return 0
