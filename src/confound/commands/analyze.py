"""``confound analyze``: a table's reversal report."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..cli import FORMAT_VERSION, _bold, _columns, _emit, _reversal_json
from ..ingest import _read_text, parse_table_csv
from ..tables import StratifiedComparison, escaped
from .standardize import (_cell_json, _cell_text, _dir_text, _groups_json, _groups_text,
                          _pooled_json, _standardized_json, _standardized_text)

if TYPE_CHECKING:
    import argparse


def build_analyze_report(
    sc: StratifiedComparison,
    *,
    standardize_ref: str | None = None,
    allow_tied_strata: bool = False,
) -> dict:
    from ..detector import detect_reversal

    report = detect_reversal(sc, allow_tied_strata=allow_tied_strata)
    pooled = _pooled_json(sc)
    _, t1, p1, t2, p2 = sc._columns
    firsts, seconds = map(_cell_json, t1, p1), map(_cell_json, t2, p2)
    return {
        "format_version": FORMAT_VERSION,
        "command": "analyze",
        "input": {
            "strata": len(t1),
            "cells": 2 * len(t1),
            "subjects": pooled["first"]["total"] + pooled["second"]["total"],
        },
        "groups": _groups_json(sc),
        "rates": {
            "strata": [
                {"stratum": label, "first": first, "second": second, "direction": d.value}
                for (label, d), first, second in zip(report.stratum_directions, firsts, seconds)
            ],
            "aggregate": {**pooled, "direction": report.aggregate_direction.value},
        },
        "reversal": _reversal_json(report),
        "standardized": (
            _standardized_json(sc, standardize_ref) if standardize_ref else None
        ),
    }


def render_analyze_text(doc: dict, color: bool = False) -> str:
    g1, g2, groups = _groups_text(doc)
    lines = [
        f"table: {doc['input']['strata']} strata x 2 groups, "
        f"{doc['input']['subjects']} subjects",
        groups,
        "",
    ]
    rates = doc["rates"]
    rows = [("stratum", g1, g2, "direction")]
    for r in [*rates["strata"], {"stratum": "aggregate", **rates["aggregate"]}]:
        rows.append(
            (
                escaped(r["stratum"]),
                _cell_text(r["first"]),
                _cell_text(r["second"]),
                _dir_text(r["direction"], g1, g2),
            )
        )
    lines.extend(_columns(rows))
    lines.append("")
    lines.append(
        f"classification: {_bold(doc['reversal']['classification'], color)}"
    )
    lines.append(
        "majority stratum direction: "
        f"{_dir_text(doc['reversal']['majority_direction'], g1, g2)}"
    )
    if doc.get("standardized"):
        lines.append("")
        lines.append(_standardized_text(doc["standardized"], g1, g2))
    return "\n".join(lines) + "\n"


def run(ns: argparse.Namespace) -> int:
    sc = parse_table_csv(_read_text(ns.table))
    doc = build_analyze_report(
        sc,
        standardize_ref=ns.standardize,
        allow_tied_strata=ns.allow_tied_strata,
    )
    return _emit(ns, doc, render_analyze_text)
