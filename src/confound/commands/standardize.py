"""``confound standardize``, and the report parts ``analyze`` shares with it."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..cli import FORMAT_VERSION, _emit
from ..ingest import _read_text, parse_table_csv
from ..tables import StratifiedComparison, escaped, percent

if TYPE_CHECKING:
    import argparse


def _cell_json(total: int, positive: int) -> dict:
    return {"total": total, "positive": positive, "percent": percent(positive, total)}


def _groups_json(sc: StratifiedComparison) -> dict:
    return {"first": sc.group_first_label, "second": sc.group_second_label}


def _pooled_json(sc: StratifiedComparison) -> dict:
    t1, p1, t2, p2 = map(sum, sc._columns[1:])
    return {"first": _cell_json(t1, p1), "second": _cell_json(t2, p2)}


def _standardized_json(sc: StratifiedComparison, reference: str) -> dict:
    from ..standardize import _weights_and_comparison

    weights, comp = _weights_and_comparison(sc, reference)
    return {
        "reference": reference,
        "weights": [[label, w] for label, w in weights.weights],
        "rate_first": comp.rate_first,
        "rate_second": comp.rate_second,
        "direction": comp.direction.value,
    }


def build_standardize_report(sc: StratifiedComparison, reference: str) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "command": "standardize",
        "groups": _groups_json(sc),
        "pooled": _pooled_json(sc),
        "standardized": _standardized_json(sc, reference),
    }


def _dir_text(direction: str, first: str, second: str) -> str:
    if direction == "TIE":
        return "tie"
    return f"{first} higher" if direction == "FIRST_HIGHER" else f"{second} higher"


def _cell_text(cell: dict) -> str:
    return f"{cell['positive']}/{cell['total']} ({cell['percent']})"


def _pct(v: float) -> str:
    return f"{100.0 * v:.3f}%"


def _groups_text(doc: dict) -> tuple[str, str, str]:
    """The two group labels as printed, and the "groups:" line naming them."""
    g1, g2 = escaped(doc["groups"]["first"]), escaped(doc["groups"]["second"])
    return g1, g2, f"groups: first={g1}  second={g2}"


def _standardized_text(s: dict, g1: str, g2: str) -> str:
    return (
        f"standardized (reference={s['reference']}): "
        f"{g1} {_pct(s['rate_first'])}  {g2} {_pct(s['rate_second'])}  "
        f"-> {_dir_text(s['direction'], g1, g2)}"
    )


def render_standardize_text(doc: dict, color: bool = False) -> str:
    g1, g2, groups = _groups_text(doc)
    pooled = doc["pooled"]
    s = doc["standardized"]
    lines = [
        groups,
        f"pooled: {g1} {_cell_text(pooled['first'])}  "
        f"{g2} {_cell_text(pooled['second'])}",
        _standardized_text(s, g1, g2),
        "weights: " + "  ".join(f"{escaped(label)}={w:.6f}" for label, w in s["weights"]),
    ]
    return "\n".join(lines) + "\n"


def run(ns: argparse.Namespace) -> int:
    sc = parse_table_csv(_read_text(ns.table))
    doc = build_standardize_report(sc, ns.reference)
    return _emit(ns, doc, render_standardize_text)
