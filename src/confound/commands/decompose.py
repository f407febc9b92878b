"""``confound decompose``: a records file's ecological decomposition."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..cli import FORMAT_VERSION, _bold, _columns, _emit
from ..ingest import _read_records
from ..tables import escaped

if TYPE_CHECKING:
    import argparse

    from ..records import RecordTable


def build_decompose_report(records: RecordTable, group_col, x_col, y_col) -> dict:
    from ..ecological import _grouped

    return _decompose_report(_grouped(records, group_col, x_col, y_col))


def _decompose_report(groups) -> dict:
    """The decompose report over the ``groups.n_rows`` rows of an
    ``ecological._Groups``: a table's, or those the command put into their
    groups block by block."""
    from ..ecological import _decomposition, sign_divergence_report

    d = _decomposition(groups)
    divergence = None
    if d.between_corr is not None and d.within_corr is not None:
        rep = sign_divergence_report(d)
        divergence = {
            "verdict": rep.verdict,
            "between_corr": rep.between_corr,
            "within_corr": rep.within_corr,
        }
    return {
        "format_version": FORMAT_VERSION,
        "command": "decompose",
        "convention": "population",
        "input": {"rows": groups.n_rows, "groups": len(d.group_summaries)},
        "covariance": {
            "total": d.total_cov,
            "between": d.between_cov,
            "within": d.within_cov,
        },
        "correlation": {
            "total": d.total_corr,
            "between": d.between_corr,
            "within": d.within_corr,
        },
        "groups": [
            {"label": g.label, "n": g.n, "mean_x": g.mean_x, "mean_y": g.mean_y}
            for g in d.group_summaries
        ],
        "divergence": divergence,
    }


def render_decompose_text(doc: dict, color: bool = False) -> str:
    def corr(v):
        return "undefined" if v is None else f"{v:+.4f}"

    cov = doc["covariance"]
    cor = doc["correlation"]
    lines = [
        f"ecological decomposition ({doc['convention']} convention), "
        f"{doc['input']['rows']} rows in {doc['input']['groups']} groups",
        "",
    ]
    rows = [("group", "n", "mean_x", "mean_y")]
    for g in doc["groups"]:
        rows.append(
            (escaped(g["label"]), str(g["n"]), f"{g['mean_x']:.6f}", f"{g['mean_y']:.6f}")
        )
    lines.extend(_columns(rows))
    lines.append("")
    lines.append(
        f"covariance: total {cov['total']:+.6f} = "
        f"between {cov['between']:+.6f} + within {cov['within']:+.6f}"
    )
    lines.append(
        f"correlation: total {corr(cor['total'])}  between {corr(cor['between'])}  "
        f"within {corr(cor['within'])}"
    )
    if doc["divergence"] is None:
        lines.append("divergence: undefined (a correlation has zero variance)")
    else:
        lines.append(f"divergence: {_bold(doc['divergence']['verdict'], color)}")
    return "\n".join(lines) + "\n"


def run(ns: argparse.Namespace) -> int:
    from ..ecological import _Groups

    groups = _read_records(
        ns.records, (ns.x, ns.y), (), "numeric",
        lambda kinds: _Groups(kinds, ns.group_col, ns.x, ns.y),
    )
    return _emit(ns, _decompose_report(groups), render_decompose_text)
