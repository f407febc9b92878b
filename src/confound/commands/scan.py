"""``confound scan``: a records file's candidate confounders."""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..cli import FORMAT_VERSION, _columns, _emit, _reversal_json
from ..ingest import _read_records
from ..tables import escaped

if TYPE_CHECKING:
    import argparse


def build_scan_report(records, candidates: Sequence[str], results) -> dict:
    """The scan report over the ``records.n_rows`` rows scanned: those of a
    :class:`RecordTable`, or those a scan's tally kept."""
    from ..scanning import Finding

    return {
        "format_version": FORMAT_VERSION,
        "command": "scan",
        "input": {"rows": records.n_rows, "candidates": list(candidates)},
        "findings": [
            {
                "covariate": r.covariate,
                "binning": r.binning,
                "stratum_sizes": list(r.stratum_sizes),
                "report": _reversal_json(r.report),
            }
            for r in results
            if isinstance(r, Finding)
        ],
        "skipped": [
            {"covariate": r.covariate, "reason": r.reason, "detail": r.detail}
            for r in results
            if not isinstance(r, Finding)
        ],
    }


def render_scan_text(doc: dict, color: bool = False) -> str:
    lines = [
        f"scanned {len(doc['input']['candidates'])} candidates over "
        f"{doc['input']['rows']} rows"
    ]
    if doc["findings"]:
        rows = [("covariate", "classification", "strata", "sizes", "binning")]
        for f in doc["findings"]:
            rows.append(
                (
                    escaped(f["covariate"]),
                    f["report"]["classification"],
                    str(len(f["stratum_sizes"])),
                    ",".join(str(n) for n in f["stratum_sizes"]),
                    f["binning"],
                )
            )
        lines.append("")
        lines.extend(_columns(rows))
    for s in doc["skipped"]:
        lines.append(
            f"skipped: {escaped(s['covariate'])} ({s['reason']}): {escaped(s['detail'])}"
        )
    return "\n".join(lines) + "\n"


def _split_list(raw: str | None) -> list[str]:
    if not raw:
        return []
    return [part.strip() for part in raw.split(",") if part.strip()]


def run(ns: argparse.Namespace) -> int:
    from ..scanning import ScanConfig, _findings, _Tally

    # the options are checked before the records are read
    config = ScanConfig(
        binning=ns.binning,
        bins=ns.bins,
        min_stratum_size=ns.min_stratum_size,
        allow_tied_strata=ns.allow_tied_strata,
    )
    candidates = _split_list(ns.candidates)
    keep = _split_list(ns.groups) if ns.groups else None
    # each block is counted as it is read, with its labels and numbers as read
    tally = _read_records(
        ns.records, _split_list(ns.numeric), (ns.outcome_col,), "numeric text",
        lambda kinds: _Tally(kinds, ns.group_col, ns.outcome_col, candidates, keep),
    )
    results = _findings(tally, config)
    return _emit(ns, build_scan_report(tally, candidates, results), render_scan_text)
