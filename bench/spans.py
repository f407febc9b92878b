"""Traced in-process replay of the sessions, for the per-layer metrics.

A replay calls the package's public functions in the order the CLI calls
them for each invocation of a session, and wraps each call in a span. The
spans are recorded from here, around the calls into each layer; the
program itself is not instrumented. A replay has two parts:

- ``session``: what the CLI processes of the session do after argument
  parsing: read the input, call the layers, serialize and write the output.
  Its self time, the part no layer span covers, is ``trace.unaccounted_s``.
- ``isolated``: public functions the CLI reaches only through another
  layer (validation inside ``parse_records_csv``, binning and tallying
  inside ``scan``, detection and standardization inside the report
  builders), re-run alone on the same inputs so each gets its own time.

Spans live in memory as ``[name, start, end, parent, session]`` and are
written out as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import workloads as wl


class Tracer:
    """Span and count recorder. A disabled tracer records nothing, so the
    same replay code runs untraced."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = {}
        self.session = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.session]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[self.session, name] = value

    def self_times(self) -> dict[tuple[str, str], float]:
        """(session, span name) -> summed self time: each span's duration
        minus the part its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[tuple[str, str], float] = {}
        for i, (name, start, end, _, session) in enumerate(self.spans):
            key = (session, name)
            totals[key] = totals.get(key, 0.0) + (end - start) - covered[i]
        return totals

    def write(self, path: Path, origin: float) -> None:
        with path.open("w", encoding="utf-8") as f:
            for name, start, end, parent, session in self.spans:
                f.write(json.dumps({
                    "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "session": session,
                }) + "\n")


@dataclass
class Replay:
    """Inputs of one workload's replay, and what its session produced."""

    workload: wl.Workload
    workdir: Path
    confound: object
    outputs: list = None  # [(invocation index, stdout bytes, file bytes or None)]
    state: object = None  # objects the isolated part re-uses


# ---------------------------------------------------------------------------
# scan_records


def _scan_session(t: Tracer, r: Replay) -> None:
    cf = r.confound
    text = (r.workdir / "records.csv").read_text(encoding="utf-8-sig")
    with t.span("cli.parse_records_csv"):
        records = cf.cli.parse_records_csv(
            text, numeric_columns=wl.SCAN_NUMERIC, boolean_columns=("died",)
        )
    with t.span("detector.scan"):
        results = cf.scan(
            records, "arm", "died", wl.SCAN_CANDIDATES, cf.ScanConfig(bins=wl.SCAN_BINS)
        )
    with t.span("cli.build_report"):
        doc = cf.cli.build_scan_report(records, wl.SCAN_CANDIDATES, results)
    with t.span("cli.json_dumps"):
        out = json.dumps(doc, indent=2) + "\n"
    r.outputs = [(0, _sink(r, out), None)]
    r.state = (records, results)


def _scan_isolated(t: Tracer, r: Replay) -> None:
    cf = r.confound
    records, results = r.state
    with t.span("detector.RecordTable"):
        cf.RecordTable(records.columns, records.rows)
    for col in wl.SCAN_NUMERIC:
        values = records.values(col)
        with t.span("detector.bin_numeric"):
            cf.bin_numeric(values, "quantile", wl.SCAN_BINS)
    tallied = 0
    for cand in wl.SCAN_CANDIDATES:
        with t.span("detector.stratify"):
            sc = cf.stratify(records, "arm", "died", cand, bins=wl.SCAN_BINS)
        tallied += sum(s.first.total + s.second.total for s in sc.strata)
    cells = records.n_rows * len(records.columns)
    findings = sum(isinstance(x, cf.Finding) for x in results)
    t.count("cli.parse_records_csv.cells", cells)
    t.count("detector.RecordTable.cells", cells)
    t.count("detector.stratify.rows", tallied)
    t.count("detector.scan.findings", findings)
    t.count("detector.scan.skipped", len(results) - findings)
    t.count("detector.scan.useful_ratio", findings / len(wl.SCAN_CANDIDATES))


# ---------------------------------------------------------------------------
# wide_table


def _wide_session(t: Tracer, r: Replay) -> None:
    cf, cli = r.confound, r.confound.cli
    outputs = []
    with t.span("synth.generate_reversal"):
        generated = cf.generate_reversal(wl.TABLE_STRATA, wl.TABLE_SCALE, seed=0)
    with t.span("cli.render_text"):
        out = cli.serialize_table_csv(generated)
    outputs.append((0, _sink(r, out), None))

    text = (r.workdir / "table.csv").read_text(encoding="utf-8-sig")
    with t.span("cli.parse_table_csv"):
        sc = cli.parse_table_csv(text)
    with t.span("cli.build_report"):
        doc = cli.build_analyze_report(sc, standardize_ref="combined")
    with t.span("cli.json_dumps"):
        out = json.dumps(doc, indent=2) + "\n"
    outputs.append((1, _sink(r, out), None))

    text = (r.workdir / "table.csv").read_text(encoding="utf-8-sig")
    with t.span("cli.parse_table_csv"):
        sc = cli.parse_table_csv(text)
    with t.span("cli.build_report"):
        doc = cli.build_standardize_report(sc, "first")
    with t.span("cli.render_text"):
        out = cli.render_standardize_text(doc)
    outputs.append((2, _sink(r, out), None))

    text = (r.workdir / "table.csv").read_text(encoding="utf-8-sig")
    with t.span("cli.parse_table_csv"):
        sc = cli.parse_table_csv(text)
    with t.span("geometry.to_vectors"):
        diagram = cf.to_vectors(sc)
    with t.span("geometry.render_svg"):
        svg = cf.render_svg(diagram, cf.RenderOptions())
    path = r.workdir / "replay.svg"
    path.write_text(svg, encoding="utf-8")
    outputs.append((3, b"", path.read_bytes()))
    r.outputs = outputs
    r.state = sc


def _wide_isolated(t: Tracer, r: Replay) -> None:
    cf, sc = r.confound, r.state
    with t.span("detector.detect_reversal"):
        report = cf.detect_reversal(sc)
    with t.span("standardize.reference_weights"):
        cf.reference_weights(sc, "combined")
    with t.span("standardize.standardized_comparison"):
        cf.standardized_comparison(sc, "combined")
    svg = r.outputs[3][2]
    t.count("detector.detect_reversal.strata", len(report.stratum_directions))
    t.count("geometry.render_svg.bytes", len(svg))
    t.count("geometry.render_svg.markers", svg.count(b'<circle class="marker"'))


# ---------------------------------------------------------------------------
# decompose_groups


def _decompose_session(t: Tracer, r: Replay) -> None:
    cli = r.confound.cli
    text = (r.workdir / "regions.csv").read_text(encoding="utf-8-sig")
    with t.span("cli.parse_records_csv"):
        records = cli.parse_records_csv(text, numeric_columns=("x", "y"))
    with t.span("cli.build_report"):
        doc = cli.build_decompose_report(records, "region", "x", "y")
    with t.span("cli.json_dumps"):
        out = json.dumps(doc, indent=2) + "\n"
    r.outputs = [(0, _sink(r, out), None)]
    r.state = records


def _decompose_isolated(t: Tracer, r: Replay) -> None:
    cf, records = r.confound, r.state
    with t.span("ecological.decompose"):
        d = cf.decompose(records, "region", "x", "y")
    with t.span("ecological.group_means"):
        cf.group_means(records, "region", "x", "y")
    t.count("cli.parse_records_csv.cells", records.n_rows * len(records.columns))
    t.count("ecological.groups", len(d.group_summaries))


def _sink(r: Replay, out: str) -> bytes:
    """Write one invocation's stdout to a file, as the CLI's stdout would be."""
    data = out.encode("utf-8")
    with open(r.workdir / "replay.out", "wb") as f:
        f.write(data)
    return data


PARTS = {
    "scan_records": (_scan_session, _scan_isolated),
    "wide_table": (_wide_session, _wide_isolated),
    "decompose_groups": (_decompose_session, _decompose_isolated),
}


def run_replay(t: Tracer, r: Replay, session_id: str) -> float:
    """Replay one session under ``session_id``; returns the wall time of its
    session part. The isolated part and the counts run only when tracing."""
    session, isolated = PARTS[r.workload.name]
    t.session = session_id
    start = time.perf_counter()
    with t.span("session"):
        session(t, r)
    wall = time.perf_counter() - start
    if t.enabled:
        with t.span("isolated"):
            isolated(t, r)
        t.count("cli.output_bytes", sum(len(o) + len(f or b"") for _, o, f in r.outputs))
    return wall


def check_replay(r: Replay) -> list[str | None]:
    """The workload's output check applied to each replayed invocation:
    ``None`` for a right output, else the invocation and the problem."""
    results = []
    for i, out, f in r.outputs:
        inv = r.workload.invocations[i]
        problem = inv.check(out, f)
        results.append(problem and f"{r.workload.name} {inv.name}: {problem}")
    return results
