"""Benchmark of the confound command-line tool.

Usage, from the root of a checkout (the package need not be installed; the
CLI runs as ``python -m confound`` with ``PYTHONPATH=src``)::

    python3 bench/run.py --workload scan_records --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload all          # every workload, one after another

A *session* is one workload's fixed sequence of CLI invocations (see
``workloads``), each a fresh process. The loop is closed with one client:
the next invocation starts when the previous one has exited, and new
sessions start until ``--seconds`` have passed. Every invocation's output
is checked against the benchmark's own reference, and must be byte-identical
across the sessions of a run.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the traced
in-process replay (see ``spans``) and prints the per-layer metrics. The
metric names, units and directions are those of ``BENCHMARK.json``. The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record (inputs, samples, problems) is
written to ``.bench_out/`` and the trace spans next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl
from spans import Replay, Tracer, check_replay, run_replay

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
# every run ends within the contract's 180 s, whatever the program does
HARD_LIMIT_S = 150.0
# the session tail is the highest percentile with this many sessions beyond it
TAIL_BEYOND = 10
STARTUP_PROBES = 7
IMPORT_CLI = "import confound.cli"
# The host this runs on changes speed by tens of percent over minutes, so
# every end-to-end time is scaled to a reference speed: a fixed pure-Python
# loop (interpreter start, dict and str work, like the CLI) runs in a fresh
# interpreter after every invocation, and an invocation's time t is
# reported as t * REFERENCE / (mean of the calibration times just before and
# after it). The constants are the loop's wall and CPU time on a quiet
# moment of the host the bounds were set on.
CALIBRATION = "d = {}\nfor i in range(250_000):\n    k = str(i % 5000)\n    d[k] = d.get(k, 0.0) + i * 0.5\n"
REFERENCE_CALIBRATION_S = 0.15
REFERENCE_CALIBRATION_CPU_S = 0.15


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline


@dataclass
class Child:
    wall: float
    cpu: float
    maxrss_kib: int
    exit_code: int
    timed_out: bool


def spawn(args: list[str], stdout: Path, stderr: Path, deadline: float) -> Child:
    """Run ``python <args>`` with PYTHONPATH=src in the current directory,
    wait for it, and return its wall time and rusage. The child is killed
    when the deadline passes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
    ]
    signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    usage = None
    signal.setitimer(signal.ITIMER_REAL, max(0.5, deadline - time.monotonic()))
    try:
        _, status, usage = os.wait4(pid, 0)
    except Deadline:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    timed_out = usage is None
    if timed_out:
        os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return Child(
        wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
        os.waitstatus_to_exitcode(status), timed_out,
    )


# ---------------------------------------------------------------------------
# End-to-end run


@dataclass
class Session:
    walls: list[float]  # per invocation
    cpu: float
    maxrss_kib: int
    scaled_wall: float
    scaled_cpu: float
    problems: list[str] = field(default_factory=list)


def run_session(w: wl.Workload, workdir: Path, deadline: float, calibrations: list[Child],
                digests: list, verdicts: dict) -> Session:
    """Run one session, with a calibration process after every invocation;
    each invocation is scaled by the calibrations just before and after it."""
    children = []
    scaled_wall = scaled_cpu = 0.0
    for inv in w.invocations:
        child = spawn(["-m", "confound", *inv.args], workdir / f"{inv.name}.out",
                      workdir / f"{inv.name}.err", deadline)
        children.append(child)
        if child.timed_out:
            break
        calibrations.append(calibrate(workdir, deadline))
        before, after = calibrations[-2:]
        scaled_wall += child.wall * 2 * REFERENCE_CALIBRATION_S / (before.wall + after.wall)
        scaled_cpu += child.cpu * 2 * REFERENCE_CALIBRATION_CPU_S / (before.cpu + after.cpu)
    session = Session(
        walls=[c.wall for c in children],
        cpu=sum(c.cpu for c in children),
        maxrss_kib=max(c.maxrss_kib for c in children),
        scaled_wall=scaled_wall,
        scaled_cpu=scaled_cpu,
    )
    first = not digests
    for i, (inv, child) in enumerate(zip(w.invocations, children)):
        stdout = (workdir / f"{inv.name}.out").read_bytes()
        stderr = (workdir / f"{inv.name}.err").read_bytes()
        produced = (workdir / inv.out_file).read_bytes() if inv.out_file else None
        digest = hashlib.sha256(stdout + b"\0" + (produced or b"")).hexdigest()
        if first:
            digests.append(digest)
        if child.timed_out:
            problem = "killed at the run's time limit"
        elif child.exit_code != 0:
            problem = f"exit code {child.exit_code}: {stderr.decode(errors='replace').strip()[-200:]}"
        elif b"Traceback (most recent call last)" in stderr:
            problem = "printed a traceback"
        elif i < len(digests) and digest != digests[i]:
            problem = "output differs from the first session's"
        else:
            # identical bytes get identical verdicts, so each distinct output is checked once
            if (inv.name, digest) not in verdicts:
                verdicts[inv.name, digest] = inv.check(stdout, produced)
            problem = verdicts[inv.name, digest]
        if problem:
            session.problems.append(f"{inv.name}: {problem}")
    session.problems.extend(f"{inv.name}: not run" for inv in w.invocations[len(children):])
    return session


def probe(workdir: Path, code: str, deadline: float) -> Child:
    """``python -c code`` in a fresh interpreter, which must succeed."""
    child = spawn(["-c", code], workdir / "probe.out", workdir / "probe.err", deadline)
    if child.exit_code != 0:
        raise SystemExit(f"bench: `python -c {code!r}` failed: "
                         + (workdir / "probe.err").read_text(errors="replace"))
    return child


def calibrate(workdir: Path, deadline: float) -> Child:
    return probe(workdir, CALIBRATION, deadline)


def check_import_origin(workdir: Path, deadline: float) -> None:
    """The CLI must come from this checkout's src/, not from an installed copy.
    Also the first import, which writes the bytecode cache, so untimed."""
    probe(workdir, "import confound.cli, sys; sys.stdout.write(confound.cli.__file__)", deadline)
    origin = Path((workdir / "probe.out").read_text()).resolve()
    if not origin.is_relative_to(SRC):
        raise SystemExit(f"bench: confound was imported from {origin}, not from {SRC}")


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the highest percentile with
    at least TAIL_BEYOND samples above it. A run with fewer samples than
    that gets its minimum, the nearest it can come."""
    ordered = sorted(samples)
    i = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[i], 100.0 * i / len(ordered), len(ordered) - 1 - i


def end_to_end(name: str, seed: int, seconds: int, workdir: Path, deadline: float, report: dict) -> tuple[dict, int, int]:
    """Sessions until ``seconds`` have passed. A calibration process runs
    before the first invocation and after every invocation, and a setup
    probe after every session; each time is scaled to the reference host
    speed by the calibrations around it."""
    w = wl.build(name, seed, workdir)
    report["inputs"] = w.inputs
    check_import_origin(workdir, deadline)
    calibrations = [calibrate(workdir, deadline)]
    setup = [probe(workdir, IMPORT_CLI, deadline).wall for _ in range(3)]
    setup_scaled = [s * REFERENCE_CALIBRATION_S / calibrations[0].wall for s in setup]
    sessions: list[Session] = []
    digests: list[str] = []
    verdicts: dict = {}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds and time.monotonic() < deadline:
        sessions.append(run_session(w, workdir, deadline, calibrations, digests, verdicts))
        setup.append(probe(workdir, IMPORT_CLI, deadline).wall)
        setup_scaled.append(setup[-1] * REFERENCE_CALIBRATION_S / calibrations[-1].wall)
    walls = [s.scaled_wall for s in sessions]
    session_s = statistics.median(walls)
    tail_s, pct, beyond = tail(walls)
    attempted = len(sessions) * len(w.invocations)
    failed = sum(len(s.problems) for s in sessions)
    metrics = {
        "session_s": session_s,
        "session_tail_s": tail_s,
        "cpu_s": statistics.median(s.scaled_cpu for s in sessions),
        "rows_per_s": w.rows_read / session_s,
        "peak_rss_mb": statistics.median(s.maxrss_kib for s in sessions) / 1024,
        "setup_s": statistics.median(setup_scaled),
    }
    raw = statistics.median(sum(s.walls) for s in sessions)
    report.update(
        sessions=len(sessions),
        session_tail={"percentile": pct, "beyond": beyond, "of": len(sessions)},
        failed_ratio=failed / attempted,
        problems=[f"session {i}: {p}" for i, s in enumerate(sessions) for p in s.problems],
        raw={"session_s": raw, "cpu_s": statistics.median(s.cpu for s in sessions),
             "setup_s": statistics.median(setup),
             "calibration_s": statistics.median(c.wall for c in calibrations)},
        samples={"session_s": [sum(s.walls) for s in sessions],
                 "invocation_s": {inv.name: [s.walls[i] for s in sessions if i < len(s.walls)]
                                  for i, inv in enumerate(w.invocations)},
                 "cpu_s": [s.cpu for s in sessions],
                 "maxrss_kib": [s.maxrss_kib for s in sessions], "setup_s": setup,
                 "calibration_s": [c.wall for c in calibrations],
                 "calibration_cpu_s": [c.cpu for c in calibrations]},
    )
    scaled = "scaled to the reference speed by the calibration runs around its invocations"
    report["notes"] = {
        "session_s": f"median of {len(sessions)} sessions of {len(w.invocations)} invocations, "
                     f"each {scaled}; raw median {raw:.4f} s",
        "session_tail_s": f"p{pct:.1f} of {len(sessions)} sessions, {beyond} beyond it",
        "cpu_s": "median user+sys of the session's child processes, scaled like session_s "
                 "by the calibration runs' CPU time",
        "rows_per_s": f"{w.rows_read} input rows per session / session_s",
        "peak_rss_mb": "median over sessions of the highest child ru_maxrss",
        "setup_s": f"median of {len(setup)} fresh interpreters importing confound.cli, each "
                   f"scaled by the calibration run before it; raw median {statistics.median(setup):.4f} s",
    }
    return metrics, attempted, failed


# ---------------------------------------------------------------------------
# Traced run


def import_confound():
    sys.path.insert(0, str(SRC))
    import confound
    import confound.cli

    origin = Path(confound.__file__).resolve()
    if not origin.is_relative_to(SRC):
        raise SystemExit(f"bench: confound was imported from {origin}, not from {SRC}")
    return confound


def _best(fn, reps: int, tracer: Tracer, name: str) -> float:
    """Fastest of ``reps`` calls, each recorded as a span."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        with tracer.span(name):
            fn()
        times.append(time.perf_counter() - start)
    return min(times)


def scaling_probes(cf, seed: int, records, tracer: Tracer) -> dict:
    """log2(t(2n)/t(n)) for table parsing and SVG rendering at n = 2,000
    strata, and the exponent of tally time in the bin count (4 vs 64 bins)."""
    tracer.session = "probe"
    parse, render = {}, {}
    for k in (2_000, 4_000):
        text = wl.table_csv(wl.reversal_cells(seed, k))
        parse[k] = _best(lambda: cf.cli.parse_table_csv(text), 2, tracer, f"cli.parse_table_csv.k{k}")
        diagram = cf.to_vectors(cf.cli.parse_table_csv(text))
        render[k] = _best(lambda: cf.render_svg(diagram), 2, tracer, f"geometry.render_svg.k{k}")
    bins = {
        b: _best(lambda: cf.stratify(records, "arm", "died", "bmi", binning="quantile", bins=b),
                 2, tracer, f"detector.stratify.bins{b}")
        for b in (4, 64)
    }
    return {
        "cli.parse_table_csv.scaling": math.log2(parse[4_000] / parse[2_000]),
        "geometry.render_svg.scaling": math.log2(render[4_000] / render[2_000]),
        "detector.stratify.bins_scaling": math.log(bins[64] / bins[4]) / math.log(16),
    }


def traced(name: str, seed: int, seconds: int, workdir: Path, deadline: float, report: dict) -> tuple[dict, int, int]:
    """One traced replay of every other workload, so that each layer has a
    value, then replays of the chosen workload, alternating untraced and
    traced, until ``seconds`` have passed since the first; then the scaling
    and start-up probes. A layer the chosen workload does not call is
    reported from the workload that calls it."""
    cf = import_confound()
    built = {n: wl.build(n, seed, workdir) for n in wl.WORKLOADS}
    report["inputs"] = [i for w in built.values() for i in w.inputs]
    tracer, plain = Tracer(), Tracer(enabled=False)
    origin = time.perf_counter()
    problems: list[str | None] = []
    replays = {}
    for other in wl.WORKLOADS:
        if other != name:
            replays[other] = Replay(built[other], workdir, cf)
            run_replay(tracer, replays[other], f"{other}/0")
            problems += check_replay(replays[other])
    walls: dict[str, list[float]] = {"traced": [], "untraced": []}
    i = 0
    while (i == 0 or time.perf_counter() - origin < seconds) and time.monotonic() < deadline:
        order = (("untraced", plain), ("traced", tracer))
        for mode, t in order if i % 2 == 0 else order[::-1]:
            replays[name] = Replay(built[name], workdir, cf)
            walls[mode].append(run_replay(t, replays[name], f"{name}/{i}"))
            problems += check_replay(replays[name])
        i += 1
    metrics = scaling_probes(cf, seed, replays["scan_records"].state[0], tracer)

    check_import_origin(workdir, deadline)
    bare, full = [], []
    for _ in range(STARTUP_PROBES):
        bare.append(probe(workdir, "pass", deadline).wall)
        full.append(probe(workdir, IMPORT_CLI, deadline).wall)
    metrics["interpreter.s"] = statistics.median(bare)
    metrics["cli.import.s"] = statistics.median(full) - metrics["interpreter.s"]

    samples: dict[str, dict[str, list[float]]] = {}
    timed = [((session, f"{span}.s"), v) for (session, span), v in tracer.self_times().items()]
    for (session, metric), value in [*timed, *tracer.counts.items()]:
        workload = session.split("/")[0]
        if workload in built:
            samples.setdefault(workload, {}).setdefault(metric, []).append(value)
    for workload in (name, *wl.WORKLOADS):
        for metric, values in samples.get(workload, {}).items():
            middle = statistics.median if metric.endswith(".s") else statistics.median_low
            metrics.setdefault(metric, middle(values))
    metrics["trace.unaccounted_s"] = metrics.pop("session.s")
    metrics["trace.overhead_s"] = statistics.median(walls["traced"]) - statistics.median(walls["untraced"])
    del metrics["isolated.s"]

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{name}-seed{seed}.jsonl"
    tracer.write(trace_path, origin)
    failures = [p for p in problems if p]
    report.update(trace_file=str(trace_path.relative_to(ROOT)), spans=len(tracer.spans),
                  replays=i, problems=failures,
                  samples={"session_traced_s": walls["traced"], "session_untraced_s": walls["untraced"],
                           "interpreter_s": bare, "import_s": full})
    return metrics, len(problems), len(failures)


# ---------------------------------------------------------------------------


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(name: str, seed: int, seconds: int, trace: int) -> dict:
    declared = spec()["per_layer" if trace else "end_to_end"]
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    deadline = time.monotonic() + HARD_LIMIT_S
    report: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        measure = traced if trace else end_to_end
        metrics, attempted, failed = measure(name, seed, seconds, workdir, deadline, report)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"bench: no value for declared metrics {missing}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    report["result"] = result
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}")
    for item in report["inputs"]:
        print(f"  input {item['file']}: {item['rows']} rows, {item['bytes']} bytes, seed {item['seed']}")
    notes = report.get("notes", {})
    for m in declared:
        note = notes.get(m["name"])
        print(f"  {m['name']} = {metrics[m['name']]:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    if not trace:
        print(f"  failed_ratio = {report['failed_ratio']:.6g} ratio  ({failed} of {attempted} invocations)")
    for problem in report["problems"][:10]:
        print(f"  FAILED {problem}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if not (SRC / "confound" / "__init__.py").is_file():
        print(f"bench: no confound package under {SRC}", file=sys.stderr)
        return 2
    seconds = ns.seconds if ns.seconds is not None else spec()["run_seconds"]
    names = wl.WORKLOADS if ns.workload == "all" else (ns.workload,)
    results = {n: run_one(n, ns.seed, seconds, ns.trace) for n in names}
    if ns.workload != "all":
        print(json.dumps(results[ns.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
