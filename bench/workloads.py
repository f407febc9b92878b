"""Seeded inputs, CLI sessions and reference answers for the three workloads.

Everything here is independent of the code under test: the generators use
only ``random`` and ``csv``, and the reference answers are computed with
``collections.Counter``, ``fractions.Fraction`` and ``math.fsum`` from the
benchmark's own copy of the data. The program only ever sees the files.

Workloads (one *session* = the fixed sequence of CLI invocations below):

- ``scan_records``: one ``scan --format json`` over 100k records x 8
  columns, six candidates (two numeric, 16 quantile bins), with severity
  planted as a confounder.
- ``wide_table``: ``generate``, ``analyze --standardize combined --format
  json``, ``standardize --reference first`` and ``plot`` on a 4,000-stratum
  full reversal whose chord vectors are almost all distinct.
- ``decompose_groups``: one ``decompose --format json`` over 100k records in
  500 regions with a planted between/within sign flip.
"""

from __future__ import annotations

import csv
import io
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from checks import (
    check_analyze,
    check_decompose,
    check_generate,
    check_plot,
    check_scan,
    check_standardize,
    classify,
    standardized_direction,
)

SCAN_ROWS = 100_000
SCAN_CANDIDATES = ("severity", "site", "sex", "age", "bmi", "note")
SCAN_NUMERIC = ("age", "bmi")
SCAN_BINS = 16
TABLE_STRATA = 4_000
TABLE_SCALE = 5_000
DECOMPOSE_ROWS = 100_000
DECOMPOSE_GROUPS = 500

WORKLOADS = ("scan_records", "wide_table", "decompose_groups")


@dataclass
class Invocation:
    """One CLI call of a session and how to check what it printed."""

    name: str
    args: list[str]
    rows_read: int
    check: object  # callable(stdout: bytes, out_file: bytes | None) -> str | None
    out_file: str | None = None


@dataclass
class Workload:
    name: str
    invocations: list[Invocation]
    inputs: list[dict] = field(default_factory=list)

    @property
    def rows_read(self) -> int:
        return sum(inv.rows_read for inv in self.invocations)


def quantile_edges(values: list[float], k: int) -> list[Fraction]:
    """Interior edges of k quantile bins, linear interpolation on the sorted
    data ("inclusive" method), computed exactly."""
    data = sorted(values)
    m = len(data) - 1
    edges = []
    for i in range(1, k):
        j, delta = divmod(i * m, k)
        edges.append((Fraction(data[j]) * (k - delta) + Fraction(data[j + 1]) * delta) / k)
    return edges


def bin_index(values: list[float], edges: list[Fraction]) -> list[int]:
    """Bin of each value; a value equal to an edge goes to the upper bin."""
    bins = {v: sum(1 for e in edges if Fraction(v) >= e) for v in set(values)}
    return [bins[v] for v in values]


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write(path: Path, text: str, rows: int, seed: int) -> dict:
    data = text.encode("utf-8")
    path.write_bytes(data)
    return {"file": path.name, "rows": rows, "bytes": len(data), "seed": seed}


# ---------------------------------------------------------------------------
# scan_records


def scan_rows(seed: int, n: int = SCAN_ROWS) -> list[tuple]:
    """Records where severity drives both treatment and death: within every
    severity level treated patients die less often, yet treated patients die
    more often overall."""
    rng = random.Random(f"scan_records:{seed}")
    severity_mix = (("low", 0.40, 0.20, 0.05), ("mid", 0.35, 0.50, 0.15), ("high", 0.25, 0.80, 0.40))
    rows = []
    for _ in range(n):
        u = rng.random()
        for level, share, p_treated, base in severity_mix:
            if u < share:
                break
            u -= share
        arm = "treated" if rng.random() < p_treated else "control"
        death_rate = base - 0.03 if arm == "treated" else base
        died = "yes" if rng.random() < death_rate else "no"
        site = f"site-{rng.randrange(40):02d}"
        sex = rng.choice(("F", "M"))
        age = rng.randint(18, 90)
        # quarter steps keep every value and quantile edge exactly representable
        bmi = min(45.0, max(16.0, round(rng.gauss(27.0, 5.0) * 4) / 4))
        note = f"n{rng.randrange(1000):03d}"
        rows.append((arm, died, level, site, sex, age, bmi, note))
    return rows


SCAN_HEADER = ("arm", "died", "severity", "site", "sex", "age", "bmi", "note")


def scan_reference(rows: list[tuple]) -> dict:
    """Expected scan result per candidate: stratum sizes in the program's
    stratum order and the exact classification, or a skip when a stratum
    has rows on one side only."""
    expected = {}
    for cand in SCAN_CANDIDATES:
        ci = SCAN_HEADER.index(cand)
        if cand in SCAN_NUMERIC:
            column = [r[ci] for r in rows]
            key = bin_index(column, quantile_edges(column, SCAN_BINS))
        else:
            key = [r[ci] for r in rows]
        tally = Counter(zip(key, (r[0] for r in rows), (r[1] == "yes" for r in rows)))
        strata = sorted({k for k, _, _ in tally})
        cells = [
            (
                tally[s, "control", True] + tally[s, "control", False],
                tally[s, "control", True],
                tally[s, "treated", True] + tally[s, "treated", False],
                tally[s, "treated", True],
            )
            for s in strata
        ]
        if any(c[0] == 0 or c[2] == 0 for c in cells):
            expected[cand] = None
        else:
            expected[cand] = {
                "stratum_sizes": [c[0] + c[2] for c in cells],
                "classification": classify(cells)[0],
            }
    return expected


def build_scan_records(seed: int, workdir: Path) -> Workload:
    rows = scan_rows(seed)
    info = _write(workdir / "records.csv", _csv_text(SCAN_HEADER, rows), len(rows), seed)
    expected = scan_reference(rows)
    if expected["severity"] is None or expected["severity"]["classification"] != "FULL_REVERSAL":
        raise RuntimeError(f"seed {seed}: planted severity confounder did not reverse")
    args = [
        "scan", "records.csv", "--group-col", "arm", "--outcome-col", "died",
        "--candidates", ",".join(SCAN_CANDIDATES), "--numeric", ",".join(SCAN_NUMERIC),
        "--bins", str(SCAN_BINS), "--format", "json",
    ]
    inv = Invocation("scan", args, len(rows), lambda out, _: check_scan(out, len(rows), expected))
    return Workload("scan_records", [inv], [info])


# ---------------------------------------------------------------------------
# wide_table


def reversal_cells(seed: int, k: int = TABLE_STRATA, scale: int = TABLE_SCALE):
    """k strata, rates falling front to back, the first group's exposure
    front-loaded and the second's back-loaded, and the second group strictly
    ahead inside every stratum: a full reversal. Jittered totals up to
    1.2 x scale make almost every chord vector distinct."""
    rng = random.Random(f"wide_table:{seed}:{k}:{scale}")
    low = max(1, scale // 5)
    for _ in range(100):
        cells = []
        for i in range(k):
            frac = i / (k - 1)
            t1 = max(2, round((scale * (1 - frac) + low * frac) * rng.uniform(0.8, 1.2)))
            t2 = max(2, round((scale * frac + low * (1 - frac)) * rng.uniform(0.8, 1.2)))
            level = 0.85 * (1 - frac) + 0.1 * frac
            gap = rng.uniform(0.02, 0.08)
            p1 = min(t1, max(0, round((level - gap / 2) * t1)))
            p2 = min(t2, max(0, round((level + gap / 2) * t2)))
            while p1 * t2 >= p2 * t1:
                if p2 < t2:
                    p2 += 1
                else:
                    p1 -= 1
            cells.append((t1, p1, t2, p2))
        if classify(cells)[0] == "FULL_REVERSAL":
            return cells
    raise RuntimeError(f"seed {seed}: no full reversal in 100 tables")


def table_csv(cells, first: str = "control", second: str = "treated") -> str:
    rows = []
    for i, (t1, p1, t2, p2) in enumerate(cells):
        label = f"stratum-{i:05d}"
        rows.append((label, first, t1, p1))
        rows.append((label, second, t2, p2))
    return _csv_text(("stratum", "group", "total", "positive"), rows)


def build_wide_table(seed: int, workdir: Path) -> Workload:
    cells = reversal_cells(seed)
    info = _write(workdir / "table.csv", table_csv(cells), 2 * len(cells), seed)
    classification, aggregate = classify(cells)
    combined = standardized_direction(cells, "combined")
    first = standardized_direction(cells, "first")
    lines = 2 * len(cells)
    invs = [
        Invocation(
            "generate",
            # the CLI's default --seed: how many tables generate builds before one
            # reverses depends on its seed, and that cost must not vary with ours
            ["generate", "--strata", str(TABLE_STRATA), "--scale", str(TABLE_SCALE)],
            0,
            lambda out, _: check_generate(out, TABLE_STRATA),
        ),
        Invocation(
            "analyze",
            ["analyze", "table.csv", "--standardize", "combined", "--format", "json"],
            lines,
            lambda out, _: check_analyze(out, len(cells), classification, aggregate, combined),
        ),
        Invocation(
            "standardize",
            ["standardize", "table.csv", "--reference", "first"],
            lines,
            lambda out, _: check_standardize(out, first),
        ),
        Invocation(
            "plot",
            ["plot", "table.csv", "--out", "plot.svg"],
            lines,
            lambda _, svg: check_plot(svg, len(cells)),
            out_file="plot.svg",
        ),
    ]
    return Workload("wide_table", invs, [info])


# ---------------------------------------------------------------------------
# decompose_groups


def decompose_rows(seed: int, n: int = DECOMPOSE_ROWS, groups: int = DECOMPOSE_GROUPS):
    """Regions whose means rise together (positive between-group
    association) while x and y fall against each other inside every region
    (negative within-group association). Every region gets a row."""
    rng = random.Random(f"decompose_groups:{seed}")
    centers = []
    for _ in range(groups):
        mx = rng.uniform(10.0, 90.0)
        centers.append((mx, 0.8 * mx + rng.gauss(0.0, 5.0)))
    rows = []
    for i in range(n):
        g = i if i < groups else rng.randrange(groups)
        mx, my = centers[g]
        x = mx + rng.gauss(0.0, 8.0)
        y = my - 0.6 * (x - mx) + rng.gauss(0.0, 4.0)
        rows.append((f"region-{g:03d}", f"{x:.4f}", f"{y:.4f}"))
    return rows


def decompose_reference(rows) -> dict:
    """Group sizes and the covariance split, summed with math.fsum."""
    xs = [float(r[1]) for r in rows]
    ys = [float(r[2]) for r in rows]
    n = len(rows)
    mx, my = math.fsum(xs) / n, math.fsum(ys) / n
    total = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys)) / n
    buckets: dict[str, list[int]] = {}
    for i, r in enumerate(rows):
        buckets.setdefault(r[0], []).append(i)
    between_terms, within_terms = [], []
    for idx in buckets.values():
        gx = math.fsum(xs[i] for i in idx) / len(idx)
        gy = math.fsum(ys[i] for i in idx) / len(idx)
        between_terms.append(len(idx) * (gx - mx) * (gy - my))
        within_terms.extend((xs[i] - gx) * (ys[i] - gy) for i in idx)
    return {
        "sizes": {label: len(idx) for label, idx in buckets.items()},
        "total": total,
        "between": math.fsum(between_terms) / n,
        "within": math.fsum(within_terms) / n,
    }


def build_decompose_groups(seed: int, workdir: Path) -> Workload:
    rows = decompose_rows(seed)
    info = _write(workdir / "regions.csv", _csv_text(("region", "x", "y"), rows), len(rows), seed)
    expected = decompose_reference(rows)
    if not (expected["between"] > 0 > expected["within"]):
        raise RuntimeError(f"seed {seed}: planted sign flip did not appear")
    args = ["decompose", "regions.csv", "--group-col", "region", "--x", "x", "--y", "y", "--format", "json"]
    inv = Invocation("decompose", args, len(rows), lambda out, _: check_decompose(out, len(rows), expected))
    return Workload("decompose_groups", [inv], [info])


BUILDERS = {
    "scan_records": build_scan_records,
    "wide_table": build_wide_table,
    "decompose_groups": build_decompose_groups,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    return BUILDERS[name](seed, workdir)
