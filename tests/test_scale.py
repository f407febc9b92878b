"""Output bytes at the benchmark's table size, pinned by SHA-256.

The goldens cover small tables only. The per-stratum loops of the generator,
the JSON writer and the SVG renderer are pinned here on 4,000-stratum tables
as well, by digests of what the same commands wrote before those loops were
last optimised, the record scan on 100,000 rows of eight columns, and the
decomposition of 100,000 rows in 500 groups, whose digests were taken when
its moments and means became correctly rounded. The
table checks are run on 20,000 strata, with no clock: a check that is
quadratic in the stratum count shows as a slow suite.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
import time
from fractions import Fraction

import pytest

from confound import ecological, ingest
from confound.cli import run
from confound.errors import ValidationError
from confound.tables import StratifiedComparison

SIZE = ["--strata", "4000", "--scale", "5000"]
GENERATED = {
    0: "e250d37aba8d93c8af420e3aab41ca5901c8f6fa87be8c0cdcdb6e9b807c31e0",
    1: "c0d1aeb967c929b90a40d23146e2ba2473962581559eee0bf98f0fbf646e90f2",
    2: "e6d5ee006227e8695e4b4d33c9dbcee7530df4e1e81655ac0969295bcf6631af",
    3: "ca99e31a907b81475674c2032abfc0e36e916fcc06ae180a6ef48296e7c4097f",
}
# seed 0's table, as each command writes it
SEED0 = {
    "generate --format json":
        "0183d11cfd20796e3fd3458d3fb76112eee61025bf4970fdab1f6f8f75489d52",
    "analyze --standardize combined --format json":
        "b2bbaeec0ba85d1d8d86c285c8dcd6b0da13a2673e7b562c550d92216ee707e9",
    "plot": "a81fecde23b5877f80e0e1d4742b20d950c683165379954896308ba767aabdb1",
    "plot --fan-only": "74449c64ca9381fa89ce07fdfcda7ba07687d04ca91f6b7de2def4e283902ffd",
}

# a seeded records file of the benchmark's shape, and its scan
SCAN = "db5d56ddff9e3f0425a0708c010a0b37bf25fe596c4a1baa423b704e8dac8a2e"
# a seeded file of regions, x and y of the benchmark's shape, and its
# decomposition in each format
DECOMPOSE = {
    "text": "e269e81af5a32f1f98286f43db8d4bc5ad1e596bff1022f289f9dd66ae25ff4e",
    "json": "f0af975cac7d76e3c27d66ff2a5c044041ac48544868f258b83e73f8540a6ba3",
}


def stdout_of(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert run(argv) == 0
    return out.getvalue().encode("utf-8")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    path = tmp_path_factory.mktemp("scale") / "table.csv"
    path.write_bytes(stdout_of(["generate", *SIZE, "--seed", "0"]))
    return path


@pytest.mark.parametrize("seed", sorted(GENERATED))
def test_generated_table(seed):
    assert digest(stdout_of(["generate", *SIZE, "--seed", str(seed)])) == GENERATED[seed]


@pytest.mark.parametrize("command", sorted(SEED0))
def test_seed0_outputs(command, table):
    name, *options = command.split()
    if name == "generate":
        data = stdout_of(["generate", *SIZE, "--seed", "0", *options])
    elif name == "analyze":
        data = stdout_of(["analyze", str(table), *options])
    else:
        svg = table.with_suffix(".svg")
        stdout_of(["plot", str(table), "--out", str(svg), *options])
        data = svg.read_bytes()
    assert digest(data) == SEED0[command]


def scan_records_csv(seed: int, n: int = 100_000) -> str:
    """Records with eight columns: a treatment arm, a yes/no death, a
    severity that drives both, a 40-level site, a sex, an integer age, a
    quarter-step bmi and a 1,000-level note."""
    rng = random.Random(seed)
    lines = ["arm,died,severity,site,sex,age,bmi,note"]
    for _ in range(n):
        level, p_treated, base = rng.choice(
            [("low", 0.2, 0.05), ("mid", 0.5, 0.15), ("high", 0.8, 0.4)]
        )
        arm = "treated" if rng.random() < p_treated else "control"
        died = "yes" if rng.random() < base - 0.03 * (arm == "treated") else "no"
        bmi = min(45.0, max(16.0, round(rng.gauss(27.0, 5.0) * 4) / 4))
        lines.append(
            f"{arm},{died},{level},site-{rng.randrange(40):02d},{rng.choice('FM')},"
            f"{rng.randint(18, 90)},{bmi},n{rng.randrange(1000):03d}"
        )
    return "\n".join(lines) + "\n"


def test_scan_of_100000_records(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text(scan_records_csv(1), encoding="utf-8")
    data = stdout_of([
        "scan", str(path), "--group-col", "arm", "--outcome-col", "died",
        "--candidates", "severity,site,sex,age,bmi,note", "--numeric", "age,bmi",
        "--bins", "16", "--format", "json",
    ])
    assert digest(data) == SCAN


def decompose_records_csv(seed: int, n: int = 100_000, groups: int = 500) -> str:
    """Records of ``groups`` regions, each with a row, whose x and y means
    rise together while x and y fall against each other inside a region;
    x and y have four decimals."""
    rng = random.Random(seed)
    centers = []
    for _ in range(groups):
        mx = rng.uniform(10.0, 90.0)
        centers.append((mx, 0.8 * mx + rng.gauss(0.0, 5.0)))
    lines = ["region,x,y"]
    for i in range(n):
        g = i if i < groups else rng.randrange(groups)
        mx, my = centers[g]
        x = mx + rng.gauss(0.0, 8.0)
        y = my - 0.6 * (x - mx) + rng.gauss(0.0, 4.0)
        lines.append(f"region-{g:03d},{x:.4f},{y:.4f}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", sorted(DECOMPOSE))
def test_decompose_of_100000_records(tmp_path, fmt):
    path = tmp_path / "regions.csv"
    path.write_text(decompose_records_csv(1), encoding="utf-8")
    data = stdout_of([
        "decompose", str(path), "--group-col", "region", "--x", "x", "--y", "y",
        "--format", fmt,
    ])
    assert digest(data) == DECOMPOSE[fmt]


def test_decompose_of_groups_of_446_sizes():
    """Groups of every size from 1 to 446, 99,681 rows: the within part's
    common denominator is the lcm of the distinct group sizes, which sum to
    the row count, so it has O(√n·log n) bits (644 here) and the exact
    analysis stays cheap; it took about 5 ms, and the bound is loose, so a
    slow host does not fail it. Each group's means are correctly rounded."""
    rng = random.Random(446)
    labels = [f"g{k:03d}" for k in range(1, 447) for _ in range(k)]
    xs, ys = ([rng.uniform(-1e3, 1e3) for _ in labels] for _ in "xy")
    groups = ecological._Groups(
        {"g": "categorical", "x": "numeric", "y": "numeric"}, "g", "x", "y"
    )
    groups.add((labels, xs, ys))
    start = time.perf_counter()
    d = ecological._decomposition(groups)
    assert time.perf_counter() - start < 1
    assert abs(d.total_cov - (d.between_cov + d.within_cov)) <= 1e-12 * abs(d.total_cov)
    first = 0
    for k, g in enumerate(d.group_summaries, 1):
        rows = slice(first, first + k)
        first += k
        assert (g.n, g.mean_x, g.mean_y) == (
            k, *(float(sum(map(Fraction, v[rows])) / k) for v in (xs, ys))
        )


def test_duplicate_label_among_20000_strata():
    rows = [(f"s{i}", (2, 1), (3, 1)) for i in range(20_000)]
    assert len(StratifiedComparison.from_pairs("a", "b", rows).strata) == 20_000
    rows.append(("s7", (2, 1), (3, 1)))
    with pytest.raises(ValidationError, match=r"^duplicate stratum labels: \['s7'\]$"):
        StratifiedComparison.from_pairs("a", "b", rows)


def test_a_32_mib_line_reads_in_linear_time():
    """A line across many blocks is joined once, not copied again for each
    block: a 32 MiB line, read as a data line and as a header past a raised
    field size limit, took 2.4 and 0.4 s that way and takes well under 1 s
    now. The bound is loose, so a slow host does not fail it."""
    line = "9" * (32 << 20)
    start = time.perf_counter()
    blocks = list(ingest._line_blocks(ingest._Text.of(f"g\n{line}\n").pieces()))
    assert time.perf_counter() - start < 1
    assert blocks == ["g", line]
    default = csv.field_size_limit()
    try:
        csv.field_size_limit(1 << 30)
        start = time.perf_counter()
        header = next(ingest._blocks(ingest._Text.of(f"{line}\na\n")))
        assert time.perf_counter() - start < 1
    finally:
        csv.field_size_limit(default)
    assert header == [line]
