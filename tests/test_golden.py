"""Byte-identity guard: every subcommand's output against a stored golden file.

Each case runs ``confound.cli.run`` on the bundled fixtures or on inputs
written here from fixed seeds, and compares the exact bytes it produced
(stdout, or the SVG for ``plot``) with ``tests/golden/<case>.<ext>``. Error
cases pin only the exit code and the ``error:<code>:`` prefix, so messages
may be reworded without touching the goldens.

The goldens change only when a change alters output on purpose. Regenerate
them with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import importlib.resources as resources
import io
import random
import sys
from pathlib import Path

import pytest

from confound import cli
from confound.cli import run
from confound.geometry import GroupPath, VectorDiagram
from confound.records import RecordTable
from confound.tables import Counts, Stratum

GOLDEN = Path(__file__).parent / "golden"

TABLE_HEADER = "stratum,group,total,positive\n"
REFERENCES = ("combined", "first", "second", "equal")


def _records_csv(seed: int, extra_group: bool = False) -> str:
    """Seeded patient records with a planted severity confounder.

    Arm A is mostly severe and arm B mostly mild; within each severity
    level B dies more often, so pooling reverses the comparison. ``age``
    tracks severity, ``site`` has a site with arm A only, ``const`` has a
    single value, ``noise`` is a fair coin, ``shift`` a two-valued number and
    ``visits`` a skewed count whose bins can come out empty.
    """
    rng = random.Random(seed)
    lines = ["arm,died,severity,age,noise,site,const,shift,visits"]
    arms = ["A", "B"] + (["C"] if extra_group else [])
    for i in range(600 + (60 if extra_group else 0)):
        arm = arms[i % len(arms)]
        severe = rng.random() < (0.8 if arm == "A" else 0.2)
        p = {("A", True): 0.5, ("B", True): 0.65, ("A", False): 0.1,
             ("B", False): 0.2}.get((arm, severe), 0.3)
        died = rng.random() < p
        age = rng.uniform(50, 90) if severe else rng.uniform(20, 60)
        site = "north" if rng.random() < 0.5 else "south"
        if arm == "A" and rng.random() < 0.05:
            site = "annex"
        lines.append(
            f"{arm},{int(died)},{'severe' if severe else 'mild'},{age:.1f},"
            f"{rng.choice(['heads', 'tails'])},{site},7,{rng.choice([1, 2])},"
            f"{rng.choice([0, 0, 0, 0, 1, 1, 2, 5])}"
        )
    return "\n".join(lines) + "\n"


def _signed_csv(seed: int) -> str:
    """Seeded records whose numeric cells spell one value several ways.

    ``x`` writes 1 as ``1``, ``1.0``, ``1e0`` and `` 1`` and zero as ``0``,
    ``0.0``, ``-0`` and ``-0.0``; at this seed its quartile edges come out
    as ``-0.0`` and ``0.0``. ``z`` is never negative and its first zero, in a
    row of the second group, is ``-0``, so its lowest bin opens at ``-0``.
    Outcomes mix the lexicon's casings; ``c`` holds non-ASCII labels.
    """
    rng = random.Random(seed)
    lines = ["g,out,x,c,z"]
    spellings = {1: ["1", "1.0", "1e0", " 1"], 0: ["0", "0.0", "-0", "-0.0"]}
    first_zero = True
    for i in range(48):
        g = "ab"[i % 2]
        v = rng.choice([-2, -1, 0, 0, 0, 0, 1, 1, 1, 2, 3])
        x = rng.choice(spellings.get(v, [str(v)]))
        out = rng.choice(["YES", "nO", "tRuE", "false", "1", "0", "No", "yes"])
        c = rng.choice(["é", "e", "Ω", "z"])
        w = rng.choice([0, 0, 1, 2, 3, 4])
        if w == 0 and first_zero:
            z, first_zero = ("-0", False) if g == "b" else ("4", True)
        else:
            z = rng.choice(spellings[0][:2]) if w == 0 else str(w)
        lines.append(f"{g},{out},{x},{c},{z}")
    return "\n".join(lines) + "\n"


def _inputs() -> dict[str, str]:
    data = resources.files("confound") / "data"
    files = {
        name: (data / name).read_text(encoding="utf-8")
        for name in ("hospital.csv", "berkeley.csv", "robinson_synthetic.csv")
    }
    files["records.csv"] = _records_csv(1)
    files["records3.csv"] = _records_csv(2, extra_group=True)
    # an age that is not a number, in the first row of group C, which
    # --groups A,B drops
    lines = files["records3.csv"].split("\n")
    first_c = next(i for i, line in enumerate(lines) if line.startswith("C,"))
    cells = lines[first_c].split(",")
    lines[first_c] = ",".join([*cells[:3], "old", *cells[4:]])
    files["records3_bad.csv"] = "\n".join(lines)
    files["signed.csv"] = _signed_csv(2)
    # repeated stratum vectors exercise the plot's marker de-duplication
    files["repeats.csv"] = TABLE_HEADER + (
        "a,g1,10,3\na,g2,20,5\nb,g1,10,3\nb,g2,5,1\nc,g1,30,20\nc,g2,20,5\n"
    )
    files["single.csv"] = TABLE_HEADER + "only,g1,12,5\nonly,g2,8,2\n"
    files["bad_word_count.csv"] = TABLE_HEADER + "s,g1,five,1\ns,g2,5,1\n"
    files["negative_count.csv"] = TABLE_HEADER + "s,g1,5,1\ns,g2,5,-1\n"
    files["three_groups.csv"] = TABLE_HEADER + "s,g1,5,1\ns,g2,5,1\ns,g3,5,1\n"
    files["missing_cell.csv"] = TABLE_HEADER + "s,g1,5,1\ns,g2,5,1\nt,g1,5,1\n"
    files["duplicate_cell.csv"] = TABLE_HEADER + "s,g1,5,1\ns,g2,5,1\ns,g1,5,2\n"
    files["ragged.csv"] = TABLE_HEADER + "s,g1,5\n"
    files["zero_total.csv"] = TABLE_HEADER + "s,g1,0,0\ns,g2,5,1\n"
    files["one_row.csv"] = "region,x,y\nsolo,1,2\n"
    return files


def _cases() -> dict[str, tuple[list[str], str]]:
    """Case name -> (argv with ``{d}`` for the input directory, extension).

    The extension says what is compared: ``svg`` the written plot, ``err``
    the exit code and error prefix, anything else stdout.
    """
    cases: dict[str, tuple[list[str], str]] = {}

    def add(name: str, argv: list[str], ext: str) -> None:
        assert name not in cases, name
        cases[name] = (argv, ext)

    def add_both(name: str, argv: list[str]) -> None:
        add(f"{name}.text", argv, "txt")
        add(f"{name}.json", [*argv, "--format", "json"], "json")

    for table in ("hospital", "berkeley", "repeats", "single"):
        path = f"{{d}}/{table}.csv"
        add_both(f"analyze.{table}", ["analyze", path])
        add_both(f"analyze.{table}.std-combined",
                 ["analyze", path, "--standardize", "combined"])
        for ref in REFERENCES:
            add_both(f"standardize.{table}.{ref}",
                     ["standardize", path, "--reference", ref])
        add(f"plot.{table}", ["plot", path, "--out", f"{{d}}/{table}.svg"], "svg")
        add(f"plot.{table}.fan-only",
            ["plot", path, "--out", f"{{d}}/{table}.fan.svg", "--fan-only"], "svg")
    add_both("analyze.berkeley.tied", ["analyze", "{d}/berkeley.csv", "--allow-tied-strata"])

    robinson = "{d}/robinson_synthetic.csv"
    add_both("decompose.robinson",
             ["decompose", robinson, "--group-col", "region",
              "--x", "foreign_born", "--y", "literate"])
    add_both("scan.robinson",
             ["scan", robinson, "--group-col", "foreign_born",
              "--outcome-col", "literate", "--candidates", "region"])
    add_both("decompose.hospital",
             ["decompose", "{d}/hospital.csv", "--group-col", "group",
              "--x", "total", "--y", "positive"])

    for seed in (0, 1, 2):
        add(f"generate.seed{seed}.text", ["generate", "--seed", str(seed)], "csv")
        add(f"generate.seed{seed}.json",
            ["generate", "--seed", str(seed), "--format", "json"], "json")
    add_both("generate.strata6", ["generate", "--strata", "6", "--scale", "200", "--seed", "4"])
    # the smallest scale, where the first group's light strata hold 2 subjects
    add("generate.scale10.text",
        ["generate", "--strata", "50", "--scale", "10", "--seed", "7"], "csv")

    scan = ["scan", "{d}/records.csv", "--group-col", "arm", "--outcome-col", "died",
            "--numeric", "age,const,visits",
            "--candidates", "severity,age,noise,site,const,ghost,died,arm,visits"]
    add_both("scan.records", scan)
    add_both("scan.records.equal-width", [*scan, "--binning", "equal_width", "--bins", "3"])
    add_both("scan.records.bins8", [*scan, "--bins", "8"])
    add_both("scan.records.min-size", [*scan, "--min-stratum-size", "40"])
    add_both("scan.records.min-size-all", [*scan, "--min-stratum-size", "100000"])
    add_both("scan.records.tied", [*scan, "--allow-tied-strata"])
    scan3 = ["scan", "{d}/records3.csv", "--group-col", "arm", "--outcome-col", "died",
             "--numeric", "age", "--candidates", "severity,age,noise"]
    add_both("scan.records3.groups-ab", [*scan3, "--groups", "A,B"])
    add_both("scan.records3.groups-cb", [*scan3, "--groups", "C,B"])
    signed = ["scan", "{d}/signed.csv", "--group-col", "g", "--outcome-col", "out",
              "--numeric", "x,z", "--candidates", "x,c,z"]
    add_both("scan.signed", [*signed, "--bins", "4"])
    add_both("scan.signed.equal-width", [*signed, "--binning", "equal_width", "--bins", "3"])

    errors = {
        "analyze.robinson": ["analyze", robinson],
        "analyze.bad-word-count": ["analyze", "{d}/bad_word_count.csv"],
        "analyze.negative-count": ["analyze", "{d}/negative_count.csv"],
        "analyze.three-groups": ["analyze", "{d}/three_groups.csv"],
        "analyze.missing-cell": ["analyze", "{d}/missing_cell.csv"],
        "analyze.duplicate-cell": ["analyze", "{d}/duplicate_cell.csv"],
        "analyze.ragged": ["analyze", "{d}/ragged.csv"],
        "analyze.zero-total": ["analyze", "{d}/zero_total.csv"],
        "analyze.missing-file": ["analyze", "{d}/absent.csv"],
        "standardize.zero-total": ["standardize", "{d}/zero_total.csv"],
        "plot.zero-total": ["plot", "{d}/zero_total.csv", "--out", "{d}/zero.svg"],
        "plot.narrow": ["plot", "{d}/hospital.csv", "--out", "{d}/narrow.svg",
                        "--width", "96"],
        "scan.hospital": ["scan", "{d}/hospital.csv", "--group-col", "group",
                          "--outcome-col", "positive", "--candidates", "stratum"],
        "scan.records3.no-groups": scan3,
        "scan.records3.one-group": [*scan3, "--groups", "A"],
        # every row is typed before --groups keeps any: a dropped row's bad cell
        "scan.records3.groups-ab.bad-dropped-row":
            ["scan", "{d}/records3_bad.csv", *scan3[2:], "--groups", "A,B"],
        "scan.records.no-candidates": [*scan[:-1], ""],
        "scan.records.duplicate-candidates": [*scan[:-1], "severity,severity"],
        "scan.records.unknown-group": [*scan[:3], "ward", *scan[4:]],
        "scan.records.text-outcome": [*scan[:5], "noise", *scan[6:]],
        "decompose.robinson.categorical-x":
            ["decompose", robinson, "--group-col", "region", "--x", "region",
             "--y", "literate"],
        # the group column is categorical, as in a scan, even when it is also x
        "decompose.robinson.numeric-group":
            ["decompose", robinson, "--group-col", "foreign_born", "--x", "foreign_born",
             "--y", "literate"],
        "decompose.one-row":
            ["decompose", "{d}/one_row.csv", "--group-col", "region", "--x", "x", "--y", "y"],
        "usage.no-subcommand": [],
    }
    # a numeric group column fails the scan before any candidate is tried,
    # in either output format
    numeric_group = ["scan", "{d}/records.csv", "--group-col", "shift", "--outcome-col",
                     "died", "--numeric", "shift", "--candidates", "severity,ghost"]
    errors["scan.records.numeric-group.text"] = numeric_group
    errors["scan.records.numeric-group.json"] = [*numeric_group, "--format", "json"]
    for name, argv in errors.items():
        add(name, argv, "err")
    return cases


CASES = _cases()


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory) -> Path:
    d = tmp_path_factory.mktemp("golden-inputs")
    for name, text in _inputs().items():
        (d / name).write_text(text, encoding="utf-8")
    return d


def produce(name: str, d: Path) -> bytes:
    """The bytes a case is judged by: stdout, the SVG, or exit + prefix."""
    argv_t, ext = CASES[name]
    argv = [a.replace("{d}", str(d)) for a in argv_t]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    if ext == "err":
        first = err.getvalue().splitlines()[0] if err.getvalue() else ""
        prefix = first.split(": ", 1)[0] + ":" if first.startswith("error:") else ""
        return f"exit {code}\n{prefix}\n".encode()
    assert code == 0, f"{name}: exit {code}, stderr {err.getvalue()!r}"
    if ext == "svg":
        return Path(argv[argv.index("--out") + 1]).read_bytes()
    return out.getvalue().encode("utf-8")


def golden_path(name: str) -> Path:
    return GOLDEN / f"{name}.{CASES[name][1]}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, inputs_dir):
    assert produce(name, inputs_dir) == golden_path(name).read_bytes()


def test_table_commands_build_no_counts_or_strata(inputs_dir, monkeypatch):
    """A table moves through the CLI as columns: no case of a subcommand that
    reads or builds one constructs a ``Counts`` or a ``Stratum``."""
    def refuse(self, *args):
        raise AssertionError(f"built a {type(self).__name__}")

    monkeypatch.setattr(Counts, "__init__", refuse)
    monkeypatch.setattr(Stratum, "__init__", refuse)
    commands = {"analyze", "standardize", "plot", "scan", "generate"}
    names = [name for name, (argv, _) in CASES.items() if argv[:1] and argv[0] in commands]
    assert {CASES[name][0][0] for name in names} == commands
    for name in names:
        assert produce(name, inputs_dir) == golden_path(name).read_bytes(), name


def test_scan_builds_no_record_table(inputs_dir, monkeypatch):
    """``scan`` counts each block of records as it reads it: no scan case
    parses the file into a ``RecordTable``, builds one, or keeps its rows
    with ``where``."""
    def refuse(*args, **kwargs):
        raise AssertionError("built or filtered a RecordTable")

    monkeypatch.setattr(cli, "parse_records_csv", refuse)
    monkeypatch.setattr(RecordTable, "__init__", refuse)
    monkeypatch.setattr(RecordTable, "_of", classmethod(refuse))
    monkeypatch.setattr(RecordTable, "where", refuse)
    names = [name for name, (argv, _) in CASES.items() if argv[:1] == ["scan"]]
    assert {CASES[name][1] for name in names} == {"txt", "json", "err"}
    for name in names:
        assert produce(name, inputs_dir) == golden_path(name).read_bytes(), name


@pytest.mark.parametrize("block", [1, 64])
def test_scan_counts_any_blocks_alike(inputs_dir, monkeypatch, block):
    """Blocks of one line, or of a few, give every scan case's bytes: the
    counts, the numbers converted and the zero rows carry across blocks."""
    monkeypatch.setattr(cli, "BLOCK_CHARS", block)
    for name, (argv, _) in CASES.items():
        if argv[:1] == ["scan"]:
            assert produce(name, inputs_dir) == golden_path(name).read_bytes(), name


def test_plot_checks_no_path_or_diagram_again(inputs_dir, monkeypatch):
    """``to_vectors`` builds its paths and diagram from a table's checked
    columns: no plot case calls the checking ``GroupPath`` or
    ``VectorDiagram`` constructor."""
    def refuse(self, *args):
        raise AssertionError(f"checked a {type(self).__name__} again")

    monkeypatch.setattr(GroupPath, "__init__", refuse)
    monkeypatch.setattr(VectorDiagram, "__init__", refuse)
    names = [name for name, (argv, ext) in CASES.items() if "plot" in argv[:1]]
    assert {CASES[name][1] for name in names} == {"svg", "err"}
    for name in names:
        assert produce(name, inputs_dir) == golden_path(name).read_bytes(), name


def test_no_orphan_goldens():
    expected = {golden_path(name).name for name in CASES}
    assert {p.name for p in GOLDEN.iterdir()} == expected


def _regenerate() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.iterdir():
        stale.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for name, text in _inputs().items():
            (d / name).write_text(text, encoding="utf-8")
        for name in sorted(CASES):
            golden_path(name).write_bytes(produce(name, d))
    print(f"wrote {len(CASES)} goldens to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
