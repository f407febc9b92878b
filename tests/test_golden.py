"""Byte-identity guard: every golden case of ``goldens.py``, run in-process.

Each case runs ``confound.cli.run`` on the inputs as written and on a copy
with every field quoted, which the csv module reads, and must give its
golden's bytes both ways. ``goldens.py`` holds the cases and runs them as
processes on any interpreter.

The goldens change only when a change alters output on purpose. Regenerate
them with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from confound import cli, ingest
from confound.cli import run
from confound.geometry import GroupPath, VectorDiagram
from confound.records import RecordTable
from confound.tables import Counts, Stratum
import goldens
from goldens import CASES, GOLDEN, _inputs, case_argv, golden_path, judged, write_inputs
from support import SRC, block_chars, quoted, serial_read, split_read


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory) -> Path:
    d = tmp_path_factory.mktemp("golden-inputs")
    write_inputs(d)
    return d


@pytest.fixture(scope="module")
def quoted_dir(tmp_path_factory) -> Path:
    """The inputs with every field of every non-blank line quoted."""
    d = tmp_path_factory.mktemp("golden-quoted")
    for name, text in _inputs().items():
        (d / name).write_text(quoted(text), encoding="utf-8")
    return d


def produce(name: str, d: Path) -> bytes:
    """The bytes case ``name`` is judged by, run in-process on ``d``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(case_argv(name, d))
    return judged(name, d, code, out.getvalue().encode("utf-8"), err.getvalue())


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, inputs_dir, quoted_dir):
    golden = golden_path(name).read_bytes()
    assert produce(name, inputs_dir) == golden
    assert produce(name, quoted_dir) == golden


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

    monkeypatch.setattr(ingest, "parse_records_csv", refuse)
    monkeypatch.setattr(RecordTable, "__init__", refuse)
    monkeypatch.setattr(RecordTable, "_of", classmethod(refuse))
    monkeypatch.setattr(RecordTable, "where", refuse)
    with pytest.raises(AssertionError):  # the refusal, not the reader's EmptyData
        cli.parse_records_csv("")
    names = [name for name, (argv, _) in CASES.items() if argv[:1] == ["scan"]]
    assert {CASES[name][1] for name in names} == {"txt", "json", "err"}
    for name in names:
        assert produce(name, inputs_dir) == golden_path(name).read_bytes(), name


def test_decompose_builds_no_record_table(inputs_dir, monkeypatch):
    """``decompose`` puts each block's rows into their groups as it reads
    them: no decompose case parses the file into a ``RecordTable`` or
    builds one."""
    def refuse(*args, **kwargs):
        raise AssertionError("built a RecordTable")

    monkeypatch.setattr(ingest, "parse_records_csv", refuse)
    monkeypatch.setattr(RecordTable, "__init__", refuse)
    monkeypatch.setattr(RecordTable, "_of", classmethod(refuse))
    with pytest.raises(AssertionError):  # the refusal, not the reader's EmptyData
        cli.parse_records_csv("")
    names = [name for name, (argv, _) in CASES.items() if argv[:1] == ["decompose"]]
    assert {CASES[name][1] for name in names} == {"txt", "json", "err"}
    for name in names:
        assert produce(name, inputs_dir) == golden_path(name).read_bytes(), name


@pytest.mark.parametrize("block", [1, 64])
def test_scan_counts_any_blocks_alike(inputs_dir, block):
    """Blocks of one line, or of a few, give every scan and decompose case's
    bytes: the counts, the numbers converted, the zero rows and each group's
    rows carry across blocks, read serially as on a host of one CPU, and
    across the two halves of a split read. A forked helper reads the second
    half of every input of four blocks or more, none of an input under two,
    and on every case with a report the helper's rows are merged."""
    names = [name for name, (argv, _) in CASES.items() if argv[:1] in (["scan"], ["decompose"])]
    assert {CASES[name][0][0] for name in names} == {"scan", "decompose"}
    with block_chars(block):
        for name in names:
            argv, ext = CASES[name]
            golden = golden_path(name).read_bytes()
            with serial_read():
                assert produce(name, inputs_dir) == golden, name
            size = len(Path(argv[1].replace("{d}", str(inputs_dir))).read_bytes())
            with split_read() as (forked, merged):
                assert produce(name, inputs_dir) == golden, name
            if size >= 4 * block:
                assert len(forked) == 1, name
            elif size < 2 * block:
                assert not forked, name
            assert not forked or ext == "err" or merged == [True], name


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


def test_the_runner_names_each_case_that_differs(tmp_path, monkeypatch, capsys):
    """``goldens.py`` as a script, on three of its cases: exit 0 while they
    match, 1 naming the one whose golden lost a byte."""
    names = ["analyze.hospital.text", "analyze.ragged", "plot.berkeley"]
    for name in names:
        (tmp_path / golden_path(name).name).write_bytes(golden_path(name).read_bytes())
    monkeypatch.setattr(goldens, "CASES", {name: CASES[name] for name in names})
    monkeypatch.setattr(goldens, "GOLDEN", tmp_path)
    monkeypatch.setenv("PYTHONPATH", str(SRC))
    assert goldens.main() == 0
    edited = tmp_path / "plot.berkeley.svg"
    edited.write_bytes(edited.read_bytes()[:-1])
    capsys.readouterr()
    assert goldens.main() == 1
    out, err = capsys.readouterr()
    assert err == "differs from its golden: plot.berkeley\n"
    assert out.startswith("2 of 3 golden cases match")


def _regenerate() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.iterdir():
        stale.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write_inputs(d)
        for name in sorted(CASES):
            data = produce(name, d)
            # a run that failed where its case expects output
            assert CASES[name][1] == "err" or not data.startswith(b"exit "), data
            golden_path(name).write_bytes(data)
    print(f"wrote {len(CASES)} goldens to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
