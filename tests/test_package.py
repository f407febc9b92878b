"""The package's lazy exports, and the modules each subcommand's process loads.

``confound`` imports a submodule when one of its names is first used, and
``confound.cli`` imports each subcommand's module, the CSV reader and the
analysis modules only when the subcommand that runs them does. In-process tests cannot see a missing local import once another
test has loaded the module, so the subcommands here run as fresh
``python -m confound`` processes and report what they imported: through
``-X importtime``, and through a ``sitecustomize`` that lists
``sys.modules`` at exit, which also holds what ``importlib.import_module``
loaded.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import confound
from confound import cli
from goldens import CASES, golden_path, write_inputs
from support import python

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
# loaded by every subcommand: the package, the CLI and what it needs at import
BASE = {"confound", "confound.cli", "confound.errors"}
# golden case -> the modules past BASE its process may load: its subcommand's
# module under confound.commands, the CSV reader for a subcommand that reads
# a file, and the table model and analysis modules it runs
LOADS = {
    "generate.seed0.text": {"commands.generate", "tables", "detector", "synth"},
    "analyze.hospital.text": {
        "commands.analyze", "commands.standardize", "ingest", "tables", "detector",
    },
    "analyze.hospital.std-combined.text": {
        "commands.analyze", "commands.standardize", "ingest", "tables", "detector",
        "standardize",
    },
    "standardize.hospital.combined.text": {
        "commands.standardize", "ingest", "tables", "standardize",
    },
    "plot.hospital": {"commands.plot", "ingest", "tables", "geometry"},
    "decompose.robinson.text": {"commands.decompose", "ingest", "tables", "ecological"},
    "decompose.robinson.json": {"commands.decompose", "ingest", "tables", "ecological"},
    "decompose.flip.text": {"commands.decompose", "ingest", "tables", "ecological"},
    "decompose.flip.json": {"commands.decompose", "ingest", "tables", "ecological"},
    "scan.robinson.text": {"commands.scan", "ingest", "tables", "detector", "scanning"},
    "scan.robinson.json": {"commands.scan", "ingest", "tables", "detector", "scanning"},
}
# standard modules no process loads: statistics (binning has its own
# quantiles), fractions (no shipped module uses it), html (SVG labels have
# their own escape table), json (the JSON writer quotes with the C module
# _json), csv (the reader and writer are the C module _csv's), dataclasses
# and the inspect module it imports (the value classes are plain classes),
# and argparse and the gettext and locale modules it loads (a well-formed
# command line is read from the option table)
UNUSED = {
    "statistics", "fractions", "html", "json", "csv", "dataclasses", "inspect",
    "argparse", "gettext", "locale",
}
# loaded by a process whose command line argparse reads, to print help or a
# usage error
ARGPARSE = {"argparse", "gettext", "locale"}
# on the path of each process, it lists the modules the process holds at exit
# on stderr; cli._exit runs the atexit hooks before it ends the process
SITECUSTOMIZE = (
    "import atexit, sys\n"
    "atexit.register(lambda: print('sys.modules:', *sorted(sys.modules), file=sys.stderr))\n"
)


@pytest.fixture(scope="module")
def watched(tmp_path_factory):
    """``watched(*args, cwd=None)``: the result of ``python -X importtime
    *args``, run with :data:`SITECUSTOMIZE` on its path, and the modules it
    imported."""
    site = tmp_path_factory.mktemp("site")
    (site / "sitecustomize.py").write_text(SITECUSTOMIZE)
    path = os.pathsep.join(filter(None, [str(site), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def run(*args: str, cwd: Path | None = None):
        result = python("-X", "importtime", *args, cwd=cwd, env=env)
        return result, imported(result)

    return run


def imported(result: subprocess.CompletedProcess) -> set[str]:
    """The modules a process imported: those ``-X importtime`` lists, which
    the import statement loaded, and those :data:`SITECUSTOMIZE` lists, which
    also holds what ``importlib.import_module`` loaded."""
    lines = result.stderr.decode().splitlines()
    at_exit = [line.split()[1:] for line in lines if line.startswith("sys.modules: ")]
    assert len(at_exit) == 1, result.stderr
    return set(at_exit[0]).union(
        line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")
    )


# the public names, written out: retiring or adding one edits this list
PUBLIC = [
    "AnalysisError", "Classification", "Column", "ConfoundError", "Counts",
    "Direction", "DivergenceReport", "EcologicalDecomposition", "Finding",
    "GroupPath", "GroupSummary", "InputError", "Rate", "RecordTable",
    "RenderOptions", "ReversalReport", "ScanConfig", "SkippedCandidate",
    "StandardizedComparison", "StratifiedComparison", "Stratum", "VectorDiagram",
    "WeightVector", "aggregate", "bin_numeric", "compare", "decompose",
    "detect_reversal", "generate_reversal", "group_means", "minimal_reversal",
    "pooled_rate", "rate", "reference_weights", "render_svg", "scan",
    "sign_divergence_report", "standardized_comparison", "standardized_rate",
    "stratify", "to_vectors",
]


class TestLazyExports:
    def test_public_names(self):
        assert sorted(confound.__all__) == PUBLIC

    def test_every_name_is_its_defining_modules_object(self):
        for name in confound.__all__:
            value = getattr(confound, name)
            assert value is getattr(sys.modules[value.__module__], name), name

    def test_star_import_and_dir(self):
        namespace: dict = {}
        exec("from confound import *", namespace)
        assert set(confound.__all__) <= namespace.keys()
        assert {*confound.__all__, "__version__"} <= set(dir(confound))

    def test_readme_library_example_runs(self):
        # a retired or renamed public name left in the example fails here
        text = README.read_text(encoding="utf-8")
        code = re.search(r"\n## Library\n+```python\n(.*?)```", text, re.S).group(1)
        exec(compile(code, "README.md", "exec"), {})

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            confound.nope
        with pytest.raises(ImportError):
            exec("from confound import nope", {})

    def test_bare_import_loads_no_submodule_and_reaches_each(self):
        code = (
            "import sys, confound\n"
            "print(sorted(m for m in sys.modules if m.startswith('confound')))\n"
            "print(confound.cli.__name__, confound.detector.__name__)\n"
        )
        result = python("-c", code)
        assert result.returncode == 0, result.stderr
        assert result.stdout.decode().splitlines() == [
            "['confound']", "confound.cli confound.detector"
        ]

    def test_cli_import_loads_base_modules_only(self, watched):
        result, loaded = watched("-c", "import confound.cli")
        assert result.returncode == 0, result.stderr
        assert {m for m in loaded if m.split(".")[0] == "confound"} == BASE
        assert not loaded & UNUSED

    def test_a_lazy_export_is_seen_loaded(self, watched):
        # confound.__getattr__ loads the module through importlib.import_module,
        # which -X importtime does not list
        result, loaded = watched("-c", "import confound; confound.scan")
        assert result.returncode == 0, result.stderr
        assert "confound.scanning" in loaded


@pytest.mark.parametrize("name", sorted(LOADS))
def test_fresh_process_output_and_modules(name, tmp_path, watched):
    write_inputs(tmp_path)  # the bundled fixtures and the inputs written from seeds
    argv, ext = CASES[name]
    argv = [a.replace("{d}", str(tmp_path)) for a in argv]
    result, loaded = watched("-m", "confound", *argv, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    produced = (
        Path(argv[argv.index("--out") + 1]).read_bytes() if ext == "svg" else result.stdout
    )
    assert produced == golden_path(name).read_bytes()
    assert {m for m in loaded if m.split(".")[0] == "confound"} == BASE | {
        "confound.commands", *(f"confound.{m}" for m in LOADS[name])
    }
    assert not loaded & UNUSED


@pytest.mark.parametrize("argv", [[], ["scan", "--help"]], ids=["no-subcommand", "help"])
def test_argparse_loads_for_a_usage_error_or_help(argv, watched):
    # the no-subcommand run is the usage.no-subcommand golden case
    result, loaded = watched("-m", "confound", *argv)
    assert result.returncode == (0 if argv else 2), result.stderr
    assert b"usage: confound" in (result.stdout if argv else result.stderr)
    assert ARGPARSE <= loaded
    assert {m for m in loaded if m.split(".")[0] == "confound"} == BASE


def test_each_subcommand_loads_its_module_and_only_generate_no_reader():
    for name, modules in LOADS.items():
        command = CASES[name][0][0]
        assert f"commands.{command}" in modules, name
        assert ("ingest" in modules) == (command != "generate"), name


def _names_read_from_cli() -> set[str]:
    """The names the benchmark's and the tests' code read from
    ``confound.cli``: imported from it, or read as an attribute of it."""
    names = set()
    for path in [*(ROOT / "bench").glob("*.py"), *(ROOT / "tests").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "confound.cli":
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and (
                isinstance(node.value, ast.Name) and node.value.id == "cli"
                or isinstance(node.value, ast.Attribute) and node.value.attr == "cli"
            ):
                names.add(node.attr)
    return {name for name in names if not name.startswith("__")}


def test_each_name_read_from_cli_is_its_defining_modules_object():
    names = _names_read_from_cli()
    # the bench's forwarded names are among those found
    assert {"parse_table_csv", "parse_records_csv", "build_scan_report", "run"} <= names
    for name in sorted(names):
        module = f"confound.{cli._MOVED.get(name, 'cli')}"
        value = getattr(cli, name)
        assert value is vars(import_module(module))[name], name
        assert getattr(value, "__module__", module) == module, name
