"""The package's lazy exports, and the modules each subcommand's process loads.

``confound`` imports a submodule when one of its names is first used, and
``confound.cli`` imports each analysis module inside the subcommand that
runs it. In-process tests cannot see a missing local import once another
test has loaded the module, so the subcommands here run as fresh
``python -m confound`` processes and report what they imported through
``-X importtime``.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import confound
from support import SRC, python
from test_golden import CASES, golden_path

DATA = SRC / "confound" / "data"
# loaded by every subcommand: the package, the CLI and what it needs at import
BASE = {"confound", "confound.cli", "confound.errors", "confound.tables"}
# golden case -> the analysis modules its process may load
LOADS = {
    "generate.seed0.text": {"detector", "synth"},
    "analyze.hospital.text": {"detector"},
    "analyze.hospital.std-combined.text": {"detector", "standardize"},
    "standardize.hospital.combined.text": {"standardize"},
    "plot.hospital": {"geometry"},
    "decompose.robinson.text": {"records", "ecological"},
    "scan.robinson.text": {"detector", "scanning"},
}
# standard modules no process loads: statistics (binning has its own
# quantiles), fractions (no shipped module uses it), html (SVG labels have
# their own escape table), json (no case here writes JSON), and dataclasses
# and the inspect module it imports (the value classes are plain classes)
UNUSED = {"statistics", "fractions", "html", "json", "dataclasses", "inspect"}


def imported(result: subprocess.CompletedProcess) -> set[str]:
    """The modules a ``-X importtime`` process imported."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in result.stderr.decode().splitlines()
        if line.startswith("import time:")
    }


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

    def test_cli_import_loads_base_modules_only(self):
        result = python("-X", "importtime", "-c", "import confound.cli")
        assert result.returncode == 0, result.stderr
        loaded = imported(result)
        assert {m for m in loaded if m.split(".")[0] == "confound"} == BASE
        assert not loaded & UNUSED


@pytest.mark.parametrize("name", sorted(LOADS))
def test_fresh_process_output_and_modules(name, tmp_path):
    for fixture in DATA.glob("*.csv"):
        shutil.copy(fixture, tmp_path)
    argv, ext = CASES[name]
    argv = [a.replace("{d}", str(tmp_path)) for a in argv]
    result = python("-X", "importtime", "-m", "confound", *argv, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    produced = (
        Path(argv[argv.index("--out") + 1]).read_bytes() if ext == "svg" else result.stdout
    )
    assert produced == golden_path(name).read_bytes()
    loaded = imported(result)
    assert {m for m in loaded if m.split(".")[0] == "confound"} == BASE | {
        f"confound.{m}" for m in LOADS[name]
    }
    assert not loaded & UNUSED
