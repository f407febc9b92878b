"""``cli.main``'s exit: the same bytes and status as the interpreter's own.

``cli.main`` ends its process with ``os._exit`` once it has flushed the
standard streams and run the ``atexit`` hooks, and keeps the interpreter's
normal exit in development mode (``-X dev``), under a profiler or tracer,
and when a flush fails. Each case here runs as two fresh ``python -m
confound`` processes, one plain and one under ``-X dev``; both must give the
same stdout, stderr, written file and exit status.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from goldens import CASES, golden_path, judged, write_inputs
from support import python

# name -> (argv, exit status) of cases no golden holds: a count past the
# total, a stratum with no subjects in one group, and argparse's own errors
# and help
EXTRA = {
    "bad-input": (["analyze", "over.csv"], 2),
    "analysis-fault": (["analyze", "zero.csv"], 3),
    "argparse-error": (["analyze", "hospital.csv", "--format", "xml"], 2),
    "missing-argument": (["scan", "records.csv"], 2),
    "help": (["decompose", "--help"], 0),
}
MODES = ((), ("-X", "dev"))
# development mode is asked for by flag alone, and stdout is buffered, as
# when the tool writes into a pipe
ENV = {k: v for k, v in os.environ.items() if k not in ("PYTHONDEVMODE", "PYTHONUNBUFFERED")}
# an object whose finalizer runs only when the interpreter is torn down
TEARDOWN_PROBE = (
    "import os\n"
    "class Probe:\n"
    "    def __del__(self):\n"
    "        os.write(2, b'torn down\\n')\n"
    "probe = Probe()\n"
)


def _write_inputs(d: Path) -> None:
    write_inputs(d)
    header = "stratum,group,total,positive\n"
    (d / "over.csv").write_text(header + "s,a,5,6\ns,b,5,1\n")
    (d / "zero.csv").write_text(header + "s,a,0,0\ns,b,5,1\n")


@pytest.fixture(scope="module")
def dirs(tmp_path_factory) -> list[Path]:
    """One input directory per mode, so the written files can be compared."""
    made = [tmp_path_factory.mktemp("exit-plain"), tmp_path_factory.mktemp("exit-dev")]
    for d in made:
        _write_inputs(d)
    return made


def both(args: list[str], dirs: list[Path]):
    """The plain and the ``-X dev`` runs of ``python *args``, each in its own
    directory, run side by side; with the file each wrote to ``--out``, if
    any."""
    def one(mode, d):
        out = d / args[args.index("--out") + 1] if "--out" in args else None
        if out:
            out.unlink(missing_ok=True)
        result = python(*mode, *args, cwd=d, env=ENV)
        return result, out.read_bytes() if out and out.exists() else None

    with ThreadPoolExecutor(2) as pool:
        return list(pool.map(one, MODES, dirs))


def observed(run) -> tuple:
    result, written = run
    return result.returncode, result.stdout, result.stderr, written


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case(name, dirs):
    # paths relative to the working directory, so stderr names the same file
    argv = [a.replace("{d}/", "") for a in CASES[name][0]]
    plain, dev = both(["-m", "confound", *argv], dirs)
    assert observed(plain) == observed(dev)
    result = plain[0]
    got = judged(name, dirs[0], result.returncode, result.stdout, result.stderr.decode())
    assert got == golden_path(name).read_bytes()


@pytest.mark.parametrize("name", sorted(EXTRA))
def test_error_and_help(name, dirs):
    argv, status = EXTRA[name]
    plain, dev = both(["-m", "confound", *argv], dirs)
    assert observed(plain) == observed(dev)
    assert plain[0].returncode == status
    assert (plain[0].stdout != b"") == (name == "help")
    assert b"Traceback" not in plain[0].stderr


def test_closed_pipe(dirs):
    # the report waits in stdout's buffer until the exit flushes it into a
    # pipe no one reads: exit 120 and the interpreter's one-line report
    runs = []
    for mode, d in zip(MODES, dirs):
        read, write = os.pipe()
        os.close(read)
        try:
            args = [*mode, "-m", "confound", "analyze", "hospital.csv"]
            runs.append(python(*args, cwd=d, env=ENV, stdout=write))
        finally:
            os.close(write)
    plain, dev = runs
    assert (plain.returncode, plain.stderr) == (dev.returncode, dev.stderr)
    assert plain.returncode == 120
    assert plain.stderr.startswith(b"Exception ignored ")
    assert b"BrokenPipeError" in plain.stderr and b"Traceback" not in plain.stderr


def test_the_plain_run_skips_the_teardown(dirs):
    # the fast exit frees nothing; development mode takes the normal exit
    code = TEARDOWN_PROBE + "import runpy\nrunpy.run_module('confound', run_name='__main__')\n"
    plain, dev = both(["-c", code, "generate", "--seed", "0"], dirs)
    golden = golden_path("generate.seed0.text").read_bytes()
    assert observed(plain) == (0, golden, b"", None)
    assert observed(dev) == (0, golden, b"torn down\n", None)


def test_atexit_hooks_run(dirs):
    # a hook registered before the run runs after it, and what it writes is
    # flushed; the fast exit is still taken
    code = (
        TEARDOWN_PROBE
        + "import atexit, runpy, sys\n"
        "atexit.register(print, 'hook ran')\n"
        "sys.argv[1:] = ['generate', '--seed', '0']\n"
        "runpy.run_module('confound', run_name='__main__')\n"
    )
    result = python("-c", code, cwd=dirs[0], env=ENV)
    golden = golden_path("generate.seed0.text").read_bytes()
    assert (result.returncode, result.stdout, result.stderr) == (0, golden + b"hook ran\n", b"")


def test_a_profiler_still_reports():
    # cProfile prints its stats once the module's SystemExit reaches it
    result = python("-m", "cProfile", "-m", "confound", "generate", "--seed", "0", env=ENV)
    assert result.returncode == 0, result.stderr
    golden = golden_path("generate.seed0.text").read_bytes()
    assert result.stdout.startswith(golden)
    assert b"function calls" in result.stdout[len(golden):]
