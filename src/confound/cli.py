"""Command-line surface: the option table and each subcommand's dispatch.

Subcommands: ``analyze``, ``scan``, ``standardize``, ``decompose``,
``generate``, ``plot``. Reports go to stdout as text (default) or as JSON
conforming to ``report.schema.json``; diagnostics and errors go to stderr,
errors as one-line ``error:<code>: message``. Exit codes: 0 success,
2 malformed input, 3 analysis precondition failure.

This module holds what every process runs and the report parts several
subcommands share. Each subcommand's module under ``confound.commands``, and
the CSV reader ``confound.ingest``, load only when a subcommand runs them.
A well-formed command line is read straight from the option table,
``COMMANDS``; argparse, built from the same table, loads only to print help
or a usage error.
"""

from __future__ import annotations

import atexit
import gc
import os
import sys
from importlib import import_module
from itertools import repeat
from types import SimpleNamespace
from typing import TYPE_CHECKING, NoReturn, Sequence

from .errors import ConfoundError, InputError

if TYPE_CHECKING:
    import argparse

FORMAT_VERSION = "1"
# the reference populations of ``standardize`` and ``analyze --standardize``
REFERENCES = ("combined", "first", "second", "equal")

# the public names other modules define, each with its module: they resolve
# on use (PEP 562), so importing this module loads none of them
_MOVED = {
    name: module
    for module, names in {
        "tables": ("TABLE_HEADER",),
        "ingest": ("parse_records_csv", "parse_table_csv"),
        "commands.analyze": ("build_analyze_report", "render_analyze_text"),
        "commands.decompose": ("build_decompose_report", "render_decompose_text"),
        "commands.generate": ("build_generate_report", "serialize_table_csv"),
        "commands.scan": ("build_scan_report", "render_scan_text"),
        "commands.standardize": ("build_standardize_report", "render_standardize_text"),
    }.items()
    for name in names
}


def __getattr__(name: str):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__package__}.{_MOVED[name]}"), name)


def _reversal_json(report) -> dict:
    return {
        "classification": report.classification.value,
        "aggregate_direction": report.aggregate_direction.value,
        "majority_direction": report.majority_direction.value,
        "stratum_directions": [
            [label, d.value] for label, d in report.stratum_directions
        ],
    }


def _color_enabled() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _bold(s: str, color: bool) -> str:
    return f"\033[1m{s}\033[0m" if color else s


def _columns(rows: list[tuple[str, ...]]) -> list[str]:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return [
        "  ".join(field.ljust(w) for field, w in zip(row, widths)).rstrip()
        for row in rows
    ]


def _json_dumps(doc) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, for what reports hold:
    dicts with str keys, lists, tuples, str, int, float, bool and None. Any
    other type is a TypeError. It is written without the pure-Python encoder
    that ``indent`` selects, by one rule: the items of a list are one column.

    A column of one scalar type is one ``map``; a column of dicts with the
    same keys in the same order, or of two or more lists or tuples of one
    type and length, is one %-template over its fields, each field a column
    in turn. Any other column writes each of its values alone. Every item of
    a list then fills the list's template once."""
    try:  # the C quoter that json.encoder re-exports, without the json package
        from _json import encode_basestring_ascii as quote
    except ImportError:  # an interpreter without the C accelerator
        from json.encoder import encode_basestring_ascii as quote

    floats = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
    bools = {True: "true", False: "false"}

    def column(values, indent: str) -> tuple[str, list]:
        """The %-template and the formatted cell columns that write each of
        ``values`` at ``indent``."""
        t, *mixed = set(map(type, values))
        if (
            mixed
            or t is dict and len(set(map(tuple, values))) > 1
            or (t is list or t is tuple) and (len(values) < 2 or len(set(map(len, values))) > 1)
        ):
            return "%s", [list(map(alone, values, repeat(indent)))]
        if t is str:
            return "%s", [list(map(quote, values))]
        if t is int:
            return "%s", [list(map(int.__repr__, values))]
        if t is float:
            texts = list(map(float.__repr__, values))
            return "%s", [list(map(floats.get, texts, texts))]
        if t is bool:
            return "%s", [list(map(bools.__getitem__, values))]
        if values[0] is None:
            return "null", []
        if t is dict:
            names = [quote(k).replace("%", "%%") + ": " for k in values[0]]
            fields = zip(*map(dict.values, values))
        elif t is list or t is tuple:
            names = [""] * len(values[0])
            fields = zip(*values)
        else:
            raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
        if not names:
            return "{}" if t is dict else "[]", []
        inner = indent + "  "
        templates, cells = [], []
        for name, field in zip(names, fields):
            template, field_cells = column(field, inner)
            templates.append(name + template)
            cells += field_cells
        body = inner + ("," + inner).join(templates) + indent
        return ("{" + body + "}" if t is dict else "[" + body + "]"), cells

    def alone(value, indent: str) -> str:
        """``value`` written at ``indent``."""
        if type(value) is list or type(value) is tuple:
            if not value:
                return "[]"
            inner = indent + "  "
            template, cells = column(value, inner)
            rows = zip(*cells) if cells else repeat((), len(value))
            items = ("," + inner).join(map(template.__mod__, rows))
            return "".join(("[", inner, items, indent, "]"))
        template, cells = column([value], indent)
        return template % next(zip(*cells), ())

    return alone(doc, "\n")


def _emit(ns: argparse.Namespace, doc: dict, text_renderer) -> int:
    if ns.format == "json":
        # apart, so no copy of the document holds the line end too
        sys.stdout.write(_json_dumps(doc))
        sys.stdout.write("\n")
    else:
        sys.stdout.write(text_renderer(doc, color=_color_enabled()))
    return 0


def _cmd_analyze(ns: argparse.Namespace) -> int:
    from .commands.analyze import run
    return run(ns)


def _cmd_standardize(ns: argparse.Namespace) -> int:
    from .commands.standardize import run
    return run(ns)


def _cmd_scan(ns: argparse.Namespace) -> int:
    from .commands.scan import run
    return run(ns)


def _cmd_decompose(ns: argparse.Namespace) -> int:
    from .commands.decompose import run
    return run(ns)


def _cmd_generate(ns: argparse.Namespace) -> int:
    from .commands.generate import run
    return run(ns)


def _cmd_plot(ns: argparse.Namespace) -> int:
    from .commands.plot import run
    return run(ns)


# each subcommand, in order: its help line and its add_argument calls as
# (name, keywords), in order; every subcommand but plot prints a report, and
# --format is its last option
_FORMAT = (
    "--format",
    dict(choices=("text", "json"), default="text", help="report format (default: text)"),
)
COMMANDS = {
    "analyze": ("classify a table CSV for reversal", (
        ("table", dict(help="table CSV (stratum,group,total,positive)")),
        ("--standardize", dict(
            choices=REFERENCES, default=None, metavar="REF",
            help="also report the standardized comparison under this reference",
        )),
        ("--allow-tied-strata", dict(action="store_true")),
        _FORMAT,
    )),
    "standardize": ("reference-weighted comparison of a table CSV", (
        ("table", {}),
        ("--reference", dict(choices=REFERENCES, default="combined")),
        _FORMAT,
    )),
    "scan": ("scan record-level data for reversal-inducing covariates", (
        ("records", dict(help="records CSV with a header row")),
        ("--group-col", dict(required=True)),
        ("--outcome-col", dict(required=True)),
        ("--candidates", dict(required=True, help="comma-separated covariate column names")),
        ("--numeric", dict(default=None, help="comma-separated columns to parse as numbers")),
        ("--binning", dict(choices=("quantile", "equal_width"), default="quantile")),
        ("--bins", dict(type=int, default=4)),
        ("--min-stratum-size", dict(type=int, default=1)),
        ("--groups", dict(
            default=None, metavar="G1,G2",
            help="restrict to these two group values when the column has more",
        )),
        ("--allow-tied-strata", dict(action="store_true")),
        _FORMAT,
    )),
    "decompose": ("between/within association decomposition", (
        ("records", {}),
        ("--group-col", dict(required=True)),
        ("--x", dict(required=True, help="numeric x column")),
        ("--y", dict(required=True, help="numeric y column")),
        _FORMAT,
    )),
    "generate": ("emit a synthetic full-reversal table", (
        ("--strata", dict(type=int, default=2)),
        ("--scale", dict(type=int, default=80)),
        ("--seed", dict(type=int, default=0)),
        _FORMAT,
    )),
    "plot": ("render the vector diagram of a table CSV to SVG", (
        ("table", {}),
        ("--out", dict(required=True, help="output SVG path")),
        ("--width", dict(type=int, default=640)),
        ("--height", dict(type=int, default=480)),
        ("--fan-only", dict(
            action="store_true",
            help="draw stratum chords from the origin only, without the "
            "terminal-anchored copies",
        )),
    )),
}


def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser of :data:`COMMANDS`: it reads what
    :func:`_read_argv` declines, and prints the help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="confound",
        description=(
            "Detect aggregation reversals in stratified two-group comparisons, "
            "scan records for confounders, standardize rates, decompose "
            "ecological associations, and plot the vector diagram."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=globals()[f"_cmd_{name}"])
        for argument, keywords in arguments:
            p.add_argument(argument, **keywords)
    return parser


def _read_argv(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace ``_build_parser().parse_args(argv)`` gives, read from
    :data:`COMMANDS` without argparse; None where argparse may read ``argv``
    otherwise or would refuse it.

    It takes an exact subcommand name, then exact option names, each
    ``store`` option followed by a value that does not start with ``-``,
    converted by its ``type`` as argparse converts it and one of its
    ``choices``; every other token fills the next positional. Anything else
    (``-h``, an abbreviation, ``--opt=value``, ``--``, a negative number, a
    bad value, a missing or an extra token) is left to argparse."""
    if not argv or argv[0] not in COMMANDS:
        return None
    command = argv[0]
    values = {"command": command, "func": globals()[f"_cmd_{command}"]}
    options, positionals, required = {}, [], set()
    for argument, keywords in COMMANDS[command][1]:
        if not argument.startswith("-"):
            positionals.append(argument)
            continue
        dest = argument[2:].replace("-", "_")
        options[argument] = dest, keywords
        if keywords.get("required"):
            required.add(argument)
        values[dest] = (
            False if keywords.get("action") == "store_true" else keywords.get("default")
        )
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in options:
            if token.startswith("-") or not positionals:
                return None
            values[positionals.pop(0)] = token
            continue
        dest, keywords = options[token]
        required.discard(token)
        if keywords.get("action") == "store_true":
            values[dest] = True
            continue
        value = next(tokens, "-")  # a missing value is declined as a "-" is
        if value.startswith("-"):
            return None
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ValueError:
                return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[dest] = value
    if positionals or required:
        return None
    return SimpleNamespace(**values)


def run(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand; returns the exit code instead of raising."""
    if argv is None:
        argv = sys.argv[1:]
    ns = _read_argv(argv)
    if ns is None:
        try:
            ns = _build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse already reported to stderr
            return exc.code if isinstance(exc.code, int) else 2
    try:
        return ns.func(ns)
    except ConfoundError as exc:
        print(f"error:{exc.code}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 3
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    # a run leaves only a few hundred objects in cycles (the argument
    # parser's, when argparse reads the command line), and the cyclic
    # collector would otherwise walk the containers a records file fills,
    # time and again, while they are built; run() itself leaves the
    # collector as it finds it
    gc.disable()
    _exit(run(sys.argv[1:]))


def _exit(code: int) -> NoReturn:
    """End the process with ``code`` without tearing the interpreter down.

    The normal exit frees every module and object one by one, which costs
    about as much as a small run's analysis. Here the standard streams are
    flushed and the ``atexit`` hooks run (so coverage and the like still
    save their data), then the process ends at once. The normal exit is kept
    when a flush fails, so a closed pipe still ends with exit 120 and the
    interpreter's one-line report; under a profiler or tracer, which reports
    at the end; and in development mode, which warns at the end.
    """
    # from Python 3.12, cProfile and other tools register with sys.monitoring
    # (tool ids 0 to 5) rather than through setprofile or settrace
    monitoring = getattr(sys, "monitoring", None)
    watched = sys.gettrace() or sys.getprofile() or (
        monitoring and any(map(monitoring.get_tool, range(6)))
    )
    if not (watched or sys.flags.dev_mode):
        try:
            _flush()
            atexit._run_exitfuncs()
            _flush()  # what a hook wrote
        except Exception:  # the normal exit flushes again and reports it
            pass
        else:
            os._exit(code)
    sys.exit(code)


def _flush() -> None:
    sys.stdout.flush()
    sys.stderr.flush()
