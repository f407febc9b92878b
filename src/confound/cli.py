"""Command-line surface: CSV ingestion, analysis reports, SVG plotting.

Subcommands: ``analyze``, ``scan``, ``standardize``, ``decompose``,
``generate``, ``plot``. Reports go to stdout as text (default) or as JSON
conforming to ``report.schema.json``; diagnostics and errors go to stderr,
errors as one-line ``error:<code>: message``. Exit codes: 0 success,
2 malformed input, 3 analysis precondition failure.

Table CSVs use the fixed header ``stratum,group,total,positive`` (comma
separated, double-quote escaping, no comment lines) so golden files are
bit-exact. Record CSVs have a free-form header; schema flags decide which
columns are numeric and which hold a boolean outcome.
"""

from __future__ import annotations

import argparse
import atexit
import csv
import gc
import io
import math
import os
import sys
from contextlib import contextmanager
from itertools import islice, product, repeat
from operator import itemgetter, le
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn, Sequence

from .errors import (
    BadCount,
    BadHeader,
    BadOutcomeValue,
    ConfoundError,
    CsvError,
    DuplicateCell,
    EmptyData,
    InputError,
    MissingCell,
    NonNumeric,
    NotTwoGroups,
    RaggedRow,
    UnknownColumn,
    ValidationError,
)
from .tables import StratifiedComparison, _pair, escaped, percent

# the analysis modules are imported where a subcommand first needs them, so a
# process loads only what its subcommand runs
if TYPE_CHECKING:
    from .records import RecordTable

TABLE_HEADER = ("stratum", "group", "total", "positive")
FORMAT_VERSION = "1"
# the reference populations of ``standardize`` and ``analyze --standardize``
REFERENCES = ("combined", "first", "second", "equal")
# boolean cells, matched case-insensitively
LEXICON = {
    "1": True, "true": True, "yes": True, "0": False, "false": False, "no": False
}
# every ASCII casing of each lexicon word, so a boolean cell is typed with one
# lookup; no non-ASCII text lowers into a lexicon word, so this is the whole rule
_CASINGS = {
    "".join(chars): value
    for word, value in LEXICON.items()
    for chars in product(*({c, c.upper()} for c in word))
}
# the interpreter converts ints of at most 4,300 digits to text by default;
# 300 digits of headroom keep every sum of a file's counts printable
MAX_COUNT_DIGITS = 4000
# both CSV kinds are read and typed one block at a time, so peak memory holds
# one block's raw cells rather than the whole file's: CHUNK_ROWS rows where
# the csv module reads the file, and the lines up to the first line end past
# BLOCK_CHARS characters where the text is split directly
CHUNK_ROWS = 1024
BLOCK_CHARS = 1 << 16


# ---------------------------------------------------------------------------
# CSV ingestion


@contextmanager
def _csv_errors(reader):
    """The csv module's own errors (a bare carriage return inside a line, a
    field over its size limit) as :class:`CsvError` at the reader's line."""
    try:
        yield
    except csv.Error as exc:
        raise CsvError(str(exc), reader.line_num) from None


def parse_table_csv(text: str) -> StratifiedComparison:
    """Parse an aggregated table CSV into a StratifiedComparison.

    Strata and groups keep their order of first appearance. Every
    (stratum, group) pair must appear exactly once and there must be
    exactly two group values. The text is read and typed block by block
    as :func:`parse_records_csv` reads it; a block with a fault is re-read
    row by row for the first error.
    """
    blocks = _blocks(text)
    header = next(blocks)
    if tuple(header) != TABLE_HEADER:
        raise BadHeader(
            f"expected header {','.join(TABLE_HEADER)!r}, got {','.join(header)!r}",
            line=1,
        )

    cells: dict[tuple[str, str], tuple[int, int]] = {}
    kinds = ("categorical", "categorical", "count", "count")
    typed = _typed_blocks(blocks, kinds, lambda _: _raise_first_table_error(text))
    for strata, groups, totals, positives in typed:
        size = len(cells)
        cells.update(zip(zip(strata, groups), zip(totals, positives)))
        # a repeated cell, or positive above total
        if len(cells) != size + len(totals) or not all(map(le, positives, totals)):
            _raise_first_table_error(text)

    # cells keeps row order, so these keep the order of first appearance
    strata_order = list(dict.fromkeys(map(itemgetter(0), cells)))
    groups_order = list(dict.fromkeys(map(itemgetter(1), cells)))
    if len(groups_order) != 2:
        raise NotTwoGroups(
            f"expected exactly two group values, found {len(groups_order)}: "
            f"{groups_order}"
        )
    first, second = groups_order
    if len(cells) != 2 * len(strata_order):
        for stratum, group in product(strata_order, (first, second)):
            if (stratum, group) not in cells:
                raise MissingCell(f"stratum {stratum!r} has no row for group {group!r}")
    t1, p1 = zip(*map(cells.__getitem__, zip(strata_order, repeat(first))))
    t2, p2 = zip(*map(cells.__getitem__, zip(strata_order, repeat(second))))
    return StratifiedComparison._of_columns(first, second, strata_order, t1, p1, t2, p2)


def _raise_first_table_error(text: str) -> None:
    """Re-read a table CSV row by row from its first row and raise the first
    bad row's error: a ragged row, a bad count, positive above total, then a
    duplicate cell."""
    seen = set()
    for line, (stratum, group, total, positive) in _typed_rows(
        text, 1, TABLE_HEADER, ("categorical", "categorical", "count", "count")
    ):
        try:
            _pair(total, positive)
        except ValidationError as exc:  # positive above total
            raise BadCount(str(exc), line) from None
        if (stratum, group) in seen:
            raise DuplicateCell(
                f"duplicate cell for stratum {stratum!r}, group {group!r}", line
            )
        seen.add((stratum, group))


def serialize_table_csv(sc: StratifiedComparison) -> str:
    """Inverse of :func:`parse_table_csv` (parse -> serialize -> parse is id)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TABLE_HEADER)
    for label, t1, p1, t2, p2 in zip(*sc._columns):
        writer.writerow([label, sc.group_first_label, t1, p1])
        writer.writerow([label, sc.group_second_label, t2, p2])
    return buf.getvalue()


def parse_records_csv(
    text: str,
    *,
    numeric_columns: Sequence[str] = (),
    boolean_columns: Sequence[str] = (),
) -> RecordTable:
    """Parse row-level records; undeclared columns are categorical text.

    Boolean cells are matched case-insensitively against the true/false
    lexicon (1/0, true/false, yes/no). Text with no double quote, carriage
    return or NUL is split on line ends and commas directly; any other text
    is read by the ``csv`` module. Both read one grammar and raise the same
    errors.
    """
    from .records import Column, RecordTable

    blocks = _blocks(text)
    header = next(blocks)
    kinds = _record_kinds(header, numeric_columns, boolean_columns)
    columns = tuple(map(Column, header, kinds))
    data: list[list] = [[] for _ in columns]
    # a faulty block's rows, re-read up to the first bad one, which raises
    typed = _typed_blocks(
        blocks, kinds, lambda start: list(_typed_rows(text, start, header, kinds))
    )
    # repeated categorical labels share one string, with one entry per
    # distinct label until parsing ends
    memos = [{} if kind == "categorical" else None for kind in kinds]
    for block in typed:
        for values, column, memo in zip(data, block, memos):
            values.extend(column if memo is None else map(memo.setdefault, column, column))
    return RecordTable._of(columns, len(data[0]), tuple(data))


def _record_kinds(
    header: Sequence[str], numeric_columns: Sequence[str], boolean_columns: Sequence[str]
) -> list[str]:
    """Each column's kind (undeclared columns are categorical), after the
    header's checks: unique non-empty names, declared columns present, and
    none declared both numeric and boolean."""
    if not header or len(set(header)) != len(header) or any(not h for h in header):
        raise BadHeader(f"column names must be unique and non-empty: {header}", line=1)
    for name in (*numeric_columns, *boolean_columns):
        if name not in header:
            raise UnknownColumn(f"declared column {name!r} is not in the header")
    if set(numeric_columns) & set(boolean_columns):
        raise ValidationError(
            f"columns declared both numeric and boolean: "
            f"{sorted(set(numeric_columns) & set(boolean_columns))}"
        )
    declared = {
        **dict.fromkeys(numeric_columns, "numeric"),
        **dict.fromkeys(boolean_columns, "boolean"),
    }
    return [declared.get(name, "categorical") for name in header]


def _csv_blocks(text: str):
    """The header row, then each block of up to ``CHUNK_ROWS`` rows as
    ``(rows read, non-blank rows, cells column by column)``, with ``None``
    for the cells when a non-blank row is not as wide as the header."""
    reader = csv.reader(io.StringIO(text))
    with _csv_errors(reader):
        header = next(reader, None)
    if header is None:
        raise EmptyData("file is empty")
    yield header
    while chunk := list(islice(reader, CHUNK_ROWS)):
        rows = [row for row in chunk if row]
        aligned = set(map(len, rows)) <= {len(header)}
        yield len(chunk), len(rows), list(zip(*rows)) if aligned else None


def _blocks(text: str):
    """The header row and blocks of :func:`_csv_blocks`. Text with a double
    quote, carriage return or NUL, or a header over the csv module's field
    size limit, is read by that function; other text directly, each line one
    row. The lines up to the first line end past each ``BLOCK_CHARS``
    characters are one block, split once into cells with a NUL cell between
    rows; the rows are all as wide as the header exactly when every row's
    last cell is followed by a NUL cell. A block with a field over the csv
    module's field size limit has ``None`` for its cells, so the csv module
    re-reads it and raises its error for that field."""
    if not text:
        raise EmptyData("file is empty")
    limit = csv.field_size_limit()
    end = text.find("\n")
    first = text[:end] if end >= 0 else text
    if '"' in text or "\r" in text or "\0" in text or len(first) > limit:
        yield from _csv_blocks(text)
        return
    header = first.split(",") if first else []
    yield header
    width = len(header)
    stride = width + 1
    pos = len(first) + 1
    while pos < len(text):
        end = text.find("\n", pos + BLOCK_CHARS)
        if end < 0:  # the last block; a final line end ends no further line
            end = len(text) - text.endswith("\n")
        block = text[pos:end]
        pos = end + 1
        lines = block.count("\n") + 1
        if "\n\n" in block or block[:1] == "\n" or block[-1:] == "\n":
            block = "\n".join(filter(None, block.split("\n")))  # blank lines
        rows = block.count("\n") + 1 if block else 0
        cells = block.replace("\n", ",\0,").split(",") if block else []
        if len(block) > limit and max(map(len, cells)) > limit:
            yield lines, rows, None
            continue
        aligned = not rows or (
            len(cells) == rows * stride - 1
            and cells[width::stride].count("\0") == rows - 1
        )
        yield lines, rows, [cells[j::stride] for j in range(width)] if aligned else None


def _typed_blocks(blocks, kinds: Sequence[str], report):
    """Each block of ``blocks`` that holds a row, as columns typed by
    :func:`_typed_column`. A block with a bad cell or a ragged row, or a csv
    module fault, goes to ``report(rows read before it)``, which raises the
    first bad row's error; no rows: EmptyData."""
    read = 1  # rows read, header and blank lines included
    n_rows = 0
    try:
        for lines, rows, cells in blocks:
            if rows:
                typed = None
                if cells is not None:
                    typed = list(map(_typed_column, kinds, cells))
                if typed is None or str in map(type, typed):
                    report(read)
                yield typed
            read += lines
            n_rows += rows
    except csv.Error:  # a row of this block before the csv module's fault may be bad
        report(read)
        raise
    if not n_rows:
        raise EmptyData("no data rows after the header")


def _typed_column(kind: str, cells: Sequence[str]) -> Sequence | str:
    """One block of one column's cells as typed values, or the fault of a
    bad cell; categorical cells as read. A scan reads its numeric columns as
    ``numeric text``: the cells as read, checked as ``numeric`` is."""
    if kind == "count":
        # ASCII digits only: int() would also take "1_000", " 5", "+5" and "٣",
        # which serialize back differently; at most MAX_COUNT_DIGITS of them,
        # and 300 fewer than a lowered int-to-text limit (0 means none)
        joined = "".join(cells)
        if "" in cells or not (joined.isascii() and joined.isdigit()):
            return "is not a non-negative integer"
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        cap = min(MAX_COUNT_DIGITS, limit - 300) if limit else MAX_COUNT_DIGITS
        longest = max(map(len, cells))
        if longest > cap:
            return f"has {longest} digits, more than {cap}"
        return list(map(int, cells))
    if kind in ("numeric", "numeric text"):
        # a scan converts each distinct number once, after counting, so its
        # blocks are checked on their distinct texts and kept as read
        numbers = cells if kind == "numeric" else set(cells)
        try:
            values = list(map(float, numbers))
        except ValueError:
            return "is not a number"
        if not all(map(math.isfinite, values)):
            return "is not finite"
        return values if kind == "numeric" else cells
    if kind == "boolean":
        values = list(map(_CASINGS.get, cells))
        return "is not in the true/false lexicon" if None in values else values
    return cells


def _typed_rows(text: str, start: int, names: Sequence[str], kinds: Sequence[str]):
    """``(physical line, typed row)`` for each non-blank row of ``text`` from
    reader row ``start`` on, read by the ``csv`` module with each cell typed
    alone by :func:`_typed_column`. The first ragged row or bad cell raises
    its error; a csv fault is a :class:`CsvError`."""
    reader = csv.reader(io.StringIO(text))
    with _csv_errors(reader):
        for row in filter(None, islice(reader, start, None)):
            line = reader.line_num
            if len(row) != len(names):
                raise RaggedRow(f"expected {len(names)} fields, got {len(row)}", line)
            typed = []
            for name, kind, cell in zip(names, kinds, row):
                value = _typed_column(kind, (cell,))
                if not isinstance(value, str):
                    typed.append(value[0])
                elif kind == "count":  # the table's forms: no cell for too many digits
                    shown = "" if value.startswith("has") else f" {cell!r}"
                    raise BadCount(f"{name}{shown} {value}", line)
                else:
                    error = NonNumeric if kind == "numeric" else BadOutcomeValue
                    raise error(f"column {name!r}: {cell!r} {value}", line)
            yield line, typed


# ---------------------------------------------------------------------------
# Report documents (shared by the text and JSON emitters, so both always
# carry the same classification)


def _cell_json(total: int, positive: int) -> dict:
    return {"total": total, "positive": positive, "percent": percent(positive, total)}


def _groups_json(sc: StratifiedComparison) -> dict:
    return {"first": sc.group_first_label, "second": sc.group_second_label}


def _pooled_json(sc: StratifiedComparison) -> dict:
    t1, p1, t2, p2 = map(sum, sc._columns[1:])
    return {"first": _cell_json(t1, p1), "second": _cell_json(t2, p2)}


def _reversal_json(report) -> dict:
    return {
        "classification": report.classification.value,
        "aggregate_direction": report.aggregate_direction.value,
        "majority_direction": report.majority_direction.value,
        "stratum_directions": [
            [label, d.value] for label, d in report.stratum_directions
        ],
    }


def _standardized_json(sc: StratifiedComparison, reference: str) -> dict:
    from .standardize import _weights_and_comparison

    weights, comp = _weights_and_comparison(sc, reference)
    return {
        "reference": reference,
        "weights": [[label, w] for label, w in weights.weights],
        "rate_first": comp.rate_first,
        "rate_second": comp.rate_second,
        "direction": comp.direction.value,
    }


def build_analyze_report(
    sc: StratifiedComparison,
    *,
    standardize_ref: str | None = None,
    allow_tied_strata: bool = False,
) -> dict:
    from .detector import detect_reversal

    report = detect_reversal(sc, allow_tied_strata=allow_tied_strata)
    pooled = _pooled_json(sc)
    _, t1, p1, t2, p2 = sc._columns
    firsts, seconds = map(_cell_json, t1, p1), map(_cell_json, t2, p2)
    return {
        "format_version": FORMAT_VERSION,
        "command": "analyze",
        "input": {
            "strata": len(t1),
            "cells": 2 * len(t1),
            "subjects": pooled["first"]["total"] + pooled["second"]["total"],
        },
        "groups": _groups_json(sc),
        "rates": {
            "strata": [
                {"stratum": label, "first": first, "second": second, "direction": d.value}
                for (label, d), first, second in zip(report.stratum_directions, firsts, seconds)
            ],
            "aggregate": {**pooled, "direction": report.aggregate_direction.value},
        },
        "reversal": _reversal_json(report),
        "standardized": (
            _standardized_json(sc, standardize_ref) if standardize_ref else None
        ),
    }


def build_standardize_report(sc: StratifiedComparison, reference: str) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "command": "standardize",
        "groups": _groups_json(sc),
        "pooled": _pooled_json(sc),
        "standardized": _standardized_json(sc, reference),
    }


def build_scan_report(records, candidates: Sequence[str], results) -> dict:
    """The scan report over the ``records.n_rows`` rows scanned: those of a
    :class:`RecordTable`, or those a scan's tally kept."""
    from .scanning import Finding

    return {
        "format_version": FORMAT_VERSION,
        "command": "scan",
        "input": {"rows": records.n_rows, "candidates": list(candidates)},
        "findings": [
            {
                "covariate": r.covariate,
                "binning": r.binning,
                "stratum_sizes": list(r.stratum_sizes),
                "report": _reversal_json(r.report),
            }
            for r in results
            if isinstance(r, Finding)
        ],
        "skipped": [
            {"covariate": r.covariate, "reason": r.reason, "detail": r.detail}
            for r in results
            if not isinstance(r, Finding)
        ],
    }


def build_decompose_report(records: RecordTable, group_col, x_col, y_col) -> dict:
    from .ecological import decompose, sign_divergence_report

    d = decompose(records, group_col, x_col, y_col)
    divergence = None
    if d.between_corr is not None and d.within_corr is not None:
        rep = sign_divergence_report(d)
        divergence = {
            "verdict": rep.verdict,
            "between_corr": rep.between_corr,
            "within_corr": rep.within_corr,
        }
    return {
        "format_version": FORMAT_VERSION,
        "command": "decompose",
        "convention": "population",
        "input": {"rows": records.n_rows, "groups": len(d.group_summaries)},
        "covariance": {
            "total": d.total_cov,
            "between": d.between_cov,
            "within": d.within_cov,
        },
        "correlation": {
            "total": d.total_corr,
            "between": d.between_corr,
            "within": d.within_corr,
        },
        "groups": [
            {"label": g.label, "n": g.n, "mean_x": g.mean_x, "mean_y": g.mean_y}
            for g in d.group_summaries
        ],
        "divergence": divergence,
    }


def build_generate_report(sc: StratifiedComparison, k: int, scale: int, seed: int) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "command": "generate",
        "seed": seed,
        "strata": k,
        "scale": scale,
        "table": {
            "group_first": sc.group_first_label,
            "group_second": sc.group_second_label,
            "strata": [
                {
                    "label": label,
                    "first": {"total": t1, "positive": p1},
                    "second": {"total": t2, "positive": p2},
                }
                for label, t1, p1, t2, p2 in zip(*sc._columns)
            ],
        },
        "table_csv": serialize_table_csv(sc),
    }


# ---------------------------------------------------------------------------
# Text rendering


def _color_enabled() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _bold(s: str, color: bool) -> str:
    return f"\033[1m{s}\033[0m" if color else s


def _dir_text(direction: str, first: str, second: str) -> str:
    if direction == "TIE":
        return "tie"
    return f"{first} higher" if direction == "FIRST_HIGHER" else f"{second} higher"


def _cell_text(cell: dict) -> str:
    return f"{cell['positive']}/{cell['total']} ({cell['percent']})"


def _columns(rows: list[tuple[str, ...]]) -> list[str]:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return [
        "  ".join(field.ljust(w) for field, w in zip(row, widths)).rstrip()
        for row in rows
    ]


def _pct(v: float) -> str:
    return f"{100.0 * v:.3f}%"


def _groups_text(doc: dict) -> tuple[str, str, str]:
    """The two group labels as printed, and the "groups:" line naming them."""
    g1, g2 = escaped(doc["groups"]["first"]), escaped(doc["groups"]["second"])
    return g1, g2, f"groups: first={g1}  second={g2}"


def render_analyze_text(doc: dict, color: bool = False) -> str:
    g1, g2, groups = _groups_text(doc)
    lines = [
        f"table: {doc['input']['strata']} strata x 2 groups, "
        f"{doc['input']['subjects']} subjects",
        groups,
        "",
    ]
    rates = doc["rates"]
    rows = [("stratum", g1, g2, "direction")]
    for r in [*rates["strata"], {"stratum": "aggregate", **rates["aggregate"]}]:
        rows.append(
            (
                escaped(r["stratum"]),
                _cell_text(r["first"]),
                _cell_text(r["second"]),
                _dir_text(r["direction"], g1, g2),
            )
        )
    lines.extend(_columns(rows))
    lines.append("")
    lines.append(
        f"classification: {_bold(doc['reversal']['classification'], color)}"
    )
    lines.append(
        "majority stratum direction: "
        f"{_dir_text(doc['reversal']['majority_direction'], g1, g2)}"
    )
    if doc.get("standardized"):
        lines.append("")
        lines.append(_standardized_text(doc["standardized"], g1, g2))
    return "\n".join(lines) + "\n"


def _standardized_text(s: dict, g1: str, g2: str) -> str:
    return (
        f"standardized (reference={s['reference']}): "
        f"{g1} {_pct(s['rate_first'])}  {g2} {_pct(s['rate_second'])}  "
        f"-> {_dir_text(s['direction'], g1, g2)}"
    )


def render_standardize_text(doc: dict, color: bool = False) -> str:
    g1, g2, groups = _groups_text(doc)
    pooled = doc["pooled"]
    s = doc["standardized"]
    lines = [
        groups,
        f"pooled: {g1} {_cell_text(pooled['first'])}  "
        f"{g2} {_cell_text(pooled['second'])}",
        _standardized_text(s, g1, g2),
        "weights: " + "  ".join(f"{escaped(label)}={w:.6f}" for label, w in s["weights"]),
    ]
    return "\n".join(lines) + "\n"


def render_scan_text(doc: dict, color: bool = False) -> str:
    lines = [
        f"scanned {len(doc['input']['candidates'])} candidates over "
        f"{doc['input']['rows']} rows"
    ]
    if doc["findings"]:
        rows = [("covariate", "classification", "strata", "sizes", "binning")]
        for f in doc["findings"]:
            rows.append(
                (
                    escaped(f["covariate"]),
                    f["report"]["classification"],
                    str(len(f["stratum_sizes"])),
                    ",".join(str(n) for n in f["stratum_sizes"]),
                    f["binning"],
                )
            )
        lines.append("")
        lines.extend(_columns(rows))
    for s in doc["skipped"]:
        lines.append(
            f"skipped: {escaped(s['covariate'])} ({s['reason']}): {escaped(s['detail'])}"
        )
    return "\n".join(lines) + "\n"


def render_decompose_text(doc: dict, color: bool = False) -> str:
    def corr(v):
        return "undefined" if v is None else f"{v:+.4f}"

    cov = doc["covariance"]
    cor = doc["correlation"]
    lines = [
        f"ecological decomposition ({doc['convention']} convention), "
        f"{doc['input']['rows']} rows in {doc['input']['groups']} groups",
        "",
    ]
    rows = [("group", "n", "mean_x", "mean_y")]
    for g in doc["groups"]:
        rows.append(
            (escaped(g["label"]), str(g["n"]), f"{g['mean_x']:.6f}", f"{g['mean_y']:.6f}")
        )
    lines.extend(_columns(rows))
    lines.append("")
    lines.append(
        f"covariance: total {cov['total']:+.6f} = "
        f"between {cov['between']:+.6f} + within {cov['within']:+.6f}"
    )
    lines.append(
        f"correlation: total {corr(cor['total'])}  between {corr(cor['between'])}  "
        f"within {corr(cor['within'])}"
    )
    if doc["divergence"] is None:
        lines.append("divergence: undefined (a correlation has zero variance)")
    else:
        lines.append(f"divergence: {_bold(doc['divergence']['verdict'], color)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise CsvError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None


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
            return "[" + inner + ("," + inner).join(map(template.__mod__, rows)) + indent + "]"
        template, cells = column([value], indent)
        return template % next(zip(*cells), ())

    return alone(doc, "\n")


def _emit(ns: argparse.Namespace, doc: dict, text_renderer) -> int:
    if ns.format == "json":
        sys.stdout.write(_json_dumps(doc) + "\n")
    else:
        sys.stdout.write(text_renderer(doc, color=_color_enabled()))
    return 0


def _split_list(raw: str | None) -> list[str]:
    if not raw:
        return []
    return [part.strip() for part in raw.split(",") if part.strip()]


def _cmd_analyze(ns: argparse.Namespace) -> int:
    sc = parse_table_csv(_read_text(ns.table))
    doc = build_analyze_report(
        sc,
        standardize_ref=ns.standardize,
        allow_tied_strata=ns.allow_tied_strata,
    )
    return _emit(ns, doc, render_analyze_text)


def _cmd_standardize(ns: argparse.Namespace) -> int:
    sc = parse_table_csv(_read_text(ns.table))
    doc = build_standardize_report(sc, ns.reference)
    return _emit(ns, doc, render_standardize_text)


def _cmd_scan(ns: argparse.Namespace) -> int:
    from .scanning import ScanConfig, _findings, _Tally

    # the options are checked before the records are read
    config = ScanConfig(
        binning=ns.binning,
        bins=ns.bins,
        min_stratum_size=ns.min_stratum_size,
        allow_tied_strata=ns.allow_tied_strata,
    )
    candidates = _split_list(ns.candidates)
    text = _read_text(ns.records)
    blocks = _blocks(text)
    header = next(blocks)
    kinds = _record_kinds(header, _split_list(ns.numeric), (ns.outcome_col,))
    # each block is counted as it is read, with its labels and numbers as read
    as_read = [{"numeric": "numeric text"}.get(k, k) for k in kinds]
    typed = _typed_blocks(
        blocks, as_read, lambda start: list(_typed_rows(text, start, header, kinds))
    )
    keep = _split_list(ns.groups) if ns.groups else None
    tally = _Tally(dict(zip(header, kinds)), ns.group_col, ns.outcome_col, candidates, keep)
    for block in typed:
        tally.add(block)
    results = _findings(tally, config)
    return _emit(ns, build_scan_report(tally, candidates, results), render_scan_text)


def _cmd_decompose(ns: argparse.Namespace) -> int:
    records = parse_records_csv(
        _read_text(ns.records), numeric_columns=(ns.x, ns.y)
    )
    doc = build_decompose_report(records, ns.group_col, ns.x, ns.y)
    return _emit(ns, doc, render_decompose_text)


def _cmd_generate(ns: argparse.Namespace) -> int:
    from .synth import generate_reversal

    sc = generate_reversal(ns.strata, ns.scale, ns.seed)
    if ns.format == "json":
        doc = build_generate_report(sc, ns.strata, ns.scale, ns.seed)
        sys.stdout.write(_json_dumps(doc) + "\n")
    else:
        sys.stdout.write(serialize_table_csv(sc))
    return 0


def _cmd_plot(ns: argparse.Namespace) -> int:
    from .geometry import RenderOptions, render_svg, to_vectors

    # the sizes are checked before the table is read
    options = RenderOptions(
        width=ns.width,
        height=ns.height,
        parallelogram=not ns.fan_only,
    )
    sc = parse_table_csv(_read_text(ns.table))
    svg = render_svg(to_vectors(sc), options)
    Path(ns.out).write_text(svg, encoding="utf-8")
    print(f"wrote {ns.out}", file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confound",
        description=(
            "Detect aggregation reversals in stratified two-group comparisons, "
            "scan records for confounders, standardize rates, decompose "
            "ecological associations, and plot the vector diagram."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    p = command("analyze", _cmd_analyze, "classify a table CSV for reversal")
    p.add_argument("table", help="table CSV (stratum,group,total,positive)")
    p.add_argument(
        "--standardize", choices=REFERENCES, default=None, metavar="REF",
        help="also report the standardized comparison under this reference",
    )
    p.add_argument("--allow-tied-strata", action="store_true")

    p = command(
        "standardize", _cmd_standardize, "reference-weighted comparison of a table CSV"
    )
    p.add_argument("table")
    p.add_argument("--reference", choices=REFERENCES, default="combined")

    p = command(
        "scan", _cmd_scan, "scan record-level data for reversal-inducing covariates"
    )
    p.add_argument("records", help="records CSV with a header row")
    p.add_argument("--group-col", required=True)
    p.add_argument("--outcome-col", required=True)
    p.add_argument(
        "--candidates", required=True,
        help="comma-separated covariate column names",
    )
    p.add_argument(
        "--numeric", default=None,
        help="comma-separated columns to parse as numbers",
    )
    p.add_argument("--binning", choices=("quantile", "equal_width"), default="quantile")
    p.add_argument("--bins", type=int, default=4)
    p.add_argument("--min-stratum-size", type=int, default=1)
    p.add_argument(
        "--groups", default=None, metavar="G1,G2",
        help="restrict to these two group values when the column has more",
    )
    p.add_argument("--allow-tied-strata", action="store_true")

    p = command("decompose", _cmd_decompose, "between/within association decomposition")
    p.add_argument("records")
    p.add_argument("--group-col", required=True)
    p.add_argument("--x", required=True, help="numeric x column")
    p.add_argument("--y", required=True, help="numeric y column")

    p = command("generate", _cmd_generate, "emit a synthetic full-reversal table")
    p.add_argument("--strata", type=int, default=2)
    p.add_argument("--scale", type=int, default=80)
    p.add_argument("--seed", type=int, default=0)

    p = command("plot", _cmd_plot, "render the vector diagram of a table CSV to SVG")
    p.add_argument("table")
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--height", type=int, default=480)
    p.add_argument(
        "--fan-only", action="store_true",
        help="draw stratum chords from the origin only, without the "
        "terminal-anchored copies",
    )

    # every subcommand but plot prints a report; --format is its last option
    for name, p in sub.choices.items():
        if name != "plot":
            p.add_argument(
                "--format", choices=("text", "json"), default="text",
                help="report format (default: text)",
            )
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand; returns the exit code instead of raising."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
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
    # parser's), and the cyclic collector would otherwise walk the containers
    # a records file fills, time and again, while they are built; run()
    # itself leaves the collector as it finds it
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
