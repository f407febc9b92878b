"""CSV ingestion: the reader that table and record files share.

Table CSVs have the fixed header ``stratum,group,total,positive``, record
CSVs a free-form one. Both are typed a block at a time; records files are
read from disk a block at a time too. Where the process can fork, a plain
records file is read in two halves at once: a forked helper types and
counts the second half while the process reads the first, and any fault
sends the whole file to the serial reader (:func:`_read_records`).
"""

from __future__ import annotations

import _csv  # the C reader the csv package re-exports, without that package
import codecs
import io
import marshal
import math
import os
import sys
from contextlib import contextmanager
from itertools import chain, islice, product, repeat
from operator import itemgetter, le
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .errors import (
    BadCount, BadHeader, BadOutcomeValue, ConfoundError, CsvError, DuplicateCell, EmptyData,
    MissingCell, NonNumeric, NotTwoGroups, RaggedRow, UnknownColumn, ValidationError,
)
from .tables import TABLE_HEADER, StratifiedComparison, _pair

if TYPE_CHECKING:
    from .records import RecordTable

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
# the csv module reads the file, and the whole lines of each BLOCK_CHARS
# characters where the text is split directly; a records file is read
# BLOCK_CHARS bytes, then characters, at a time
CHUNK_ROWS = 1024
BLOCK_CHARS = 1 << 16


class _Text:
    """CSV text that each reading takes from its start: ``pieces()`` yields
    it ``BLOCK_CHARS`` characters at a time for the direct splitter,
    ``lines()`` line by line for the ``csv`` module. ``special``: the text
    holds a double quote, carriage return or NUL, so only the ``csv``
    module reads it."""

    def __init__(self, special: bool, pieces, lines):
        self.special, self.pieces, self.lines = special, pieces, lines

    @classmethod
    def of(cls, text: str) -> _Text:
        """A string, in slices of ``BLOCK_CHARS`` characters."""
        special = '"' in text or "\r" in text or "\0" in text
        return cls(
            special,
            lambda: (text[i : i + BLOCK_CHARS] for i in range(0, len(text), BLOCK_CHARS)),
            lambda: io.StringIO(text),
        )


def _read_records(
    path: str, numeric_columns: Sequence[str], boolean_columns: Sequence[str],
    numbers: str, accumulator,
):
    """The records file at ``path`` read into ``accumulator(kinds)``, an
    object whose ``add`` takes each block :func:`_record_blocks` types, and
    returned; the file is decoded as :func:`_read_text` decodes it but never
    held whole.

    A first pass decodes every byte and looks only for a double quote or
    NUL, so an undecodable byte anywhere is that function's
    :class:`CsvError` before any row is read. Plain text is then read in two
    halves at once where :func:`_may_fork` allows (see :func:`_read_halves`);
    otherwise, or when a half fails, each reading decodes the file again from
    its start. A pipe, which cannot be read twice, is read into memory
    once."""
    with open(path, "rb") as raw:
        if not raw.seekable():
            raw = io.BytesIO(raw.read())
        special = _checked(raw, path)
        if not special and _may_fork():
            split = _read_halves(raw, numeric_columns, boolean_columns, numbers, accumulator)
            if split is not None:
                return split
        stream = io.TextIOWrapper(raw, encoding="utf-8-sig")

        def pieces():
            stream.seek(0)
            while piece := stream.read(BLOCK_CHARS):
                yield piece

        def lines():
            stream.seek(0)
            return stream

        text = _Text(special, pieces, lines)
        kinds, typed = _record_blocks(text, numeric_columns, boolean_columns, numbers)
        into = accumulator(kinds)
        for block in typed:
            into.add(block)
        return into


def _may_fork() -> bool:
    """Whether a forked helper may read half a file: ``os.fork`` exists, no
    other Python thread runs (``threading`` is looked up, not imported) and
    the process may use more than one CPU."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or threading is not None and threading.active_count() > 1:
        return False
    return _cpus() > 1


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _reader(raw):
    """``read(size, offset)`` on the binary file ``raw`` that never moves
    its offset, which a forked process shares: ``os.pread`` on a file, a
    slice of a pipe's copy in memory."""
    if isinstance(raw, io.BytesIO):
        return lambda size, offset: bytes(raw.getbuffer()[offset : offset + size])
    fd = raw.fileno()
    return lambda size, offset: os.pread(fd, size, offset)


def _cut(read, size: int) -> int | None:
    """The offset just past the first line end after the middle byte of a
    file of ``size`` bytes, when the bytes on each side of it fill a
    ``BLOCK_CHARS`` block at least; otherwise ``None``."""
    offset = size // 2
    while offset < size - BLOCK_CHARS and (data := read(BLOCK_CHARS, offset)):
        end = data.find(b"\n")
        if end >= 0:
            cut = offset + end + 1
            return cut if BLOCK_CHARS <= cut <= size - BLOCK_CHARS else None
        offset += len(data)
    return None


class _HalfFault(Exception):
    """A half of a file read in two that the serial reader must read again,
    to report its fault as it does."""


def _refuse_half(*_):
    """A half's ``lines`` and its faulty block's ``report``: neither is read
    again but by the serial reader."""
    raise _HalfFault


def _span(read, start: int, end: int, encoding: str):
    """The text of bytes ``start`` to ``end`` of a file, read by position
    ``BLOCK_CHARS`` bytes at a time and decoded with every line end (CRLF or
    a bare CR too) read as ``\n``, as a text stream reads it."""
    decoder = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder(encoding)(), True)
    while start < end:
        data = read(min(BLOCK_CHARS, end - start), start)
        if not data:  # the file shrank
            raise _HalfFault
        start += len(data)
        yield decoder.decode(data, final=start == end)


def _read_halves(
    raw, numeric_columns: Sequence[str], boolean_columns: Sequence[str], numbers: str,
    accumulator,
):
    """:func:`_read_records` of the plain text of the binary file ``raw`` in
    two halves at once, split at :func:`_cut`; ``None`` when the serial
    reader must read the whole file.

    The header is read first, so a fault in it forks nothing. A forked
    helper then types the rest of the file with the same column kinds, feeds
    its own accumulator and writes that accumulator's ``state()`` to a pipe
    with ``marshal``, while this process reads the first half; the helper's
    state is merged after this process's rows, so the rows keep their order.
    A fault in either half (a bad row, a field over the csv module's limit),
    a fork that fails, a helper that exits non-zero, a short payload or no
    row in either half ends the helper and gives ``None``: the serial reader
    then reports every fault as it alone does."""
    read = _reader(raw)
    size = raw.seek(0, io.SEEK_END)
    cut = _cut(read, size)
    if cut is None:
        return None
    faults = (ConfoundError, _HalfFault, OSError, UnicodeDecodeError)
    try:
        first = _Text(False, lambda: _span(read, 0, cut, "utf-8-sig"), _refuse_half)
        kinds, typed = _record_blocks(first, numeric_columns, boolean_columns, numbers)
    except faults:
        return None
    into = accumulator(kinds)
    out, put = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to be had: the serial reader reads the file
        os.close(out)
        os.close(put)
        return None
    if not pid:  # the helper: it never returns
        code = 1
        try:
            os.close(out)
            theirs = accumulator(kinds)
            rest = _plain_blocks(
                _span(read, cut, size, "utf-8"), len(kinds), _csv.field_size_limit()
            )
            rows = _fill(theirs, _typed_records(rest, kinds.values(), numbers, _refuse_half))
            with open(put, "wb") as pipe:
                marshal.dump((rows, theirs.state()), pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(put)
    payload = None
    try:
        with open(out, "rb") as pipe:
            rows = _fill(into, typed)
            payload = pipe.read()
    except faults:
        return None
    finally:
        if payload is None:  # this half's fault, or an interrupt
            from signal import SIGKILL

            os.kill(pid, SIGKILL)
        status = os.waitpid(pid, 0)[1]
    try:
        their_rows, state = marshal.loads(payload)
    except (EOFError, ValueError, TypeError):  # a short payload
        return None
    if status or not (rows or their_rows):
        return None
    into.merge(state)
    return into


def _fill(into, typed) -> bool:
    """Feed ``into`` one half's typed blocks, and say whether the half held
    a row: a half of blank lines is no fault."""
    try:
        for block in typed:
            into.add(block)
    except EmptyData:  # raised once every block is read
        return False
    return True


def _checked(raw, path: str) -> bool:
    """Decode the binary file ``raw`` from its start, ``BLOCK_CHARS`` bytes
    at a time, and say whether its text holds a double quote or NUL. A
    carriage return is not asked for: decoding makes every line end a
    ``\n``. An undecodable byte is :func:`_read_text`'s error, at the same
    offset."""
    data = raw.read(3)
    if codecs.BOM_UTF8.startswith(data):  # a byte order mark, or a file of its start
        data = b""
    decoder = codecs.getincrementaldecoder("utf-8")()
    fed = 0  # bytes decoded before data, after a byte order mark
    special = False
    while True:
        more = raw.read(BLOCK_CHARS)
        special = special or b'"' in data or b"\0" in data
        try:
            decoder.decode(data, final=not more)
        except UnicodeDecodeError as exc:
            # the offset is counted from the start of the decoder's held bytes
            raise _undecodable(path, exc, fed - len(decoder.buffer) + exc.start) from None
        if not more:
            return special
        fed += len(data)
        data = more


@contextmanager
def _csv_errors(reader):
    """The csv module's own errors (a bare carriage return inside a line, a
    field over its size limit) as :class:`CsvError` at the reader's line."""
    try:
        yield
    except _csv.Error as exc:
        raise CsvError(str(exc), reader.line_num) from None


def parse_table_csv(text: str) -> StratifiedComparison:
    """Parse an aggregated table CSV into a StratifiedComparison.

    Strata and groups keep their order of first appearance. Every
    (stratum, group) pair must appear exactly once and there must be
    exactly two group values. The text is read and typed block by block
    as :func:`parse_records_csv` reads it; a block with a fault is re-read
    row by row for the first error.
    """
    source = _Text.of(text)
    blocks = _blocks(source)
    header = next(blocks)
    if tuple(header) != TABLE_HEADER:
        raise BadHeader(
            f"expected header {','.join(TABLE_HEADER)!r}, got {','.join(header)!r}",
            line=1,
        )

    cells: dict[tuple[str, str], tuple[int, int]] = {}
    kinds = ("categorical", "categorical", "count", "count")
    typed = _typed_blocks(blocks, kinds, lambda _: _raise_first_table_error(source))
    for strata, groups, totals, positives in typed:
        size = len(cells)
        cells.update(zip(zip(strata, groups), zip(totals, positives)))
        # a repeated cell, or positive above total
        if len(cells) != size + len(totals) or not all(map(le, positives, totals)):
            _raise_first_table_error(source)

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


def _raise_first_table_error(text: _Text) -> None:
    """Re-read a table CSV row by row from its first row and raise the first
    bad row's error: a ragged row, a bad count, positive above total, then a
    duplicate cell."""
    seen = set()
    for line, (stratum, group, total, positive) in _typed_rows(
        text.lines(), 1, TABLE_HEADER, ("categorical", "categorical", "count", "count")
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
    errors. The command line reads records files through the same reader
    but not through this function.
    """
    from .records import Column, RecordTable

    schema, typed = _record_blocks(_Text.of(text), numeric_columns, boolean_columns)
    columns = tuple(map(Column, schema, schema.values()))
    data: list[list] = [[] for _ in columns]
    # repeated categorical labels share one string, with one entry per
    # distinct label until parsing ends
    memos = [{} if kind == "categorical" else None for kind in schema.values()]
    for block in typed:
        for values, column, memo in zip(data, block, memos):
            values.extend(column if memo is None else map(memo.setdefault, column, column))
    return RecordTable._of(columns, len(data[0]), tuple(data))


def _record_blocks(
    text: _Text, numeric_columns: Sequence[str], boolean_columns: Sequence[str],
    numbers: str = "numeric",
):
    """A records CSV's columns, as a dict of each name's kind in header
    order, and its blocks as :func:`_typed_blocks` types them, numeric
    columns as the kind ``numbers``. A faulty block is re-read row by row
    from the text's start, up to the first bad row, which raises."""
    blocks = _blocks(text)
    header = next(blocks)
    kinds = _record_kinds(header, numeric_columns, boolean_columns)
    typed = _typed_records(
        blocks, kinds, numbers,
        lambda start: list(_typed_rows(text.lines(), start, header, kinds)),
    )
    return dict(zip(header, kinds)), typed


def _typed_records(blocks, kinds: Sequence[str], numbers: str, report):
    """:func:`_typed_blocks` of a records file's ``blocks``, whose columns
    are of ``kinds``, with numeric columns as the kind ``numbers``."""
    typing = [numbers if kind == "numeric" else kind for kind in kinds]
    return _typed_blocks(blocks, typing, report)


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


def _csv_blocks(lines):
    """The header row, then each block of up to ``CHUNK_ROWS`` rows as
    ``(rows read, non-blank rows, cells column by column)``, with ``None``
    for the cells when a non-blank row is not as wide as the header."""
    reader = _csv.reader(lines)
    with _csv_errors(reader):
        header = next(reader, None)
    if header is None:
        raise EmptyData("file is empty")
    yield header
    while chunk := list(islice(reader, CHUNK_ROWS)):
        rows = [row for row in chunk if row]
        aligned = set(map(len, rows)) <= {len(header)}
        yield len(chunk), len(rows), list(zip(*rows)) if aligned else None


def _blocks(text: _Text):
    """The header row and blocks of :func:`_csv_blocks`. Text with a double
    quote, carriage return or NUL, or a header over the csv module's field
    size limit, is read by that function; other text directly, each line one
    row, in blocks of :func:`_line_blocks`. Each block is split once into
    cells with a NUL cell between rows; the rows are all as wide as the
    header exactly when every row's last cell is followed by a NUL cell. A
    block with a field over the csv module's field size limit has ``None``
    for its cells, so the csv module re-reads it and raises its error for
    that field."""
    limit = _csv.field_size_limit()
    if text.special:
        yield from _csv_blocks(text.lines())
        return
    pieces = iter(text.pieces())
    parts, size = [], 0
    for piece in pieces:  # up to the header's line end, joined once
        parts.append(piece)
        size += len(piece)
        if "\n" in piece or size > limit:
            break
    head = "".join(parts)
    if not head:
        raise EmptyData("file is empty")
    first = head.partition("\n")[0]
    if len(first) > limit:
        yield from _csv_blocks(text.lines())
        return
    header = first.split(",") if first else []
    yield header
    yield from _plain_blocks(chain((head[len(first) + 1 :],), pieces), len(header), limit)


def _plain_blocks(pieces, width: int, limit: int):
    """The blocks of :func:`_csv_blocks` from text with no double quote,
    carriage return or NUL, given as ``pieces`` after the header's line end,
    for a header ``width`` cells wide and the csv field size ``limit``."""
    stride = width + 1
    for block in _line_blocks(pieces):
        lines = rows = block.count("\n") + 1
        if not block or "\n\n" in block or block[0] == "\n" or block[-1] == "\n":
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


def _line_blocks(pieces):
    """The text of ``pieces`` as blocks of whole lines: the lines that end
    in each piece, with what the pieces before it left of a line, without
    the last line end; then any rest. A final line end ends no further
    line. The pieces of an unfinished line are joined once, when it ends."""
    rest = []
    for piece in pieces:
        end = piece.rfind("\n")
        if end >= 0:
            yield "".join([*rest, piece[:end]])
            rest = []
        rest.append(piece[end + 1 :])
    if rest := "".join(rest):
        yield rest


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
    except _csv.Error:  # a row of this block before the csv module's fault may be bad
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
        # an inf or nan makes the sum one too, so a finite sum settles it in
        # one fast pass; finite values whose sum overflows are checked one by one
        if not (math.isfinite(sum(values)) or all(map(math.isfinite, values))):
            return "is not finite"
        return values if kind == "numeric" else cells
    if kind == "boolean":
        values = list(map(_CASINGS.get, cells))
        return "is not in the true/false lexicon" if None in values else values
    return cells


def _typed_rows(lines, start: int, names: Sequence[str], kinds: Sequence[str]):
    """``(physical line, typed row)`` for each non-blank row of ``lines``
    from reader row ``start`` on, read by the ``csv`` module with each cell
    typed alone by :func:`_typed_column`. The first ragged row or bad cell
    raises its error; a csv fault is a :class:`CsvError`."""
    reader = _csv.reader(lines)
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


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc, exc.start) from None


def _undecodable(path: str, exc: UnicodeDecodeError, start: int) -> CsvError:
    """The error for a file whose bytes from offset ``start`` (after a byte
    order mark) do not decode."""
    return CsvError(f"{path}: not UTF-8 text ({exc.reason} at byte {start})")
