"""CSV parsing, report emission, and the executable surface."""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confound import cli, ingest
from confound.cli import (
    REFERENCES,
    TABLE_HEADER,
    _json_dumps,
    build_analyze_report,
    parse_records_csv,
    parse_table_csv,
    render_analyze_text,
    run,
    serialize_table_csv,
)
from confound.errors import (
    BadCount,
    BadHeader,
    BadOutcomeValue,
    ConfoundError,
    CsvError,
    DuplicateCell,
    EmptyData,
    MissingCell,
    NonNumeric,
    NotTwoGroups,
    RaggedRow,
    UnknownColumn,
    ValidationError,
)
from confound.ingest import BLOCK_CHARS, CHUNK_ROWS, MAX_COUNT_DIGITS
from confound.records import RecordTable
from confound.scanning import scan
from confound.tables import Counts, StratifiedComparison, Stratum
from goldens import GOLDEN
from support import (
    BERKELEY, HOSPITAL, block_chars, count_digits, counts, hospital_records, python, quoted,
    run_captured,
)

HEADER = "stratum,group,total,positive\n"
# the --help texts of confound and of each subcommand at 80 columns, and the
# minor versions they were computed on (3.10.13, 3.11.7, 3.12.1 and 3.13.0):
# argparse words and wraps them alike on all four
HELP = GOLDEN.parent / "help"
HELP_VERSIONS = {(3, 10), (3, 11), (3, 12), (3, 13)}

# labels stress CSV quoting (commas, quotes) but stay clear of control
# characters, which the one-line-per-cell format does not promise to carry
_label = st.text(
    st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=12
)


@st.composite
def labeled_comparisons(draw):
    stratum_labels = draw(st.lists(_label, min_size=1, max_size=5, unique=True))
    g1, g2 = draw(st.lists(_label, min_size=2, max_size=2, unique=True))
    strata = tuple(
        Stratum(label, draw(counts(1, 200)), draw(counts(1, 200)))
        for label in stratum_labels
    )
    return StratifiedComparison(g1, g2, strata)


class TestParseTableCsv:
    def test_hospital_fixture(self, hospital_csv):
        assert parse_table_csv(hospital_csv) == HOSPITAL

    def test_berkeley_fixture(self, berkeley_csv):
        sc = parse_table_csv(berkeley_csv)
        assert sc == BERKELEY
        assert len(sc.strata) == 6

    def test_order_of_first_appearance(self):
        text = HEADER + "z,g2,5,1\nz,g1,5,2\na,g1,4,1\na,g2,4,0\n"
        sc = parse_table_csv(text)
        assert sc.stratum_labels() == ("z", "a")
        assert sc.group_first_label == "g2"

    def test_header_only_is_empty(self):
        with pytest.raises(EmptyData):
            parse_table_csv(HEADER)

    def test_empty_file(self):
        with pytest.raises(EmptyData):
            parse_table_csv("")

    def test_bad_header(self):
        with pytest.raises(BadHeader):
            parse_table_csv("stratum,group,count,positive\na,b,1,1\n")

    def test_duplicate_cell_names_line(self):
        text = HEADER + "s,g1,5,1\ns,g2,5,1\ns,g1,5,2\n"
        with pytest.raises(DuplicateCell, match="line 4"):
            parse_table_csv(text)

    def test_bad_count_names_line(self, tmp_path, capsys):
        with pytest.raises(BadCount, match="line 2"):
            parse_table_csv(HEADER + "s,g1,five,1\n")
        with pytest.raises(BadCount, match="line 3"):
            parse_table_csv(HEADER + "s,g1,5,1\ns,g2,5,-1\n")
        with pytest.raises(BadCount, match="exceeds"):
            parse_table_csv(HEADER + "s,g1,5,6\n")
        # counts are ASCII digits only, so parse -> serialize is byte-stable
        p = tmp_path / "t.csv"
        for field in ("1_000", " 5", "5 ", "+5", "-1", "\u0663", "\uff15", "", "5.0"):
            text = HEADER + f"s,g1,9,1\ns,g2,{field},0\n"
            with pytest.raises(BadCount, match="line 3"):
                parse_table_csv(text)
            p.write_text(text, encoding="utf-8")
            assert run(["analyze", str(p)]) == 2
            assert capsys.readouterr().err.startswith("error:bad-count:")

    def test_count_pair_checked_before_duplicates(self, tmp_path, capsys):
        # positive above total is a bad count at its row, even on a row that
        # also repeats a cell
        p = tmp_path / "t.csv"
        for rows, line in [("s,g1,5,6\n", 2), ("s,g1,5,1\ns,g2,5,1\ns,g1,5,6\n", 4)]:
            p.write_text(HEADER + rows)
            assert run(["analyze", str(p)]) == 2
            assert capsys.readouterr().err == (
                f"error:bad-count: line {line}: positive (6) exceeds total (5)\n"
            )

    def test_count_digit_limit(self, tmp_path, capsys):
        p = tmp_path / "t.csv"
        # counts at the limit sum past it, and every report still prints the sum
        big = "9" * MAX_COUNT_DIGITS
        p.write_text(HEADER + f"s,g1,{big},1\ns,g2,5,1\nt,g1,{big},1\nt,g2,5,1\n")
        assert run(["analyze", str(p), "--format", "json"]) == 0
        assert str(2 * int(big)) in capsys.readouterr().out
        # past the limit, and past the interpreter's own int-string limit
        for field in (big + "9", "1" + "0" * 4400):
            with pytest.raises(BadCount, match=f"^line 3: total has {len(field)} digits"):
                parse_table_csv(HEADER + f"s,g1,5,1\ns,g2,{field},1\n")
            p.write_text(HEADER + f"s,g1,{field},1\ns,g2,5,1\n")
            for command in ("analyze", "standardize"):
                assert run([command, str(p)]) == 2
                assert capsys.readouterr().err.startswith("error:bad-count: line 2:")

    def test_count_digit_limit_follows_the_interpreter(self, tmp_path):
        # a lowered int-to-text limit (here 640 digits) lowers the cap to
        # 300 digits under it, so no count reaches int() past the limit
        p = tmp_path / "t.csv"

        def analyze(digits):
            p.write_text(HEADER + f"s,g1,{'9' * digits},1\ns,g2,5,1\n")
            return subprocess.run(
                [sys.executable, "-m", "confound", "analyze", str(p)],
                capture_output=True,
                text=True,
                env=dict(os.environ, PYTHONINTMAXSTRDIGITS="640"),
            )

        proc = analyze(700)
        assert proc.returncode == 2
        assert proc.stderr == "error:bad-count: line 2: total has 700 digits, more than 340\n"
        proc = analyze(340)
        assert proc.returncode == 0, proc.stderr
        assert f"1/{'9' * 340}" in proc.stdout
        # the cap is read from the interpreter at each parse, not at import
        if not hasattr(sys, "set_int_max_str_digits"):
            return
        default = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            for quote in (str, quoted):
                text = HEADER + f"s,g1,{'9' * 340},1\ns,g2,5,1\n"
                assert parse_table_csv(quote(text)).strata[0].first.total == 10**340 - 1
                with pytest.raises(BadCount) as err:
                    parse_table_csv(quote(HEADER + f"s,g1,{'9' * 341},1\ns,g2,5,1\n"))
                assert str(err.value) == "line 2: total has 341 digits, more than 340"
        finally:
            sys.set_int_max_str_digits(default)

    def test_csv_module_fault_names_line(self):
        # a carriage return inside an unquoted line; the CLI reads files with
        # newline translation, but library callers may pass such text
        for text, line in [(HEADER + "s,g1,5,1\ns,g2,5,1\rt,g1\n", 3),
                           ("stratum,group\rtotal,positive\n", 1)]:
            with pytest.raises(CsvError) as err:
                parse_table_csv(text)
            assert (err.value.code, err.value.line) == ("csv", line)

    def test_ragged_row(self):
        with pytest.raises(RaggedRow, match="line 2"):
            parse_table_csv(HEADER + "s,g1,5\n")

    def test_not_two_groups(self):
        text = HEADER + "s,g1,5,1\ns,g2,5,1\ns,g3,5,1\n"
        with pytest.raises(NotTwoGroups):
            parse_table_csv(text)
        with pytest.raises(NotTwoGroups):
            parse_table_csv(HEADER + "s,g1,5,1\n")

    def test_missing_cell(self):
        text = HEADER + "s,g1,5,1\ns,g2,5,1\nt,g1,5,1\n"
        with pytest.raises(MissingCell, match="'t'"):
            parse_table_csv(text)

    def test_quoted_fields(self):
        text = HEADER + '"a,b",g1,5,1\n"a,b",g2,5,2\n'
        sc = parse_table_csv(text)
        assert sc.stratum_labels() == ("a,b",)

    def test_round_trip_identity(self, hospital_csv, berkeley_csv):
        for text in (hospital_csv, berkeley_csv):
            sc = parse_table_csv(text)
            assert parse_table_csv(serialize_table_csv(sc)) == sc
        assert serialize_table_csv(parse_table_csv(hospital_csv)) == hospital_csv

    @given(labeled_comparisons())
    def test_round_trip_any_valid_table(self, sc):
        assert parse_table_csv(serialize_table_csv(sc)) == sc


class TestParseRecordsCsv:
    def test_typed_columns(self):
        text = "grp,dead,age\na,1,33.5\nb,no,40\n"
        records = parse_records_csv(
            text, numeric_columns=("age",), boolean_columns=("dead",)
        )
        assert [c.kind for c in records.columns] == [
            "categorical", "boolean", "numeric",
        ]
        assert records.rows == (("a", True, 33.5), ("b", False, 40.0))

    def test_parsed_table_is_the_table_of_its_rows(self):
        # the parser's column lists are the table's cells: equal and of equal
        # hash to the table built from the same rows, and values() a new list
        text = "grp,dead,age\na,1,33.5\nb,no,40\na,yes,7\n"
        records = parse_records_csv(
            text, numeric_columns=("age",), boolean_columns=("dead",)
        )
        from_rows = RecordTable(records.columns, records.rows)
        assert records == from_rows
        assert hash(records) == hash(from_rows)
        ages = records.values("age")
        ages.append(1.0)
        assert records.values("age") == [33.5, 40.0, 7.0]
        assert records.where("grp", ["a"]) == RecordTable(
            records.columns, [("a", True, 33.5), ("a", True, 7.0)]
        )

    @pytest.mark.parametrize("quote", [str, quoted])
    def test_repeated_labels_share_one_string(self, quote):
        # across blocks and on both reading paths: the table keeps one string
        # per distinct label, not one per row
        text = quote("g,x\n" + "ab,1\ncd,2\n" * 3)
        with block_chars(1):
            labels = parse_records_csv(text, numeric_columns=("x",)).values("g")
        assert labels == ["ab", "cd"] * 3
        assert len(set(map(id, labels))) == 2

    def test_outcome_lexicon_is_case_insensitive(self):
        text = "g,out\na,YES\nb,False\n"
        records = parse_records_csv(text, boolean_columns=("out",))
        assert records.values("out") == [True, False]

    def test_bad_outcome_value_names_line(self):
        text = "g,out\na,1\nb,maybe\n"
        with pytest.raises(BadOutcomeValue, match="line 3"):
            parse_records_csv(text, boolean_columns=("out",))

    def test_non_numeric_names_column_and_line(self):
        text = "g,age\na,12\nb,abc\n"
        with pytest.raises(NonNumeric, match="line 3") as err:
            parse_records_csv(text, numeric_columns=("age",))
        assert "age" in str(err.value)

    def test_missing_declared_column(self):
        with pytest.raises(UnknownColumn):
            parse_records_csv("g,out\na,1\n", boolean_columns=("death",))

    def test_ragged_row(self):
        with pytest.raises(RaggedRow, match="line 3"):
            parse_records_csv("g,out\na,1\nb\n", boolean_columns=("out",))

    @pytest.mark.parametrize(
        "text, error, message",
        [
            # a bad number on line 3 comes before the ragged row on line 5
            ("g,x\na,1\nb,zz\nc,2\nd\n", NonNumeric,
             "line 3: column 'x': 'zz' is not a number"),
            # the ragged row on line 3 comes before the bad number on line 4
            ("g,x\na,1\nb\nc,zz\n", RaggedRow,
             "line 3: expected 2 fields, got 1"),
            # two bad cells in one row: the leftmost wins
            ("g,x,y\na,1,2\nb,p,q\n", NonNumeric,
             "line 3: column 'x': 'p' is not a number"),
            ("g,out,x\na,1,2\nb,maybe,inf\n", BadOutcomeValue,
             "line 3: column 'out': 'maybe' is not in the true/false lexicon"),
            ("g,x,out\na,2,1\nb,inf,maybe\n", NonNumeric,
             "line 3: column 'x': 'inf' is not finite"),
            # blank lines still count
            ("g,x\n\na,1\n\n\nb,zz\n", NonNumeric,
             "line 6: column 'x': 'zz' is not a number"),
            # a quoted field spanning two lines
            ('g,x\n"a\nb",1\nc,zz\n', NonNumeric,
             "line 4: column 'x': 'zz' is not a number"),
            ('g,x\n"a\n\nb",1\n\nc\n', RaggedRow,
             "line 6: expected 2 fields, got 1"),
            # a bad number before the csv module's own fault on line 4
            ("g,x\na,1\nb,zz\nc,1\rd,2\n", NonNumeric,
             "line 3: column 'x': 'zz' is not a number"),
            # the header before any row
            ("g,x,g\na,zz\n", BadHeader,
             "line 1: column names must be unique and non-empty: ['g', 'x', 'g']"),
            ("g,,x\na,zz\n", BadHeader,
             "line 1: column names must be unique and non-empty: ['g', '', 'x']"),
            # a blank first line is a header without names, not one of no columns
            ("\na,b\n1,2\n", BadHeader,
             "line 1: column names must be unique and non-empty: []"),
        ],
    )
    def test_first_error_and_its_line(self, text, error, message):
        header = text.split("\n")[0].split(",")
        with pytest.raises(error) as err:
            parse_records_csv(
                text,
                numeric_columns=[c for c in ("x", "y") if c in header],
                boolean_columns=[c for c in ("out",) if c in header],
            )
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "text, line",
        [
            ("g,x\ra,1\n", 1),
            ("g,x\na,1\nb,1\rc,2\n", 3),
            ("g,x\n" + "a,1\n" * (CHUNK_ROWS + 5) + "b,1\rc,2\n", CHUNK_ROWS + 7),
        ],
    )
    def test_csv_module_fault_names_line(self, text, line):
        # a carriage return inside an unquoted line, in the header, the first
        # chunk and a later one
        with pytest.raises(CsvError) as err:
            parse_records_csv(text, numeric_columns=("x",))
        assert (err.value.code, err.value.line) == ("csv", line)

    @pytest.mark.parametrize("blank_lines", [0, 3])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_error_near_a_chunk_boundary(self, blank_lines, offset):
        # the bad row is reader row CHUNK_ROWS + offset (0-based, header
        # excluded), so offset 0 is the first row of the second chunk
        good = ["a,1"] * (CHUNK_ROWS + offset - blank_lines)
        lines = ["g,x", *[""] * blank_lines, *good, "b,zz", "c,1"]
        with pytest.raises(NonNumeric) as err:
            parse_records_csv("\n".join(lines) + "\n", numeric_columns=("x",))
        line = 1 + blank_lines + len(good) + 1
        assert str(err.value) == f"line {line}: column 'x': 'zz' is not a number"

    @pytest.mark.parametrize("seed", range(24))
    def test_chunk_and_row_paths_agree(self, seed):
        # one bad cell or ragged row at a random row and column of a file
        # that crosses a chunk boundary: the chunked parser must raise what
        # a row-major check of every cell raises, and nothing else
        rng = random.Random(seed)
        header = ["g", "x", "out", "y"]
        rows = [
            [rng.choice(["a", "b", '"c\nd"', '"e,\n\nf"']), str(rng.random()),
             rng.choice(["1", "no", "TRUE"]), str(rng.randint(-9, 9))]
            for _ in range(rng.randint(CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 50))
        ]
        bad, col = rng.randrange(len(rows)), rng.choice([1, 2, 3, None])
        if col is None:  # a ragged row, short or long
            rows[bad] = (rows[bad] + ["z"])[: rng.choice([1, 2, 3, 5])]
        elif col == 2:
            rows[bad][col] = rng.choice(["maybe", "", "2"])
        else:
            rows[bad][col] = rng.choice(["zz", "", "1e", "inf", "-nan", "1e999"])
        lines = [",".join(header)]
        for row in rows:
            lines += [""] * (rng.random() < 0.05)
            lines.append(",".join(row))
        text = "\n".join(lines) + "\n"

        with pytest.raises(ConfoundError) as err:
            parse_records_csv(
                text, numeric_columns=("x", "y"), boolean_columns=("out",)
            )
        error, message, line = _first_record_error(text, header)
        assert (type(err.value), str(err.value), err.value.line) == (
            error, f"line {line}: {message}", line
        )

    def test_rows_across_chunks_keep_order(self):
        n = 2 * CHUNK_ROWS + 7
        text = "g,id,x\n" + "".join(f"g{i % 3},r{i},{i}\n" for i in range(n))
        records = parse_records_csv(text, numeric_columns=("x",))
        assert records.values("x") == [float(i) for i in range(n)]
        assert records.values("g") == [f"g{i % 3}" for i in range(n)]
        assert records.values("id") == [f"r{i}" for i in range(n)]
        # a repeated label is held once, across chunks too
        assert len(set(map(id, records.values("g")))) == 3

    def test_expanded_hospital_round_trip(self):
        records = hospital_records()
        lines = ["hospital,death,condition"]
        for hospital, death, condition in records.rows:
            lines.append(f"{hospital},{1 if death else 0},{condition}")
        parsed = parse_records_csv(
            "\n".join(lines) + "\n", boolean_columns=("death",)
        )
        assert parsed == records


# cells of text that needs no quoting: no double quote, comma, carriage
# return, line feed or NUL, but other line-breaking characters the csv module
# keeps inside a field
_plain_cell = st.one_of(
    st.sampled_from(
        ["", "a", "b", "0", "1", "yes", "NO", "2.5", "-0", "inf", "zz", " 1", "x y",
         "\x0b", "\u2028"]
    ),
    st.text(
        st.characters(blacklist_categories=("Cs",), blacklist_characters='",\r\n\0'),
        max_size=5,
    ),
)


@st.composite
def plain_records_texts(draw, cells=None, min_columns=0, clean=False):
    """A record CSV with no double quote, carriage return or NUL, its header,
    the csv field size limit to read it under (``None``: the default) and the
    plain reader's block size. Good rows may push the drawn ones to and past
    ``CHUNK_ROWS``; the drawn rows may be ragged or blank, and the last line
    may lack its line end. ``cells`` maps a column name to the cells its
    rows draw from; other columns draw cells every column kind takes. The
    header holds at least ``min_columns`` of the five names; a ``clean``
    text has a good header and no ragged rows."""
    cells = cells or {}
    every_kind = ["0", "1", "1", "0", "2.5", "yes", "", "a", "123456789012"]
    names = draw(st.permutations(["g", "x", "y", "out", "c"]))
    header = names[: draw(st.integers(min_columns, 5))]
    if not clean and draw(st.integers(0, 4)) == 0 and header:
        header = [*header, draw(st.sampled_from([*header, ""]))]  # a bad header
    pad = draw(st.sampled_from([0, 0, CHUNK_ROWS - 2, CHUNK_ROWS - 1, CHUNK_ROWS]))
    # mostly rows as wide as the header, of cells every column kind takes
    fitting = st.tuples(*(st.sampled_from(cells.get(name, every_kind)) for name in header))
    row = fitting if clean else st.one_of(
        fitting, fitting, fitting, st.lists(_plain_cell, max_size=6)
    )
    rows = draw(st.lists(row.map(",".join), max_size=8))
    lines = [",".join(header), *[",".join(["1"] * len(header))] * pad, *rows]
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))
    limit = draw(st.sampled_from([None, None, 1, 3, 8]))
    block = draw(st.sampled_from([1, 7, 64, BLOCK_CHARS]))
    return text, header, limit, block


def _parsed(text, header):
    """The table ``parse_records_csv`` reads, or its error, line and message."""
    try:
        table = parse_records_csv(
            text,
            numeric_columns=[c for c in ("x", "y") if c in header],
            boolean_columns=[c for c in ("out",) if c in header],
        )
    except ConfoundError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return table, repr(table)


def _reference_line_blocks(pieces):
    """``ingest._line_blocks``' rule as first written, copying an unfinished
    line again with each piece: the reference for its blocks."""
    rest = ""
    for piece in pieces:
        text = rest + piece
        end = text.rfind("\n")
        if end >= 0:
            yield text[:end]
        rest = text[end + 1 :]
    if rest:
        yield rest


class TestIngestPaths:
    """Text without a double quote, carriage return or NUL is split directly;
    the same text with every field quoted is read by the csv module. Both
    read one grammar, so they must give equal tables or the same error."""

    @settings(max_examples=300, deadline=None)
    @given(plain_records_texts())
    def test_plain_and_quoted_text_agree(self, case):
        text, header, limit, block = case
        copy = quoted(text)
        assert not any(c in text for c in '"\r\0')
        assert '"' in copy or not text.strip("\n")
        default = csv.field_size_limit()
        try:
            if limit is not None:
                csv.field_size_limit(limit)
            with block_chars(block):
                assert _parsed(text, header) == _parsed(copy, header)
        finally:
            csv.field_size_limit(default)

    @given(
        st.sampled_from(["categorical", "numeric", "boolean", "count", "numeric text"]),
        st.lists(
            st.sampled_from(["", " 5", "+5", "\u0663", "1_000", "nan", "inf", "yes",
                             "No", "0", "7", "2.5", "-1", "999", "1000", "12345"]),
            min_size=1, max_size=6,
        ),
    )
    def test_a_block_types_as_its_cells_one_by_one(self, kind, cells):
        # the row-by-row re-read finds a bad row in every block the block
        # typer rejects: a block is a fault exactly when one of its cells
        # alone is (here with counts capped at 3 digits), and else its
        # values are its cells' values in order, each of its kind's type
        with count_digits(3):
            block = ingest._typed_column(kind, cells)
            alone = [ingest._typed_column(kind, (cell,)) for cell in cells]
        faults = [fault for fault in alone if isinstance(fault, str)]
        if faults:
            assert block in faults
        else:
            values = [value for values in alone for value in values]
            assert [(type(v), v) for v in block] == [(type(v), v) for v in values]
            kind_type = {
                "categorical": str, "numeric": float, "boolean": bool, "count": int,
                "numeric text": str,
            }
            assert {type(v) for v in block} == {kind_type[kind]}

    def test_a_long_line_hands_the_rest_to_the_csv_module(self):
        # the long line's block is re-read by the csv module, which sees its
        # oversized field; the rows before it were read directly
        default = csv.field_size_limit()
        text = "g,x\n" + "a,1\n" * 50 + "b," + "9" * 40 + "\n" + "c,2\n"
        try:
            csv.field_size_limit(30)
            with block_chars(16):
                with pytest.raises(CsvError) as err:
                    parse_records_csv(text, numeric_columns=("x",))
        finally:
            csv.field_size_limit(default)
        assert (err.value.line, str(err.value)) == (
            52, "line 52: field larger than field limit (30)"
        )

    @pytest.mark.parametrize("block", [1, BLOCK_CHARS])
    def test_a_short_row_and_a_long_one_are_ragged(self, block):
        # together they hold as many cells as two good rows, and every cell
        # is good text wherever it lands
        text = "g,c\na,1\nb\nc,2,3\nd,4\n"
        with block_chars(block):
            with pytest.raises(RaggedRow) as err:
                parse_records_csv(text)
        assert str(err.value) == "line 3: expected 2 fields, got 1"

    @given(st.text("ab\n", max_size=40), st.lists(st.integers(0, 40), max_size=8))
    def test_line_blocks_follow_the_rule_on_any_split(self, text, cuts):
        # the cuts make empty pieces too, at the start and where two fall
        # together past the end
        cuts = sorted(min(cut, len(text)) for cut in cuts)
        pieces = [text[i:j] for i, j in zip([0, *cuts], [*cuts, len(text)])]
        assert "".join(pieces) == text
        assert list(ingest._line_blocks(pieces)) == list(_reference_line_blocks(pieces))

    @pytest.mark.parametrize("text", ["g,x\na,1\n", "g,x\na,1", "g,x\n\na,1\n\n"])
    def test_line_ends_and_blank_lines(self, text):
        records = parse_records_csv(text, numeric_columns=("x",))
        assert records.rows == (("a", 1.0),)
        assert records == parse_records_csv(quoted(text), numeric_columns=("x",))


# the cells of a scan's columns: two group labels and a third, outcomes in
# mixed case, numbers spelled several ways with signed zeros, and labels with
# non-ASCII letters; the outcome and number pools each hold one cell their
# kind rejects ("N\u00d8", "inf", "nan")
_SCAN_CELLS = {
    "g": ["a", "1", "a", "1", "b", "a", "1"],
    "out": ["0", "1", "YES", "nO", "tRuE", "no", "FALSE", "yes", "false", "N\u00d8",
            "1", "0", "TRUE", "No", "0", "1", "yes", "no", "true", "0"],
    "x": ["0", "-0", "0.0", "-0.0", "1e0", " 1", "1", "1.0", "2.5", "inf", "-1", "2",
          "0", "-0", "1", "3", "0.0", "-2", "1e0", "2"],
    "y": ["0", "-0", "1", "2", "3", "-2.5", "1e300", "2", "nan", "1", "0.0", "3", "-0.0",
          "2", "1", "0"],
    "c": ["\u00e9", "\u03a9", "a", "", "1", "-0", "\u00e9"],
}


@st.composite
def scan_cases(draw):
    """A records text as :func:`plain_records_texts` draws it, the ``scan``
    arguments to run on it with ``{path}`` for its file, the csv field size
    limit and the block size. Half the cases have a clean text and options a
    scan accepts but for one in eight that repeats a candidate, so that most
    of them reach the tally; in the other half every option may take a value
    that fails, in any combination."""
    wild = draw(st.booleans())
    text, header, limit, block = draw(
        plain_records_texts(_SCAN_CELLS, min_columns=0 if wild else 5, clean=not wild)
    )

    def option(usual, *others):
        return draw(st.sampled_from([usual, usual, *others, usual] if wild else [usual]))

    # candidates unknown, duplicated, the group or the outcome column
    candidates = draw(st.lists(
        st.sampled_from(["c", "x", "y", *(["g", "out", "ghost", "c"] if wild else [])]),
        min_size=not wild, max_size=4, unique=not wild,
    ))
    # numbers declared on candidates, the group, the outcome or no column
    numeric = draw(st.lists(
        st.sampled_from(["x", "y", *(["c", "g", "out", "ghost"] if wild else [])]),
        max_size=3, unique=True,
    ))
    if not wild and draw(st.sampled_from([True, *[False] * 7])):
        # a clean case that repeats a candidate in place among c and a numeric
        # x after it: counted twice, a candidate would shift its cells into
        # those after it, as c's text into x's numbers
        candidates = sorted({"c", "x", *candidates})
        i = draw(st.integers(0, len(candidates) - 1))
        candidates.insert(i, candidates[i])
        numeric = list(dict.fromkeys([*numeric, "x"]))
    # a pair of present labels, or absent ones and the wrong length
    pair = st.just(["a", "1"])
    label = st.sampled_from(["a", "b", "\u00e9", "1", "zz", "-0"])
    groups = draw(st.one_of(
        st.none(), pair, st.lists(label, min_size=1, max_size=3) if wild else pair
    ))
    argv = [
        "scan", "{path}",
        f"--group-col={option('g', 'x', 'c', 'ghost', 'out')}",
        f"--outcome-col={option('out', 'g', 'ghost', 'x')}",
        f"--candidates={','.join(candidates)}",
        f"--binning={draw(st.sampled_from(['quantile', 'equal_width']))}",
        f"--bins={option(draw(st.sampled_from([2, 3, 4])), 1)}",
        f"--min-stratum-size={option(draw(st.sampled_from([0, 1, 3])), -1)}",
        f"--format={draw(st.sampled_from(['text', 'json']))}",
    ]
    if numeric:
        argv.append(f"--numeric={','.join(numeric)}")
    if groups is not None:
        argv.append(f"--groups={','.join(groups)}")
    if draw(st.booleans()):
        argv.append("--allow-tied-strata")
    return text, argv, limit, block


class TestScanPath:
    """``confound scan`` counts each block as it is read. The library
    composition it replaced (parse, ``where``, ``scan``, report) is the
    reference: both must exit, print and report errors alike."""

    @settings(max_examples=300, deadline=None)
    @given(scan_cases())
    def test_matches_the_library_composition(self, tmp_path_factory, case):
        text, argv, limit, block = case
        path = tmp_path_factory.getbasetemp() / "scan-case.csv"
        default = csv.field_size_limit()
        try:
            if limit is not None:
                csv.field_size_limit(limit)
            with block_chars(block):
                for copy in (text, quoted(text)):
                    path.write_text(copy, encoding="utf-8")
                    args = [a.replace("{path}", str(path)) for a in argv]
                    assert run_captured(args) == run_captured(args, reference=True)
        finally:
            csv.field_size_limit(default)

    # each case holds two faults; the first named in the order options,
    # header, first bad row, no rows, --groups pair, its unknown group
    # column, empty candidates, duplicate candidates, unknown group column,
    # column kinds, two groups, is the one reported
    @pytest.mark.parametrize("rows, options, code", [
        ("a,1,2\n", ["--bins=1", "--numeric=ghost"], "invalid-value: bin count"),
        ("a,1,zz\n", ["--numeric=x,ghost"], "unknown-column: declared column"),
        ("a,1,zz\n", ["--numeric=x", "--groups=a"], "non-numeric: line 2"),
        ("a,maybe,1\nb,1\n", ["--groups=a"], "bad-outcome-value: line 2"),
        ("", ["--groups=a"], "empty-data: no data rows"),
        ("a,1,2\n", ["--groups=a", "--candidates="], "not-two-groups: --groups"),
        ("a,1,2\n", ["--groups=a,b", "--group-col=ghost", "--candidates="],
         "unknown-column: no column named 'ghost'"),
        ("a,1,2\n", ["--candidates=", "--group-col=ghost"], "empty-candidates"),
        ("a,1,2\n", ["--candidates=x,x", "--group-col=ghost"], "invalid-value: duplicate"),
        ("1,1,2\n2,0,3\n3,1,4\n", ["--group-col=ghost"], "unknown-column: no column"),
        ("1,1,2\n2,0,3\n3,1,4\n", ["--numeric=g"], "invalid-value: group column"),
        ("a,1,2\nb,0,3\nc,1,4\n", ["--candidates=ghost,out"], "not-two-groups: group"),
    ])
    def test_errors_keep_their_precedence(self, tmp_path, rows, options, code):
        path = tmp_path / "faults.csv"
        path.write_text("g,out,x\n" + rows, encoding="utf-8")
        argv = ["scan", str(path), "--group-col=g", "--outcome-col=out",
                "--candidates=x", *options]
        result = run_captured(argv)
        assert result == run_captured(argv, reference=True)
        assert result[2].startswith(f"error:{code}"), result[2]

    @pytest.mark.parametrize("candidates", ["site,site,age", "age,age"])
    def test_a_repeated_candidate_is_counted_once(self, tmp_path, candidates):
        # the tally counts every row before it checks the candidates: counted
        # twice, site would shift its text into age's numbers
        text = "g,out,site,age\na,1,north,30\nb,0,south,41\na,0,south,52\nb,1,north,63\n"
        path = tmp_path / "repeated.csv"
        path.write_text(text, encoding="utf-8")
        argv = ["scan", str(path), "--group-col=g", "--outcome-col=out",
                f"--candidates={candidates}", "--numeric=age"]
        names = candidates.split(",")
        result = run_captured(argv)
        assert result == (2, "", f"error:invalid-value: duplicate candidates in {names}\n")
        assert result == run_captured(argv, reference=True)
        records = parse_records_csv(text, numeric_columns=["age"], boolean_columns=["out"])
        with pytest.raises(ValidationError) as caught:
            scan(records, "g", "out", names)
        assert str(caught.value) == f"duplicate candidates in {names}"

    def test_the_signs_of_zero_come_from_kept_rows(self, tmp_path):
        # the dropped group's -0 comes first, so the lowest bin opens at 0
        # only when the zeros are taken from the kept rows alone
        path = tmp_path / "zeros.csv"
        path.write_text(
            "g,out,x\nc,1,-0\na,1,0\nb,0,-0\na,0,2\nb,1,2\na,1,4\nb,0,4\n",
            encoding="utf-8",
        )
        argv = ["scan", str(path), "--group-col", "g", "--outcome-col", "out",
                "--numeric", "x", "--candidates", "x", "--groups", "a,b",
                "--binning", "equal_width", "--bins", "2", "--format", "json"]
        code, out, err = run_captured(argv)
        assert (code, out, err) == run_captured(argv, reference=True)
        assert '"bin00 [0, 2)"' in out and "-0" not in out

    def test_the_lexicon_in_every_ascii_casing(self):
        # the casing table gives what lowering and the lexicon give, for
        # every casing of every word and for other strings; it is the whole
        # rule because the one non-ASCII code point that lowers to ASCII
        # text (the Kelvin sign, to "k") lowers to no letter of a word
        lowered = {c.lower() for c in map(chr, range(128, 0x110000))}
        assert {t for t in lowered if t.isascii()} == {"k"}
        assert not set("".join(ingest.LEXICON)) & {"k"}
        words = {
            "".join(chars)
            for word in ingest.LEXICON
            for chars in itertools.product(*({c.lower(), c.upper()} for c in word))
        }
        assert set(ingest._CASINGS) == words and len(words) == 62
        others = ["", " yes", "yes ", "ye", "t", "TRUE\u200b", "\u0131", "truE1",
                  "n\u00f8", "\uff59es", "K", "1.0", "-0", "nO\x00", "\u212a"]
        for cell in [*sorted(words), *others]:
            expected = ingest.LEXICON.get(cell.lower())
            assert ingest._CASINGS.get(cell) is (expected if cell in words else None)
            typed = ingest._typed_column("boolean", [cell])
            assert typed == ([expected] if expected is not None else
                             "is not in the true/false lexicon"), cell
        # a block with one cell outside the table is a fault as a whole
        block = [*sorted(words), "\u212a", "no"]
        assert ingest._typed_column("boolean", block) == "is not in the true/false lexicon"
        block = sorted(words)
        assert ingest._typed_column("boolean", block) == [
            ingest.LEXICON[cell.lower()] for cell in block
        ]

    def test_a_group_column_of_20000_labels(self, tmp_path):
        # one label per row: the tally stops counting at the third label but
        # reads every row and names every label, in the time a linear tally
        # takes (a quadratic one shows as a slow suite)
        rows = [f"id{i:05d},{i % 2},{'ab'[i % 3 % 2]}" for i in range(20_000)]
        path = tmp_path / "ids.csv"
        path.write_text("id,out,c\n" + "\n".join(rows) + "\n", encoding="utf-8")
        argv = ["scan", str(path), "--group-col", "id", "--outcome-col", "out",
                "--candidates", "c"]
        code, out, err = run_captured(argv)
        assert (code, out, err) == run_captured(argv, reference=True)
        assert code == 2 and out == ""
        assert err.startswith(
            "error:not-two-groups: group column 'id' must take exactly two values, "
            "found 20000: ['id00000', 'id00001', "
        )
        # a bad row after the third label is still reported, at its line
        path.write_text(
            "id,out,c\n" + "\n".join(rows) + "\nid,maybe,a\n", encoding="utf-8"
        )
        assert run_captured(argv)[2] == (
            "error:bad-outcome-value: line 20002: column 'out': 'maybe' is not in "
            "the true/false lexicon\n"
        )


# the cells of a decomposition's columns: group labels with a non-ASCII one
# and an empty one, and numbers spelled several ways, near the float range's
# ends, subnormal, and three that the numeric kind rejects
_DECOMPOSE_CELLS = {
    "g": ["a", "b", "a", "\u00e9", "1", "", "a"],
    "x": ["0", "-0", "1", "2.5", " 3", "1e308", "-1.7e308", "1.7e308", "9e307", "nan",
          "-2", "1e-320", "4", "inf", "x1", "2", "1"],
    "y": ["1", "-0.0", "2", "-1e308", "1.7e308", "0.5", "3", "-3", "5e-324", "NaN", "7",
          "2", "1"],
}
# bytes UTF-8 cannot decode: a stray continuation byte, a lead byte with no
# continuation, a sequence cut short, and an encoded surrogate
_UNDECODABLE = [b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"]


@st.composite
def decompose_cases(draw):
    """A records text as :func:`plain_records_texts` draws it, the
    ``decompose`` arguments to run on it with ``{path}`` for its file, the
    csv field size limit, the block size, and how the text is written: with
    or without a byte order mark, with line ends as written, CRLF or a bare
    CR, and one in four times with bytes UTF-8 cannot decode inserted at a
    drawn place. Half the cases have a clean text and the usual columns; in
    the other half each option may name an unknown column, a categorical one
    or the group column."""
    wild = draw(st.booleans())
    text, header, limit, block = draw(
        plain_records_texts(_DECOMPOSE_CELLS, min_columns=0 if wild else 5, clean=not wild)
    )

    def option(usual, *others):
        return draw(st.sampled_from([usual, usual, *others, usual] if wild else [usual]))

    argv = [
        "decompose", "{path}",
        f"--group-col={option('g', 'x', 'c', 'ghost')}",
        f"--x={option('x', 'c', 'g', 'ghost', 'y')}",
        f"--y={option('y', 'x', 'out', 'ghost')}",
        f"--format={draw(st.sampled_from(['text', 'json']))}",
    ]
    bom = draw(st.sampled_from([b"", b"", b"\xef\xbb\xbf"]))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    bad = draw(st.sampled_from([None, None, None, *_UNDECODABLE]))
    where = draw(st.floats(0, 1))

    def encoded(copy: str) -> bytes:
        data = copy.replace("\n", newline).encode("utf-8")
        if bad is not None:
            cut = round(where * len(data))
            data = data[:cut] + bad + data[cut:]
        return bom + data

    return text, argv, limit, block, encoded


class TestDecomposePath:
    """``confound decompose`` reads its file a block at a time and puts each
    block's rows straight into their groups. The library composition it
    replaced (the whole file as one string, ``parse_records_csv``, the report
    over the ``RecordTable``) is the reference: both must exit, print and
    report errors alike."""

    @settings(max_examples=300, deadline=None)
    @given(decompose_cases())
    def test_matches_the_library_composition(self, tmp_path_factory, case):
        text, argv, limit, block, encoded = case
        path = tmp_path_factory.getbasetemp() / "decompose-case.csv"
        args = [a.replace("{path}", str(path)) for a in argv]
        default = csv.field_size_limit()
        try:
            if limit is not None:
                csv.field_size_limit(limit)
            with block_chars(block):
                for copy in (text, quoted(text)):
                    path.write_bytes(encoded(copy))
                    assert run_captured(args) == run_captured(args, reference=True)
        finally:
            csv.field_size_limit(default)

    # each case holds two faults; the first named in the order header, first
    # bad row, undecodable byte before either, no rows, too few rows, x and y
    # columns, group column, is the one reported
    @pytest.mark.parametrize("rows, options, error", [
        (b"a,1,zz\n", ["--x=ghost"], "2 unknown-column: declared column"),
        (b"a,zz,1\n", ["--group-col=ghost"], "2 non-numeric: line 2"),
        (b"a,zz,1\nb,1,\xff\n", [], "2 csv: "),
        (b"a,1\nb,1,\xe2\x82", [], "2 csv: "),
        (b"", ["--group-col=ghost"], "2 empty-data: no data rows"),
        (b"\n\n", ["--group-col=x"], "2 empty-data: no data rows"),
        (b"a,1,2\n", ["--group-col=ghost"], "3 insufficient-data"),
        (b"a,1,2\nb,2,3\n", ["--group-col=ghost"], "2 unknown-column: no column named"),
        (b"1,1,2\n2,2,3\n", ["--group-col=x"], "2 invalid-value: group column 'x'"),
        (b"a,1e308,1\na,1.7e308,2\nb,-1.7e308,3\n", [], "3 numeric-overflow"),
    ])
    def test_errors_keep_their_precedence(self, tmp_path, rows, options, error):
        path = tmp_path / "faults.csv"
        path.write_bytes(b"g,x,y\n" + rows)
        argv = ["decompose", str(path), "--group-col=g", "--x=x", "--y=y", *options]
        code, out, err = run_captured(argv)
        assert (code, out, err) == run_captured(argv, reference=True)
        exit_code, message = error.split(" ", 1)
        assert (code, out) == (int(exit_code), "")
        assert err.startswith(f"error:{message}"), err

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_few_rows(self, tmp_path, rows):
        path = tmp_path / "few.csv"
        path.write_text("g,x,y\n" + "a,1,2\nb,3,1\nb,4,5\n"[: 6 * rows], encoding="utf-8")
        argv = ["decompose", str(path), "--group-col=g", "--x=x", "--y=y"]
        result = run_captured(argv)
        assert result == run_captured(argv, reference=True)
        assert result[0] == (3 if rows == 1 else 0)


def _first_record_error(text, header):
    """The first fault of a records CSV with columns g (text), x and y
    (numbers) and out (booleans), found row by row and cell by cell."""
    reader = csv.reader(io.StringIO(text))
    next(reader)
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            return RaggedRow, f"expected 4 fields, got {len(row)}", reader.line_num
        for name, cell in zip(header, row):
            fault = None
            if name in ("x", "y"):
                try:
                    fault = None if math.isfinite(float(cell)) else "is not finite"
                except ValueError:
                    fault = "is not a number"
                error = NonNumeric
            elif name == "out":
                if cell.lower() not in ("1", "0", "true", "false", "yes", "no"):
                    fault = "is not in the true/false lexicon"
                error = BadOutcomeValue
            if fault:
                return error, f"column {name!r}: {cell!r} {fault}", reader.line_num
    raise AssertionError("the file has no fault")


_table_label = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters='",\r\n\0'),
    max_size=3,
)
_bad_counts = ["", "x", "1_0", " 5", "5 ", "+5", "-1", "\u0663", "5.0"]


@st.composite
def plain_table_texts(draw):
    """A table CSV with no double quote, carriage return or NUL, and the
    plain reader's block size. Counts have at most 3 digits, the cap the
    test sets; at times the rows hold faults: a bad count (past the cap
    too), positive above total, a repeated, missing or ragged row, or a
    third group. Blank lines may fall anywhere and the last line end may
    be missing."""
    strata = draw(st.lists(_table_label, min_size=1, max_size=5, unique=True))
    groups = draw(st.lists(_table_label, min_size=2, max_size=2, unique=True))
    rows = []
    for stratum in strata:
        for group in groups:
            total = draw(st.integers(1, 999))
            rows.append([stratum, group, str(total), str(draw(st.integers(0, total)))])
    faults = ["count", "digits", "over", "repeat", "drop", "ragged", "group"]
    for fault in draw(st.lists(st.sampled_from(faults), max_size=2)):
        i = draw(st.integers(0, len(rows) - 1))
        # An earlier ragged fault may have cut the row short: a fault only
        # touches a column the row still has.
        width = len(rows[i])
        col = draw(st.sampled_from([2, 3]))
        if fault == "count" and col < width:
            rows[i][col] = draw(st.sampled_from(_bad_counts))
        elif fault == "digits" and col < width:
            rows[i][col] = draw(st.sampled_from(["1000", "0012"]))
        elif fault == "over" and width >= 4 and rows[i][2].isdigit():
            rows[i][3] = str(int(rows[i][2]) + 1)
        elif fault == "repeat":
            rows.insert(draw(st.integers(i + 1, len(rows))), list(rows[i]))
        elif fault == "drop" and len(rows) > 1:
            del rows[i]
        elif fault == "ragged":
            rows[i] = (rows[i] + ["9"])[: draw(st.sampled_from([1, 3, 5]))]
        elif fault == "group" and width >= 2:
            rows[i][1] = draw(_table_label)
    lines = [",".join(TABLE_HEADER)]
    for row in rows:
        lines += [""] * draw(st.sampled_from([0, 0, 0, 1, 2]))
        lines.append(",".join(row))
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))
    return text, draw(st.sampled_from([1, 7, 64, BLOCK_CHARS]))


def _row_parse_table(text, max_digits):
    """``parse_table_csv`` written row by row with the ``csv`` module: the
    reference for the block-wise parser, error for error."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != TABLE_HEADER:
        raise BadHeader(
            f"expected header {','.join(TABLE_HEADER)!r}, got {','.join(header)!r}", 1
        )
    cells = {}
    for row in reader:
        if not row:
            continue
        line = reader.line_num
        if len(row) != 4:
            raise RaggedRow(f"expected 4 fields, got {len(row)}", line)
        counts = []
        for name, field in zip(("total", "positive"), row[2:]):
            if not (field.isascii() and field.isdigit()):
                raise BadCount(f"{name} {field!r} is not a non-negative integer", line)
            if len(field) > max_digits:
                raise BadCount(
                    f"{name} has {len(field)} digits, more than {max_digits}", line
                )
            counts.append(int(field))
        total, positive = counts
        if positive > total:
            raise BadCount(f"positive ({positive}) exceeds total ({total})", line)
        if tuple(row[:2]) in cells:
            raise DuplicateCell(
                f"duplicate cell for stratum {row[0]!r}, group {row[1]!r}", line
            )
        cells[tuple(row[:2])] = Counts(total, positive)
    if not cells:
        raise EmptyData("no data rows after the header")
    strata = list(dict.fromkeys(stratum for stratum, _ in cells))
    groups = list(dict.fromkeys(group for _, group in cells))
    if len(groups) != 2:
        raise NotTwoGroups(f"expected exactly two group values, found {len(groups)}: {groups}")
    for stratum in strata:
        for group in groups:
            if (stratum, group) not in cells:
                raise MissingCell(f"stratum {stratum!r} has no row for group {group!r}")
    return StratifiedComparison(
        *groups, [Stratum(s, cells[s, groups[0]], cells[s, groups[1]]) for s in strata]
    )


def _outcome(parse, text):
    """The table ``parse`` reads from ``text``, or its error, message and line."""
    try:
        table = parse(text)
    except ConfoundError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return table, repr(table)


class TestTableIngestPaths:
    """The table parser reads plain text directly and quoted text with the
    csv module, block by block; both must give what a row-by-row reading of
    the same rows gives: the same table, or the same error and line."""

    @settings(max_examples=300, deadline=None)
    @given(plain_table_texts())
    # a block of blank lines alone holds no fault
    @example(("stratum,group,total,positive\n\n\n,,1,0\n\n\n,0,1,0", 1))
    # each fault search starts afresh: the repeat on line 4 comes first
    @example(("stratum,group,total,positive\ns,a,5,1\ns,b,5,1\ns,a,5,1\nt,a,x,1\n", 1))
    def test_plain_quoted_and_row_by_row_agree(self, case):
        text, block = case
        expected = _outcome(lambda t: _row_parse_table(t, 3), text)
        with count_digits(3), block_chars(block):
            assert _outcome(parse_table_csv, text) == expected
            assert _outcome(parse_table_csv, quoted(text)) == expected


class TestReports:
    def test_text_and_json_share_classification(self, hospital):
        doc = build_analyze_report(hospital)
        text = render_analyze_text(doc)
        assert doc["reversal"]["classification"] == "FULL_REVERSAL"
        assert "classification: FULL_REVERSAL" in text

    def test_json_round_trips(self, berkeley):
        doc = build_analyze_report(berkeley, standardize_ref="combined")
        assert json.loads(json.dumps(doc)) == doc

    def test_color_styling_is_optional(self, hospital):
        doc = build_analyze_report(hospital)
        assert "\033[" in render_analyze_text(doc, color=True)
        assert "\033[" not in render_analyze_text(doc, color=False)

    def test_no_color_env_var_wins_over_tty(self, monkeypatch):
        import sys as _sys

        from confound.cli import _color_enabled

        monkeypatch.setattr(_sys.stdout, "isatty", lambda: True, raising=False)
        monkeypatch.delenv("NO_COLOR", raising=False)
        assert _color_enabled()
        monkeypatch.setenv("NO_COLOR", "1")
        assert not _color_enabled()


# every kind of value a report can hold, and the edge cases of each: text with
# non-ASCII, control, line-separator and lone-surrogate characters; ints past
# 64 bits; floats that print in exponent form, subnormals, -0.0, NaN and the
# infinities; and containers that are empty
_json_text = st.one_of(
    st.text(st.characters(blacklist_categories=()), max_size=8),
    st.sampled_from(["", "\u2028", "\u2029", "\x00\x1f\x7f", "\ud800", "\udfff",
                     'q"\\/', "\u00e9\u65e5\U0001f600"]),
)
_json_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**63, -(2**63) - 1, 10**300, -(10**300)]),
    st.floats(),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308,
                     1e16, 1e-7, 1.7976931348623157e308]),
    _json_text,
)
_json_doc = st.recursive(
    _json_scalar,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_json_text, inner, max_size=4),
    ),
    max_leaves=24,
)


# one shape of record: a leaf kind, or a dict of shapes by key (keys that
# hold "%" included), or a list or tuple of shapes
_json_leaves = {
    "str": _json_text,
    "int": st.integers(),
    "float": st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0])),
    "bool": st.booleans(),
    "null": st.none(),
}
_json_key = st.one_of(_json_text, st.sampled_from(["%", "%s", "%%", "a%db", "%(x)s"]))
_json_shape = st.recursive(
    st.sampled_from(sorted(_json_leaves)),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["list", "tuple"]), st.lists(inner, max_size=3)),
        st.tuples(st.just("dict"), st.dictionaries(_json_key, inner, max_size=3)),
    ),
    max_leaves=8,
)


def _json_record(draw, shape):
    if isinstance(shape, str):
        return draw(_json_leaves[shape])
    kind, inner = shape
    if kind == "dict":
        return {key: _json_record(draw, s) for key, s in inner.items()}
    values = [_json_record(draw, s) for s in inner]
    return values if kind == "list" else tuple(values)


def _json_altered(draw, value):
    """``value`` with one node, drawn, changed so that its record no longer
    shares the others' shape: an int for a float, an empty container for a
    full one, a list for a tuple (and back), keys in another order, or
    another scalar."""
    t = type(value)
    if t in (dict, list, tuple) and value and draw(st.booleans()):
        if t is dict:
            key = draw(st.sampled_from(list(value)))
            return {**value, key: _json_altered(draw, value[key])}
        items = list(value)
        i = draw(st.integers(0, len(items) - 1))
        items[i] = _json_altered(draw, items[i])
        return t(items)
    if t is float:
        return int(value) if math.isfinite(value) else 0
    if t is dict:
        return dict(reversed(value.items())) if draw(st.booleans()) else {}
    if t in (list, tuple):
        other = tuple if t is list else list
        return other(value) if draw(st.booleans()) else t()
    return draw(_json_scalar)


@st.composite
def json_record_lists(draw):
    """Two or more records of one drawn shape, at times with one record
    altered, and nested at a drawn depth."""
    shape = draw(_json_shape)
    records = [_json_record(draw, shape) for _ in range(draw(st.integers(2, 5)))]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(records) - 1))
        records[i] = _json_altered(draw, records[i])
    return draw(st.sampled_from([records, tuple(records), {"rows": records}, [records]]))


def _json_nested(depth: int):
    """A list and a dict in turn, ``depth`` levels deep around one int."""
    doc = 1
    for level in range(depth):
        doc = [doc] if level % 2 else {"k": doc}
    return doc


class TestJsonWriter:
    """The report writer against ``json.dumps(doc, indent=2)``."""

    @given(_json_doc)
    # empty lists, alone and as one-item columns
    @example([])
    @example(())
    @example({"": ([],)})
    @example([[]])
    # columns that share no template: other lengths, keys or key orders
    @example([[1], [1, 2]])
    @example([{"a": 1}, {"b": 1}])
    @example([{"a": 1, "b": 2}, {"b": 2, "a": 1}])
    # mixed types, a key that holds "%", and the float spellings
    @example([1, "a", None, True, 1.5, [], {}])
    @example([(1, 2), [1, 2]])
    @example([{"%": None}, {"%": None}])
    @example([float("nan"), float("inf"), -0.0])
    @example(_json_nested(200))
    def test_matches_json_dumps(self, doc):
        assert _json_dumps(doc) == json.dumps(doc, indent=2)

    @settings(max_examples=300)
    @given(json_record_lists())
    def test_records_of_one_shape_match_json_dumps(self, doc):
        assert _json_dumps(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
    def test_matches_json_dumps_on_each_golden(self, path):
        text = path.read_text(encoding="utf-8")
        doc = json.loads(text)
        assert _json_dumps(doc) == json.dumps(doc, indent=2) == text.removesuffix("\n")

    @pytest.mark.parametrize(
        "doc",
        [
            {1, 2}, {"a": [object()]}, b"x", {"k": 1j}, {1: "int key"},
            [1, object()], [[1], [object()]],
        ],
    )
    def test_other_types_are_type_errors(self, doc):
        with pytest.raises(TypeError):
            _json_dumps(doc)


RED = "\x1b[31m"


class TestTextSafety:
    """Labels reach text reports with control characters escaped; JSON keeps
    them as they are."""

    def _run(self, capsys, argv):
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert "\x1b" not in out
        return out

    def test_analyze_and_standardize_labels(self, tmp_path, capsys):
        p = tmp_path / "table.csv"
        p.write_text(
            HEADER
            + f"{RED}sick,A{RED},60,36\n{RED}sick,B,20,14\n"
            + f"well\t1,A{RED},20,4\nwell\t1,B,60,18\n"
        )
        out = self._run(capsys, ["analyze", str(p), "--standardize", "combined"])
        assert "\\x1b[31msick" in out
        assert "well\\x091" in out
        assert "first=A\\x1b[31m" in out
        assert "A\\x1b[31m higher" in out
        out = self._run(capsys, ["standardize", str(p)])
        assert "\\x1b[31msick=" in out
        assert run(["analyze", str(p), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["groups"]["first"] == f"A{RED}"
        assert doc["rates"]["strata"][0]["stratum"] == f"{RED}sick"

    def test_scan_labels(self, tmp_path, capsys):
        p = tmp_path / "records.csv"
        p.write_text(
            f"g,out,{RED}cov,one\n"
            + "a,1,u,x\na,0,v,x\nb,0,u,y\nb,1,v,y\n"
        )
        out = self._run(
            capsys,
            ["scan", str(p), "--group-col", "g", "--outcome-col", "out",
             "--candidates", f"{RED}cov,one,{RED}gone"],
        )
        assert "\\x1b[31mcov" in out
        assert "skipped: \\x1b[31mgone (unknown-column)" in out
        assert "skipped: one (empty-stratum-side)" in out

    def test_decompose_labels(self, tmp_path, capsys):
        p = tmp_path / "records.csv"
        p.write_text(f"r,x,y\n{RED}r1,1,2\n{RED}r1,2,1\nr2\uffff,3,5\nr2\uffff,5,3\n", "utf-8")
        out = self._run(
            capsys, ["decompose", str(p), "--group-col", "r", "--x", "x", "--y", "y"]
        )
        assert "\\x1b[31mr1" in out
        assert "r2\\uffff" in out and "\uffff" not in out

    def test_plot_labels(self, tmp_path, capsys):
        # a control character in a group label is escaped, so the SVG parses
        p = tmp_path / "table.csv"
        p.write_text(HEADER + "s,A\x01x,80,40\ns,B,60,20\n")
        out = tmp_path / "p.svg"
        assert run(["plot", str(p), "--out", str(out)]) == 0
        root = ET.parse(out).getroot()
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "A\\x01x (80, 40) 50.0%" in texts


@pytest.fixture
def hospital_path(tmp_path, hospital_csv):
    p = tmp_path / "hospital.csv"
    p.write_text(hospital_csv)
    return str(p)


@pytest.fixture
def berkeley_path(tmp_path, berkeley_csv):
    p = tmp_path / "berkeley.csv"
    p.write_text(berkeley_csv)
    return str(p)


@pytest.fixture
def robinson_path(tmp_path, robinson_csv):
    p = tmp_path / "robinson.csv"
    p.write_text(robinson_csv)
    return str(p)


class TestRun:
    def test_analyze_text(self, hospital_path, capsys):
        assert run(["analyze", hospital_path]) == 0
        out = capsys.readouterr().out
        for token in ("60.0%", "70.0%", "20.0%", "30.0%", "50.0%", "40.0%"):
            assert token in out
        assert "FULL_REVERSAL" in out
        assert "\033[" not in out  # captured stdout is not a tty

    def test_analyze_json_matches_text_classification(self, berkeley_path, capsys):
        assert run(["analyze", berkeley_path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["reversal"]["classification"] == "MIXED"
        assert run(["analyze", berkeley_path]) == 0
        assert "classification: MIXED" in capsys.readouterr().out

    def test_analyze_with_standardization(self, berkeley_path, capsys):
        assert run(
            ["analyze", berkeley_path, "--standardize", "combined", "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["standardized"]["direction"] == "SECOND_HIGHER"
        assert doc["standardized"]["rate_second"] > doc["standardized"]["rate_first"]

    def test_standardize_subcommand(self, hospital_path, capsys):
        assert run(["standardize", hospital_path]) == 0
        out = capsys.readouterr().out
        assert "B higher" in out

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert run(["analyze", str(tmp_path / "nope.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:io:")

    def test_parse_error_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("wrong,header\n")
        assert run(["analyze", str(p)]) == 2
        assert capsys.readouterr().err.startswith("error:bad-header:")

    def test_precondition_failure_exit_3(self, tmp_path, capsys):
        p = tmp_path / "zero.csv"
        p.write_text(HEADER + "s,g1,0,0\ns,g2,5,1\n")
        assert run(["analyze", str(p)]) == 3
        assert capsys.readouterr().err.startswith("error:empty-stratum-side:")

    @pytest.mark.parametrize(
        "argv",
        [["analyze"], ["analyze", "--standardize", "first"], ["plot", "--out", "p.svg"],
         *(["standardize", "--reference", ref] for ref in REFERENCES)],
        ids=lambda argv: "-".join(a.strip("-") for a in argv),
    )
    def test_first_empty_side_from_every_subcommand(
        self, tmp_path, monkeypatch, capsys, argv
    ):
        # stratum a has no g2 rows and stratum b no g1 rows: a is named first
        monkeypatch.chdir(tmp_path)
        (tmp_path / "two.csv").write_text(
            HEADER + "a,g1,5,1\na,g2,0,0\nb,g1,0,0\nb,g2,5,1\n"
        )
        assert run([argv[0], "two.csv", *argv[1:]]) == 3
        assert capsys.readouterr().err == (
            "error:empty-stratum-side: stratum 'a' has no rows for group 'g2'\n"
        )

    @pytest.mark.parametrize("table", ["zero", "missing"])
    def test_plot_checks_sizes_before_the_table(self, tmp_path, capsys, table):
        p = tmp_path / f"{table}.csv"
        if table == "zero":  # an empty side, exit 3 with a valid size
            p.write_text(HEADER + "s,g1,0,0\ns,g2,5,1\n")
        argv = ["plot", str(p), "--out", str(tmp_path / "p.svg"), "--width", "50"]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error:invalid-value:")

    def test_scan_outcome_declared_numeric(self, tmp_path, capsys):
        p = tmp_path / "r.csv"
        p.write_text("g,died\na,1\nb,0\n")
        argv = ["scan", str(p), "--group-col", "g", "--outcome-col", "died",
                "--candidates", "g", "--numeric", "died"]
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            "error:invalid-value: columns declared both numeric and boolean: ['died']\n"
        )

    @pytest.mark.parametrize("bins", ["1", "0", "-3"])
    @pytest.mark.parametrize("records", ["r.csv", "missing.csv"])
    def test_scan_checks_the_bin_count_once(self, tmp_path, capsys, records, bins):
        # one error before the records are read, not one skip per candidate
        (tmp_path / "r.csv").write_text("g,out,x,y,c\na,1,1,2,u\nb,0,2,1,u\n")
        argv = ["scan", str(tmp_path / records), "--group-col", "g",
                "--outcome-col", "out", "--candidates", "x,y,c", "--numeric", "x,y",
                "--bins", bins]
        assert run(argv) == 2
        assert capsys.readouterr() == (
            "", f"error:invalid-value: bin count must be >= 2, got {bins}\n"
        )

    @pytest.mark.parametrize("bins", ["10001", "1" + "0" * 30])
    @pytest.mark.parametrize("records", ["r.csv", "missing.csv"])
    def test_scan_bounds_the_bin_count(self, tmp_path, capsys, records, bins):
        # above MAX_BINS, one error before the records are read
        (tmp_path / "r.csv").write_text("g,out,x,y,c\na,1,1,2,u\nb,0,2,1,u\n")
        argv = ["scan", str(tmp_path / records), "--group-col", "g",
                "--outcome-col", "out", "--candidates", "x,y,c", "--numeric", "x,y",
                "--bins", bins]
        assert run(argv) == 2
        assert capsys.readouterr() == (
            "", f"error:invalid-value: bin count must be <= 10000, got {bins}\n"
        )

    @pytest.mark.parametrize("size", ["-1", "-40"])
    @pytest.mark.parametrize("records", ["r.csv", "missing.csv"])
    def test_scan_checks_the_minimum_stratum_size_once(self, tmp_path, capsys, records, size):
        # below 0, one error before the records are read
        (tmp_path / "r.csv").write_text("g,out,x,c\na,1,1,u\nb,0,2,u\n")
        argv = ["scan", str(tmp_path / records), "--group-col", "g",
                "--outcome-col", "out", "--candidates", "x,c", "--numeric", "x",
                "--min-stratum-size", size]
        assert run(argv) == 2
        assert capsys.readouterr() == (
            "", f"error:invalid-value: minimum stratum size must be >= 0, got {size}\n"
        )

    @pytest.mark.parametrize(
        "text, argv, code, message",
        [
            # values near 1e308: the sum of the group means, exact, is 0 (fsum
            # over the rows would overflow part-way), and the squares overflow
            ("g,x,y\na,-6.3e307,1\nb,-6.3e307,2\nc,1.5e308,3\nd,1.5e308,1\n",
             ["decompose", "{f}", "--group-col", "g", "--x", "x", "--y", "y"], 3,
             "error:numeric-overflow: columns 'x' and 'y' are too large for float moments\n"),
            # the group and outcome columns are checked once, before any candidate
            (None,
             ["scan", "{f}", "--group-col", "foreign_born", "--outcome-col", "literate",
              "--candidates", "region", "--numeric", "foreign_born"], 2,
             "error:invalid-value: group column 'foreign_born' must be categorical\n"),
            # so is decompose's, even when it is also x: -0 and 0 are one value,
            # not two groups
            ("g,x,y\na,-0,1\nb,0,2\nc,1,3\nd,2,1\n",
             ["decompose", "{f}", "--group-col", "x", "--x", "x", "--y", "y"], 2,
             "error:invalid-value: group column 'x' must be categorical\n"),
            # a blank first line is a header without names
            ("\ng,x,y\na,1,2\nb,2,1\n",
             ["decompose", "{f}", "--group-col", "g", "--x", "x", "--y", "y"], 2,
             "error:bad-header: line 1: column names must be unique and non-empty: []\n"),
        ],
        ids=["decompose-overflow", "scan-numeric-group", "decompose-signed-zero-group",
             "decompose-blank-header"],
    )
    def test_error_message_and_no_report(
        self, tmp_path, robinson_path, text, argv, code, message
    ):
        # on the records written here, or else on the Robinson fixture
        path = robinson_path
        if text is not None:
            path = str(tmp_path / "r.csv")
            (tmp_path / "r.csv").write_text(text)
        argv = [path if a == "{f}" else a for a in argv]
        assert run_captured(argv) == (code, "", message)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_leaves_the_collector_as_it_found_it(self, robinson_path, capsys, enabled):
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            argv = ["decompose", robinson_path, "--group-col", "region",
                    "--x", "foreign_born", "--y", "literate"]
            assert run(argv) == 0
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_main_turns_the_collector_off(self, robinson_path):
        # in a child process, since main() ends its process; the collector's
        # state is read as run() starts
        code = (
            "import gc, sys\n"
            "from confound import cli\n"
            "def run(argv, run=cli.run):\n"
            "    print('collector on:', gc.isenabled(), file=sys.stderr)\n"
            "    return run(argv)\n"
            "cli.run = run\n"
            "sys.argv[1:] = ['decompose', sys.argv[1], '--group-col', 'region',\n"
            "                '--x', 'foreign_born', '--y', 'literate']\n"
            "cli.main()\n"
        )
        result = python("-c", code, robinson_path)
        assert (result.returncode, result.stderr) == (0, b"collector on: False\n")

    def test_scan_takes_the_largest_bin_count(self, tmp_path, capsys):
        (tmp_path / "r.csv").write_text("g,out,x\na,1,1\nb,0,2\n")
        argv = ["scan", str(tmp_path / "r.csv"), "--group-col", "g",
                "--outcome-col", "out", "--candidates", "x", "--numeric", "x",
                "--bins", "10000", "--format", "json"]
        assert run(argv) == 0
        (skip,) = json.loads(capsys.readouterr().out)["skipped"]
        assert skip["reason"] == "too-few-distinct-values"

    @pytest.mark.parametrize("reference", REFERENCES)
    @pytest.mark.parametrize("command", ["analyze", "standardize"])
    def test_near_tie_has_a_direction(self, tmp_path, capsys, command, reference):
        # B leads by one count in 1e13 in every stratum; the float rates
        # differ by 1e-13
        p = tmp_path / "near.csv"
        p.write_text(
            HEADER + "s1,A,10000000000000,5000000000000\n"
            "s1,B,10000000000000,5000000000001\n"
            "s2,A,10000000000000,2000000000000\n"
            "s2,B,10000000000000,2000000000001\n"
        )
        option = "--standardize" if command == "analyze" else "--reference"
        argv = [command, str(p), option, reference]
        assert run(argv) == 0
        assert (
            f"standardized (reference={reference}): A 35.000%  B 35.000%  -> B higher\n"
            in capsys.readouterr().out
        )
        assert run([*argv, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)["standardized"]
        assert doc["direction"] == "SECOND_HIGHER"
        assert (doc["rate_first"], doc["rate_second"]) == (0.35, 0.3500000000001)

    @pytest.mark.parametrize("scale", [int(sys.float_info.max), 10**400])
    def test_generate_rejects_a_scale_past_the_float_range(self, capsys, scale):
        for seed in range(6):
            assert run(["generate", "--scale", str(scale), "--seed", str(seed)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:invalid-value: scale must be <= "), err

    def test_generate_at_a_float_range_scale(self, capsys):
        assert run(["generate", "--scale", str(2**1023)]) == 0
        assert parse_table_csv(capsys.readouterr().out).stratum_labels() == ("s1", "s2")

    def test_usage_error_exit_2(self, capsys):
        assert run(["analyze"]) == 2
        capsys.readouterr()

    @pytest.mark.skipif(
        sys.version_info[:2] not in HELP_VERSIONS,
        reason="the help texts are pinned for the interpreters they were computed on",
    )
    @pytest.mark.parametrize(
        "command",
        ["confound", "analyze", "standardize", "scan", "decompose", "generate", "plot"],
    )
    def test_help_text(self, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [] if command == "confound" else [command]
        code, out, err = run_captured([*argv, "--help"])
        assert (code, err) == (0, "")
        assert out == (HELP / f"{command}.txt").read_text(encoding="utf-8")

    def test_scan_subcommand(self, tmp_path, capsys):
        records = hospital_records(noise_seed=8)
        lines = ["hospital,death,condition,noise"]
        for h, dead, cond, noise in records.rows:
            lines.append(f"{h},{1 if dead else 0},{cond},{noise}")
        p = tmp_path / "records.csv"
        p.write_text("\n".join(lines) + "\n")
        assert run(
            [
                "scan", str(p),
                "--group-col", "hospital",
                "--outcome-col", "death",
                "--candidates", "condition,noise",
                "--format", "json",
            ]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["findings"][0]["covariate"] == "condition"
        assert doc["findings"][0]["report"]["classification"] == "FULL_REVERSAL"

    def test_scan_group_pair_selection(self, tmp_path, capsys):
        p = tmp_path / "records.csv"
        p.write_text(
            "g,out,cov\n"
            + "a,1,u\na,0,u\nb,0,u\nb,1,u\nc,1,u\n"
        )
        # three group values: refuse without an explicit pair
        assert run(
            ["scan", str(p), "--group-col", "g", "--outcome-col", "out",
             "--candidates", "cov"]
        ) == 2
        assert capsys.readouterr().err.startswith("error:not-two-groups:")
        assert run(
            ["scan", str(p), "--group-col", "g", "--outcome-col", "out",
             "--candidates", "cov", "--groups", "a,b", "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["input"]["rows"] == 4

    def test_decompose_subcommand(self, robinson_path, capsys):
        assert run(
            [
                "decompose", robinson_path,
                "--group-col", "region",
                "--x", "foreign_born",
                "--y", "literate",
                "--format", "json",
            ]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["divergence"]["verdict"] == "DIVERGENT"
        assert doc["convention"] == "population"

    def test_generate_deterministic_and_parseable(self, capsys):
        assert run(["generate", "--seed", "11"]) == 0
        first = capsys.readouterr().out
        assert run(["generate", "--seed", "11"]) == 0
        second = capsys.readouterr().out
        assert first == second
        sc = parse_table_csv(first)
        assert len(sc.strata) == 2

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "e250d37aba8d93c8af420e3aab41ca5901c8f6fa87be8c0cdcdb6e9b807c31e0"),
            # the ninth attempt is the first full reversal
            (7, "77d8537c3e384ddf4c1b65f20698a85d46592c7895e9c457027dc795a59fafd3"),
        ],
        ids=["seed0", "seed7"],
    )
    def test_generate_wide_table_bytes(self, capsys, seed, digest):
        argv = ["generate", "--strata", "4000", "--scale", "5000", "--seed", str(seed)]
        assert run(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_generate_json(self, capsys):
        assert run(["generate", "--seed", "3", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 3
        assert parse_table_csv(doc["table_csv"]) is not None

    def test_huge_counts_render(self, tmp_path, capsys):
        # 400-digit counts are far past the float range; plot maps them exactly
        big = "9" * 400
        p = tmp_path / "big.csv"
        p.write_text(HEADER + f"s,g1,{big},1\ns,g2,{big},{big}\nt,g1,5,2\nt,g2,7,3\n")
        out = tmp_path / "big.svg"
        for argv in (["analyze", str(p)], ["standardize", str(p)],
                     ["plot", str(p), "--out", str(out)]):
            assert run(argv) == 0
        assert 'x2="592.00" y2="48.00"' in out.read_text()  # g2's aggregate chord

    @pytest.mark.parametrize(
        "size", [["--width", "-640"], ["--width", "0"], ["--width", "96"],
                 ["--height", "50"], ["--width", "1" + "0" * 400]]
    )
    def test_plot_rejects_sizes_without_a_plot_area(
        self, hospital_path, tmp_path, capsys, size
    ):
        out = tmp_path / "p.svg"
        assert run(["plot", hospital_path, "--out", str(out), *size]) == 2
        assert capsys.readouterr().err.startswith("error:invalid-value:")
        assert not out.exists()

    def test_plot_at_the_largest_float_size(self, hospital_path, tmp_path, capsys):
        out = tmp_path / "p.svg"
        width = str(int(sys.float_info.max))
        assert run(["plot", hospital_path, "--out", str(out), "--width", width]) == 0
        assert f'width="{width}"' in out.read_text()

    def test_plot_writes_deterministic_svg(self, hospital_path, tmp_path, capsys):
        out1 = tmp_path / "a.svg"
        out2 = tmp_path / "b.svg"
        assert run(["plot", hospital_path, "--out", str(out1)]) == 0
        assert run(["plot", hospital_path, "--out", str(out2)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""  # report stream stays clean
        assert "wrote" in captured.err
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().count("<line ") == 2


# every option of every subcommand, for options given to the wrong one
_ALL_OPTIONS = sorted(
    {name for _, arguments in cli.COMMANDS.values() for name, _ in arguments if name[0] == "-"}
)
# values for an option or a positional: ints that int() and argparse read
# alike, or refuse alike, and tokens argparse reads as options or refuses
_VALUES = [
    "x.csv", "a,b", "5", " 5", "+5", "1_0", "\u0663", "0", "1.5", " -5", "-1", "", "-",
    "--", "-h", "--help", "xml",
]
# the keywords the reader interprets; help and metavar only shape the help
_READ_KEYWORDS = {"action", "choices", "default", "help", "metavar", "required", "type"}


@st.composite
def _command_lines(draw) -> list[str]:
    """A command line drawn from a subcommand's grammar: its positionals and
    required options, then more of its options, in any order, with values
    from each option's own. In half of them, parts are mangled: any value,
    options of other subcommands, abbreviations, ``--opt=value``, ``--``,
    ``-1``, ``-h``, empty strings, and a piece or a token left out."""
    mangled = draw(st.booleans())
    commands = [*cli.COMMANDS, *(["anal", "-h", "", "--format"] if mangled else [])]
    command = draw(st.sampled_from(commands))
    arguments = cli.COMMANDS.get(command, ("", ()))[1]
    options = [(name, kw) for name, kw in arguments if name[0] == "-"]

    def value(keywords: dict) -> str:
        valid = st.sampled_from([*map(str, keywords.get("choices", ()))] or (
            ["5", " 5", "+5", "1_0", "\u0663"] if "type" in keywords else ["x.csv", "a,b", ""]
        ))
        return draw(st.sampled_from(_VALUES) if mangled and draw(st.booleans()) else valid)

    def option(name: str, keywords: dict) -> list[str]:
        return [name] if keywords.get("action") else [name, value(keywords)]

    pieces = [
        option(name, kw) if name[0] == "-" else [value(kw)]
        for name, kw in arguments
        if name[0] != "-" or kw.get("required")
    ]
    kinds = ["own", "bare", "other", "abbreviation", "equals", "positional", "loose"]
    for _ in range(draw(st.integers(0, 4)) if options else 0):
        name, kw = draw(st.sampled_from(options))
        kind = draw(st.sampled_from(kinds)) if mangled and draw(st.booleans()) else "own"
        if kind == "own":
            pieces.append(option(name, kw))
        elif kind == "bare":
            pieces.append([name])
        elif kind == "other":
            pieces.append([draw(st.sampled_from(_ALL_OPTIONS)), value({})])
        elif kind == "abbreviation":
            pieces.append([name[:draw(st.integers(2, len(name) - 1))], value(kw)])
        elif kind == "equals":
            pieces.append([f"{name}={value(kw)}"])
        elif kind == "positional":
            pieces.append([value({})])
        else:
            pieces.append([draw(st.sampled_from(["--", "-1", "-h", ""]))])
    pieces = draw(st.permutations(pieces))
    if mangled and pieces and draw(st.integers(0, 3)) == 0:
        del pieces[draw(st.integers(0, len(pieces) - 1))]
    argv = [command, *(token for piece in pieces for token in piece)]
    if mangled and len(argv) > 1 and draw(st.integers(0, 3)) == 0:
        del argv[draw(st.integers(1, len(argv) - 1))]
    return argv


def _argparse_vars(argv: list[str]) -> dict | None:
    """``vars(_build_parser().parse_args(argv))``, or None where argparse
    refuses ``argv``."""
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


def _stub(ns) -> int:
    """A subcommand that prints the namespace it was given."""
    print(sorted((k, v) for k, v in vars(ns).items() if k != "func"), ns.func.__name__)
    return 0


class TestArgvReader:
    """``cli._read_argv`` reads a well-formed command line from the option
    table as argparse reads it, and leaves every other one to argparse."""

    @pytest.mark.parametrize("argv", [
        ["analyze", "t.csv"],
        ["analyze", "t.csv", "--standardize", "first", "--allow-tied-strata", "--format", "json"],
        ["standardize", "--reference", "equal", "t.csv"],
        ["scan", "r.csv", "--candidates", "c,d", "--group-col", "g", "--outcome-col", "o",
         "--bins", " 5", "--min-stratum-size", "+5", "--bins", "1_0", "--numeric", ""],
        ["decompose", "r.csv", "--group-col", "g", "--x", "x", "--y", "y"],
        ["generate", "--seed", "\u0663", "--strata", "4"],
        ["generate"],
        ["plot", "t.csv", "--out", "p.svg", "--fan-only", "--width", "96", "--fan-only"],
    ])
    def test_reads_a_well_formed_command_line(self, argv):
        ns = cli._read_argv(argv)
        assert ns is not None
        assert vars(ns) == _argparse_vars(argv)

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["anal", "t.csv"], ["analyze", "t.csv", "-h"],
        ["analyze", "t.csv", "--format=json"], ["analyze", "t.csv", "--form", "json"],
        ["analyze", "--", "t.csv"], ["analyze", "t.csv", "--format", "xml"],
        ["analyze", "t.csv", "--format"], ["analyze"], ["analyze", "t.csv", "u.csv"],
        ["analyze", "t.csv", "--reference", "first"], ["generate", "--seed", "-1"],
        ["generate", "--seed", "1.5"], ["scan", "r.csv", "--group-col", "g"],
        ["plot", "t.csv", "--out", "-"],
    ])
    def test_leaves_every_other_command_line_to_argparse(self, argv):
        assert cli._read_argv(argv) is None

    @settings(max_examples=400, deadline=None)
    @given(_command_lines())
    @example(["scan", "r.csv", "--group-col", "g", "--outcome-col", "o", "--candidates", "c"])
    @example(["generate", "--seed", "-1"])
    def test_agrees_with_argparse(self, argv):
        ns = cli._read_argv(argv)
        if ns is not None:
            assert vars(ns) == _argparse_vars(argv)
        with pytest.MonkeyPatch.context() as patched:
            for name in cli.COMMANDS:
                patched.setattr(cli, f"_cmd_{name}", _stub)
            read = run_captured(argv)
            patched.setattr(cli, "_read_argv", lambda argv: None)
            assert run_captured(argv) == read

    def test_the_reader_interprets_every_keyword_of_the_table(self):
        # a keyword outside these, such as nargs= or action="append", would be
        # read as a plain store option: it fails here instead
        for command, (_, arguments) in cli.COMMANDS.items():
            for name, keywords in arguments:
                assert set(keywords) <= _READ_KEYWORDS, (command, name)
                if name[0] != "-":
                    assert set(keywords) <= {"help", "metavar"}, (command, name)
                    continue
                assert name.startswith("--") and "=" not in name, (command, name)
                assert keywords.get("action", "store_true") == "store_true", (command, name)
                if "action" in keywords:
                    assert set(keywords) <= {"action", "help"}, (command, name)
                # argparse would pass a str default through the type
                assert keywords.get("type", int) is int, (command, name)
                assert not ("type" in keywords and isinstance(keywords.get("default"), str))


@pytest.fixture(scope="module")
def validator():
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as resources

    schema = json.loads(
        (resources.files("confound") / "report.schema.json").read_text()
    )
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema)


class TestSchema:
    def _json_out(self, capsys, argv):
        assert run(argv) == 0
        return json.loads(capsys.readouterr().out)

    def test_all_commands_conform(
        self, validator, hospital_path, berkeley_path, robinson_path, tmp_path, capsys
    ):
        records = hospital_records(noise_seed=2)
        rec_path = tmp_path / "records.csv"
        rec_path.write_text(
            "\n".join(
                ["hospital,death,condition,noise"]
                + [
                    f"{h},{1 if d else 0},{c},{n}"
                    for h, d, c, n in records.rows
                ]
            )
            + "\n"
        )
        docs = [
            self._json_out(capsys, ["analyze", hospital_path, "--format", "json"]),
            self._json_out(
                capsys,
                ["analyze", berkeley_path, "--standardize", "combined",
                 "--format", "json"],
            ),
            self._json_out(
                capsys, ["standardize", hospital_path, "--format", "json"]
            ),
            self._json_out(
                capsys,
                ["scan", str(rec_path), "--group-col", "hospital",
                 "--outcome-col", "death", "--candidates",
                 "condition,noise,ghost", "--format", "json"],
            ),
            self._json_out(
                capsys,
                ["decompose", robinson_path, "--group-col", "region",
                 "--x", "foreign_born", "--y", "literate", "--format", "json"],
            ),
            self._json_out(capsys, ["generate", "--seed", "5", "--format", "json"]),
        ]
        for doc in docs:
            validator.validate(doc)
