"""Fuzzing the subcommands that read files, through ``run()``.

Whatever the file holds, ``scan``, ``decompose``, ``analyze``,
``standardize`` and ``plot`` end in a report (exit 0) or in exactly one
``error:<code>:`` line on stderr (exit 2 or 3), never in a traceback.
"""

from __future__ import annotations

import contextlib
import io
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from confound.cli import run

_NAMES = ("g", "out", "x", "y", "c")
_cell = st.one_of(
    st.sampled_from(
        ["", "a", "b", "c", "0", "1", "yes", "NO", "2.5", "-0", "nan", "inf",
         "1e308", "-1e308", "1e200", "1_0", '"', '"q,"', "\r", "\x1b[1m"]
    ),
    st.floats().map(repr),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
)
_row = st.lists(_cell, min_size=0, max_size=6).map(",".join)
_header = st.one_of(
    st.permutations(_NAMES).map(",".join),
    st.lists(st.one_of(st.sampled_from(_NAMES), _cell), min_size=1, max_size=6).map(
        ",".join
    ),
)
# rows that fit the full header, so inputs also get past parsing
_fitting_row = st.tuples(
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from(["0", "1"]),
    st.one_of(st.integers(-3, 3).map(str), st.floats(allow_nan=False).map(repr)),
    st.one_of(st.integers(-3, 3).map(str), st.floats(allow_nan=False).map(repr)),
    st.sampled_from(["u", "v"]),
).map(",".join)
_record_files = st.one_of(
    st.binary(max_size=60),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=60),
    st.builds(
        lambda header, rows, end: "\n".join([header, *rows]) + end,
        _header,
        st.lists(_row, max_size=12),
        st.sampled_from(["", "\n", "\r\n"]),
    ),
    st.builds(
        lambda rows, bad: "\n".join([",".join(_NAMES), *rows, *bad]) + "\n",
        st.lists(_fitting_row, min_size=2, max_size=12),
        st.lists(_row, max_size=1),
    ),
)
# counts of every size, 300- to 420-digit ones far past the float range
_count = st.one_of(
    st.integers(0, 9),
    st.builds(lambda n, k: 10**n + k, st.integers(300, 420), st.integers(0, 9)),
)
# a cell that parses: positive <= total
_cell_counts = st.builds(
    lambda total, d: f"{total},{total // d}", _count, st.integers(1, 4)
)
_table_files = st.one_of(
    st.binary(max_size=60),
    st.builds(
        lambda rows, end: "\n".join(["stratum,group,total,positive", *rows]) + end,
        st.lists(
            st.one_of(
                st.builds(
                    "{},{},{}".format,
                    st.sampled_from(["s", "t", '"u,v"']),
                    st.sampled_from(["g1", "g2", "g3"]),
                    st.one_of(_cell_counts, _row),
                ),
                _row,
            ),
            max_size=8,
        ),
        st.sampled_from(["", "\n", "\r\n", "\r"]),
    ),
    # every stratum has both cells, so inputs also get past parsing
    st.lists(st.tuples(_cell_counts, _cell_counts), min_size=1, max_size=4).map(
        lambda strata: "stratum,group,total,positive\n" + "".join(
            f"s{i},g1,{first}\ns{i},g2,{second}\n"
            for i, (first, second) in enumerate(strata)
        )
    ),
)
_ERROR_LINE = re.compile(r"error:[a-z-]+: ")

_fuzz = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _check(
    path, data: str | bytes, argv: list[str], done: tuple[str, ...] = ()
) -> tuple[int, list[str]]:
    """Run one command on ``data``; ``done`` is its stderr on success."""
    path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([argv[0], str(path), *argv[1:]])
    assert code in (0, 2, 3)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == list(done)
    else:
        assert len(lines) == 1 and _ERROR_LINE.match(lines[0]), lines
    return code, lines


@_fuzz
@given(
    data=_record_files,
    extra=st.sampled_from(
        [[], ["--groups", "a,b"], ["--binning", "equal_width"],
         ["--min-stratum-size", "2", "--format", "json"]]
    ),
)
def test_scan_never_crashes(tmp_path, data, extra):
    _check(
        tmp_path / "records.csv",
        data,
        ["scan", "--group-col", "g", "--outcome-col", "out",
         "--candidates", "x,c,y", "--numeric", "x,y", "--bins", "2", *extra],
    )


@_fuzz
@given(data=_record_files, fmt=st.sampled_from(["text", "json"]))
def test_decompose_never_crashes(tmp_path, data, fmt):
    _check(
        tmp_path / "records.csv",
        data,
        ["decompose", "--group-col", "g", "--x", "x", "--y", "y", "--format", fmt],
    )


@_fuzz
@given(
    data=_table_files,
    fmt=st.sampled_from(["text", "json"]),
    reference=st.sampled_from(["combined", "first", "second", "equal"]),
    fan_only=st.booleans(),
)
def test_table_commands_never_crash(tmp_path, data, fmt, reference, fan_only):
    table, out = tmp_path / "table.csv", tmp_path / "out.svg"
    _check(table, data, ["analyze", "--format", fmt, "--standardize", reference])
    _check(table, data, ["standardize", "--format", fmt, "--reference", reference])
    plot = ["plot", "--out", str(out), *(["--fan-only"] if fan_only else [])]
    _check(table, data, plot, done=(f"wrote {out}",))


def test_oversized_field_is_an_input_error(tmp_path):
    # the csv module refuses fields over its size limit (128 KiB by default)
    code, lines = _check(
        tmp_path / "records.csv",
        "g,out,x,y,c\na,1,1,2," + "u" * 200_000 + "\n",
        ["decompose", "--group-col", "g", "--x", "x", "--y", "y"],
    )
    assert code == 2 and lines[0].startswith("error:csv: ")


def test_undecodable_bytes_are_an_input_error(tmp_path):
    code, lines = _check(
        tmp_path / "records.csv",
        b"g,x,y\na,\xff1,2\n",
        ["decompose", "--group-col", "g", "--x", "x", "--y", "y"],
    )
    assert code == 2 and lines[0].startswith("error:csv: ")
    assert "not UTF-8 text" in lines[0]

