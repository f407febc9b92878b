"""Row-level records, stored column by column.

A :class:`RecordTable` holds one list of cells per declared column, never
copied into a second form and never changed.
``RecordTable(columns, rows)`` checks every cell once; the CSV parser,
which has typed every cell already, hands its column lists to the trusted
``RecordTable._of(columns, n_rows, data)``, which checks nothing again and
keeps them, and :meth:`RecordTable.where` keeps rows the same way.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Collection, Literal, Sequence

from .errors import UnknownColumn, ValidationError
from .tables import _Value


ColumnKind = Literal["categorical", "numeric", "boolean"]


class Column(_Value):
    """A column's name and the kind of its cells."""

    name: str
    kind: ColumnKind


class RecordTable(_Value):
    """Row-level data with a declared column schema, stored column by column.

    Categorical cells are text, numeric cells are finite floats (an int
    cell is stored as its float), boolean cells are bools (outcome
    columns). ``RecordTable(columns, rows)`` raises the error of the first
    bad cell in row order; ``rows`` is derived from the columns. The hash
    leaves the cells out: equal tables have equal columns and row counts.
    """

    columns: tuple[Column, ...]
    n_rows: int
    _data: tuple[list, ...]  # one list of cells per column

    def __init__(self, columns: Sequence[Column], rows: Sequence[Sequence]):
        columns = tuple(columns)
        rows = [tuple(r) for r in rows]
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate column names: {names}")
        for c in columns:
            if c.kind not in ("categorical", "numeric", "boolean"):
                raise ValidationError(f"unknown column kind {c.kind!r}")
        for i, row in enumerate(rows):
            _check_row(columns, i, row)
        data = list(zip(*rows)) or [()] * len(columns)
        data = [list(map(float, d) if c.kind == "numeric" else d) for c, d in zip(columns, data)]
        self.__dict__.update(columns=columns, n_rows=len(rows), _data=tuple(data))

    def __hash__(self) -> int:
        return hash((self.columns, self.n_rows))

    @property
    def rows(self) -> tuple[tuple[object, ...], ...]:
        return tuple(zip(*self._data)) if self._data else ((),) * self.n_rows

    def column_index(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise UnknownColumn(f"no column named {name!r}")

    def kind(self, name: str) -> ColumnKind:
        return self.columns[self.column_index(name)].kind

    def values(self, name: str) -> list:
        return list(self._cells(name))

    def _cells(self, name: str) -> list:
        """The stored cells of column ``name``, not copied: the package's own
        readers use them and never change them."""
        return self._data[self.column_index(name)]

    def where(self, name: str, labels: Collection[str]) -> RecordTable:
        """The rows whose value in column ``name`` is one of ``labels``."""
        keep = list(map(set(labels).__contains__, self._cells(name)))
        data = tuple(list(compress(cells, keep)) for cells in self._data)
        return self._of(self.columns, sum(keep), data)


def _check_row(columns: tuple[Column, ...], i: int, row: tuple) -> None:
    """Raise the error of row ``i``: its width first, then its cells in order."""
    if len(row) != len(columns):
        raise ValidationError(f"row {i} has {len(row)} cells, expected {len(columns)}")
    for c, v in zip(columns, row):
        if c.kind == "categorical" and not isinstance(v, str):
            raise ValidationError(
                f"row {i}, column {c.name!r}: expected text, got {v!r}"
            )
        if c.kind == "boolean" and not isinstance(v, bool):
            raise ValidationError(
                f"row {i}, column {c.name!r}: expected bool, got {v!r}"
            )
        if c.kind == "numeric":
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValidationError(
                    f"row {i}, column {c.name!r}: expected a number, got {v!r}"
                )
            try:
                finite = math.isfinite(v)
            except OverflowError:  # an int past the float range
                finite = False
            if not finite:
                raise ValidationError(f"row {i}, column {c.name!r}: non-finite value")
