"""The value classes behave as the frozen dataclasses they replace.

Each public value class is checked against a twin: a frozen dataclass with
the same name, fields and defaults, which is how the class was declared
before it moved onto ``tables._Value``. Representation, equality, hashing,
immutability, pattern-matching fields, constructor parameters, pickling and
copying must all agree.
"""

from __future__ import annotations

import copy
import inspect
import pickle
from dataclasses import (
    MISSING, Field, FrozenInstanceError, field, fields, make_dataclass
)

import pytest

from confound.detector import Classification, ReversalReport
from confound.ecological import DivergenceReport, EcologicalDecomposition, GroupSummary
from confound.geometry import GroupPath, RenderOptions, VectorDiagram
from confound.records import Column, RecordTable
from confound.scanning import Finding, ScanConfig, SkippedCandidate
from confound.standardize import WeightVector
from confound.tables import (
    Counts, Direction, Rate, StratifiedComparison, Stratum, _Value
)

FIRST = Direction.FIRST_HIGHER
REPORT = ReversalReport(
    (("s", FIRST), ("t", FIRST)), Direction.SECOND_HIGHER,
    Classification.FULL_REVERSAL, FIRST,
)
PATH = GroupPath("g", ((0, 0), (3, 1)))

# class -> (its former dataclass fields, as (name, default) with MISSING for
# none, or a dataclasses.field; arguments of one value; of another value)
CASES = {
    Counts: (["total", "positive"], (5, 2), (5, 3)),
    Rate: (["numerator", "denominator"], (2, 5), (4, 10)),
    Stratum: (["label", "first", "second"],
              ("s", Counts(5, 2), Counts(4, 1)), ("s", Counts(5, 2), Counts(4, 2))),
    StratifiedComparison: (
        ["group_first_label", "group_second_label", "strata"],
        ("A", "B", (Stratum("s", Counts(5, 2), Counts(4, 1)),)),
        ("B", "A", (Stratum("s", Counts(5, 2), Counts(4, 1)),)),
    ),
    ReversalReport: (
        ["stratum_directions", "aggregate_direction", "classification",
         "majority_direction"],
        ((("s", FIRST), ("t", FIRST)), Direction.SECOND_HIGHER,
         Classification.FULL_REVERSAL, FIRST),
        ((("s", FIRST),), FIRST, Classification.CONSISTENT, FIRST),
    ),
    ScanConfig: (
        [("binning", "quantile"), ("bins", 4), ("min_stratum_size", 1),
         ("allow_tied_strata", False)],
        ("equal_width", 8, 2, True), (),
    ),
    Finding: (["covariate", "binning", "report", "stratum_sizes"],
              ("sex", "categorical", REPORT, (10, 12)),
              ("sex", "categorical", REPORT, (12, 10))),
    SkippedCandidate: (["covariate", "reason", "detail"],
                       ("age", "too-few-distinct-values", "only 1 distinct value"),
                       ("age", "not-two-groups", "only 1 distinct value")),
    GroupSummary: (["label", "n", "mean_x", "mean_y"],
                   ("a", 2, 0.5, 1.5), ("a", 2, 0.5, -1.5)),
    EcologicalDecomposition: (
        ["total_cov", "between_cov", "within_cov", "total_corr", "between_corr",
         "within_corr", "group_summaries"],
        (0.25, 0.5, -0.25, 0.1, 0.9, None, (GroupSummary("a", 2, 0.5, 1.5),)),
        (0.25, 0.5, -0.25, 0.1, 0.9, -0.4, (GroupSummary("a", 2, 0.5, 1.5),)),
    ),
    DivergenceReport: (["divergent", "between_corr", "within_corr"],
                       (True, 0.9, -0.4), (False, 0.9, 0.4)),
    GroupPath: (["label", "points"], ("g", ((0, 0), (3, 1))), ("g", ((0, 0), (3, 2)))),
    VectorDiagram: (["stratum_labels", "groups"], (("s",), (PATH,)), (("t",), (PATH,))),
    RenderOptions: (
        [("width", 640), ("height", 480), ("parallelogram", True)], (800, 600, False), (),
    ),
    Column: (["name", "kind"], ("x", "numeric"), ("x", "categorical")),
    RecordTable: (
        ["columns", "n_rows", ("_data", field(hash=False))],
        ((Column("g", "categorical"), Column("x", "numeric")), [("a", 1.0), ("b", 2)]),
        ((Column("g", "categorical"), Column("x", "numeric")), [("a", 1.0), ("b", 3)]),
    ),
    WeightVector: (["weights"], ((("s", 0.25), ("t", 0.75)),), ((("s", 1),),)),
}
NAMES = {cls.__name__: cls for cls in CASES}


def twin_of(cls):
    """The frozen dataclass ``cls`` was declared as."""
    specs = []
    for spec in CASES[cls][0]:
        name, default = (spec, MISSING) if isinstance(spec, str) else spec
        if isinstance(default, Field):
            specs.append((name, object, default))
        elif default is MISSING:
            specs.append((name, object))
        else:
            specs.append((name, object, field(default=default)))
    return make_dataclass(cls.__name__, specs, frozen=True)


def values(name):
    """A value, an equal one built apart from it, an unequal one, and the
    twin holding the same fields."""
    cls = NAMES[name]
    _, args, other = CASES[cls]
    value = cls(*args)
    twin = twin_of(cls)(*(getattr(value, name) for name in cls._fields))
    return value, cls(*args), cls(*other), twin


def error_of(action) -> str:
    with pytest.raises(AttributeError) as err:
        action()
    return str(err.value)


def test_every_value_class_has_a_twin():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    assert set(subclasses(_Value)) == set(CASES)


@pytest.mark.parametrize("name", sorted(NAMES))
class TestParity:
    def test_fields_match_args_and_parameters(self, name):
        cls = NAMES[name]
        twin = twin_of(cls)
        assert cls._fields == tuple(f.name for f in fields(twin))
        assert cls.__match_args__ == twin.__match_args__
        if cls is not RecordTable:  # built from rows, never from its fields
            assert [
                (p.name, p.kind, p.default)
                for p in inspect.signature(cls).parameters.values()
            ] == [
                (p.name, p.kind, p.default)
                for p in inspect.signature(twin).parameters.values()
            ]

    def test_repr_eq_and_hash(self, name):
        value, same, other, twin = values(name)
        assert repr(value) == repr(twin)
        assert value == same and not value != same
        assert value != other and not value == other
        assert value != twin and twin != value
        assert value.__eq__(twin) is NotImplemented
        assert value.__eq__(1) is NotImplemented
        assert hash(value) == hash(same) == hash(twin)

    def test_fields_cannot_be_assigned_or_deleted(self, name):
        value, _, _, twin = values(name)
        for attr in (*NAMES[name]._fields, "extra"):
            message = error_of(lambda: setattr(twin, attr, 1))
            assert error_of(lambda: setattr(value, attr, 1)) == message
            assert message == f"cannot assign to field {attr!r}"
            message = error_of(lambda: delattr(twin, attr))
            assert error_of(lambda: delattr(value, attr)) == message
            assert message == f"cannot delete field {attr!r}"
        with pytest.raises(FrozenInstanceError):
            twin.extra = 1
        assert value == values(name)[1]

    def test_pickle_and_copy_round_trip(self, name):
        value = values(name)[0]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert type(back) is type(value) and back == value
            assert repr(back) == repr(value)
        for back in (copy.copy(value), copy.deepcopy(value)):
            assert type(back) is type(value) and back == value


def test_record_table_hash_leaves_the_cells_out():
    columns = (Column("x", "numeric"),)
    one, two = RecordTable(columns, [(1.0,)]), RecordTable(columns, [(2.0,)])
    assert one != two and hash(one) == hash(two) == hash((columns, 1))


# the classes that only store their fields: each __init__ is the one
# _Value builds from the annotations
STORE_ONLY = ["Column", "DivergenceReport", "EcologicalDecomposition", "Finding",
              "GroupSummary", "ReversalReport", "SkippedCandidate", "Stratum"]


def type_error_of(call) -> str:
    with pytest.raises(TypeError) as err:
        call()
    return str(err.value)


@pytest.mark.parametrize("name", STORE_ONLY)
def test_built_init_is_the_twins(name):
    cls = NAMES[name]
    twin = twin_of(cls)
    assert cls.__init__.__qualname__ == twin.__init__.__qualname__ == f"{name}.__init__"
    assert cls.__init__.__module__ == cls.__module__
    args = CASES[cls][1]
    calls = [
        lambda c: c(*args[:-1]),  # a missing argument
        lambda c: c(*args, extra=1),  # an unexpected one
        lambda c: c(*args, **{cls._fields[0]: args[0]}),  # a repeated one
    ]
    for call in calls:
        message = type_error_of(lambda: call(twin))
        assert type_error_of(lambda: call(cls)) == message
        assert message.startswith(f"{name}.__init__() ")


@pytest.mark.parametrize("name", sorted(NAMES))
def test_of_builds_the_public_constructors_value(name):
    cls = NAMES[name]
    value = values(name)[0]
    if cls is StratifiedComparison:  # stored as columns, which _of_columns takes
        labels = (value.group_first_label, value.group_second_label)
        built = cls._of_columns(*labels, *value._columns)
    else:
        built = cls._of(*value._values())
    assert type(built) is cls and built == value
    assert repr(built) == repr(value) and hash(built) == hash(value)
