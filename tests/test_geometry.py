"""Vector diagrams, slope bounds, and SVG rendering."""

from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest
from hypothesis import given
from hypothesis import strategies as st

from confound.detector import detect_reversal
from confound.errors import DegenerateRange, EmptyStratumSide, ValidationError
from confound.geometry import (
    GroupPath,
    RenderOptions,
    VectorDiagram,
    render_svg,
    to_vectors,
)
from confound.tables import (
    Counts,
    Direction,
    Rate,
    StratifiedComparison,
    aggregate,
    compare,
    rate,
)
from support import (
    BERKELEY, HOSPITAL, comparisons, reference_render_svg, slope_bounds,
)

# a few steps, so paths repeat vectors, and any step up to huge counts
_steps = st.one_of(
    st.sampled_from([(1, 0), (1, 1), (2, 1), (7, 3)]),
    st.integers(1, 10**30).flatmap(lambda dx: st.tuples(st.just(dx), st.integers(0, dx))),
)
# labels with the characters markup and terminals cannot carry as themselves
_svg_label = st.text(st.sampled_from("ab %&<>\x01\x1b\x7f\x85\ufffe\uffff"), max_size=5)


@st.composite
def diagrams(draw):
    """Small diagrams of one to three groups over one to five strata."""
    k = draw(st.integers(1, 5))
    groups = []
    for label in draw(st.lists(_svg_label, min_size=1, max_size=3)):
        points = [(0, 0)]
        for dx, dy in draw(st.lists(_steps, min_size=k, max_size=k)):
            points.append((points[-1][0] + dx, points[-1][1] + dy))
        groups.append(GroupPath(label, points))
    return VectorDiagram([f"s{i}" for i in range(k)], groups)


class TestToVectors:
    def test_hospital_paths(self):
        d = to_vectors(HOSPITAL)
        first, second = d.groups
        assert first.label == "A"
        assert first.points == ((0, 0), (60, 36), (80, 40))
        assert first.terminal == (80, 40)
        assert first.terminal_slope == Rate(40, 80)
        assert first.segment_slopes == (Rate(36, 60), Rate(4, 20))
        assert second.terminal == (80, 32)
        assert second.terminal_slope == Rate(32, 80)
        assert d.stratum_labels == ("non-healthy", "healthy")

    def test_vectors_are_fan_endpoints(self):
        d = to_vectors(HOSPITAL)
        assert d.groups[0].vectors == ((60, 36), (20, 4))
        assert d.groups[1].vectors == ((20, 14), (60, 18))

    def test_single_stratum(self):
        sc = StratifiedComparison.from_pairs("g1", "g2", [("s", (30, 12), (10, 9))])
        d = to_vectors(sc)
        assert d.groups[0].points == ((0, 0), (30, 12))
        assert d.groups[0].segment_slopes == (Rate(12, 30),)
        assert d.groups[0].terminal_slope == Rate(12, 30)

    def test_zero_total_rejected(self):
        # the table is rejected when built, so no path has a zero-width step
        with pytest.raises(EmptyStratumSide):
            StratifiedComparison.from_pairs(
                "g1", "g2", [("s", (5, 1), (5, 1)), ("t", (0, 0), (5, 1))]
            )

    def test_path_validation(self):
        for points in (
            ((0, 0),),  # no segment
            ((1, 0), (3, 1)),  # does not start at the origin
            ((0, 0), (0, 1)),  # a step with dx = 0
            ((0, 0), (3, 1), (2, 1)),  # a step with dx < 0
            ((0, 0), (2, 1), (4, 0)),  # a step that falls
            ((0, 0), (2, 3)),  # a step that rises more than it runs
        ):
            with pytest.raises(ValidationError):
                GroupPath("g", points)

    @pytest.mark.parametrize(
        "points, message",
        [
            (((0, 0),), "a path starts at (0, 0) and has >= 1 segment"),
            (((1, 0), (3, 1)), "a path starts at (0, 0) and has >= 1 segment"),
            # coordinates are count pairs: a float or a bool is no count, even
            # where every step it makes would be
            (((0, 0), (10.5, 4)), "x must be an integer, got 10.5"),
            (((0, 0), (True, True)), "x must be an integer, got True"),
            (((0.0, 0), (2, 1)), "x must be an integer, got 0.0"),
            (((0, 0), (2, 1), (4, 1.0)), "y must be an integer, got 1.0"),
            (((0, 0), (2, -1)), "y must be >= 0, got -1"),
            (((0, 0), (2, 3)), "y (3) exceeds x (2)"),
            # every point is checked before any step
            (((0, 0), (3, 1), (2, 1), (1, 2)), "y (2) exceeds x (1)"),
            # and so is every step, then it must run forward
            (((0, 0), (3, 1), (2, 1)), "dx must be >= 0, got -1"),
            (((0, 0), (2, 1), (4, 0)), "dy must be >= 0, got -1"),
            (((0, 0), (2, 0), (3, 2)), "dy (2) exceeds dx (1)"),
            (((0, 0), (0, 0)), "step (0, 0) needs dx > 0"),
            # a point that is not a pair, before any other check
            (((0, 0), (1, 0, 3)), "a path point is an (x, y) pair, got (1, 0, 3)"),
            (((0, 0), (1,)), "a path point is an (x, y) pair, got (1,)"),
            (((0, 0), 5), "a path point is an (x, y) pair, got 5"),
            (((1, 1), (2, 3), 5), "a path point is an (x, y) pair, got 5"),
        ],
    )
    def test_first_fault_and_its_message(self, points, message):
        with pytest.raises(ValidationError) as err:
            GroupPath("g", points)
        assert err.value.code == "invalid-value"
        assert str(err.value) == message

    def test_points_may_be_any_iterable_of_pairs(self):
        path = GroupPath("g", (p for p in ([0, 0], [2, 1])))
        assert path.points == ((0, 0), (2, 1))

    @given(comparisons(min_total=1))
    def test_derived_slopes_are_the_step_rates(self, sc):
        for side, path in zip(("first", "second"), to_vectors(sc).groups):
            cells = sc.counts(side)
            assert path.segment_slopes == tuple(map(rate, cells))
            assert path.terminal_slope == rate(aggregate(cells))

    def test_diagram_needs_one_segment_per_stratum(self):
        path = GroupPath("g", ((0, 0), (10, 4)))
        VectorDiagram(("s",), (path,))
        with pytest.raises(ValidationError):
            VectorDiagram(("s", "t"), (path,))


class TestSlopeBounds:
    def test_hospital_first_group(self):
        lo, hi, agg = slope_bounds(list(HOSPITAL.counts("first")))
        assert lo == Rate(4, 20)
        assert hi == Rate(36, 60)
        assert agg == Rate(40, 80)

    def test_equal_cells(self):
        lo, hi, agg = slope_bounds([Counts(10, 4), Counts(10, 4)])
        assert compare(lo, hi) is Direction.TIE
        assert compare(lo, agg) is Direction.TIE

    def test_extreme_rates(self):
        lo, hi, agg = slope_bounds([Counts(1, 0), Counts(1, 1)])
        assert lo == Rate(0, 1)
        assert hi == Rate(1, 1)
        assert agg == Rate(1, 2)

    @given(comparisons(min_total=1))
    def test_mediant_inequality(self, sc):
        for side in ("first", "second"):
            lo, hi, agg = slope_bounds(list(sc.counts(side)))
            assert compare(agg, lo) is not Direction.SECOND_HIGHER
            assert compare(agg, hi) is not Direction.FIRST_HIGHER
            if compare(lo, hi) is not Direction.TIE:
                assert compare(agg, lo) is Direction.FIRST_HIGHER
                assert compare(agg, hi) is Direction.SECOND_HIGHER


class TestRenderSvg:
    def test_hospital_element_counts(self):
        svg = render_svg(to_vectors(HOSPITAL))
        assert svg.count("<line ") == 2  # solid aggregate chords
        assert svg.count("stroke-dasharray") == 4  # dashed stratum chords
        assert svg.count("<circle ") == 7  # 6 stratum/terminal points + origin
        assert svg.count('class="marker-label"') == 7

    def test_deterministic_bytes(self):
        a = render_svg(to_vectors(HOSPITAL))
        b = render_svg(to_vectors(HOSPITAL))
        assert a.encode() == b.encode()

    def test_well_formed_svg11(self):
        svg = render_svg(to_vectors(BERKELEY))
        root = ET.fromstring(svg)
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        assert root.get("version") == "1.1"

    @pytest.mark.parametrize(
        "label, shown", [("A\x01x", "A\\x01x"), ("A\uffffx", "A\\uffffx")]
    )
    def test_labels_xml_cannot_carry_are_escaped(self, label, shown):
        sc = StratifiedComparison.from_pairs(label, "B", [("s", (80, 40), (60, 20))])
        root = ET.fromstring(render_svg(to_vectors(sc)))
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert f"{shown} (80, 40) 50.0%" in texts

    def test_single_stratum_single_group(self):
        path = GroupPath("only", ((0, 0), (10, 4)))
        d = VectorDiagram(("s",), (path,))
        svg = render_svg(d)
        assert svg.count("<line ") == 1
        assert svg.count("stroke-dasharray") == 0
        assert svg.count("<circle ") == 2  # origin + one point

    def test_slope_annotations_come_from_data(self):
        svg = render_svg(to_vectors(HOSPITAL), RenderOptions(width=2000, height=100))
        # annotations carry the data rates regardless of canvas size
        for expected in ("60.0%", "20.0%", "50.0%", "70.0%", "30.0%", "40.0%"):
            assert expected in svg

    def test_fan_only_halves_dashed_segments(self):
        full = render_svg(to_vectors(HOSPITAL))
        fan = render_svg(to_vectors(HOSPITAL), RenderOptions(parallelogram=False))
        assert full.count(" M ") > fan.count(" M ")
        assert fan.count("stroke-dasharray") == 4

    def test_degenerate_range(self):
        with pytest.raises(DegenerateRange):
            render_svg(VectorDiagram((), ()))

    def test_options_need_a_plot_area(self):
        for bad in ({"width": 96}, {"height": 50}, {"width": 0}, {"width": -640},
                    {"width": True}, {"height": 480.0}):
            with pytest.raises(ValidationError):
                RenderOptions(**bad)
        render_svg(to_vectors(HOSPITAL), RenderOptions(width=97, height=97))

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"parallelogram": "no"}, "parallelogram must be a bool, got 'no'"),
            ({"parallelogram": 0}, "parallelogram must be a bool, got 0"),
            # after the sizes
            ({"parallelogram": None, "width": 96}, "width must be an integer above 96, got 96"),
        ],
    )
    def test_parallelogram_is_a_bool(self, options, message):
        with pytest.raises(ValidationError) as err:
            RenderOptions(**options)
        assert err.value.code == "invalid-value"
        assert str(err.value) == message

    def test_options_change_bytes(self):
        a = render_svg(to_vectors(HOSPITAL))
        b = render_svg(to_vectors(HOSPITAL), RenderOptions(width=800))
        assert a != b


@given(
    diagrams(),
    st.builds(
        RenderOptions,
        st.sampled_from([97, 640, 2001]),
        st.sampled_from([97, 480]),
        st.booleans(),
    ),
)
def test_render_svg_matches_the_point_at_a_time_reference(d, options):
    assert render_svg(d, options) == reference_render_svg(d, options)


@given(comparisons(min_total=1))
def test_chord_comparisons_agree_with_detector(sc):
    """Stratum-chord and terminal-chord slope comparisons reproduce the
    detector's directions exactly."""
    d = to_vectors(sc)
    report = detect_reversal(sc)
    first, second = d.groups
    derived = [
        compare(a, b) for a, b in zip(first.segment_slopes, second.segment_slopes)
    ]
    assert derived == [direction for _, direction in report.stratum_directions]
    assert (
        compare(first.terminal_slope, second.terminal_slope)
        is report.aggregate_direction
    )
