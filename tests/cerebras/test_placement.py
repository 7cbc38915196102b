"""Wafer placement: strips, shelves, fragmentation."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.cerebras.placement import Placement, PlacedRect, WaferPlacer


class TestRectShape:
    def test_near_square(self):
        w, h = WaferPlacer.rect_shape(100.0, max_width=1000)
        assert w * h >= 100
        assert abs(w - h) <= 1

    def test_clamped_to_grid(self):
        w, _h = WaferPlacer.rect_shape(10_000.0, max_width=50)
        assert w <= 50

    def test_minimum_one(self):
        assert WaferPlacer.rect_shape(0.5, max_width=10) == (1, 1)


class TestStripPlacement:
    def test_fits_and_covers_demand(self):
        placer = WaferPlacer(100, 100, strategy="strips")
        placement = placer.place([("a", 500.0), ("b", 250.0)])
        assert placement.fits
        assert placement.rect("a").pes >= 500
        assert placement.rect("b").pes >= 250

    def test_strips_are_full_height(self):
        placer = WaferPlacer(100, 100, strategy="strips")
        placement = placer.place([("a", 500.0)])
        assert placement.rect("a").height == 100

    def test_overflow_detected(self):
        placer = WaferPlacer(10, 10, strategy="strips")
        placement = placer.place([("a", 60.0), ("b", 60.0)])
        assert not placement.fits

    def test_rounding_waste_is_bounded(self):
        placer = WaferPlacer(1000, 100, strategy="strips")
        demands = [(f"k{i}", 150.0) for i in range(20)]
        placement = placer.place(demands)
        # Each strip wastes at most one column (100 PEs).
        assert placement.placed_pes <= sum(p for _n, p in demands) + 20 * 100

    def test_negative_demand_rejected(self):
        placer = WaferPlacer(10, 10)
        with pytest.raises(ConfigurationError):
            placer.place([("a", -1.0)])


class TestShelfPlacement:
    def test_single_rect(self):
        placer = WaferPlacer(100, 100, strategy="shelves")
        placement = placer.place([("a", 400.0)])
        assert placement.fits
        assert placement.placed_pes >= 400

    def test_shelves_decrease_in_height(self):
        placer = WaferPlacer(100, 100, strategy="shelves")
        placement = placer.place([("a", 100.0), ("b", 2500.0),
                                  ("c", 400.0)])
        heights = [r.height for r in placement.rects]
        assert heights == sorted(heights, reverse=True)

    def test_overflow_detected(self):
        placer = WaferPlacer(10, 10, strategy="shelves")
        placement = placer.place([("a", 64.0), ("b", 64.0)])
        assert not placement.fits


class TestPackingEfficiency:
    def test_one_when_fits(self):
        placer = WaferPlacer(100, 100)
        assert placer.packing_efficiency([("a", 100.0)]) == 1.0

    def test_less_than_one_when_overfull(self):
        placer = WaferPlacer(100, 100)
        eff = placer.packing_efficiency([("a", 8000.0), ("b", 8000.0)])
        assert 0.0 < eff < 1.0
        scaled = [("a", 8000.0 * eff), ("b", 8000.0 * eff)]
        assert placer.place(scaled).fits

    def test_strips_pack_tighter_than_shelves(self):
        # The ablation claim: slicing placement beats naive shelves on a
        # nearly-full wafer.
        demands = [(f"k{i}", 900.0 + 37 * (i % 5)) for i in range(10)]
        strips = WaferPlacer(100, 100, strategy="strips")
        shelves = WaferPlacer(100, 100, strategy="shelves")
        assert (strips.packing_efficiency(demands)
                >= shelves.packing_efficiency(demands))


class TestDistances:
    def test_centroid(self):
        rect = PlacedRect(name="a", x=0, y=0, width=10, height=10)
        assert rect.centroid == (5.0, 5.0)

    def test_distance_between_adjacent_strips(self):
        placer = WaferPlacer(100, 100, strategy="strips")
        placement = placer.place([("a", 1000.0), ("b", 1000.0)])
        assert placement.distance("a", "b") == pytest.approx(10.0)

    def test_chain_wire_length(self):
        placer = WaferPlacer(100, 100, strategy="strips")
        placement = placer.place([("a", 500.0), ("b", 500.0),
                                  ("c", 500.0)])
        total = placement.chain_wire_length(["a", "b", "c"])
        assert total == pytest.approx(placement.distance("a", "b")
                                      + placement.distance("b", "c"))

    def test_unknown_rect(self):
        placement = Placement(grid_width=10, grid_height=10)
        with pytest.raises(KeyError):
            placement.rect("missing")


@settings(max_examples=40)
@given(st.lists(st.floats(min_value=1.0, max_value=2000.0),
                min_size=1, max_size=20),
       st.sampled_from(["strips", "shelves"]))
def test_placement_invariants(demands, strategy):
    """Placed rectangles never overlap and stay within the grid."""
    placer = WaferPlacer(120, 80, strategy=strategy)
    placement = placer.place([(f"k{i}", p) for i, p in enumerate(demands)])
    for rect in placement.rects:
        assert 0 <= rect.x < 120
        assert 0 <= rect.y < 80
        assert rect.y + rect.height <= 80
    if placement.fits:
        for i, a in enumerate(placement.rects):
            for b in placement.rects[i + 1:]:
                overlap_x = (a.x < b.x + b.width) and (b.x < a.x + a.width)
                overlap_y = (a.y < b.y + b.height) and (b.y < a.y + a.height)
                assert not (overlap_x and overlap_y), f"{a} overlaps {b}"


def reference_packing_efficiency(placer, demands):
    """The original fit search: one full ``place()`` per bisection step."""
    if placer.place(demands).fits:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(24):
        mid = (lo + hi) / 2.0
        scaled = [(name, pes * mid) for name, pes in demands]
        if placer.place(scaled).fits:
            lo = mid
        else:
            hi = mid
    return lo


@st.composite
def placer_and_demands(draw):
    """A small grid plus demands rich in strip-rounding edge cases."""
    width = draw(st.integers(1, 24))
    height = draw(st.integers(1, 24))
    grid = float(width * height)
    pes = st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(0, 3 * width).map(lambda cols: float(cols * height)),
        st.floats(min_value=0.0, max_value=2.0 * grid),
    )
    demands = draw(st.lists(pes, min_size=1, max_size=12))
    if draw(st.booleans()):
        # Strips whose widths sum to exactly grid_width, then maybe one
        # more value so the total lands just over it.
        cuts = sorted(draw(st.lists(st.integers(1, width - 1), unique=True,
                                    max_size=6))) if width > 1 else []
        edges = [0] + cuts + [width]
        demands = [float((b - a) * height) for a, b in zip(edges, edges[1:])]
        demands += draw(st.lists(st.sampled_from(demands + [0.0, 0.5]),
                                 max_size=2))
    strategy = draw(st.sampled_from(["strips", "shelves"]))
    return (WaferPlacer(width, height, strategy=strategy),
            [(f"k{i}", p) for i, p in enumerate(demands)])


def _on_10x10(strategy, *pes):
    return (WaferPlacer(10, 10, strategy=strategy),
            [(f"k{i}", p) for i, p in enumerate(pes)])


@settings(max_examples=300, deadline=None)
@given(placer_and_demands())
# Widths summing to exactly grid_width; a zero still takes a column;
# one PE over; sub-PE demands, repeated.
@example(_on_10x10("strips", 50.0, 50.0))
@example(_on_10x10("strips", 50.0, 50.0, 0.0))
@example(_on_10x10("strips", 50.0, 50.1))
@example(_on_10x10("strips", *[0.2] * 11))
@example(_on_10x10("shelves", 50.0, 50.0, 0.0))
@example(_on_10x10("shelves", *[0.2] * 11))
def test_packing_efficiency_matches_place_per_step_search(case):
    placer, demands = case
    assert (placer.packing_efficiency(demands)
            == reference_packing_efficiency(placer, demands))


def test_packing_efficiency_keeps_negative_demand_check():
    for strategy in ("strips", "shelves"):
        with pytest.raises(ConfigurationError):
            WaferPlacer(10, 10, strategy=strategy).packing_efficiency(
                [("a", 500.0), ("b", -1.0)])


def test_strip_fit_search_builds_one_placement(monkeypatch):
    placer = WaferPlacer(100, 100, strategy="strips")
    calls = []
    original = WaferPlacer._place_strips

    def counting(self, demands):
        calls.append(len(demands))
        return original(self, demands)

    monkeypatch.setattr(WaferPlacer, "_place_strips", counting)
    efficiency = placer.packing_efficiency([("a", 8000.0), ("b", 8000.0)])
    assert 0.0 < efficiency < 1.0
    assert len(calls) == 1
