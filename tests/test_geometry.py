import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saf import (
    ArrayLayout,
    ElementSize,
    ForbiddenZone,
    GridSpec,
    LayoutError,
    Rect,
    build_virtual_array,
    check_forbidden_zones,
    check_overlap,
    element_conflicts,
    minkowski_sum,
    spacing_ecdf,
    thinning_ratio,
    union_area,
    virtual_coverage_area,
)
from saf.geometry import ZONE_KINDS
from conftest import linear_layout, small_size


@pytest.mark.parametrize("d_y, M", [(float("inf"), 4), (float("inf"), 1), (1e308, 8)])
def test_grid_extent_must_be_finite(d_y, M):
    # An infinite spacing on a single node has a NaN extent, 0 * inf.
    with pytest.raises(ValueError, match="extent must be finite"):
        GridSpec(d_y, 0.5, M, 1)


class TestVirtualArray:
    def test_distinct_sums(self):
        layout = linear_layout(rx_nodes=[0, 2], tx_nodes=[0, 1], M=8)
        vrx = build_virtual_array(layout)
        assert [m for m, n in vrx.vrx_positions] == [0, 1, 2, 3]
        assert vrx.generated_count == 4
        assert vrx.unique_count == 4

    def test_duplicate_sum_collapses(self):
        layout = linear_layout(rx_nodes=[0, 2], tx_nodes=[0, 2], M=8)
        vrx = build_virtual_array(layout)
        assert [m for m, n in vrx.vrx_positions] == [0, 2, 4]
        assert vrx.generated_count == 4
        assert vrx.unique_count == 3

    def test_12x16_all_unique(self):
        grid = GridSpec(0.5, 1.0, 200, 20)
        layout = ArrayLayout(
            grid=grid,
            tx_positions=[(i, 0) for i in range(12)],
            rx_positions=[(12 * j, 1) for j in range(16)],
            tx_size=small_size(),
            rx_size=small_size(),
        )
        vrx = build_virtual_array(layout)
        assert vrx.generated_count == 192
        assert vrx.unique_count == 192

    def test_12x16_with_two_collisions(self):
        # 12 TX x 16 RX arranged so exactly two pairs of sums coincide.
        grid = GridSpec(0.5, 1.0, 200, 20)
        tx = [(i, 0) for i in range(11)] + [(0, 2)]
        rx = [(12 * j, 1) for j in range(14)] + [(0, 3), (12, 3)]
        layout = ArrayLayout(grid, tx, rx, small_size(), small_size())
        vrx = build_virtual_array(layout)
        sums = {(tm + rm, tn + rn) for tm, tn in tx for rm, rn in rx}
        assert vrx.generated_count == 192
        assert len(sums) == 190
        assert vrx.unique_count == 190

    def test_empty_group_rejected(self):
        grid = GridSpec(0.5, 0.5, 4, 1)
        layout = ArrayLayout(grid, [], [(1, 0)], small_size(), small_size())
        with pytest.raises(LayoutError):
            build_virtual_array(layout)

    def test_sum_closure_and_count_properties(self, rng):
        for _ in range(20):
            grid = GridSpec(0.5, 0.5, 12, 12)
            n_tx, n_rx = int(rng.integers(1, 5)), int(rng.integers(1, 6))
            cells = [(int(m), int(n)) for m in range(12) for n in range(12)]
            picks = rng.choice(len(cells), size=n_tx + n_rx, replace=False)
            tx = [cells[i] for i in picks[:n_tx]]
            rx = [cells[i] for i in picks[n_tx:]]
            layout = ArrayLayout(grid, tx, rx, small_size(), small_size())
            vrx = build_virtual_array(layout)
            assert vrx.generated_count == n_tx * n_rx
            brute = {(tm + rm, tn + rn) for tm, tn in tx for rm, rn in rx}
            assert set(map(tuple, vrx.vrx_positions.tolist())) == brute
            # invariant under group list permutation
            shuffled = ArrayLayout(
                grid, list(reversed(tx)), list(reversed(rx)), small_size(), small_size()
            )
            assert build_virtual_array(shuffled).unique_count == vrx.unique_count

    def test_translation_invariance(self):
        grid = GridSpec(0.5, 0.5, 20, 20)
        tx = [(2, 3), (4, 5)]
        rx = [(4, 3), (6, 2), (3, 7)]
        base = build_virtual_array(ArrayLayout(grid, tx, rx, small_size(), small_size()))
        delta = (3, 2)
        tx2 = [(m + delta[0], n + delta[1]) for m, n in tx]
        rx2 = [(m - delta[0], n - delta[1]) for m, n in rx]
        moved = build_virtual_array(ArrayLayout(grid, tx2, rx2, small_size(), small_size()))
        assert np.array_equal(moved.vrx_positions, base.vrx_positions)

    def test_sums_past_the_int64_key_range(self):
        # On a 2^33 x 2^33 grid the key n (2M - 1) + m of a virtual node passes 2^63.
        big = 2**33
        tx = [(0, 0), (big - 1, big - 1), (1, big - 2)]
        rx = [(0, 0), (big - 1, 0), (0, big - 1)]
        vrx = build_virtual_array(ArrayLayout(GridSpec(0.5, 0.5, big, big), tx, rx, small_size(), small_size()))
        sums = {(tm + rm, tn + rn) for tm, tn in tx for rm, rn in rx}
        assert vrx.vrx_positions.tolist() == [list(p) for p in sorted(sums, key=lambda p: (p[1], p[0]))]

    def test_sums_past_int64_refused(self):
        big = 2**62 + 1
        layout = ArrayLayout(GridSpec(0.5, 0.5, big, 1), [(big - 1, 0)], [(big - 1, 0)], small_size(), small_size())
        with pytest.raises(LayoutError, match="exceeds 2\\^62 nodes"):
            build_virtual_array(layout)

    def test_layout_invariants_enforced(self):
        grid = GridSpec(0.5, 0.5, 4, 1)
        with pytest.raises(LayoutError):
            ArrayLayout(grid, [(4, 0)], [(0, 0)], small_size(), small_size())
        with pytest.raises(LayoutError):
            ArrayLayout(grid, [(1, 0), (1, 0)], [(0, 0)], small_size(), small_size())
        with pytest.raises(LayoutError):
            ArrayLayout(
                grid, [(1, 0)], [(0, 0)], small_size(), small_size(), enforced_tx=[(2, 0)]
            )


class TestOverlap:
    def layout_at_distance(self, nodes, width=2.0):
        grid = GridSpec(0.5, 0.5, 64, 1)
        return ArrayLayout(
            grid,
            [(m, 0) for m in nodes],
            [(60, 0)],
            ElementSize(width, 1.0),
            ElementSize(0.4, 0.4),
        )

    def test_edge_contact_is_legal(self):
        layout = self.layout_at_distance([0, 4])  # 2.0 wavelengths apart
        assert check_overlap(layout) == []

    def test_positive_overlap_detected(self):
        layout = self.layout_at_distance([0, 3])  # 1.5 wavelengths apart
        violations = check_overlap(layout)
        assert violations == [(("tx", 0), ("tx", 1))]

    def test_hia_example_layout_is_clean(self):
        # positions 2x/lambda = {0, 4, 9, 15, 22} with 2-wavelength elements
        grid = GridSpec(0.5, 0.5, 23, 1)
        layout = ArrayLayout(
            grid,
            [(m, 0) for m in (0, 4, 9, 15, 22)],
            [(12, 0)],
            ElementSize(2.0, 2.0),
            ElementSize(0.1, 0.1),
        )
        assert check_overlap(layout) == []

    def test_symmetry_and_translation_invariance(self, rng):
        grid = GridSpec(0.5, 0.5, 40, 40)
        for _ in range(10):
            cells = rng.choice(30 * 30, size=6, replace=False)
            tx = [(int(c % 30), int(c // 30)) for c in cells[:3]]
            rx = [(int(c % 30), int(c // 30)) for c in cells[3:]]
            layout = ArrayLayout(grid, tx, rx, ElementSize(1.1, 0.9), ElementSize(0.7, 1.3))
            violations = set(map(frozenset, ((a, b) for a, b in check_overlap(layout))))
            moved = ArrayLayout(
                grid,
                [(m + 5, n + 5) for m, n in tx],
                [(m + 5, n + 5) for m, n in rx],
                ElementSize(1.1, 0.9),
                ElementSize(0.7, 1.3),
            )
            moved_violations = set(map(frozenset, ((a, b) for a, b in check_overlap(moved))))
            assert violations == moved_violations


class TestForbiddenZones:
    def test_empty_zone_list(self):
        layout = linear_layout([0, 1], M=4)
        assert check_forbidden_zones(layout, []) == []

    def test_center_strictly_inside(self):
        grid = GridSpec(0.5, 0.5, 8, 8)
        layout = ArrayLayout(grid, [(0, 0)], [(6, 6)], small_size(), small_size())
        zone = ForbiddenZone(1.0, 1.0, center=(0, 0), kind="tx-excluded")
        assert check_forbidden_zones(layout, [zone]) == [("tx", 0, 0)]
        # the RX kind filter leaves TX alone
        rx_zone = ForbiddenZone(1.0, 1.0, center=(0, 0), kind="rx-excluded")
        assert check_forbidden_zones(layout, [rx_zone]) == []

    def test_boundary_is_legal(self):
        grid = GridSpec(0.5, 0.5, 8, 8)
        layout = ArrayLayout(grid, [(2, 0)], [(6, 6)], small_size(), small_size())
        zone = ForbiddenZone(1.0, 1.0, center=(0, 0), kind="both-excluded")
        assert check_forbidden_zones(layout, [zone]) == []

    def test_four_corner_partition_has_no_violations(self):
        # 30x30 aperture split into corner regions by a central cross of
        # keep-out strips (15-wavelength horizontal and 10-wavelength vertical
        # separations); elements sit only inside their corners.
        grid = GridSpec(0.5, 0.5, 61, 61)
        center = (30, 30)
        strips = [
            ForbiddenZone(7.5, 15.0, center=center, kind="both-excluded"),
            ForbiddenZone(15.0, 5.0, center=center, kind="both-excluded"),
        ]
        corners_tx = [(0, 0), (15, 20), (60, 60), (46, 40)]
        corners_rx = [(0, 60), (15, 40), (60, 0), (46, 20)]
        layout = ArrayLayout(grid, corners_tx, corners_rx, small_size(), small_size())
        assert check_forbidden_zones(layout, strips) == []
        # an element in the middle of the cross violates both strips
        bad = ArrayLayout(grid, [(30, 30)], corners_rx, small_size(), small_size())
        assert check_forbidden_zones(bad, strips) == [("tx", 0, 0), ("tx", 0, 1)]


# Half-wavelength multiples, so edge contact and zone-boundary centers occur.
_LENGTHS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0])


@st.composite
def layouts_with_zones(draw):
    M, N = draw(st.integers(2, 8)), draw(st.integers(1, 6))
    nodes = st.tuples(st.integers(0, M - 1), st.integers(0, N - 1))
    positions = draw(st.lists(nodes, min_size=2, max_size=10, unique=True))
    n_tx = draw(st.integers(1, len(positions) - 1))
    spacing = st.sampled_from([0.25, 0.5, 1.0])
    size = st.builds(ElementSize, _LENGTHS.filter(bool), _LENGTHS.filter(bool))
    layout = ArrayLayout(
        GridSpec(draw(spacing), draw(spacing), M, N),
        positions[:n_tx],
        positions[n_tx:],
        draw(size),
        draw(size),
    )
    zone = st.builds(ForbiddenZone, _LENGTHS, _LENGTHS, nodes, st.sampled_from(ZONE_KINDS))
    return layout, draw(st.lists(zone, max_size=3))


class TestConflictPredicate:
    @settings(max_examples=300, deadline=None)
    @given(layouts_with_zones())
    def test_layout_checks_agree_with_single_element_check(self, case):
        layout, zones = case
        flagged = {e for pair in check_overlap(layout) for e in pair}
        flagged |= {(g, i) for g, i, _zi in check_forbidden_zones(layout, zones)}
        in_conflict = {
            (group, i)
            for group, positions in (("tx", layout.tx_positions), ("rx", layout.rx_positions))
            for i, pos in enumerate(positions)
            if element_conflicts(layout, group, {i: pos}, zones)
        }
        assert in_conflict == flagged
        valid = not check_overlap(layout) and not check_forbidden_zones(layout, zones)
        assert valid == (not in_conflict)

    def test_moved_element_is_checked_at_its_new_node(self):
        grid = GridSpec(0.5, 0.5, 64, 1)
        layout = ArrayLayout(grid, [(0, 0), (4, 0)], [(60, 0)], ElementSize(2.0, 1.0), small_size())
        assert not element_conflicts(layout, "tx", {1: (4, 0)}, [])
        assert element_conflicts(layout, "tx", {1: (3, 0)}, [])  # 1.5 wavelengths from tx 0
        zone = ForbiddenZone(1.0, 1.0, center=(10, 0), kind="tx-excluded")
        assert element_conflicts(layout, "tx", {1: (10, 0)}, [zone])
        assert not element_conflicts(layout, "tx", {1: (12, 0)}, [zone])  # on the boundary


class TestThinningRatio:
    def test_fully_populated_is_one(self):
        grid = GridSpec(0.5, 0.5, 5, 3)
        layout = ArrayLayout(
            grid,
            [(0, 0)],
            [(m, n) for m in range(5) for n in range(3)],
            small_size(0.1, 0.1),
            small_size(0.1, 0.1),
        )
        reference = GridSpec(0.5, 0.5, 5, 3)
        assert thinning_ratio(build_virtual_array(layout), reference) == 1.0

    def test_reference_must_cover(self):
        layout = linear_layout(range(8), M=8)
        with pytest.raises(ValueError):
            thinning_ratio(build_virtual_array(layout), GridSpec(0.5, 0.5, 2, 1))


class TestSpacingEcdf:
    def test_constant_spacing_single_step(self):
        assert spacing_ecdf([0.0, 0.5, 1.0, 1.5]) == [(0.5, 1.0)]

    def test_hia_spacings_are_linear(self):
        ecdf = spacing_ecdf([0.0, 0.5, 2.5, 6.0, 11.0])
        assert ecdf == [(0.5, 0.25), (2.0, 0.5), (3.5, 0.75), (5.0, 1.0)]
        ecdf2 = spacing_ecdf([0.0, 2.0, 4.5, 7.5, 11.0])
        assert ecdf2 == [(2.0, 0.25), (2.5, 0.5), (3.0, 0.75), (3.5, 1.0)]

    def test_errors(self):
        with pytest.raises(ValueError):
            spacing_ecdf([1.0])
        with pytest.raises(ValueError):
            spacing_ecdf([0.0, 1.0, 1.0])

    def test_monotone_and_normalized(self, rng):
        for _ in range(20):
            pos = np.cumsum(rng.uniform(0.1, 3.0, size=rng.integers(2, 12)))
            ecdf = spacing_ecdf(pos)
            probs = [p for _, p in ecdf]
            assert probs[0] > 0
            assert probs == sorted(probs)
            assert probs[-1] == 1.0


class TestRegionHelpers:
    def test_minkowski_sum(self):
        a = Rect(0, 15, 0, 15)
        b = Rect(15, 30, 15, 30)
        assert minkowski_sum(a, b) == Rect(15, 45, 15, 45)

    def test_union_area_with_overlap(self):
        rects = [Rect(0, 2, 0, 2), Rect(1, 3, 0, 2)]
        assert union_area(rects) == pytest.approx(6.0)

    def test_virtual_coverage_shared_aperture(self):
        full = [Rect(0, 30, 0, 30)]
        assert virtual_coverage_area(full, full) == pytest.approx(3600.0)
