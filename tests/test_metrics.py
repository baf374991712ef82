import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from saf import (
    ArrayLayout,
    ElementSize,
    GridSpec,
    Pattern,
    Peak,
    Rect,
    Target,
    beamform,
    build_virtual_array,
    aperture_loss_factor,
    bw_spreading_factor,
    evaluate_layout,
    find_peak,
    grating_lobe_angles,
    make_uv_cut,
    make_uv_grid,
    mask_main_lobe,
    measured_hpbw,
    min_axis_spacing,
    pslr,
    scoring_fov,
    synthesize_snapshot,
    theoretical_beamwidths,
    ufov,
    virtual_coverage_area,
)
from saf import geometry, metrics
from saf.beamforming import BROADSIDE, UVBand, UVGrid
from saf.metrics import _LOBE_WINDOW, MAX_LATTICE_NODES, LobeLeavesBand, fov_band, scoring_grid
from conftest import (
    direct_pattern,
    dirichlet_magnitude,
    escaping_lobe,
    layout_12x16,
    reference_main_lobe,
    reference_pslr,
    ula_layout,
)


def in_fov(grid, fov):
    """``grid``'s samples, scored in ``fov``, or ``grid`` in its own rectangle when ``fov`` is None."""
    return grid if fov is None else dataclasses.replace(grid, fov=fov)


def ula_pattern(n, d_y=0.5, q=8, target=Target(0.0, 0.0), fov=None):
    vrx = build_virtual_array(ula_layout(n, d_y=d_y))
    grid = in_fov(make_uv_cut(vrx.grid.M, q), fov)
    return beamform(vrx, synthesize_snapshot(vrx, [target]), grid)


def synthetic_cut(values, fov=None):
    """Pattern wrapper around explicit magnitudes on a v = 0 cut."""
    values = np.asarray(values, dtype=complex).reshape(1, -1)
    grid = in_fov(make_uv_cut(values.shape[1], 1), fov)
    vrx = build_virtual_array(ula_layout(2))
    return Pattern(grid=grid, values=values, vrx=vrx)


@st.composite
def wide_lobes(draw):
    """Magnitudes on grids of 20 to 64 nodes a side whose main lobe outgrows the first fill window.

    Either |sinc| of the (stretched) distance from an off-grid centre, whose
    first null lies 11 to 24 nodes out, or a tilted plane, which is one lobe.
    Rounding to a few levels adds plateaus and ties.
    """
    n_v, n_u = draw(st.integers(20, 64)), draw(st.integers(20, 64))
    iv, iu = np.mgrid[0:n_v, 0:n_u]
    if draw(st.booleans()):
        cv, cu = draw(st.floats(0, n_v - 1)), draw(st.floats(0, n_u - 1))
        stretch = draw(st.floats(0.5, 2.0))
        mag = np.abs(np.sinc(np.hypot((iv - cv) * stretch, iu - cu) / draw(st.floats(11.0, 24.0))))
    else:
        slope_v, slope_u = (draw(st.floats(0.05, 1.0)) * draw(st.sampled_from([-1, 1])) for _ in "vu")
        mag = slope_v * iv + slope_u * iu
        mag -= mag.min()
    levels = draw(st.sampled_from([0, 3, 16]))
    return np.round(mag / mag.max() * levels) if levels else mag


def first_peak(mag):
    return np.unravel_index(int(np.argmax(mag)), mag.shape)


def pattern_of(mag, fov=None):
    n_v, n_u = mag.shape
    return Pattern(in_fov(make_uv_grid(n_u, n_v, 1, 1), fov), mag.astype(complex), build_virtual_array(ula_layout(2)))


class TestFindPeak:
    def test_on_grid_target(self):
        pattern = ula_pattern(16)
        peak = find_peak(pattern)
        assert peak.magnitude == pytest.approx(16.0, abs=1e-9)
        assert peak.u == 0.0 and peak.v == 0.0

    # u samples of the 8-node cut: -1, -0.75, ..., 0.75. Both axes of the 4x4 grid: -1, -0.5, 0, 0.5.
    @pytest.mark.parametrize("values, fov, node", [
        (np.ones(8), None, (0, 4)),  # u = 0, the centre of the disk
        ([0, 0, 1, 0, 0, 0, 1, 0], None, (0, 2)),  # u = -0.5 and 0.5 are equally near: the smaller index
        (np.ones(8), (0.3, 1.0, -1.0, 1.0), (0, 7)),  # u = 0.75 is nearest the FOV's centre, 0.65
        ([1, 1, 0, 0, 0, 0, 0, 0], (-1.0, 1.0, -0.5, 0.5), (0, 1)),  # u = -0.75 is nearer than u = -1
        ([[0, 0, 1, 0], [0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]], None, (2, 1)),  # (-0.5, 0) before (0, -1)
    ], ids=["disk-centre", "equally-near", "fov-centre", "nearer-before-smaller-index", "planar"])
    def test_tie_break_nearest_the_fov_centre(self, values, fov, node):
        values = np.asarray(values, dtype=float)
        peak = find_peak(synthetic_cut(values, fov) if values.ndim == 1 else pattern_of(values, fov))
        assert (peak.iv, peak.iu) == node

    def test_fov_restriction(self):
        # restrict away from the main lobe; the peak becomes the first sidelobe
        peak = find_peak(ula_pattern(16, fov=(0.15, 1.0, -1.0, 1.0)))
        assert peak.u >= 0.15
        assert peak.magnitude < 16.0

    def test_empty_fov_errors(self):
        pattern = ula_pattern(8, fov=(2.0, 3.0, -1.0, 1.0))
        with pytest.raises(ValueError, match="FOV does not intersect"):
            find_peak(pattern)
        with pytest.raises(ValueError, match="FOV does not intersect"):
            fov_band(pattern.grid)

    def test_each_fov_is_searched_once(self):
        # A search keeps nothing on the pattern: each pattern's peak is taken in its own FOV.
        disk, right = ula_pattern(16), ula_pattern(16, fov=(0.15, 1.0, -1.0, 1.0))
        assert find_peak(right) == find_peak(right) != find_peak(disk)
        assert find_peak(disk).u == 0.0 and find_peak(right).u >= 0.15


class TestMainLobeMask:
    def test_ula_mask_spans_to_first_nulls(self):
        pattern = ula_pattern(8, q=16)  # first nulls at u = +/- 0.25
        peak = find_peak(pattern)
        mask = mask_main_lobe(pattern, peak).mask[0]
        u = pattern.grid.u_samples
        du = u[1] - u[0]
        assert mask[np.abs(u) < 0.25 - du].all()
        assert not mask[np.abs(u) > 0.25 + du].any()

    def test_monotone_single_lobe_masks_everything(self):
        values = 10.0 - np.abs(np.arange(-5, 6, dtype=float))
        pattern = synthetic_cut(values)
        mask = mask_main_lobe(pattern, find_peak(pattern)).mask
        assert mask.all()

    def test_mask_stops_at_inter_lobe_minimum(self):
        # descent reaches the separating minimum but cannot climb the far lobe
        values = np.array([0.1, 5.0, 0.1, 0.05, 4.999, 0.1])
        pattern = synthetic_cut(values)
        mask = mask_main_lobe(pattern, find_peak(pattern)).mask[0]
        assert mask.tolist() == [True, True, True, True, False, False]

    def test_deterministic(self):
        pattern = ula_pattern(16, q=8)
        peak = find_peak(pattern)
        m1 = mask_main_lobe(pattern, peak).mask
        m2 = mask_main_lobe(pattern, peak).mask
        assert (m1 == m2).all()

    # Few distinct levels, so ties and plateaus are common.
    @settings(max_examples=300, deadline=None)
    @given(arrays(float, st.tuples(st.integers(1, 12), st.integers(1, 12)),
                  elements=st.sampled_from([0.0, 1.0, 2.0, 3.0])))
    def test_matches_breadth_first_reference(self, mag):
        n_v, n_u = mag.shape
        iv, iu = np.unravel_index(int(np.argmax(mag)), mag.shape)
        pattern = Pattern(make_uv_grid(n_u, n_v, 1, 1), mag.astype(complex),
                          build_virtual_array(ula_layout(2)))
        peak = Peak(float(mag[iv, iu]), float(pattern.grid.u_samples[iu]),
                    float(pattern.grid.v_samples[iv]), int(iu), int(iv))
        mask = mask_main_lobe(pattern, peak).mask
        assert (mask == reference_main_lobe(mag, iv, iu)).all()

    @settings(max_examples=200, deadline=None)
    @given(wide_lobes())
    def test_matches_breadth_first_reference_past_the_first_window(self, mag):
        iv, iu = first_peak(mag)
        pattern = pattern_of(mag)
        peak = Peak(float(mag[iv, iu]), float(pattern.grid.u_samples[iu]),
                    float(pattern.grid.v_samples[iv]), int(iu), int(iv))
        expected = reference_main_lobe(mag, iv, iu)
        # The lobe holds a node outside the first window, so the window had to grow.
        lobe_v, lobe_u = np.nonzero(expected)
        assert np.maximum(abs(lobe_v - iv), abs(lobe_u - iu)).max() > _LOBE_WINDOW
        assert (mask_main_lobe(pattern, peak).mask == expected).all()


@st.composite
def small_layouts(draw):
    """Random linear or planar layouts of up to 8 x 4 nodes, q <= 3, on spacings the lattice scores.

    Each spacing is a fraction of its bound q / 2, the bound itself included.
    The scene is the default broadside target or one or two random targets.
    """
    M = draw(st.integers(1, 8))
    N = draw(st.sampled_from([1, 2, 3, 4]))
    q_phi, q_theta = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    d_y, d_z = (q / 2.0 * draw(st.sampled_from([0.3, 0.5, 0.8, 1.0])) for q in (q_phi, q_theta))
    nodes = st.tuples(st.integers(0, M - 1), st.integers(0, N - 1))
    tx = draw(st.lists(nodes, min_size=1, max_size=4, unique=True))
    rx = draw(st.lists(nodes, min_size=1, max_size=6, unique=True))
    layout = ArrayLayout(GridSpec(d_y, d_z, M, N), tx, rx, ElementSize(0.1, 0.1), ElementSize(0.1, 0.1))
    target = st.builds(Target, st.floats(-0.7, 0.7), st.floats(-0.7, 0.7),
                       st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0))
    targets = draw(st.none() | st.lists(target, min_size=1, max_size=2))
    return layout, q_phi, q_theta, targets


class TestDifferentialOracle:
    """``evaluate_layout`` against brute-force sums, ``direct_pattern`` and ``reference_pslr``."""

    @settings(max_examples=150, deadline=None)
    @given(small_layouts())
    def test_matches_brute_force(self, case):
        layout, q_phi, q_theta, targets = case
        g = layout.grid
        sums = sorted({(tm + rm, tn + rn) for tm, tn in layout.tx_positions for rm, rn in layout.rx_positions},
                      key=lambda p: (p[1], p[0]))
        try:
            pattern, report = evaluate_layout(layout, q_phi, q_theta, targets)
        except ValueError:
            # Only a FOV with no sidelobe to score is refused, and the reference refuses it too.
            vrx = build_virtual_array(layout)
            pattern = beamform(vrx, synthesize_snapshot(vrx, targets or BROADSIDE), scoring_grid(g, q_phi, q_theta))
            with pytest.raises(ValueError):
                reference_pslr(pattern.magnitude, pattern.grid.visible)
            return
        vrx = pattern.vrx.vrx_positions
        assert vrx.dtype.kind == "i" and not vrx.flags.writeable
        assert vrx.tolist() == [list(p) for p in sums]

        coords = np.array(sums) * (g.d_y, g.d_z)
        snapshot = sum(t.amplitude * np.exp(2j * np.pi * (coords[:, 0] * t.u + coords[:, 1] * t.v))
                       for t in targets or BROADSIDE)
        expected = direct_pattern(coords, snapshot, pattern.grid.u_samples, pattern.grid.v_samples)
        assert np.abs(pattern.values - expected).max() <= 1e-9 * np.abs(expected).max()

        assert pattern.grid.fov == scoring_fov(g)
        assert report.pslr_db == reference_pslr(pattern.magnitude, pattern.grid.visible)
        ms, ns = zip(*sums)
        assert report.thinning_ratio == len(sums) / ((max(ms) - min(ms) + 1) * (max(ns) - min(ns) + 1))


class TestPslr:
    def test_large_ula_matches_uniform_first_sidelobe(self):
        value = pslr(ula_pattern(64, q=16))
        # independent oracle: Dirichlet magnitudes on a fine grid beyond the
        # first null (at u = 1/32 for 64 half-wavelength elements)
        u = np.linspace(1.0001 / 32, 1.0, 200001)
        max_sidelobe = dirichlet_magnitude(64, 0.5, u).max()
        expected = 20 * math.log10(64.0 / max_sidelobe)
        assert value == pytest.approx(expected, abs=0.05)
        assert 12.8 <= value <= 13.8

    def test_single_nonzero_node_is_infinite(self):
        values = np.zeros(9)
        values[4] = 3.0
        assert pslr(synthetic_cut(values)) == math.inf

    # u samples of the 9-node cut: -1, -7/9, ..., 7/9; the FOV keeps nodes 2..6.
    @pytest.mark.parametrize("values, fov", [
        (np.full(9, 2.0), None),
        ([5.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 3.0, 0.5], (-0.6, 0.4, -1.0, 1.0)),
    ], ids=["flat", "flat-inside-fov"])
    def test_degenerate_pattern_rejected(self, values, fov):
        with pytest.raises(ValueError, match="degenerate"):
            pslr(synthetic_cut(values, fov))

    # A FOV of rows 2 to 6 at a floor of 1 - spread, with the peak 1, and rows outside it at 5,
    # above the peak. The sidelobe, if any, is one node a unit in the last place above the
    # floor, which the lobe's descent cannot climb; without it the lobe is the whole FOV.
    @pytest.mark.parametrize("sidelobe", [True, False], ids=["sidelobe", "no-sidelobe"])
    @pytest.mark.parametrize("spread", [0.5e-12, 1e-12, 2e-12])
    def test_near_flat_fov_is_refused_exactly_when_the_reference_refuses_it(self, spread, sidelobe):
        lattice = in_fov(make_uv_grid(16, 8, 1, 1), (-1.0, 1.0, -0.5, 0.5))
        mag = np.full((8, 16), 5.0)
        floor = 1.0 - spread
        mag[2:7] = floor
        mag[4, 4] = 1.0
        if sidelobe:
            mag[4, 12] = np.nextafter(floor, 2.0)
        pattern = Pattern(lattice, mag.astype(complex), build_virtual_array(ula_layout(2)))
        try:
            expected = reference_pslr(mag, lattice.visible)
        except ValueError:
            assert spread <= 1e-12
            with pytest.raises(ValueError, match="degenerate"):
                pslr(pattern)
        else:
            assert spread >= 1e-12
            assert pslr(pattern) == expected

    def test_a_flat_band_is_degenerate_before_its_lobe_leaves_the_band(self):
        band = fov_band(in_fov(make_uv_grid(16, 8, 1, 1), (-1.0, 1.0, -0.5, 0.5)))
        pattern = Pattern(band, np.full(band.shape, 2.0, dtype=complex), build_virtual_array(ula_layout(2)))
        assert mask_main_lobe(pattern, find_peak(pattern)).mask[[0, -1]].all()
        with pytest.raises(ValueError, match="degenerate"):
            pslr(pattern)

    # Few distinct levels: ties, plateaus, flat FOVs and empty residuals are common.
    @settings(max_examples=300, deadline=None)
    @given(arrays(float, st.tuples(st.integers(1, 12), st.integers(1, 12)),
                  elements=st.sampled_from([0.0, 1.0, 2.0, 3.0])),
           st.one_of(st.none(), st.lists(st.floats(-1.1, 1.1), min_size=4, max_size=4)))
    def test_matches_reference(self, mag, edges):
        n_v, n_u = mag.shape
        fov = None if edges is None else (*sorted(edges[:2]), *sorted(edges[2:]))
        pattern = pattern_of(mag, fov)
        uu = pattern.grid.u_samples[None, :]
        vv = pattern.grid.v_samples[:, None]
        visible = uu * uu + vv * vv <= 1.0 + 1e-12
        if fov is not None:
            visible &= (uu >= fov[0] - 1e-12) & (uu <= fov[1] + 1e-12)
            visible &= (vv >= fov[2] - 1e-12) & (vv <= fov[3] + 1e-12)
        try:
            expected = reference_pslr(mag, visible)
        except ValueError:
            with pytest.raises(ValueError):
                pslr(pattern)
        else:
            assert pslr(pattern) == expected

    @settings(max_examples=200, deadline=None)
    @given(wide_lobes(), st.lists(st.floats(-1.1, 1.1), min_size=4, max_size=4))
    def test_matches_reference_past_the_first_window(self, mag, edges):
        pattern = pattern_of(mag, (*sorted(edges[:2]), *sorted(edges[2:])))
        try:
            expected = reference_pslr(mag, pattern.grid.visible)
        except ValueError:
            with pytest.raises(ValueError):
                pslr(pattern)
        else:
            assert pslr(pattern) == expected

    @pytest.mark.parametrize("edge_row, outward", [(2, -1), (6, 1)], ids=["first-row", "last-row"])
    def test_lobe_leaving_the_band_is_refused(self, edge_row, outward):
        fov = (-1.0, 1.0, -0.5, 0.5)  # rows 2 to 6
        lattice = in_fov(make_uv_grid(16, 8, 1, 1), fov)  # v = -1, -0.75, ..., 0.75
        mag = escaping_lobe(8, 16, edge_row, outward)
        vrx = build_virtual_array(ula_layout(2))
        band = fov_band(lattice)
        assert isinstance(band, UVBand) and band.v_samples.tolist() == [-0.5, -0.25, 0.0, 0.25, 0.5]
        assert band.fov == fov and np.array_equal(band.visible, lattice.visible[2:7])
        with pytest.raises(LobeLeavesBand):
            pslr(Pattern(band, mag[2:7].astype(complex), vrx))
        # The same rows as a plain grid: the lobe is cut off and its path back in counts as a sidelobe.
        rows_only = Pattern(UVGrid(band.u_samples, band.v_samples, fov), mag[2:7].astype(complex), vrx)
        assert pslr(rows_only) == 20.0 * math.log10(10.0 / 6.0)
        full = pslr(Pattern(lattice, mag.astype(complex), vrx))
        assert full == reference_pslr(mag, lattice.visible) == 20.0 * math.log10(10.0 / 3.0)

    def test_band_is_the_lattice_when_the_fov_holds_every_row(self):
        lattice = in_fov(make_uv_grid(16, 8, 1, 1), (-1.0, 1.0, -1.0, 1.0))
        assert fov_band(lattice) is lattice

    def test_scale_invariance(self):
        vrx = build_virtual_array(ula_layout(16))
        grid = make_uv_cut(vrx.grid.M, 8)
        snap = synthesize_snapshot(vrx, [Target(0, 0)])
        base = pslr(beamform(vrx, snap, grid))
        scaled = pslr(beamform(vrx, 7.25 * snap, grid))
        assert scaled == pytest.approx(base, abs=1e-10)

    def test_n_independence_bracket(self):
        values = [pslr(ula_pattern(n, q=16)) for n in (16, 32, 64)]
        assert max(values) - min(values) <= 0.5
        assert all(12.8 <= v <= 13.8 for v in values)


class TestBeamwidths:
    def test_closed_form_values(self):
        fnbw, hpbw = theoretical_beamwidths(11.0)
        assert fnbw == pytest.approx(math.degrees(math.asin(1 / 11)), abs=1e-12)
        assert hpbw == pytest.approx(math.degrees(0.886 / 11), abs=1e-12)

    def test_unit_aperture_first_null(self):
        fnbw, _ = theoretical_beamwidths(1.0)
        assert fnbw == pytest.approx(90.0)

    def test_sub_wavelength_aperture_rejected(self):
        with pytest.raises(ValueError):
            theoretical_beamwidths(0.9)

    def test_measured_matches_theory_for_32_wavelengths(self):
        pattern = ula_pattern(65, q=16)
        measured = measured_hpbw(pattern, find_peak(pattern), "u")
        theory = math.degrees(0.886 / 32.0)
        assert abs(measured - theory) / theory < 0.05

    def test_doubling_aperture_halves_width(self):
        p65, p129 = ula_pattern(65, q=16), ula_pattern(129, q=16)
        w65 = measured_hpbw(p65, find_peak(p65), "u")
        w129 = measured_hpbw(p129, find_peak(p129), "u")
        assert abs(w129 - w65 / 2) / (w65 / 2) < 0.05

    def test_scale_invariance(self):
        vrx = build_virtual_array(ula_layout(33))
        grid = make_uv_cut(vrx.grid.M, 16)
        snap = synthesize_snapshot(vrx, [Target(0, 0)])
        p1, p2 = beamform(vrx, snap, grid), beamform(vrx, 123.0 * snap, grid)
        w1 = measured_hpbw(p1, find_peak(p1), "u")
        w2 = measured_hpbw(p2, find_peak(p2), "u")
        assert w1 == pytest.approx(w2, abs=1e-12)

    def test_too_coarse_grid_rejected(self):
        pattern = ula_pattern(33, q=1)
        with pytest.raises(ValueError):
            measured_hpbw(pattern, find_peak(pattern), "u")

    def test_elevation_axis_cut(self):
        # square URA sampled in 2-D; the v-axis cut mirrors the u-axis cut
        from saf import ArrayLayout, ElementSize, GridSpec

        grid = GridSpec(0.5, 0.5, 17, 17)
        layout = ArrayLayout(
            grid,
            [(0, 0)],
            [(m, n) for m in range(17) for n in range(17)],
            ElementSize(0.1, 0.1),
            ElementSize(0.1, 0.1),
        )
        vrx = build_virtual_array(layout)
        uv = make_uv_grid(vrx.grid.M, vrx.grid.N, 8, 8)
        pattern = beamform(vrx, synthesize_snapshot(vrx, [Target(0, 0)]), uv)
        peak = find_peak(pattern)
        wu = measured_hpbw(pattern, peak, "u")
        wv = measured_hpbw(pattern, peak, "v")
        assert wu == pytest.approx(wv, rel=1e-6)


class TestGratingLobes:
    def test_half_wavelength_endfire_image(self):
        assert grating_lobe_angles(0.5, 90.0) == pytest.approx([-90.0])

    def test_one_wavelength_at_thirty_degrees(self):
        lobes = grating_lobe_angles(1.0, 30.0)
        assert lobes == pytest.approx([-30.0], abs=1e-9)

    def test_dense_spacing_has_none(self):
        assert grating_lobe_angles(0.4, 0.0) == []

    def test_broadside_symmetry(self):
        lobes = grating_lobe_angles(1.5, 0.0)
        assert lobes == pytest.approx([-l for l in reversed(lobes)])

    def test_predictions_match_pattern_maxima(self):
        d = 1.5
        pattern = ula_pattern(16, d_y=d, q=16)
        mag = pattern.magnitude[0]
        u = pattern.grid.u_samples
        du = u[1] - u[0]
        peak = mag.max()
        for angle in grating_lobe_angles(d, 0.0):
            u_pred = math.sin(math.radians(angle))
            local = mag[np.abs(u - u_pred) <= du]
            assert local.max() >= 0.95 * peak


class TestUfov:
    def test_table_endpoints(self):
        assert ufov(0.5) == pytest.approx(90.0)
        assert ufov(1.0) == pytest.approx(30.0)
        assert ufov(2.0) == pytest.approx(14.4775, abs=5e-4)
        assert ufov(20.0) == pytest.approx(1.4325, abs=5e-4)

    def test_dense_spacing_saturates(self):
        assert ufov(0.3) == pytest.approx(90.0)

    def test_monotone_nonincreasing(self):
        spacings = np.linspace(0.2, 5.0, 60)
        values = [ufov(d) for d in spacings]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_positive_spacing_required(self):
        with pytest.raises(ValueError):
            ufov(0.0)

    def test_scoring_fov_is_the_sine_of_the_ufov(self):
        from saf import GridSpec

        sv = math.sin(math.radians(ufov(2.0)))
        grid = GridSpec(0.3, 2.0, 4, 4)
        assert scoring_fov(grid) == pytest.approx((-1.0, 1.0, -sv, sv), abs=1e-15)
        assert scoring_grid(grid, 4, 4).fov == scoring_fov(grid)


class TestLobeSampling:
    @pytest.mark.parametrize("d_y, d_z, N, q_phi, q_theta", [
        (2.0, 0.5, 4, 4, 1), (0.5, 2.0, 4, 1, 4), (0.5, 1e9, 1, 1, 1),
    ], ids=["d_y-at-the-bound", "d_z-at-the-bound", "cut-ignores-d_z"])
    def test_accepted(self, d_y, d_z, N, q_phi, q_theta):
        scoring_grid(GridSpec(d_y, d_z, 4, N), q_phi, q_theta)

    @pytest.mark.parametrize("d_y, d_z, q_phi, q_theta, message", [
        (2.0001, 0.5, 4, 1, "d_y = 2.0001 wavelengths exceeds q_phi / 2 = 2"),
        (0.5, 1.0, 1, 1, "d_z = 1 wavelengths exceeds q_theta / 2 = 0.5"),
    ], ids=["d_y", "d_z"])
    def test_refused(self, d_y, d_z, q_phi, q_theta, message):
        with pytest.raises(ValueError, match=message):
            scoring_grid(GridSpec(d_y, d_z, 4, 4), q_phi, q_theta)

    @pytest.mark.parametrize("M, N, q_phi, q_theta", [
        (1, 1, MAX_LATTICE_NODES + 1, 1), (2 ** 33, 1, 1, 1), (2 ** 11, 2 ** 11, 2, 2),
    ], ids=["cut-one-node-over", "cut-of-a-2^33-node-line", "planar"])
    def test_refuses_a_lattice_too_large_to_allocate(self, M, N, q_phi, q_theta, monkeypatch):
        # Checked from the grid alone, before any sample is made: the lattice of the 2^33 line
        # would take 128 GiB. The samples of the lattice at the bound (128 MiB) are not made either.
        made = []
        monkeypatch.setattr(metrics, "make_uv_cut", lambda *args: made.append(args) or make_uv_cut(1, 1))
        monkeypatch.setattr(metrics, "make_uv_grid", lambda *args: made.append(args) or make_uv_grid(1, 1, 1, 1))
        with pytest.raises(ValueError, match=f"nodes, more than {MAX_LATTICE_NODES}"):
            scoring_grid(GridSpec(0.5, 0.5, M, N), q_phi, q_theta)
        assert made == []
        scoring_grid(GridSpec(0.5, 0.5, 1, 1), MAX_LATTICE_NODES, 1)
        assert made == [(1, MAX_LATTICE_NODES)]

    def test_refuses_every_fov_too_narrow_for_a_pslr(self):
        # A FOV holding one lattice sample along u, or in 2D along v, has no PSLR.
        # With two or more nodes along u, such a grid has a spacing above q / 2,
        # so this rule alone keeps it from the optimizer. One node along u
        # (M = 1) is left out: every VRX then shares one column, and the pattern
        # is constant in u.
        rng = np.random.default_rng(11)
        short = [0, 0]
        for M, N, q_phi, q_theta in itertools.product(range(1, 5), range(1, 4), range(1, 5), range(1, 5)):
            spacings = [[0.5, *(q / 2.0 * f for f in (0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 1.5)),
                         *rng.uniform(0.05, 2.0 * q, 2)] for q in (q_phi, q_theta)]
            for d_y, d_z in itertools.product(*spacings):
                grid = GridSpec(d_y, d_z, M, N)
                # The lattice scoring_grid would make, had it no rule.
                lattice = (make_uv_cut(2 * M - 1, q_phi) if N == 1
                           else make_uv_grid(2 * M - 1, 2 * N - 1, q_phi, q_theta))
                visible = in_fov(lattice, scoring_fov(grid)).visible
                short_u, short_v = visible.any(0).sum() < 2, N >= 2 and visible.any(1).sum() < 2
                if M >= 2 and (short_u or short_v):
                    short[0] += short_u
                    short[1] += short_v
                    with pytest.raises(ValueError, match="exceeds"):
                        scoring_grid(grid, q_phi, q_theta)
        assert min(short) > 100


class TestEfficiencyFactors:
    def full(self):
        return [Rect(0, 30, 0, 30)]

    def test_shared_aperture(self):
        area = virtual_coverage_area(self.full(), self.full())
        assert aperture_loss_factor(area, 900.0, "2D") == pytest.approx(1.0)

    def test_vertical_split(self):
        tx = [Rect(0, 30, 0, 15)]
        rx = [Rect(0, 30, 15, 30)]
        area = virtual_coverage_area(tx, rx)
        assert aperture_loss_factor(area, 900.0, "2D") == pytest.approx(0.50)

    def test_four_corners(self):
        tx = [Rect(0, 15, 0, 15), Rect(15, 30, 15, 30)]
        rx = [Rect(0, 15, 15, 30), Rect(15, 30, 0, 15)]
        area = virtual_coverage_area(tx, rx)
        assert aperture_loss_factor(area, 900.0, "2D") == pytest.approx(0.75)

    def test_zero_physical_area_rejected(self):
        with pytest.raises(ValueError):
            aperture_loss_factor(1.0, 0.0, "2D")

    def test_spreading_factors(self):
        # per-axis virtual extents: shared aperture spans 60x60, the vertical
        # split spans 60x30, four corners again 60x60
        full_hp = theoretical_beamwidths(60.0)[1]
        assert bw_spreading_factor(full_hp, full_hp) == pytest.approx(1.0)
        half_hp = theoretical_beamwidths(30.0)[1]
        assert bw_spreading_factor(half_hp, full_hp) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            bw_spreading_factor(0.0, 1.0)


class TestEvaluateLayout:
    def test_ula_report(self):
        pattern, report = evaluate_layout(ula_layout(16), q_phi=16)
        assert 12.8 <= report.pslr_db <= 13.8
        assert report.ufov_az == pytest.approx(90.0)
        assert report.thinning_ratio == pytest.approx(1.0)
        assert report.peak_u == 0.0
        assert report.grating_lobes_az == []

    def test_one_wavelength_spacing_ufov(self):
        _, report = evaluate_layout(ula_layout(16, d_y=1.0), q_phi=16)
        assert report.ufov_az == pytest.approx(30.0)
        assert report.grating_lobes_az  # grating lobes predicted

    def test_the_peak_is_searched_for_once(self, monkeypatch):
        searches = []
        argmax = np.argmax

        def counted(a, *args, **kwargs):
            searches.append(a.shape)
            return argmax(a, *args, **kwargs)

        monkeypatch.setattr(np, "argmax", counted)
        pattern, _ = evaluate_layout(ula_layout(16), q_phi=16)
        assert searches == [pattern.values.shape]

    def test_the_virtual_array_is_built_once(self, monkeypatch):
        built = []
        build = geometry.build_virtual_array

        def counted(layout):
            built.append(layout)
            return build(layout)

        monkeypatch.setattr(geometry, "build_virtual_array", counted)
        monkeypatch.setattr(metrics, "build_virtual_array", counted)
        evaluate_layout(ula_layout(8), 4, 4)
        assert len(built) == 1

    def test_a_one_off_score_keeps_no_phasor_table(self):
        # The README's 12x16 layout at q=4, a 284x516 lattice. After the call, the
        # pattern's values (2.34 MB), its magnitude (1.17 MB) and the FOV mask are
        # held; the call's phasor tables (1.39 MB) are not. A small call first
        # imports what the first call of a process imports.
        layout = layout_12x16(0)
        evaluate_layout(ula_layout(8), q_phi=4, q_theta=4)
        tracemalloc.start()
        try:
            pattern, _ = evaluate_layout(layout, q_phi=4, q_theta=4)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pattern.values.shape == (284, 516)
        assert held < 4.2e6

    def test_single_column_is_a_line_along_z(self):
        # One TX under a column of 6 RX: the virtual aperture equals the physical one.
        layout = ArrayLayout(GridSpec(0.5, 0.5, 1, 6), [(0, 0)], [(0, n) for n in range(6)],
                             ElementSize(0.1, 0.1), ElementSize(0.1, 0.1))
        _, report = evaluate_layout(layout, q_phi=2, q_theta=4)
        assert report.aperture_loss_factor == 0.5

    @pytest.mark.parametrize("seed", range(4))
    def test_a_transposed_layout_swaps_the_axes(self, seed):
        # Swapping m and n (and M and N, with d_y = d_z) mirrors the pattern in u = v:
        # each azimuth figure becomes the elevation one and back, the PSLR stays.
        nodes = np.random.default_rng(seed).choice(9 * 7, size=8, replace=False)
        coords = [(int(i) % 9, int(i) // 9) for i in nodes]
        size = ElementSize(0.1, 0.1)
        layout = ArrayLayout(GridSpec(0.5, 0.5, 9, 7), coords[:3], coords[3:], size, size)
        flipped = ArrayLayout(GridSpec(0.5, 0.5, 7, 9), [(n, m) for m, n in coords[:3]],
                              [(n, m) for m, n in coords[3:]], size, size)
        _, report = evaluate_layout(layout, q_phi=4, q_theta=4)
        _, transposed = evaluate_layout(flipped, q_phi=4, q_theta=4)
        assert transposed.pslr_db == pytest.approx(report.pslr_db, rel=1e-9)
        for az, el in (("hpbw_az", "hpbw_el"), ("ufov_az", "ufov_el"),
                       ("grating_lobes_az", "grating_lobes_el"), ("fnbw_az", "fnbw_el"),
                       ("bw_spreading_az", "bw_spreading_el"), ("peak_u", "peak_v")):
            assert getattr(transposed, az) == pytest.approx(getattr(report, el), rel=1e-9)
            assert getattr(transposed, el) == pytest.approx(getattr(report, az), rel=1e-9)

    def test_min_axis_spacing(self):
        assert min_axis_spacing(np.array([0.0, 0.5, 1.5])) == pytest.approx(0.5)
        assert min_axis_spacing(np.array([2.0, 2.0])) is None

    def test_planar_layout_report(self):
        from saf import ArrayLayout, ElementSize, GridSpec

        grid = GridSpec(0.5, 0.5, 9, 9)
        layout = ArrayLayout(
            grid,
            [(0, 0)],
            [(m, n) for m in range(9) for n in range(9)],
            ElementSize(0.1, 0.1),
            ElementSize(0.1, 0.1),
        )
        _, report = evaluate_layout(layout, q_phi=8, q_theta=8)
        assert report.hpbw_el is not None
        assert report.hpbw_az == pytest.approx(report.hpbw_el, rel=1e-6)
        assert report.ufov_el == pytest.approx(90.0)
        assert report.fnbw_az == pytest.approx(theoretical_beamwidths(4.0)[0])
        # a point TX gives a virtual aperture equal to the physical one, half
        # the shared-aperture ideal per axis: 4x4 / (4 * 4x4) = 0.25
        assert report.aperture_loss_factor == pytest.approx(0.25)
        assert report.to_dict()["hpbw_az_one_sided_deg"] == pytest.approx(report.hpbw_az / 2)

    def test_beamwidths_are_cut_through_the_fov_peak(self):
        # With d_z = 1 the real-angle disk also peaks at the v = -1 grating lobe,
        # whose u cut leaves the disk; the FOV peak is the broadside one.
        from saf import ArrayLayout, ElementSize, GridSpec

        layout = ArrayLayout(
            GridSpec(0.5, 1.0, 8, 4),
            [(0, n) for n in range(4)],
            [(m, 0) for m in range(8)],
            ElementSize(0.1, 0.1),
            ElementSize(0.1, 0.1),
        )
        pattern, report = evaluate_layout(layout, q_phi=4, q_theta=4)
        assert pattern.grid.fov == (-1.0, 1.0, -0.5, 0.5)
        assert None not in (report.hpbw_az, report.hpbw_el,
                            report.bw_spreading_az, report.bw_spreading_el)
        assert report.hpbw_az == measured_hpbw(pattern, find_peak(pattern), "u")
