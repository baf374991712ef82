import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from saf import (
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
from conftest import dirichlet_magnitude, reference_main_lobe, reference_pslr, ula_layout


def ula_pattern(n, d_y=0.5, q=8, target=Target(0.0, 0.0)):
    vrx = build_virtual_array(ula_layout(n, d_y=d_y))
    grid = make_uv_cut(vrx.grid.M, q)
    return beamform(vrx, synthesize_snapshot(vrx, [target]), grid)


def synthetic_cut(values):
    """Pattern wrapper around explicit magnitudes on a v = 0 cut."""
    values = np.asarray(values, dtype=complex).reshape(1, -1)
    grid = make_uv_cut(values.shape[1], 1)
    vrx = build_virtual_array(ula_layout(2))
    return Pattern(grid=grid, values=values, vrx=vrx)


class TestFindPeak:
    def test_on_grid_target(self):
        pattern = ula_pattern(16)
        peak = find_peak(pattern)
        assert peak.magnitude == pytest.approx(16.0, abs=1e-9)
        assert peak.u == 0.0 and peak.v == 0.0

    def test_tie_break_first_node(self):
        pattern = synthetic_cut(np.ones(8))
        peak = find_peak(pattern)
        assert (peak.iv, peak.iu) == (0, 0)

    def test_fov_restriction(self):
        pattern = ula_pattern(16)
        # restrict away from the main lobe; the peak becomes the first sidelobe
        peak = find_peak(pattern, fov=(0.15, 1.0, -1.0, 1.0))
        assert peak.u >= 0.15
        assert peak.magnitude < 16.0

    def test_empty_fov_errors(self):
        pattern = ula_pattern(8)
        with pytest.raises(ValueError):
            find_peak(pattern, fov=(2.0, 3.0, -1.0, 1.0))


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
            pslr(synthetic_cut(values), fov)

    # Few distinct levels: ties, plateaus, flat FOVs and empty residuals are common.
    @settings(max_examples=300, deadline=None)
    @given(arrays(float, st.tuples(st.integers(1, 12), st.integers(1, 12)),
                  elements=st.sampled_from([0.0, 1.0, 2.0, 3.0])),
           st.one_of(st.none(), st.lists(st.floats(-1.1, 1.1), min_size=4, max_size=4)))
    def test_matches_reference(self, mag, edges):
        n_v, n_u = mag.shape
        pattern = Pattern(make_uv_grid(n_u, n_v, 1, 1), mag.astype(complex),
                          build_virtual_array(ula_layout(2)))
        uu = pattern.grid.u_samples[None, :]
        vv = pattern.grid.v_samples[:, None]
        visible = uu * uu + vv * vv <= 1.0 + 1e-12
        fov = None
        if edges is not None:
            fov = (*sorted(edges[:2]), *sorted(edges[2:]))
            visible &= (uu >= fov[0] - 1e-12) & (uu <= fov[1] + 1e-12)
            visible &= (vv >= fov[2] - 1e-12) & (vv <= fov[3] + 1e-12)
        try:
            expected = reference_pslr(mag, visible)
        except ValueError:
            with pytest.raises(ValueError):
                pslr(pattern, fov)
        else:
            assert pslr(pattern, fov) == expected

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
        assert scoring_fov(GridSpec(0.3, 2.0, 4, 4)) == pytest.approx((-1.0, 1.0, -sv, sv), abs=1e-15)


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
        fov = (-1.0, 1.0, -0.5, 0.5)
        pattern, report = evaluate_layout(layout, q_phi=4, q_theta=4)
        assert None not in (report.hpbw_az, report.hpbw_el,
                            report.bw_spreading_az, report.bw_spreading_el)
        assert report.hpbw_az == measured_hpbw(pattern, find_peak(pattern, fov), "u")
