import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from saf import (
    ArrayLayout,
    GridSpec,
    Pattern,
    Target,
    angles_to_uv,
    beamform,
    build_virtual_array,
    make_uv_cut,
    make_uv_grid,
    steering_vector,
    synthesize_snapshot,
    uv_to_angles,
)
from saf.beamforming import _BLOCK_BYTES, UVBand, _PhasorTable, _row_blocks, phasor_tables
from saf.metrics import fov_band, scoring_grid
from conftest import (dirichlet_magnitude, direct_pattern, layout_12x16, linear_layout, per_call_pattern,
                      small_size, ula_layout)


class TestAngleConversion:
    def test_broadside(self):
        assert angles_to_uv(0.0, 90.0) == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_endfire(self):
        assert angles_to_uv(90.0, 90.0) == pytest.approx((1.0, 0.0), abs=1e-15)

    def test_oblique_closed_form(self):
        u, v = angles_to_uv(30.0, 60.0)
        assert u == pytest.approx(math.sin(math.radians(30)) * math.sin(math.radians(60)), abs=1e-15)
        assert v == pytest.approx(math.cos(math.radians(60)), abs=1e-15)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            angles_to_uv(100.0, 90.0)
        with pytest.raises(ValueError):
            angles_to_uv(0.0, -1.0)

    def test_inverse_at_origin(self):
        assert uv_to_angles(0.0, 0.0) == pytest.approx((0.0, 90.0))

    def test_outside_unit_disk_is_not_an_angle(self):
        assert uv_to_angles(0.9, 0.9) is None

    def test_inverse_of_oblique(self):
        u, v = angles_to_uv(30.0, 60.0)
        phi, theta = uv_to_angles(u, v)
        assert phi == pytest.approx(30.0, abs=1e-12)
        assert theta == pytest.approx(60.0, abs=1e-12)

    def test_round_trip_away_from_poles(self, rng):
        for _ in range(200):
            phi = float(rng.uniform(-89.0, 89.0))
            theta = float(rng.uniform(5.0, 175.0))
            back = uv_to_angles(*angles_to_uv(phi, theta))
            assert back is not None
            assert back[0] == pytest.approx(phi, abs=1e-12)
            assert back[1] == pytest.approx(theta, abs=1e-12)

    def test_pole_convention(self):
        assert uv_to_angles(0.0, 1.0) == pytest.approx((0.0, 0.0))
        assert uv_to_angles(0.0, -1.0) == pytest.approx((0.0, 180.0))


class TestUVGrid:
    def test_formula_small(self):
        grid = make_uv_grid(4, 1, 1, 1)
        assert_allclose(grid.u_samples, [-1.0, -0.5, 0.0, 0.5])

    def test_counts_and_range(self):
        grid = make_uv_grid(2, 2, 2, 2)
        assert_allclose(grid.u_samples, [-1.0, -0.5, 0.0, 0.5])
        assert grid.u_samples.size == 2 * 2 and grid.v_samples.size == 2 * 2
        assert grid.u_samples.min() >= -1.0 and grid.u_samples.max() < 1.0

    def test_paper_scale_map(self):
        q = 8
        grid = make_uv_grid(512 // q, 256 // q, q, q)
        assert grid.u_samples.size * grid.v_samples.size == 131072

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            make_uv_grid(0, 1, 1, 1)
        with pytest.raises(ValueError):
            make_uv_cut(4, 0)

    def test_a_grid_is_scored_in_the_whole_disk_by_default(self):
        # The default FOV is the full square, which holds every node of the real-angle disk.
        for grid in (make_uv_grid(8, 6, 3, 2), make_uv_cut(8, 3)):
            uu, vv = grid.u_samples[None, :], grid.v_samples[:, None]
            assert grid.fov == (-1.0, 1.0, -1.0, 1.0)
            assert np.array_equal(grid.visible, uu * uu + vv * vv <= 1.0 + 1e-12)

    def test_grids_bands_and_patterns_compare_by_identity(self):
        # Their fields are arrays, so a field-wise == raised and hash() refused them.
        grid = make_uv_grid(2, 2, 2, 2)
        band = UVBand(grid.u_samples, grid.v_samples[1:3])
        vrx = build_virtual_array(ula_layout(2))
        pattern = beamform(vrx, np.ones(2), grid)
        for one, twin in ((grid, make_uv_grid(2, 2, 2, 2)), (band, UVBand(band.u_samples, band.v_samples)),
                          (pattern, Pattern(grid, pattern.values, vrx))):
            assert one == one and one != twin
            assert {one: 1, twin: 2}[one] == 1


class TestSteering:
    def test_broadside_all_ones(self):
        vrx = build_virtual_array(ula_layout(6))
        assert_allclose(steering_vector(vrx, 0.0, 0.0), np.ones(6))

    def test_half_wavelength_phase(self):
        layout = linear_layout([1], tx_nodes=[0], M=2)  # single VRX at 0.5 wavelengths
        vrx = build_virtual_array(layout)
        sv = steering_vector(vrx, 1.0, 0.0)
        assert sv[0] == pytest.approx(np.exp(1j * np.pi), abs=1e-12)

    def test_ula_phases(self):
        vrx = build_virtual_array(ula_layout(3))  # y = 0, 0.5, 1.0 wavelengths
        phases = np.angle(steering_vector(vrx, 0.5, 0.0), deg=True)
        assert_allclose(phases, [0.0, 90.0, 180.0], atol=1e-10)

    def test_unit_magnitude(self, rng):
        vrx = build_virtual_array(ula_layout(16))
        for _ in range(25):
            u, v = rng.uniform(-1, 1, size=2)
            assert_allclose(np.abs(steering_vector(vrx, u, v)), 1.0, atol=1e-12)


class TestSnapshot:
    def test_single_broadside_target(self):
        vrx = build_virtual_array(ula_layout(5))
        assert_allclose(synthesize_snapshot(vrx, [Target(0, 0)]), np.ones(5))

    def test_linearity_in_amplitude(self):
        vrx = build_virtual_array(ula_layout(5))
        one = synthesize_snapshot(vrx, [Target(0.3, 0.1)])
        two = synthesize_snapshot(vrx, [Target(0.3, 0.1), Target(0.3, 0.1)])
        assert_allclose(two, 2 * one, atol=1e-12)

    def test_known_phasors(self):
        vrx = build_virtual_array(ula_layout(3))  # y = 0, 0.5, 1.0
        snap = synthesize_snapshot(vrx, [Target(0.5, 0.0)])
        assert_allclose(snap, [1.0, 1j, -1.0], atol=1e-12)

    def test_empty_target_list(self):
        vrx = build_virtual_array(ula_layout(4))
        assert_allclose(synthesize_snapshot(vrx, []), np.zeros(4))

    def test_target_outside_disk_rejected(self):
        with pytest.raises(ValueError):
            Target(0.9, 0.9)

    @pytest.mark.parametrize(
        "u, v, amplitude",
        [(math.nan, 0.0, 1.0), (0.0, math.nan, 1.0), (0.0, 0.0, complex(1.0, math.nan)),
         (math.inf, 0.0, 1.0), (0.0, 0.0, math.inf)],
    )
    def test_non_finite_target_rejected(self, u, v, amplitude):
        with pytest.raises(ValueError, match="not finite"):
            Target(u, v, amplitude)


class TestBeamform:
    def test_on_grid_peak_equals_vrx_count(self):
        vrx = build_virtual_array(ula_layout(8))
        grid = make_uv_cut(vrx.grid.M, 4)
        u_t = grid.u_samples[10]
        pattern = beamform(vrx, synthesize_snapshot(vrx, [Target(u_t, 0.0)]), grid)
        assert np.abs(pattern.values[0, 10]) == pytest.approx(8.0, abs=1e-9)
        assert pattern.magnitude.max() == pytest.approx(8.0, abs=1e-9)

    def test_magnitude_is_computed_once(self):
        vrx = build_virtual_array(ula_layout(4))
        pattern = beamform(vrx, synthesize_snapshot(vrx, [Target(0, 0)]), make_uv_cut(vrx.grid.M, 2))
        assert pattern.magnitude is pattern.magnitude

    def test_zero_snapshot(self):
        vrx = build_virtual_array(ula_layout(4))
        grid = make_uv_cut(vrx.grid.M, 2)
        pattern = beamform(vrx, np.zeros(4), grid)
        assert_allclose(pattern.values, 0)

    def test_dirichlet_oracle(self):
        vrx = build_virtual_array(ula_layout(8))
        grid = make_uv_cut(vrx.grid.M, 8)
        pattern = beamform(vrx, synthesize_snapshot(vrx, [Target(0, 0)]), grid)
        expected = dirichlet_magnitude(8, 0.5, grid.u_samples)
        assert_allclose(pattern.magnitude[0], expected, atol=1e-9)

    def test_matches_direct_summation(self, rng):
        grid2d = make_uv_grid(8, 8, 4, 4)
        for _ in range(5):
            cells = rng.choice(10 * 10, size=9, replace=False)
            tx = [(int(c % 10), int(c // 10)) for c in cells[:3]]
            rx = [(int(c % 10), int(c // 10)) for c in cells[3:]]
            layout = ArrayLayout(GridSpec(0.5, 0.5, 10, 10), tx, rx, small_size(), small_size())
            vrx = build_virtual_array(layout)
            snap = rng.standard_normal(vrx.unique_count) + 1j * rng.standard_normal(vrx.unique_count)
            fast = beamform(vrx, snap, grid2d).values
            slow = direct_pattern(vrx.positions_wavelengths(), snap, grid2d.u_samples, grid2d.v_samples)
            assert_allclose(fast, slow, rtol=1e-10, atol=1e-9)

    @pytest.mark.parametrize("tx, rx, rows", [
        ([(0, 3), (5, 3)], [(m, 2) for m in (0, 1, 3, 7, 8)], 1),
        ([(2, 0)], [(0, 0), (4, 1), (1, 3), (7, 4), (3, 6)], 5),
    ], ids=["all-vrx-on-one-row", "one-vrx-per-row"])
    def test_matches_direct_summation_at_either_extreme_of_rows(self, tx, rx, rows, rng):
        layout = ArrayLayout(GridSpec(0.5, 0.5, 10, 10), tx, rx, small_size(), small_size())
        vrx = build_virtual_array(layout)
        assert len({n for _m, n in vrx.vrx_positions}) == rows
        grid2d = make_uv_grid(8, 8, 4, 4)
        snap = rng.standard_normal(vrx.unique_count) + 1j * rng.standard_normal(vrx.unique_count)
        fast = beamform(vrx, snap, grid2d).values
        slow = direct_pattern(vrx.positions_wavelengths(), snap, grid2d.u_samples, grid2d.v_samples)
        assert_allclose(fast, slow, rtol=1e-10, atol=1e-9)

    def test_shared_grid_keeps_the_bits_of_per_call_phasors(self, rng):
        # One grid serves layouts whose VRX cover different rows and columns, so
        # its phasor tables grow between calls; every pattern keeps the bits.
        grid = make_uv_grid(19, 19, 4, 2)
        tables = phasor_tables(grid, GridSpec(0.7, 1.3, 19, 19))  # every layout's virtual grid
        for _ in range(6):
            cells = rng.choice(10 * 10, size=7, replace=False)
            tx = [(int(c % 10), int(c // 10)) for c in cells[:2]]
            rx = [(int(c % 10), int(c // 10)) for c in cells[2:]]
            layout = ArrayLayout(GridSpec(0.7, 1.3, 10, 10), tx, rx, small_size(0.1, 0.1),
                                 small_size(0.1, 0.1))
            vrx = build_virtual_array(layout)
            snap = rng.standard_normal(vrx.unique_count) + 1j * rng.standard_normal(vrx.unique_count)
            expected = per_call_pattern(vrx, snap, grid)
            assert np.array_equal(beamform(vrx, snap, grid).values, expected)
            assert np.array_equal(beamform(vrx, snap, make_uv_grid(19, 19, 4, 2)).values, expected)
            assert np.array_equal(beamform(vrx, snap, grid, tables).values, expected)

    def test_a_first_fill_allocates_only_the_rows_it_fills(self):
        # A one-off beamform fills its tables once; the search's tables grow by doubling.
        samples = np.linspace(-1.0, 1.0, 5)
        table = _PhasorTable(samples, 0.5, 10)
        table.gather(np.array([7, 2, 7, 4]))
        assert len(table._rows) == 3
        table.gather(np.array([1, 2]))
        assert len(table._rows) == 6
        k = np.array([7, 1, 4, 2])
        assert np.array_equal(table.gather(k), np.exp(-2j * np.pi * np.outer(k * 0.5, samples)))

    def test_linearity(self, rng):
        vrx = build_virtual_array(ula_layout(12))
        grid = make_uv_cut(vrx.grid.M, 4)
        s1 = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        s2 = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        a, b = 2.5, -1.25 + 0.5j
        combined = beamform(vrx, a * s1 + b * s2, grid).values
        separate = a * beamform(vrx, s1, grid).values + b * beamform(vrx, s2, grid).values
        assert_allclose(combined, separate, atol=1e-10)

    def test_conjugate_symmetry_recentered(self):
        # Recentered layout: VRX at -1, 0, +1 wavelengths around the origin is
        # not representable on the nonnegative grid, so compare magnitudes at
        # mirrored grid nodes instead; for a real broadside snapshot the
        # pattern of any layout satisfies |g(-u)| = |g(u)| after recentering.
        vrx = build_virtual_array(linear_layout([0, 3, 4, 9], tx_nodes=[0], M=10))
        grid = make_uv_cut(vrx.grid.M, 8)
        pattern = beamform(vrx, synthesize_snapshot(vrx, [Target(0, 0)]), grid)
        mag = pattern.magnitude[0]
        n = mag.size
        # u_k = 2k/n - 1, so u index n-k mirrors index k for k >= 1
        for k in range(1, n):
            assert mag[k] == pytest.approx(mag[(n - k) % n], abs=1e-10)

    def test_grating_replication_at_one_wavelength(self):
        vrx = build_virtual_array(ula_layout(8, d_y=1.0))
        grid = make_uv_cut(vrx.grid.M, 2)  # du = 2/30; u + 1 is 15 cells away
        pattern = beamform(vrx, synthesize_snapshot(vrx, [Target(0, 0)]), grid)
        mag = pattern.magnitude[0]
        shift = mag.size // 2
        assert_allclose(mag[: mag.size - shift], mag[shift:], atol=1e-10)

    def test_snapshot_length_validation(self):
        vrx = build_virtual_array(ula_layout(4))
        with pytest.raises(ValueError):
            beamform(vrx, np.ones(3), make_uv_cut(4, 1))


class TestRowBlocks:
    @pytest.mark.parametrize("q", [4, 8])
    def test_blocks_keep_the_bits_of_the_whole_product(self, q):
        # The README's 12x16 layout with a three-target scene, on the whole lattice and
        # on its FOV band. A pattern forms its values a block of rows at a time; each
        # block, and each 2- and 3-row block (the smallest a wide lattice gets), must
        # have the bits of the same rows of the whole (n_v, R) x (R, n_u) product.
        layout = layout_12x16(0)
        vrx = build_virtual_array(layout)
        snapshot = synthesize_snapshot(vrx, [Target(0.0, 0.0), Target(0.3, -0.2, 0.5 - 0.25j),
                                             Target(-0.6, 0.1, 1e-4)])
        lattice = scoring_grid(layout.grid, q, q)
        for grid in (lattice, fov_band(lattice)):
            pattern = beamform(vrx, snapshot, grid)
            whole = pattern.v_phasors @ pattern.u_sums
            blocks = list(pattern.row_blocks())
            assert len(blocks) > 1
            assert np.concatenate([values for _, values in blocks]).tobytes() == whole.tobytes()
            assert pattern.magnitude.tobytes() == np.abs(whole).tobytes()
            assert pattern.values.tobytes() == whole.tobytes()
            for size in (2, 3):
                for first in range(0, grid.shape[0] - 1, size):
                    rows = slice(first, min(first + size, grid.shape[0]))
                    if rows.stop - rows.start > 1:
                        assert (pattern.v_phasors[rows] @ pattern.u_sums).tobytes() == whole[rows].tobytes()

    def test_no_block_has_one_row_unless_the_lattice_has_one(self):
        # numpy multiplies a one-row block by a matrix-vector product, whose sums
        # round otherwise than the matrix product's.
        for n_cols in (1, 516, 1032, 4096, 2 ** 14, 2 ** 16):
            for n_rows in range(1, 300):
                blocks = _row_blocks(n_rows, n_cols)
                sizes = [rows.stop - rows.start for rows in blocks]
                assert [rows.start for rows in blocks] == [0, *np.cumsum(sizes[:-1]).tolist()]
                assert sum(sizes) == n_rows
                assert min(sizes) > 1 or n_rows == 1
                assert max(sizes) <= 3 or max(sizes) * n_cols * 16 <= 2 * _BLOCK_BYTES

    def test_a_pattern_of_explicit_values_holds_them_as_they_are(self):
        # A product by an identity v factor would turn the -0.0 imaginary part into +0.0.
        values = np.array([[complex(1.0, -0.0), 2.0 + 1.0j]])
        pattern = Pattern(make_uv_cut(2, 1), values, build_virtual_array(ula_layout(2)))
        assert pattern.values is values
        assert [block.tobytes() for _, block in pattern.row_blocks()] == [values.tobytes()]
