import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from saf import (
    ArrayLayout,
    DesignSpec,
    ElementSize,
    ForbiddenZone,
    GridSpec,
    InfeasibleSpecError,
    Pattern,
    Target,
    check_forbidden_zones,
    check_overlap,
    beamform,
    derive_grid,
    hia_init,
    optimize,
    outer_loop,
    propose_candidate,
    pslr,
    scoring_fov,
    scoring_grid,
    snap_to_grid,
    spacing_ecdf,
    synthesize_snapshot,
)
from saf import beamforming
from saf.beamforming import UVBand, UVGrid
from conftest import escaping_lobe, reference_pslr


def linear_spec(**overrides) -> DesignSpec:
    """4 TX x 4 RX over a 32-wavelength virtual aperture (16-wavelength physical)."""
    base = dict(
        dimensionality="1D",
        n_tx=4,
        n_rx=4,
        target_ufov_az=90.0,
        target_hpbw_az=math.degrees(0.886 / 32.0005),
        tx_size=ElementSize(0.4, 0.4),
        rx_size=ElementSize(0.4, 0.4),
        k_max=120,
        seed=7,
        q_phi=8,
    )
    base.update(overrides)
    return DesignSpec(**base)


class TestDeriveGrid:
    def test_full_fov_half_wavelength(self):
        spec = linear_spec()
        grid, (L_y, _) = derive_grid(spec)
        assert grid.d_y == pytest.approx(0.5)
        assert L_y == pytest.approx(32.0, abs=1e-3)
        assert grid.M == 33  # 16-wavelength physical aperture
        assert grid.N == 1

    def test_table_spacings(self):
        spec = linear_spec(target_ufov_az=30.0)
        grid, _ = derive_grid(spec)
        assert grid.d_y == pytest.approx(1.0)
        spec = linear_spec(target_ufov_az=14.48)
        grid, _ = derive_grid(spec)
        assert grid.d_y == pytest.approx(2.0, abs=1e-3)

    def test_two_dimensional(self):
        spec = linear_spec(
            dimensionality="2D",
            target_ufov_el=30.0,
            target_hpbw_el=math.degrees(0.886 / 70.0005),
        )
        grid, (L_y, L_z) = derive_grid(spec)
        assert (grid.d_y, grid.d_z) == (0.5, 1.0)
        assert (grid.M, grid.N) == (33, 36)
        assert L_z == pytest.approx(70.0, abs=1e-3)

    def test_scoring_fov_is_the_target_ufov(self):
        # The derived spacing is rounded to 12 digits; the grid's scoring FOV stays
        # within the 1e-12 slack of the FOV mask of the target's sine.
        for tenths in range(5, 901):
            target = tenths / 10
            grid, _ = derive_grid(linear_spec(target_ufov_az=target, target_hpbw_az=0.01))
            assert abs(scoring_fov(grid)[1] - math.sin(math.radians(target))) <= 1e-12, target

    def test_sub_wavelength_aperture_rejected(self):
        with pytest.raises(ValueError):
            derive_grid(linear_spec(target_hpbw_az=80.0))


class TestHiaInit:
    def test_first_worked_example(self):
        hia = hia_init(5, 0.0, 11.0, 0.5)
        assert hia.delta_d == pytest.approx(1.5)
        assert_allclose(np.array(hia.spacings) * 2, [1, 4, 7, 10], atol=1e-12)
        assert_allclose(np.array(hia.positions) * 2, [0, 1, 5, 12, 22], atol=1e-12)

    def test_second_worked_example(self):
        hia = hia_init(5, 0.0, 11.0, 2.0)
        assert hia.delta_d == pytest.approx(0.5)
        assert_allclose(np.array(hia.spacings) * 2, [4, 5, 6, 7], atol=1e-12)
        assert_allclose(np.array(hia.positions) * 2, [0, 4, 9, 15, 22], atol=1e-12)

    def test_third_worked_example(self):
        hia = hia_init(5, 0.0, 10.0, 2.0)
        assert hia.delta_d == pytest.approx(1.0 / 3.0)
        assert_allclose(np.array(hia.spacings) * 3, [6, 7, 8, 9], atol=1e-9)
        assert_allclose(np.array(hia.positions) * 3, [0, 6, 13, 21, 30], atol=1e-9)

    def test_span_is_exact(self):
        hia = hia_init(7, 2.0, 25.0, 1.0)
        assert hia.positions[0] == pytest.approx(2.0)
        assert hia.positions[-1] == pytest.approx(25.0)

    def test_infeasible_aperture(self):
        with pytest.raises(ValueError):
            hia_init(5, 0.0, 7.9, 2.0)

    def test_minimum_count(self):
        with pytest.raises(ValueError):
            hia_init(2, 0.0, 10.0, 0.5)


class TestSnapToGrid:
    def grid(self, M=24):
        return GridSpec(0.5, 0.5, M, 1)

    def test_on_grid_unchanged(self):
        assert snap_to_grid([0.0, 1.0, 2.5], self.grid()) == [0, 2, 5]

    def test_third_hia_example_snaps(self):
        positions = [0.0, 2.0, 13.0 / 3.0, 7.0, 10.0]
        assert snap_to_grid(positions, self.grid()) == [0, 4, 9, 14, 20]

    def test_collision_moves_later_element(self):
        assert snap_to_grid([1.0, 1.1], self.grid()) == [2, 3]

    def test_occupied_nodes_respected(self):
        assert snap_to_grid([0.0], self.grid(), occupied={0, 1}) == [2]

    def test_no_free_node(self):
        with pytest.raises(ValueError):
            snap_to_grid([0.0, 0.1, 0.2], GridSpec(0.5, 0.5, 2, 1), occupied={0})


class TestProposeCandidate:
    def base_layout(self):
        grid = GridSpec(0.5, 0.5, 33, 1)
        return ArrayLayout(
            grid,
            [(0, 0), (1, 0), (12, 0), (32, 0)],
            [(3, 0), (7, 0), (20, 0), (28, 0)],
            ElementSize(0.4, 0.4),
            ElementSize(0.4, 0.4),
        )

    def test_shuffle_preserves_spacing_ecdf(self):
        layout = self.base_layout()
        rng = np.random.default_rng(3)
        seen_shuffle = False
        for _ in range(50):
            candidate, stagnated = propose_candidate(layout, rng, intensity=0)
            assert not stagnated
            for group in ("tx_positions", "rx_positions"):
                before = sorted(m * 0.5 for m, _ in getattr(layout, group))
                after = sorted(m * 0.5 for m, _ in getattr(candidate, group))
                if before != after:
                    seen_shuffle = True
                    assert spacing_ecdf(before) == spacing_ecdf(after)
        assert seen_shuffle

    def test_all_enforced_stagnates(self):
        layout = self.base_layout()
        layout = dataclasses.replace(
            layout, enforced_tx=layout.tx_positions, enforced_rx=layout.rx_positions
        )
        rng = np.random.default_rng(0)
        candidate, stagnated = propose_candidate(layout, rng, intensity=3)
        assert stagnated
        assert candidate == layout

    def test_perturbation_moves_one_element_within_intensity(self):
        # shuffles preserve the spacing multiset, so a changed multiset
        # identifies the perturbation branch: exactly one element, <= intensity
        layout = self.base_layout()
        rng = np.random.default_rng(11)
        perturbations = 0
        for _ in range(100):
            candidate, stagnated = propose_candidate(layout, rng, intensity=3)
            assert not stagnated
            for group in ("tx_positions", "rx_positions"):
                before = getattr(layout, group)
                after = getattr(candidate, group)
                multiset_before = sorted(np.diff(sorted(m for m, _ in before)))
                multiset_after = sorted(np.diff(sorted(m for m, _ in after)))
                if multiset_before == multiset_after:
                    continue
                moved = [(b, a) for b, a in zip(before, after) if a != b]
                assert len(moved) == 1
                (b, a) = moved[0]
                assert abs(a[0] - b[0]) + abs(a[1] - b[1]) <= 3
                perturbations += 1
        assert perturbations > 10

    def test_candidates_satisfy_constraints(self):
        zones = (ForbiddenZone(1.0, 1.0, center=(16, 0), kind="both-excluded"),)
        layout = self.base_layout()
        rng = np.random.default_rng(5)
        current = layout
        for _ in range(200):
            current, stagnated = propose_candidate(current, rng, intensity=3, zones=zones)
            assert check_overlap(current) == []
            assert check_forbidden_zones(current, zones) == []

    def test_2d_shuffle_preserves_axis_multiset_and_cross_coords(self):
        grid = GridSpec(0.5, 1.0, 30, 30)
        layout = ArrayLayout(
            grid,
            [(0, 0), (5, 10), (12, 3), (20, 25), (29, 17)],
            [(3, 29), (9, 7), (16, 14), (25, 2)],
            ElementSize(0.4, 0.4),
            ElementSize(0.4, 0.4),
        )
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(80):
            candidate, stagnated = propose_candidate(layout, rng, intensity=0)
            assert not stagnated
            for group in ("tx_positions", "rx_positions"):
                before = getattr(layout, group)
                after = getattr(candidate, group)
                if before == after:
                    continue
                # one axis was shuffled: its delta multiset is preserved and
                # every element keeps its other-axis coordinate
                ok = False
                for axis in (0, 1):
                    deltas_b = sorted(np.diff(sorted(p[axis] for p in before)))
                    deltas_a = sorted(np.diff(sorted(p[axis] for p in after)))
                    cross_b = sorted(p[1 - axis] for p in before)
                    cross_a = sorted(p[1 - axis] for p in after)
                    if deltas_b == deltas_a and cross_b == cross_a:
                        ok = True
                assert ok, (before, after)
                checked += 1
        assert checked > 20

    def test_2d_candidates_satisfy_constraints(self):
        # A shuffle moves several elements at once; on a plane two of them can
        # land on each other, which checking each against the pre-move layout misses.
        grid = GridSpec(1.0, 1.0, 30, 12)
        size = ElementSize(2.0, 3.0)
        layout = ArrayLayout(grid, [(0, 0), (4, 4), (9, 8), (14, 1), (20, 5)],
                             [(2, 9), (7, 2), (12, 5), (17, 9), (25, 1)], size, size)
        zones = (ForbiddenZone(2.0, 1.5, center=(24, 8)),)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            current = layout
            for _ in range(200):
                current, _ = propose_candidate(current, rng, intensity=3, zones=zones)
                assert check_overlap(current) == []
                assert check_forbidden_zones(current, zones) == []

    def test_zone_constraints_hold_throughout_optimization(self, proposed_from):
        zones = (ForbiddenZone(2.0, 1.0, center=(16, 0), kind="both-excluded"),)
        layout, trace = optimize(linear_spec(k_max=250, seed=6, zones=zones))
        adopted = list(dict.fromkeys([*proposed_from, layout]))
        assert len(adopted) == trace.improvements + 1
        for accepted in adopted:
            assert check_forbidden_zones(accepted, zones) == []
            assert check_overlap(accepted) == []

    def test_enforced_positions_never_move(self):
        layout = self.base_layout()
        layout = dataclasses.replace(layout, enforced_tx=((0, 0), (32, 0)))
        rng = np.random.default_rng(9)
        current = layout
        for _ in range(200):
            current, _ = propose_candidate(current, rng, intensity=3)
            assert (0, 0) in current.tx_positions
            assert (32, 0) in current.tx_positions


def planar_spec(**overrides) -> DesignSpec:
    """linear_spec on a 33x4 planar grid with d_z = 1: the uFOV holds 15 of the 28 lattice rows."""
    base = dict(dimensionality="2D", target_ufov_el=30.0, target_hpbw_el=math.degrees(0.886 / 6.0005),
                q_theta=4)
    base.update(overrides)
    return linear_spec(**base)


class TestOptimize:
    def test_monotone_trace_and_budget(self):
        layout, trace = optimize(linear_spec())
        bests = [r.best_pslr_db for r in trace.records]
        assert bests == sorted(bests)
        assert len(trace.records) <= 120
        assert trace.final_pslr_db >= trace.initial_pslr_db

    def test_constraints_hold_for_result(self):
        layout, trace = optimize(linear_spec())
        assert check_overlap(layout) == []

    def test_determinism(self):
        _, t1 = optimize(linear_spec(seed=42))
        _, t2 = optimize(linear_spec(seed=42))
        assert t1 == t2

    def test_different_seeds_explore_differently(self):
        _, t1 = optimize(linear_spec(seed=1))
        _, t2 = optimize(linear_spec(seed=2))
        assert t1.records != t2.records

    def test_all_enforced_returns_input_layout(self):
        grid, _ = derive_grid(linear_spec())
        positions_tx = ((0, 0), (5, 0), (14, 0), (30, 0))
        positions_rx = ((2, 0), (9, 0), (21, 0), (27, 0))
        spec = linear_spec(
            enforced_tx=positions_tx, enforced_rx=positions_rx, k_max=50, plateau_interval=10
        )
        layout, trace = optimize(spec)
        assert set(layout.tx_positions) == set(positions_tx)
        assert set(layout.rx_positions) == set(positions_rx)
        assert trace.improvements == 0
        assert trace.termination in ("plateau", "budget")

    def test_desired_pslr_stops_early(self):
        layout, trace = optimize(linear_spec(desired_pslr_db=3.0, k_max=2000))
        assert trace.termination == "pslr-reached"
        assert trace.final_pslr_db >= 3.0

    def test_infeasible_spec_raises(self):
        with pytest.raises(InfeasibleSpecError):
            optimize(linear_spec(n_tx=40, n_rx=40, tx_size=ElementSize(2.0, 2.0)))

    def test_ufov_below_two_elevation_samples_rejected(self):
        # d_z = 1/(2 sin 1 deg) over a 70-wavelength aperture: 24 v samples, one of them in the uFOV
        spec = linear_spec(dimensionality="2D", target_ufov_el=1.0,
                           target_hpbw_el=math.degrees(0.886 / 70.0005))
        with pytest.raises(InfeasibleSpecError, match="d_z = 28.6493 wavelengths exceeds q_theta / 2 = 4"):
            optimize(spec)

    def test_lobe_sampled_fewer_than_twice_rejected(self):
        # A 10-degree uFOV gives d_y = 2.88 > q_phi / 2 = 2, though the uFOV holds many samples.
        spec = linear_spec(target_ufov_az=10.0, q_phi=4)
        with pytest.raises(InfeasibleSpecError, match="d_y = 2.879.* exceeds q_phi / 2 = 2"):
            optimize(spec)

    def test_band_scores_equal_the_full_lattice_scores(self, monkeypatch):
        spec = planar_spec(k_max=40, seed=3)
        grid, _ = derive_grid(spec)
        lattice = scoring_grid(grid, spec.q_phi, spec.q_theta)
        real_pslr = pslr
        scored = []

        def recorded(pattern):
            value = real_pslr(pattern)
            scored.append((pattern, value))
            return value

        monkeypatch.setattr("saf.optimizer.pslr", recorded)
        optimize(spec)
        assert len(scored) > 30
        for pattern, value in scored:
            assert isinstance(pattern.grid, UVBand) and pattern.grid.shape[0] < lattice.shape[0]
            assert pattern.grid.fov == lattice.fov == scoring_fov(grid)
            snapshot = synthesize_snapshot(pattern.vrx, [Target(0.0, 0.0)])
            full = beamform(pattern.vrx, snapshot, lattice)
            rows = np.searchsorted(lattice.v_samples, pattern.grid.v_samples)
            assert np.array_equal(full.values[rows], pattern.values)
            assert value == pslr(full)

    def test_one_phasor_table_per_axis_and_lattice(self, monkeypatch):
        # The search's tables outlive each score: a table built per score would keep the bits too.
        tables, lattices = [], set()
        init, real_beamform = beamforming._PhasorTable.__init__, beamform

        def counted_table(table, *args):
            tables.append(table)
            init(table, *args)

        def served(vrx, snapshot, grid, *args):
            lattices.add(grid)
            return real_beamform(vrx, snapshot, grid, *args)

        monkeypatch.setattr(beamforming._PhasorTable, "__init__", counted_table)
        monkeypatch.setattr("saf.optimizer.beamform", served)
        _, trace = optimize(planar_spec(k_max=40, seed=3))
        assert len(trace.records) == 40
        assert len(tables) == 2 * len(lattices)

    @pytest.mark.parametrize("edge", [0, -1], ids=["first-row", "last-row"])
    def test_lobe_leaving_the_band_is_scored_on_the_lattice(self, edge, monkeypatch):
        spec = planar_spec(k_max=1)
        grid, _ = derive_grid(spec)
        lattice = scoring_grid(grid, spec.q_phi, spec.q_theta)
        band_rows = np.flatnonzero(lattice.visible.any(1))
        mag = escaping_lobe(*lattice.shape, band_rows[edge], 1 if edge else -1)
        served = []

        def constructed(vrx, snapshot, uv, _tables):
            served.append(type(uv))
            rows = np.searchsorted(lattice.v_samples, uv.v_samples)
            return Pattern(uv, mag[rows].astype(complex), vrx)

        monkeypatch.setattr("saf.optimizer.beamform", constructed)
        _, trace = optimize(spec)
        assert served[:2] == [UVBand, UVGrid]
        expected = reference_pslr(mag, lattice.visible)
        assert expected == 20.0 * math.log10(10.0 / 3.0)
        assert trace.initial_pslr_db == expected

    def test_final_exceeds_initial_with_budget(self):
        layout, trace = optimize(linear_spec(k_max=400, seed=3))
        assert trace.final_pslr_db > trace.initial_pslr_db


class TestOuterLoop:
    def test_single_point_matches_optimize(self):
        spec = linear_spec(k_max=60)
        _, direct = optimize(spec)
        _, layout, trace = outer_loop(spec, [{}])
        assert trace == direct

    def test_infeasible_point_skipped(self):
        spec = linear_spec(k_max=40)
        sub, layout, trace = outer_loop(
            spec, [{"n_tx": 50, "tx_size": ElementSize(3.0, 3.0)}, {"intensity": 2}]
        )
        assert sub.intensity == 2

    def test_returns_max_over_points(self):
        spec = linear_spec(k_max=80)
        points = [{"intensity": i} for i in (1, 2, 4)]
        finals = []
        for i, point in enumerate(points):
            _, trace = optimize(dataclasses.replace(spec, seed=spec.seed ^ i, **point))
            finals.append(trace.final_pslr_db)
        _, _, best_trace = outer_loop(spec, points)
        assert best_trace.final_pslr_db == pytest.approx(max(finals), abs=1e-12)

    def test_tie_keeps_the_first_point(self):
        # Any PSLR reaches a goal of -inf, so every point keeps the same initial layout.
        spec = linear_spec(desired_pslr_db=-math.inf)
        sub, _, _ = outer_loop(spec, [{"intensity": 2}, {"intensity": 1}, {"intensity": 2}])
        assert sub.intensity == 2 and sub.seed == spec.seed

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            outer_loop(linear_spec(), [])

    def test_degenerate_point_skipped(self):
        # One TX and one RX make one VRX, whose pattern is flat: PSLR cannot score it.
        spec = linear_spec(n_tx=1, n_rx=4, q_phi=4, k_max=5)
        with pytest.raises(InfeasibleSpecError, match="degenerate pattern"):
            optimize(dataclasses.replace(spec, n_rx=1))
        sub, layout, trace = outer_loop(spec, [{"n_rx": 1}, {"n_rx": 4}])
        assert sub.n_rx == 4
        assert (layout, trace) == optimize(dataclasses.replace(spec, seed=spec.seed ^ 1))

    def test_all_points_infeasible(self):
        with pytest.raises(InfeasibleSpecError):
            outer_loop(linear_spec(), [{"n_tx": 80}, {"n_rx": 90}])

    def test_parallel_matches_serial(self):
        spec = linear_spec(k_max=40)
        points = [{"intensity": 1}, {"intensity": 3}]
        serial = outer_loop(spec, points, threads=1)
        parallel = outer_loop(spec, points, threads=2)
        assert serial == parallel


class TestDesignSpecValidation:
    def test_budget_validation(self):
        with pytest.raises(ValueError):
            linear_spec(n_tx=0)

    def test_enforced_exceeding_budget(self):
        with pytest.raises(ValueError):
            linear_spec(enforced_tx=tuple((i, 0) for i in range(5)))

    def test_2d_requires_elevation_hpbw(self):
        with pytest.raises(ValueError):
            linear_spec(dimensionality="2D")
