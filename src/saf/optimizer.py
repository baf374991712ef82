"""Constrained randomized layout search maximizing the peak-to-sidelobe ratio.

The search seeds from a heuristic initialization that spreads inter-element
spacings into an arithmetic progression (uniform spacing ECDF), snaps the
result to the reference grid, then iterates random spacing shuffles and
single-element perturbations, accepting a candidate only on a strict PSLR
increase. Every accepted layout satisfies bounds, element-overlap, and
forbidden-zone constraints, and retains all enforced positions.
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .beamforming import BROADSIDE, Pattern, UVGrid, beamform, phasor_tables, synthesize_snapshot
from .geometry import (
    ArrayLayout,
    Coord,
    ElementSize,
    ForbiddenZone,
    GridSpec,
    LayoutError,
    VirtualArray,
    build_virtual_array,
    check_forbidden_zones,
    check_overlap,
    element_conflicts,
)
from .metrics import LobeLeavesBand, fov_band, pslr, scoring_grid

if TYPE_CHECKING:
    from ._stream import Stream

# Span (dB) of the last three best-PSLR checkpoints below which the search
# is declared converged.
PLATEAU_WINDOW_DB = 0.5
# Why a search stops: its iteration budget is spent, the desired PSLR is
# reached, or the best PSLR has plateaued.
TERMINATIONS = BUDGET, PSLR_REACHED, PLATEAU = ("budget", "pslr-reached", "plateau")
_EPS = 1e-9


class InfeasibleSpecError(ValueError):
    """Raised when no constraint-satisfying layout exists for a design spec."""


@dataclass(frozen=True)
class DesignSpec:
    """Design goals, constraints, and search budgets for one optimization run.

    Targets are one-sided uFOV degrees and two-sided HPBW degrees per axis;
    they determine the reference grid spacing and aperture via the uFOV and
    beamwidth relations. Elevation targets are ignored for 1D designs.
    """

    dimensionality: str
    n_tx: int
    n_rx: int
    target_ufov_az: float
    target_hpbw_az: float
    tx_size: ElementSize
    rx_size: ElementSize
    target_ufov_el: float = 90.0
    target_hpbw_el: Optional[float] = None
    zones: tuple[ForbiddenZone, ...] = ()
    enforced_tx: tuple[Coord, ...] = ()
    enforced_rx: tuple[Coord, ...] = ()
    desired_pslr_db: float = math.inf
    k_max: int = 1000
    seed: int = 0
    q_phi: int = 8
    q_theta: int = 8
    intensity: int = 3
    use_hia: bool = True
    plateau_interval: int = 100

    def __post_init__(self):
        if self.dimensionality not in ("1D", "2D"):
            raise ValueError(f"dimensionality must be '1D' or '2D', got {self.dimensionality!r}")
        if self.n_tx < 1 or self.n_rx < 1:
            raise ValueError("element budgets must be >= 1")
        if len(self.enforced_tx) > self.n_tx or len(self.enforced_rx) > self.n_rx:
            raise ValueError("enforced positions exceed the element budget")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.q_phi < 1 or self.q_theta < 1:
            raise ValueError("oversampling factors must be >= 1")
        if not 0 <= self.intensity <= 2 ** 32 - 1:  # a step is one draw from 1..intensity
            raise ValueError("intensity must be in [0, 2**32 - 1]")
        if self.plateau_interval < 0:
            raise ValueError("plateau_interval must be >= 0")
        if self.dimensionality == "2D" and self.target_hpbw_el is None:
            raise ValueError("2D designs require target_hpbw_el")
        object.__setattr__(self, "zones", tuple(self.zones))
        object.__setattr__(self, "enforced_tx", tuple(tuple(p) for p in self.enforced_tx))
        object.__setattr__(self, "enforced_rx", tuple(tuple(p) for p in self.enforced_rx))


@dataclass(frozen=True)
class HiaSpacing:
    """Arithmetic-progression spacing assignment: d_n = d_min + (n-1) delta_d."""

    delta_d: float
    spacings: tuple[float, ...]
    positions: tuple[float, ...]


@dataclass(frozen=True)
class IterationRecord:
    k: int
    candidate_pslr_db: float
    best_pslr_db: float
    accepted: bool

    @classmethod
    def scored(cls, k: int, candidate_pslr_db: float, best_pslr_db: float) -> IterationRecord:
        """Iteration ``k`` of a search whose best PSLR was ``best_pslr_db`` before it.

        The acceptance rule: the candidate is accepted only on a strict PSLR
        increase, and then its PSLR becomes the best.
        """
        accepted = candidate_pslr_db > best_pslr_db
        return cls(k, candidate_pslr_db, candidate_pslr_db if accepted else best_pslr_db, accepted)


@dataclass(frozen=True)
class OptimizerTrace:
    """Per-iteration search history of one optimizer run."""

    records: tuple[IterationRecord, ...]
    initial_pslr_db: float
    termination: str

    @property
    def improvements(self) -> int:
        return sum(1 for r in self.records if r.accepted)

    @property
    def final_pslr_db(self) -> float:
        return self.records[-1].best_pslr_db if self.records else self.initial_pslr_db


def _axis_spacing(target_ufov_deg: float) -> float:
    if not 0.0 < target_ufov_deg <= 90.0:
        raise ValueError(f"target uFOV must be in (0, 90] degrees, got {target_ufov_deg}")
    # Rounding keeps common targets (90 -> 0.5, 30 -> 1.0) free of float noise.
    return round(1.0 / (2.0 * math.sin(math.radians(target_ufov_deg))), 12)


def _axis_virtual_length(target_hpbw_deg: float) -> float:
    if target_hpbw_deg <= 0:
        raise ValueError(f"target HPBW must be positive, got {target_hpbw_deg}")
    length = 0.886 / math.radians(target_hpbw_deg)
    if length < 1.0:
        raise ValueError(f"target HPBW {target_hpbw_deg} deg implies an aperture below one wavelength")
    return length


def derive_grid(spec: DesignSpec) -> tuple[GridSpec, tuple[float, float]]:
    """Reference grid and required virtual aperture lengths for a design spec.

    Per axis, the grid spacing inverts the uFOV relation (0.5 wavelengths for
    a 90 degree uFOV) and the virtual aperture length inverts the half-power
    beamwidth relation; the physical aperture is half the virtual one.
    """
    d_y = _axis_spacing(spec.target_ufov_az)
    L_y = _axis_virtual_length(spec.target_hpbw_az)
    M = int(math.floor(L_y / 2.0 / d_y)) + 1
    if spec.dimensionality == "1D":
        return GridSpec(d_y, 0.5, M, 1), (L_y, 0.0)
    d_z = _axis_spacing(spec.target_ufov_el)
    L_z = _axis_virtual_length(spec.target_hpbw_el)
    N = int(math.floor(L_z / 2.0 / d_z)) + 1
    return GridSpec(d_y, d_z, M, N), (L_y, L_z)


def hia_init(n: int, x_min: float, x_max: float, d_min: float) -> HiaSpacing:
    """Arithmetic-progression spacings spanning [x_min, x_max] for n elements.

    The increment spreads the slack left after n-1 minimum spacings across a
    triangular sum, so the spacing ECDF is uniform.
    """
    if n < 3:
        raise ValueError("spacing initialization requires at least 3 elements")
    span = x_max - x_min
    slack = span - (n - 1) * d_min
    if slack < -_EPS:
        raise ValueError(
            f"aperture {span} cannot hold {n} elements at minimum spacing {d_min}"
        )
    delta = slack / sum(range(1, n - 1))
    spacings = tuple(d_min + k * delta for k in range(n - 1))
    positions = (float(x_min),) + tuple(float(x_min + s) for s in np.cumsum(spacings))
    return HiaSpacing(delta_d=delta, spacings=spacings, positions=positions)


def snap_to_grid(
    positions: Sequence[float],
    grid: GridSpec,
    occupied: Optional[set[int]] = None,
    axis: int = 0,
) -> list[int]:
    """Round 1-D wavelength positions to free grid nodes along one axis (0 = y, 1 = z).

    Each position rounds to its nearest node; when the node is taken, the
    later element (input order) moves outward alternately (+1, -1, +2, -2, ...)
    to the nearest free node.
    """
    d = (grid.d_y, grid.d_z)[axis]
    limit = (grid.M, grid.N)[axis]
    taken = set(occupied) if occupied else set()
    out = []
    for x in positions:
        want = int(math.floor(x / d + 0.5))
        for k in range(2 * limit + 1):
            node = want + (k + 1) // 2 * (1 if k % 2 == 1 else -1)
            if 0 <= node < limit and node not in taken:
                break
        else:
            raise ValueError(f"no free grid node for position {x}")
        taken.add(node)
        out.append(node)
    return out


def _shuffle_axis(
    positions: Sequence[Coord],
    enforced: frozenset[Coord],
    axis: int,
    rng: Stream,
) -> Optional[list[Coord]]:
    """Permute inter-element spacings of one group along one axis.

    Elements are ordered along the axis; consecutive deltas are permuted
    within segments delimited by enforced elements, preserving the spacing
    multiset (hence the spacing ECDF) and every enforced coordinate. Returns
    None when fewer than two deltas are free to move.
    """
    n = len(positions)
    order = sorted(range(n), key=lambda i: (positions[i][axis], positions[i][1 - axis]))
    coords = [positions[order[j]][axis] for j in range(n)]
    deltas = [coords[j + 1] - coords[j] for j in range(n - 1)]
    bounds = sorted({0, n - 1, *(j for j in range(n) if positions[order[j]] in enforced)})
    segments = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi - lo >= 2]
    if not segments:
        return None
    for lo, hi in segments:
        perm = rng.permutation(hi - lo)
        deltas[lo:hi] = [deltas[lo + p] for p in perm]
    new_coords = [coords[0]]
    for d in deltas:
        new_coords.append(new_coords[-1] + d)
    out = list(positions)
    for j, i in enumerate(order):
        pos = list(out[i])
        pos[axis] = new_coords[j]
        out[i] = tuple(pos)
    return out


def propose_candidate(
    current: ArrayLayout,
    rng: Stream,
    intensity: int = 3,
    zones: Sequence[ForbiddenZone] = (),
) -> tuple[ArrayLayout, bool]:
    """One random constrained move: spacing shuffle or single-element perturbation.

    Picks, with equal probability, either (a) a permutation of one group's
    non-enforced inter-element spacings along a random axis, or (b) a move of
    one non-enforced element by 1..intensity grid steps on a random axis.
    After 32 failed attempts the unchanged layout is returned with a
    stagnation flag.

    ``current`` must satisfy the overlap and zone constraints, as the
    optimizer's best layout does: an attempt first checks only the elements
    its move changed, each against the candidate's other elements and every
    zone, and only an attempt that passes is built into a validated layout.
    """
    two_d = current.grid.N > 1
    for _ in range(32):
        group = "tx" if rng.random() < 0.5 else "rx"
        positions = current.tx_positions if group == "tx" else current.rx_positions
        enforced = frozenset(current.enforced_tx if group == "tx" else current.enforced_rx)
        if intensity < 1 or rng.random() < 0.5:
            axis = int(rng.integers(2)) if two_d else 0
            moved = _shuffle_axis(positions, enforced, axis, rng)
            if moved is None:
                continue
        else:
            movable = [i for i, p in enumerate(positions) if p not in enforced]
            if not movable:
                continue
            i = movable[int(rng.integers(len(movable)))]
            axis = int(rng.integers(2)) if two_d else 0
            step = int(rng.integers(1, intensity + 1)) * (1 if rng.random() < 0.5 else -1)
            pos = list(positions[i])
            pos[axis] += step
            moved = list(positions)
            moved[i] = tuple(pos)
        moves = {j: node for j, node in enumerate(moved) if node != positions[j]}
        if element_conflicts(current, group, moves, zones):
            continue
        try:
            return dataclasses.replace(current, **{f"{group}_positions": tuple(moved)}), False
        except LayoutError:  # a node off the grid
            continue
    return current, True


def _line_positions(n: int, extent: float, d_min: float, use_hia: bool) -> list[float]:
    """1-D wavelength positions for n elements across [0, extent]."""
    if n == 1:
        return [0.0]
    if (n - 1) * d_min > extent + _EPS:
        raise InfeasibleSpecError(
            f"{n} elements at minimum spacing {d_min} exceed the {extent}-wavelength aperture"
        )
    if n == 2:
        return [0.0, extent]
    if use_hia:
        return list(hia_init(n, 0.0, extent, d_min).positions)
    return list(np.linspace(0.0, extent, n))


def _free_node_near(
    layout: ArrayLayout,
    group: str,
    index: int,
    zones: Sequence[ForbiddenZone],
) -> Optional[Coord]:
    """Nearest node (ring search) where the element itself causes no violation.

    Only the moved element is checked against the others, so repair can fix
    several independent violations one element at a time.
    """
    grid = layout.grid
    positions = layout.tx_positions if group == "tx" else layout.rx_positions
    occupied = set(layout.tx_positions) | set(layout.rx_positions)
    home = positions[index]
    for radius in range(1, max(grid.M, grid.N)):
        # The ring's nodes in lexicographic order: full columns at its two
        # edges, only the top and bottom node in between.
        for dm in range(-radius, radius + 1):
            for dn in range(-radius, radius + 1) if abs(dm) == radius else (-radius, radius):
                cand = (home[0] + dm, home[1] + dn)
                if not grid.contains(cand) or cand in occupied:
                    continue
                if not element_conflicts(layout, group, {index: cand}, zones):
                    return cand
    return None


def _repair(layout: ArrayLayout, zones: Sequence[ForbiddenZone]) -> ArrayLayout:
    """Resolve overlap/zone violations by relocating offending elements, at most 500 times."""
    enforced = {("tx", i) for i, p in enumerate(layout.tx_positions) if p in set(layout.enforced_tx)}
    enforced |= {("rx", i) for i, p in enumerate(layout.rx_positions) if p in set(layout.enforced_rx)}
    for _ in range(500):
        overlaps = check_overlap(layout)
        if overlaps:
            a, b = overlaps[0]
            offender = b if b not in enforced else a
        else:
            zviol = check_forbidden_zones(layout, zones)
            if not zviol:
                return layout
            group, idx, _zi = zviol[0]
            offender = (group, idx)
        if offender in enforced:
            raise InfeasibleSpecError("enforced positions violate the constraints")
        group, idx = offender
        target = _free_node_near(layout, group, idx, zones)
        if target is None:
            raise InfeasibleSpecError("no constraint-satisfying node available during repair")
        positions = list(layout.tx_positions if group == "tx" else layout.rx_positions)
        positions[idx] = target
        layout = dataclasses.replace(layout, **{f"{group}_positions": tuple(positions)})
    raise InfeasibleSpecError("constraint repair did not converge")


def _place_lines(
    n: int,
    grid: GridSpec,
    size: ElementSize,
    axis: int,
    use_hia: bool,
    occupied: set[Coord],
) -> list[Coord]:
    """Distribute n elements over one or more lines along ``axis`` (0 = y, 1 = z).

    Elements spread along the axis with spacing-progression positions; when
    one line cannot hold them all at the minimum spacing, they split across
    several lines spread over the cross axis.
    """
    if n == 0:
        return []
    cross = 1 - axis
    spacing, extent, limit = (grid.d_y, grid.d_z), (grid.extent_y, grid.extent_z), (grid.M, grid.N)
    d_min = (max(size.width, grid.d_y), max(size.height, grid.d_z))
    capacity = int(math.floor(extent[axis] / d_min[axis] + _EPS)) + 1
    lines = max(1, math.ceil(n / capacity))
    if lines > 1 and (lines - 1) * d_min[cross] > extent[cross] + _EPS:
        raise InfeasibleSpecError(
            f"{n} elements do not fit the aperture under the size constraints"
        )
    cross_nodes = [int(round(x / spacing[cross])) for x in np.linspace(0.0, extent[cross], lines)]
    counts = [n // lines + (1 if i < n % lines else 0) for i in range(lines)]
    placed: list[Coord] = []
    for cross_node, count in zip(cross_nodes, counts):
        cross_node = min(cross_node, limit[cross] - 1)
        wavelengths = _line_positions(count, extent[axis], d_min[axis], use_hia)
        taken = {p[axis] for p in occupied if p[cross] == cross_node}
        nodes = snap_to_grid(wavelengths, grid, occupied=taken, axis=axis)
        coords = [(node, cross_node) if axis == 0 else (cross_node, node) for node in nodes]
        occupied.update(coords)
        placed.extend(coords)
    return placed


def _initial_layout(spec: DesignSpec, grid: GridSpec) -> ArrayLayout:
    """Deterministic constraint-satisfying starting layout for the search."""
    tx = list(spec.enforced_tx)
    rx = list(spec.enforced_rx)
    occupied = set(tx) | set(rx)
    tx_axis = 1 if grid.N > 1 else 0  # TX lines run along z on a planar grid, along y on a line
    try:
        tx += _place_lines(spec.n_tx - len(tx), grid, spec.tx_size, tx_axis, spec.use_hia, occupied)
        rx += _place_lines(spec.n_rx - len(rx), grid, spec.rx_size, 0, spec.use_hia, occupied)
        layout = ArrayLayout(
            grid=grid,
            tx_positions=tuple(tx),
            rx_positions=tuple(rx),
            tx_size=spec.tx_size,
            rx_size=spec.rx_size,
            enforced_tx=spec.enforced_tx,
            enforced_rx=spec.enforced_rx,
        )
    except (LayoutError, ValueError) as exc:
        raise InfeasibleSpecError(str(exc)) from exc
    return _repair(layout, spec.zones)


def optimize(spec: DesignSpec) -> tuple[ArrayLayout, OptimizerTrace]:
    """Run the randomized PSLR search for a design spec.

    Seeds from the spacing-progression initialization snapped to the derived
    reference grid, then iterates shuffle/perturb proposals, accepting only
    strict PSLR improvements of a single broadside unit-target pattern scored
    inside the grid's uFOV, on the lattice rows that hold it. Stops on budget,
    on reaching the desired PSLR, or on plateau: the best PSLR is sampled every
    ``plateau_interval`` iterations and the run ends when the last three
    samples agree within 0.5 dB.
    Identical spec and seed give an identical trace.
    """
    # Imported here, not at the top: only a search draws from the stream.
    from ._stream import Stream

    grid, _virtual = derive_grid(spec)
    rng = Stream(spec.seed)
    try:
        eval_grid = scoring_grid(grid, spec.q_phi, spec.q_theta)
    except ValueError as exc:
        raise InfeasibleSpecError(str(exc)) from exc
    band = fov_band(eval_grid)
    layout = _initial_layout(spec, grid)
    # Phasor tables per lattice (the band, or the lattice itself), built on
    # first use and shared by every candidate, whose VRX lie on one virtual grid.
    tables: dict[UVGrid, tuple] = {}

    def pattern_on(lattice: UVGrid, vrx: VirtualArray, snapshot: np.ndarray) -> Pattern:
        if lattice not in tables:
            tables[lattice] = phasor_tables(lattice, vrx.grid)
        return beamform(vrx, snapshot, lattice, tables[lattice])

    def score(lay: ArrayLayout) -> float:
        # Every FOV node lies in the band; a lobe that may leave it is scored on the lattice.
        vrx = build_virtual_array(lay)
        snapshot = synthesize_snapshot(vrx, BROADSIDE)
        try:
            try:
                return pslr(pattern_on(band, vrx, snapshot))
            except LobeLeavesBand:
                return pslr(pattern_on(eval_grid, vrx, snapshot))
        except ValueError as exc:  # a pattern PSLR cannot score, such as one VRX's flat pattern
            raise InfeasibleSpecError(str(exc)) from exc

    best = layout
    best_pslr = score(layout)
    initial = best_pslr
    records: list[IterationRecord] = []
    checkpoints: deque[float] = deque(maxlen=3)
    termination = BUDGET
    if best_pslr >= spec.desired_pslr_db:
        termination = PSLR_REACHED
    else:
        for k in range(1, spec.k_max + 1):
            candidate, stagnated = propose_candidate(best, rng, spec.intensity, spec.zones)
            record = IterationRecord.scored(k, best_pslr if stagnated else score(candidate), best_pslr)
            if record.accepted:
                best = candidate
            best_pslr = record.best_pslr_db
            records.append(record)
            if best_pslr >= spec.desired_pslr_db:
                termination = PSLR_REACHED
                break
            if spec.plateau_interval and k % spec.plateau_interval == 0:
                checkpoints.append(best_pslr)
                if (
                    len(checkpoints) == 3
                    and checkpoints[-1] - checkpoints[0] <= PLATEAU_WINDOW_DB
                ):
                    termination = PLATEAU
                    break
    trace = OptimizerTrace(
        records=tuple(records),
        initial_pslr_db=initial,
        termination=termination,
    )
    return best, trace


def _run_point(sub: DesignSpec) -> Optional[tuple[ArrayLayout, OptimizerTrace]]:
    try:
        return optimize(sub)
    except InfeasibleSpecError:
        return None


def outer_loop(
    spec: DesignSpec, hyper_points: Sequence[dict], threads: int = 1
) -> tuple[DesignSpec, ArrayLayout, OptimizerTrace]:
    """Optimize over a finite hyperparameter grid and keep the best run.

    Each point is a dict of DesignSpec field overrides; point i runs with
    sub-seed ``spec.seed ^ i``, so results are reproducible regardless of
    worker scheduling. Infeasible points are skipped. Ties keep the smallest
    point index.
    """
    if not hyper_points:
        raise ValueError("hyperparameter grid is empty")
    subs = [
        dataclasses.replace(spec, seed=spec.seed ^ i, **point)
        for i, point in enumerate(hyper_points)
    ]
    if threads > 1 and len(subs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(threads, len(subs))) as pool:
            results = list(pool.map(_run_point, subs))
    else:
        results = [_run_point(sub) for sub in subs]
    feasible = [(sub, *result) for sub, result in zip(subs, results) if result is not None]
    if not feasible:
        raise InfeasibleSpecError("every hyperparameter point was infeasible")
    # max keeps the first of equal maxima: ties go to the smallest point index.
    return max(feasible, key=lambda run: run[2].final_pslr_db)
