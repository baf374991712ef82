"""Sine-space sampling, steering vectors, and received-signal pattern synthesis.

Directions are handled in (u, v) sine space, u = sin(phi) sin(theta) and
v = cos(theta). Snapshots (per-VRX complex received values) are plain complex
ndarrays indexed identically to ``VirtualArray.vrx_positions``.

Sign convention: steering vectors carry e^{+j 2 pi (y u + z v)} and beamforming
applies the conjugate, so magnitudes match the direct radiation sum. Any
globally consistent sign choice yields identical magnitude patterns.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .geometry import GridSpec, VirtualArray

if TYPE_CHECKING:
    from .metrics import Peak

_UV_EPS = 1e-12


# FOV rectangle in sine space: (u_min, u_max, v_min, v_max).
FovRect = tuple[float, float, float, float]


class _PhasorTable:
    """Phasors exp(-2 pi j k d s) over one axis's samples s, one row per grid index k.

    Each row is built on first use. The first fill sizes the row buffer to
    the rows it needs, so a one-off beamform allocates no spare rows; a full
    buffer then doubles, up to one row per index. So the table grows with the
    indices its VRX use, not with the grid, and is rarely copied. A row is
    the same float product (k d) s and the same ``exp`` as a per-call
    evaluation over VRX coordinates k d, so a gathered row has the same bits.

    The slot array has one entry per index of the virtual grid's axis;
    ``metrics.scoring_grid`` bounds the scoring lattice, and with it that
    axis, before a table is built.
    """

    def __init__(self, samples: np.ndarray, d: float, count: int):
        self._samples = samples
        self._d = d
        self._slot = np.full(count, -1)
        self._rows = np.empty((0, samples.size), dtype=complex)
        self._used = 0

    def gather(self, k: np.ndarray) -> np.ndarray:
        """Rows for the grid indices ``k``, in order, as a new (k.size, samples) array."""
        absent = k[self._slot[k] < 0]
        if absent.size:
            # The distinct absent indices, sorted. Not np.unique: numpy 2.4 imports
            # numpy.ma on its first call, 14-24 ms and 1.27 MB in every process.
            mark = np.zeros(self._slot.size, dtype=bool)
            mark[absent] = True
            new = np.flatnonzero(mark)
            used = self._used + new.size
            if used > len(self._rows):
                rows = min(self._slot.size, max(used, 2 * self._used))
                grown = np.empty((rows, self._samples.size), dtype=complex)
                grown[:self._used] = self._rows[:self._used]
                self._rows = grown
            self._rows[self._used:used] = np.exp(-2j * np.pi * np.outer(new * self._d, self._samples))
            self._slot[new] = np.arange(self._used, used)
            self._used = used
        return self._rows[self._slot[k]]


@dataclass(frozen=True, eq=False)
class UVGrid:
    """Uniform sine-space sample lattice and the field of view it is scored in.

    From ``make_uv_grid(M, N, q_phi, q_theta)``, ``u_samples`` has M * q_phi
    entries and ``v_samples`` N * q_theta, both covering [-1, 1). ``cut`` grids (the single row v = 0) relax the v formula
    so linear arrays can be scored on their broadside azimuth cut.

    ``fov`` is the rectangle every peak, sidelobe and band of the lattice is
    taken in, within the real-angle disk; None means the whole disk.
    ``metrics.scoring_grid`` sets it to the reference grid's uFOV.

    A grid keeps its visibility mask, built on first use. Its phasor tables
    belong to the caller that beamforms many arrays on it (see
    ``phasor_tables``), so a pattern does not keep them alive. Grids compare
    and hash by identity, since ``==`` on an array field gives no single bool.
    """

    u_samples: np.ndarray
    v_samples: np.ndarray
    fov: Optional[FovRect] = None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.v_samples.size, self.u_samples.size)

    @functools.cached_property
    def visible(self) -> np.ndarray:
        """Read-only mask of the nodes in the real-angle disk and, unless ``fov`` is None, its rectangle."""
        uu = self.u_samples[None, :]
        vv = self.v_samples[:, None]
        visible = uu * uu + vv * vv <= 1.0 + _UV_EPS
        if self.fov is not None:
            u_min, u_max, v_min, v_max = self.fov
            visible = visible & (uu >= u_min - _UV_EPS) & (uu <= u_max + _UV_EPS)
            visible = visible & (vv >= v_min - _UV_EPS) & (vv <= v_max + _UV_EPS)
        visible.flags.writeable = False
        return visible


@dataclass(frozen=True, eq=False)
class UVBand(UVGrid):
    """Consecutive rows of a larger lattice.

    A main lobe that reaches the band's first or last row may continue in
    the rows beyond it, so ``pslr`` refuses to score it there.
    """


def make_uv_grid(M: int, N: int, q_phi: int, q_theta: int) -> UVGrid:
    """Uniform (u, v) grid: u = 2m'/(M q_phi) - 1, v = 2n'/(N q_theta) - 1."""
    if min(M, N, q_phi, q_theta) < 1:
        raise ValueError("grid dimensions and oversampling factors must be >= 1")
    u = 2.0 * np.arange(M * q_phi) / (M * q_phi) - 1.0
    v = 2.0 * np.arange(N * q_theta) / (N * q_theta) - 1.0
    return UVGrid(u, v)


def make_uv_cut(M: int, q_phi: int) -> UVGrid:
    """Single-row grid along u at v = 0, for azimuth cuts of linear arrays."""
    return UVGrid(make_uv_grid(M, 1, q_phi, 1).u_samples, np.zeros(1))


def angles_to_uv(phi: float, theta: float) -> tuple[float, float]:
    """Convert (azimuth phi, polar theta) in degrees to sine-space (u, v)."""
    if not -90.0 <= phi <= 90.0:
        raise ValueError(f"phi must be in [-90, 90] degrees, got {phi}")
    if not 0.0 <= theta <= 180.0:
        raise ValueError(f"theta must be in [0, 180] degrees, got {theta}")
    phi_r = math.radians(phi)
    theta_r = math.radians(theta)
    return math.sin(phi_r) * math.sin(theta_r), math.cos(theta_r)


def uv_to_angles(u: float, v: float) -> Optional[tuple[float, float]]:
    """Convert (u, v) back to (phi, theta) degrees, or None outside the unit disk.

    Points with u^2 + v^2 > 1 do not correspond to real angles. At the poles
    (sin theta = 0) phi is taken as 0 by convention.
    """
    if u * u + v * v > 1.0 + _UV_EPS:
        return None
    theta_r = math.acos(max(-1.0, min(1.0, v)))
    s = math.sin(theta_r)
    if s < _UV_EPS:
        return 0.0, math.degrees(theta_r)
    phi_r = math.asin(max(-1.0, min(1.0, u / s)))
    return math.degrees(phi_r), math.degrees(theta_r)


@dataclass(frozen=True)
class Target:
    """Far-field point target: sine-space direction and complex skin return."""

    u: float
    v: float
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        if not all(map(cmath.isfinite, (self.u, self.v, self.amplitude))):
            raise ValueError(f"target ({self.u}, {self.v}, {self.amplitude}) is not finite")
        if self.u * self.u + self.v * self.v > 1.0 + _UV_EPS:
            raise ValueError(f"target ({self.u}, {self.v}) lies outside the real-angle disk")


# The default scene: one unit target at broadside.
BROADSIDE = (Target(0.0, 0.0, 1.0 + 0.0j),)


@dataclass(frozen=True, eq=False)
class Pattern:
    """Received-signal pattern over a UVGrid; values indexed [v, u]. Compares by identity."""

    grid: UVGrid
    values: np.ndarray
    vrx: VirtualArray
    peak: Optional[Peak] = field(default=None, init=False, repr=False)  # set by metrics.find_peak, searched once

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise ValueError(f"pattern shape {self.values.shape} does not match grid {self.grid.shape}")

    @functools.cached_property
    def magnitude(self) -> np.ndarray:
        """|values|, computed once per pattern: ``values`` must not be modified in place."""
        return np.abs(self.values)


def steering_vector(vrx: VirtualArray, u: float, v: float) -> np.ndarray:
    """Unit-magnitude phasors e^{j 2 pi (y u + z v)} over the VRX positions."""
    coords = vrx.positions_wavelengths()
    return np.exp(2j * np.pi * (coords[:, 0] * u + coords[:, 1] * v))


def synthesize_snapshot(vrx: VirtualArray, targets: Sequence[Target]) -> np.ndarray:
    """Received snapshot: amplitude-weighted sum of target steering vectors."""
    snapshot = np.zeros(vrx.unique_count, dtype=complex)
    for t in targets:
        snapshot += t.amplitude * steering_vector(vrx, t.u, t.v)
    return snapshot


def _row_sums(snapshot: np.ndarray, u_rows: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """sum_p snapshot[p] u_rows[p] over each run of rows that begins at ``starts``.

    One vector-matrix product per run: faster than weighting every row and
    then calling ``np.add.reduceat``, which reduces column by column.
    """
    out = np.empty((starts.size, u_rows.shape[1]), dtype=complex)
    bounds = [*starts.tolist(), len(u_rows)]
    for r, (start, end) in enumerate(zip(bounds, bounds[1:])):
        np.matmul(snapshot[start:end], u_rows[start:end], out=out[r])
    return out


def phasor_tables(grid: UVGrid, virtual: GridSpec) -> tuple[_PhasorTable, _PhasorTable]:
    """Empty u and v phasor tables of ``grid`` for VRX on the ``virtual`` grid."""
    return (_PhasorTable(grid.u_samples, virtual.d_y, virtual.M),
            _PhasorTable(grid.v_samples, virtual.d_z, virtual.N))


def beamform(
    vrx: VirtualArray,
    snapshot: np.ndarray,
    grid: UVGrid,
    tables: Optional[tuple[_PhasorTable, _PhasorTable]] = None,
) -> Pattern:
    """Beamform a snapshot over a sine-space grid.

    Evaluates value(u, v) = sum_p snapshot[p] e^{-j 2 pi (y_p u + z_p v)} using
    the separable structure of grid-aligned VRX positions. The VRX are sorted
    by (n, m), so each VRX row is one run: its snapshot values times its u
    phasor rows give the row's sum over u (one vector-matrix product per row).
    The v phasor rows of the R distinct rows then combine with those R sums in
    one (n_v, R) x (R, n_u) complex matrix product.

    ``tables``, from ``phasor_tables(grid, vrx.grid)``, keep the phasor rows
    for the next array a caller beamforms on the same grid. Without them the
    call builds the rows it needs and keeps none; the bits are the same.
    """
    snapshot = np.asarray(snapshot, dtype=complex)
    if snapshot.size != vrx.unique_count:
        raise ValueError(
            f"snapshot length {snapshot.size} does not match VRX count {vrx.unique_count}"
        )
    u_table, v_table = phasor_tables(grid, vrx.grid) if tables is None else tables
    m, n = vrx.vrx_positions.T
    starts = np.flatnonzero(np.diff(n, prepend=-1))
    values = v_table.gather(n[starts]).T @ _row_sums(snapshot, u_table.gather(m), starts)
    return Pattern(grid=grid, values=values, vrx=vrx)
