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
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .geometry import GridSpec, VirtualArray

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

    @property
    def width(self) -> int:
        """Phasors per row: the axis's sample count."""
        return self._samples.size

    def gather(self, k: np.ndarray) -> np.ndarray:
        """Rows for the grid indices ``k``, in order, as a new (k.size, samples) array."""
        self.fill(k)
        return self._rows[self._slot[k]]

    def fill(self, k: np.ndarray) -> None:
        """Build the rows of the grid indices ``k`` that the table does not hold yet."""
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


@dataclass(frozen=True, eq=False)
class UVGrid:
    """Uniform sine-space sample lattice and the field of view it is scored in.

    From ``make_uv_grid(M, N, q_phi, q_theta)``, ``u_samples`` has M * q_phi
    entries and ``v_samples`` N * q_theta, both covering [-1, 1). ``cut`` grids (the single row v = 0) relax the v formula
    so linear arrays can be scored on their broadside azimuth cut.

    ``fov`` is the rectangle every peak, sidelobe and band of the lattice is
    taken in, within the real-angle disk. It defaults to the full square
    [-1, 1] x [-1, 1], so the region is the whole disk;
    ``metrics.scoring_grid`` sets it to the reference grid's uFOV.

    A grid keeps its visibility mask and the span of rows that hold a visible
    node, both built on first use. Its phasor tables
    belong to the caller that beamforms many arrays on it (see
    ``phasor_tables``), so a pattern does not keep them alive. Grids compare
    and hash by identity, since ``==`` on an array field gives no single bool.
    """

    u_samples: np.ndarray
    v_samples: np.ndarray
    fov: FovRect = (-1.0, 1.0, -1.0, 1.0)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.v_samples.size, self.u_samples.size)

    @functools.cached_property
    def visible(self) -> np.ndarray:
        """Read-only mask of the nodes in both the real-angle disk and the ``fov`` rectangle."""
        uu = self.u_samples[None, :]
        vv = self.v_samples[:, None]
        u_min, u_max, v_min, v_max = self.fov
        visible = uu * uu + vv * vv <= 1.0 + _UV_EPS
        visible = visible & (uu >= u_min - _UV_EPS) & (uu <= u_max + _UV_EPS)
        visible = visible & (vv >= v_min - _UV_EPS) & (vv <= v_max + _UV_EPS)
        visible.flags.writeable = False
        return visible

    @functools.cached_property
    def fov_rows(self) -> tuple[int, int]:
        """(first, stop): the rows ``first`` to ``stop - 1`` span every visible node.

        Raises ValueError when no node is visible.
        """
        rows = np.flatnonzero(self.visible.any(axis=1))
        if rows.size == 0:
            raise ValueError("FOV does not intersect the pattern grid")
        return int(rows[0]), int(rows[-1]) + 1


class UVBand(UVGrid):
    """Consecutive rows of a larger lattice.

    A main lobe that reaches the band's first or last row may continue in
    the rows beyond it, so ``pslr`` refuses to score it there.
    """


def make_uv_grid(M: int, N: int, q_phi: int, q_theta: int) -> UVGrid:
    """Uniform (u, v) grid in the full square: u = 2m'/(M q_phi) - 1, v = 2n'/(N q_theta) - 1."""
    if min(M, N, q_phi, q_theta) < 1:
        raise ValueError("grid dimensions and oversampling factors must be >= 1")
    u = 2.0 * np.arange(M * q_phi) / (M * q_phi) - 1.0
    v = 2.0 * np.arange(N * q_theta) / (N * q_theta) - 1.0
    return UVGrid(u, v)


def make_uv_cut(M: int, q_phi: int) -> UVGrid:
    """Single-row grid along u at v = 0, for azimuth cuts of linear arrays, in the full square."""
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


# Bytes of complex values a pattern forms from its factors at a time.
_BLOCK_BYTES = 2 ** 18


def _row_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Consecutive row slices that cover ``n_rows`` rows of ``n_cols`` complex values, about ``_BLOCK_BYTES`` each.

    No block has one row unless the whole has one. numpy multiplies a one-row
    block by a matrix-vector product, which rounds its sums otherwise than the
    matrix product does; a block of two or more rows gets the bits of the same
    rows of the whole product.
    """
    size = max(2, _BLOCK_BYTES // (16 * n_cols))
    starts = list(range(0, n_rows, size))
    if len(starts) > 1 and n_rows - starts[-1] == 1:
        starts.pop()  # the block before takes the one row left
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n_rows])]


@dataclass(frozen=True, eq=False)
class Pattern:
    """Received-signal pattern over a UVGrid, indexed [v, u], held as two factors. Compares by identity.

    The values are the product ``v_phasors @ u_sums``: from ``beamform``, the
    (n_v, R) v phasors of the R VRX rows and the (R, n_u) u sums of those
    rows. The pattern keeps the factors, not the (n_v, n_u) lattice.
    ``magnitude`` and ``row_blocks`` form the product a block of rows at a
    time; ``values`` forms it whole, and only when a caller asks for it.

    ``Pattern(grid, values, vrx)``, without ``v_phasors``, holds explicit
    values as they are: the v factor is then the identity, and ``u_sums`` are
    the values with their bits (a product by the identity would turn a -0.0
    into +0.0).
    """

    grid: UVGrid
    u_sums: np.ndarray
    vrx: VirtualArray
    v_phasors: Optional[np.ndarray] = None

    def __post_init__(self):
        shape = self.u_sums.shape
        if self.v_phasors is not None:
            if self.v_phasors.shape[1:] != shape[:1]:
                raise ValueError(f"pattern factors {self.v_phasors.shape} and {shape} do not multiply")
            shape = (self.v_phasors.shape[0], *shape[1:])
        if shape != self.grid.shape:
            raise ValueError(f"pattern shape {shape} does not match grid {self.grid.shape}")

    def row_blocks(self) -> Iterator[tuple[slice, np.ndarray]]:
        """``(rows, values[rows])`` for consecutive blocks of rows, each formed when it is reached."""
        for rows in _row_blocks(*self.grid.shape):
            yield rows, self.u_sums[rows] if self.v_phasors is None else self.v_phasors[rows] @ self.u_sums

    @functools.cached_property
    def values(self) -> np.ndarray:
        """The whole complex lattice, formed on first use and then held."""
        return self.u_sums if self.v_phasors is None else self.v_phasors @ self.u_sums

    @functools.cached_property
    def magnitude(self) -> np.ndarray:
        """|values|, computed once per pattern, a block of rows at a time: the factors must not be modified in place."""
        magnitude = np.empty(self.grid.shape)
        for rows, values in self.row_blocks():
            np.abs(values, out=magnitude[rows])
        return magnitude


def steering_vector(vrx: VirtualArray, u: float, v: float) -> np.ndarray:
    """Unit-magnitude phasors e^{j 2 pi (y u + z v)} over the VRX positions."""
    coords = vrx.positions_wavelengths()
    return np.exp(2j * np.pi * (coords[:, 0] * u + coords[:, 1] * v))


def synthesize_snapshot(vrx: VirtualArray, targets: Sequence[Target]) -> np.ndarray:
    """Received snapshot: amplitude-weighted sum of target steering vectors.

    Raises ValueError when the targets' summed |amplitude| times the VRX count
    is not a finite float: that sum bounds every snapshot and pattern value.
    """
    total = sum(abs(t.amplitude) for t in targets)
    if not math.isfinite(total * vrx.unique_count):
        raise ValueError(f"target amplitudes: their summed magnitude {total:g} times {vrx.unique_count} VRX "
                         f"is not a finite float, so the pattern would overflow")
    snapshot = np.zeros(vrx.unique_count, dtype=complex)
    for t in targets:
        snapshot += t.amplitude * steering_vector(vrx, t.u, t.v)
    return snapshot


# VRX rows whose u phasor rows ``beamform`` gathers at a time.
_GATHER_RUNS = 8


def _row_sums(snapshot: np.ndarray, u_table: _PhasorTable, m: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """sum_p snapshot[p] U[m[p]] over each run of VRX that begins at ``starts``, U the rows of ``u_table``.

    One vector-matrix product per run: faster than weighting every row and
    then calling ``np.add.reduceat``, which reduces column by column. The
    table builds the rows of all the runs first, as one gather would; they
    are then gathered ``_GATHER_RUNS`` runs at a time, so the P rows are
    never all copied out at once.
    """
    u_table.fill(m)
    out = np.empty((starts.size, u_table.width), dtype=complex)
    bounds = [*starts.tolist(), len(m)]
    for first in range(0, starts.size, _GATHER_RUNS):
        runs = bounds[first:first + _GATHER_RUNS + 1]
        u_rows = u_table.gather(m[runs[0]:runs[-1]])
        for r, (start, end) in enumerate(zip(runs, runs[1:]), first):
            np.matmul(snapshot[start:end], u_rows[start - runs[0]:end - runs[0]], out=out[r])
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
    The v phasor rows of the R distinct rows and those R sums are the two
    factors the pattern keeps. Their (n_v, R) x (R, n_u) complex matrix product
    is the lattice, which the pattern forms a block of rows at a time.

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
    v_phasors = v_table.gather(n[starts]).T
    return Pattern(grid=grid, u_sums=_row_sums(snapshot, u_table, m, starts), vrx=vrx, v_phasors=v_phasors)
