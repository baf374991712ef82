"""Shared builders and independent oracles for the test suite."""

import math
from collections import deque
from pathlib import Path

# saf before numpy: importing saf pins OpenBLAS to one thread, which only
# holds if numpy has not loaded OpenBLAS yet.
import saf.optimizer  # isort: skip
import numpy as np
import pytest
from hypothesis import settings

from saf import ArrayLayout, ElementSize, ForbiddenZone, GridSpec, check_overlap
from saf.optimizer import DesignSpec

# `--hypothesis-profile=ci` replays the same examples on every run; local runs stay random.
settings.register_profile("ci", derandomize=True)


def small_size(w: float = 0.4, h: float = 0.4) -> ElementSize:
    return ElementSize(w, h)


def linear_layout(rx_nodes, d_y=0.5, tx_nodes=(0,), M=None, element=0.4):
    """1-D layout on a single-row grid; default one TX at the origin."""
    nodes = list(tx_nodes) + list(rx_nodes)
    M = M if M is not None else max(nodes) + 1
    grid = GridSpec(d_y, 0.5, M, 1)
    return ArrayLayout(
        grid=grid,
        tx_positions=[(m, 0) for m in tx_nodes],
        rx_positions=[(m, 0) for m in rx_nodes],
        tx_size=small_size(element, element),
        rx_size=small_size(element, element),
    )


def ula_layout(n: int, d_y: float = 0.5, element: float = 0.4):
    """Fully populated n-element virtual ULA: one TX at the origin, n RX."""
    return linear_layout(range(n), d_y=d_y, element=element)


def layout_12x16(seed: int) -> ArrayLayout:
    """12 TX and 16 RX of 2 x 5 wavelengths at random, non-overlapping nodes of the README's grid."""
    rng = np.random.default_rng(seed)
    grid, size = GridSpec(0.5, 1.0, 65, 36), ElementSize(2.0, 5.0)
    tx, rx = [], []
    for placed, want in ((tx, 12), (rx, 16)):
        while len(placed) < want:
            placed.append((int(rng.integers(grid.M)), int(rng.integers(grid.N))))
            if check_overlap(ArrayLayout(grid, tx, rx, size, size)):
                placed.pop()
    return ArrayLayout(grid, tx, rx, size, size)


def readme_design_spec() -> DesignSpec:
    """The README's 12 TX x 16 RX design config, with its zone and enforced TX, at intensity 3."""
    return DesignSpec(
        dimensionality="2D", n_tx=12, n_rx=16,
        target_ufov_az=90.0, target_hpbw_az=0.793, target_ufov_el=30.0, target_hpbw_el=0.725,
        tx_size=ElementSize(2.0, 5.0), rx_size=ElementSize(2.0, 5.0),
        zones=(ForbiddenZone(7.5, 15.0, center=(30, 30), kind="both-excluded"),),
        enforced_tx=((0, 0),), intensity=3,
    )


def direct_pattern(coords_wl, snapshot, u_samples, v_samples):
    """Brute-force double-loop pattern: per-node direct summation oracle."""
    coords_wl = np.asarray(coords_wl, dtype=float)
    snapshot = np.asarray(snapshot, dtype=complex)
    out = np.zeros((len(v_samples), len(u_samples)), dtype=complex)
    for iv, v in enumerate(v_samples):
        for iu, u in enumerate(u_samples):
            phase = -2j * np.pi * (coords_wl[:, 0] * u + coords_wl[:, 1] * v)
            out[iv, iu] = np.sum(snapshot * np.exp(phase))
    return out


def per_call_pattern(vrx, snapshot, grid):
    """Separable beamforming with every phasor evaluated on the call: a bit-for-bit oracle.

    The same float products, per-run VRX row sums and whole matrix product as
    ``beamform``, without its phasor tables or its blocks.
    """
    coords = vrx.positions_wavelengths()
    snapshot = np.asarray(snapshot, dtype=complex)
    starts = np.flatnonzero(np.diff(coords[:, 1], prepend=-np.inf))
    u_phasors = np.exp(-2j * np.pi * np.outer(coords[:, 0], grid.u_samples))
    v_phasors = np.exp(-2j * np.pi * np.outer(coords[starts, 1], grid.v_samples))
    sums = np.empty((starts.size, grid.u_samples.size), dtype=complex)
    bounds = [*starts.tolist(), len(coords)]
    for r, (start, end) in enumerate(zip(bounds, bounds[1:])):
        np.matmul(snapshot[start:end], u_phasors[start:end], out=sums[r])
    return v_phasors.T @ sums


def reference_main_lobe(mag, iv, iu):
    """Main-lobe mask by breadth-first search from node (iv, iu).

    A 4-neighbour joins when its magnitude is at most that of the node it is
    reached from: an oracle independent of ``mask_main_lobe``'s grid fixpoint.
    """
    mag = np.asarray(mag)
    mask = np.zeros(mag.shape, dtype=bool)
    mask[iv, iu] = True
    queue = deque([(iv, iu)])
    while queue:
        i, j = queue.popleft()
        for ni, nj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            inside = 0 <= ni < mag.shape[0] and 0 <= nj < mag.shape[1]
            if inside and not mask[ni, nj] and mag[ni, nj] <= mag[i, j]:
                mask[ni, nj] = True
                queue.append((ni, nj))
    return mask


def reference_pslr(mag, visible):
    """PSLR in dB of magnitudes ``mag`` inside the boolean ``visible`` region.

    An oracle independent of ``pslr``: a pattern with one distinct level in
    the region (or a relative spread of at most 1e-12) raises ValueError; the
    peak is the first maximum in (v, u) order; the main lobe is
    ``reference_main_lobe`` from it; the sidelobe level is the largest visible
    magnitude left outside the lobe, and the PSLR is inf when none above 0 is.
    """
    mag = np.asarray(mag)
    levels = np.unique(mag[visible])
    if levels.size < 2 or levels[-1] - levels[0] <= levels[-1] * 1e-12:
        raise ValueError("degenerate pattern")
    peak = levels[-1]
    iv, iu = min(zip(*np.nonzero(visible & (mag == peak))))
    residual = mag[visible & ~reference_main_lobe(mag, iv, iu)]
    if residual.size == 0 or residual.max() <= 0.0:
        return math.inf
    return 20.0 * math.log10(peak / residual.max())


def escaping_lobe(n_v, n_u, edge_row, outward):
    """Magnitudes whose main lobe leaves a band of rows through ``edge_row`` and comes back in.

    ``outward`` is -1 when ``edge_row`` is the band's first row, +1 when it is
    its last. The peak (10) sits next to the edge row, inside the band. A
    descending path (9, 8) crosses the edge row to the row beyond it, runs four
    columns along it (7.9 to 7.6) and comes back into the band (6, 5.5). Nulls
    of 0.5 close the path in, a floor of 1 fills the rest, and a bump of 3,
    three rows inside the edge row, is the only other lobe. Over all rows the
    sidelobe is the bump. Restricted to the band, the path back in is cut off
    and the 6 becomes the sidelobe.
    """
    mag = np.ones((n_v, n_u))
    c, inner, outer = n_u // 2 - 2, edge_row - outward, edge_row + outward
    path = [(inner, c, 10.0), (edge_row, c, 9.0), (outer, c, 8.0)]
    path += [(outer, c + k, 8.0 - 0.1 * k) for k in range(1, 5)]
    path += [(edge_row, c + 4, 6.0), (inner, c + 4, 5.5)]
    for i, j, _ in path:
        for ni, nj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
            if 0 <= ni < n_v and 0 <= nj < n_u:
                mag[ni, nj] = 0.5
    for i, j, level in path:
        mag[i, j] = level
    mag[edge_row - 3 * outward, c + 2] = 3.0
    return mag


def reference_pattern_csv(pattern, path):
    """Pattern CSV built as one list of lines and written as one string: a bit-for-bit oracle.

    The same formats and dB rule as ``write_pattern_csv``, one node at a time,
    on numpy scalars instead of the streamed rows' Python floats.
    """
    mag = pattern.magnitude
    peak = float(mag.max())
    lines = ["u,v,re,im,mag_db"]
    u_samples = pattern.grid.u_samples
    v_samples = pattern.grid.v_samples
    for iv in range(v_samples.size):
        v = v_samples[iv]
        for iu in range(u_samples.size):
            value = pattern.values[iv, iu]
            ratio = mag[iv, iu] / peak if peak > 0 else 0.0
            db = max(-120.0, 20.0 * math.log10(ratio)) if ratio > 0 else -120.0
            lines.append(
                f"{u_samples[iu]:.17g},{v:.17g},{value.real:.17g},{value.imag:.17g},{db:.17g}"
            )
    Path(path).write_text("\n".join(lines) + "\n")


def dirichlet_magnitude(n: int, d_lambda: float, u):
    """|sin(n pi d u) / sin(pi d u)| with the n-valued limit at the zeros."""
    u = np.asarray(u, dtype=float)
    num = np.sin(n * np.pi * d_lambda * u)
    den = np.sin(np.pi * d_lambda * u)
    out = np.full(u.shape, float(n))
    nz = np.abs(den) > 1e-12
    out[nz] = np.abs(num[nz] / den[nz])
    return out


@pytest.fixture
def proposed_from(monkeypatch):
    """The ``current`` layout of each ``propose_candidate`` call the optimizer makes, in order.

    The optimizer always proposes from its best layout, so these are the
    initial layout and each adopted one; only a layout adopted at the last
    iteration is missing, and ``optimize`` returns it.
    """
    seen = []
    propose = saf.optimizer.propose_candidate

    def recording(current, *args, **kwargs):
        seen.append(current)
        return propose(current, *args, **kwargs)

    monkeypatch.setattr(saf.optimizer, "propose_candidate", recording)
    return seen


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
