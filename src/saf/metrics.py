"""Pattern and layout scoring: PSLR, beamwidths, grating lobes, uFOV, efficiency.

The main-lobe region used by the PSLR is the monotone-descent closure of the
peak: starting from the peak node, a node joins the region when a 4-connected
neighbor already in the region has magnitude at least as large. The closure is
a fixpoint, so the result does not depend on traversal order.

Two shortcuts keep the PSLR exact. ``mask_main_lobe`` fills a window around
the peak and doubles it while the lobe reaches an edge of the window that is
not an edge of the grid. ``pslr`` on a ``UVBand`` (the FOV rows of a lattice,
as the optimizer scores) raises ``LobeLeavesBand`` when the lobe reaches the
band's first or last row. Both rest on one fact: any node of the closure is
reached by a descending path from the peak, and a path that leaves a region
crosses its boundary first. A lobe that touches no open edge of the region
therefore lies inside it, and the region's closure is the whole closure.
"""

from __future__ import annotations

import contextlib
import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .beamforming import (
    BROADSIDE,
    FovRect,
    Pattern,
    Target,
    UVBand,
    UVGrid,
    beamform,
    make_uv_cut,
    make_uv_grid,
    synthesize_snapshot,
    uv_to_angles,
)
from .geometry import ArrayLayout, GridSpec, build_virtual_array, thinning_ratio

log = logging.getLogger(__name__)

_EPS = 1e-12

# Most nodes a scoring lattice may hold: 2^24, 29 times README's q = 8 lattice
# (1032 x 568). At that size one complex pattern is 256 MiB, and the lattice,
# not the array, would set the memory a score needs.
MAX_LATTICE_NODES = 2 ** 24

# Half-width, in nodes, of the first window the main-lobe fill runs in. The
# main lobes of the README 12x16 design fit it on most candidates at q = 4 and
# need one doubling at q = 8.
_LOBE_WINDOW = 8


class LobeLeavesBand(Exception):
    """The main lobe of a ``UVBand`` pattern reaches the band's first or last row."""


@dataclass(frozen=True)
class Peak:
    """Pattern maximum: magnitude, sine-space direction, and grid indices."""

    magnitude: float
    u: float
    v: float
    iu: int
    iv: int


@dataclass(frozen=True)
class MainLobeMask:
    """Boolean main-lobe membership over the pattern grid."""

    mask: np.ndarray


def scoring_grid(grid: GridSpec, q_phi: int, q_theta: int) -> UVGrid:
    """Sine-space lattice a layout on reference ``grid`` is scored on, in ``scoring_fov(grid)``.

    The lattice matches the virtual grid, twice the physical aperture: a
    single grid row (linear array) gets the v = 0 azimuth cut.

    Raises ValueError unless the lattice can score layouts on ``grid``. It
    takes about q / d samples across the null-to-null main-lobe width, so each
    axis needs ``d <= q / 2``; a linear array's v = 0 cut samples u only. A
    coarser PSLR would be aliased, and the rule also bounds the grating-lobe
    lists, about 2 d angles per axis, by the lattice size. The lattice may
    hold at most ``MAX_LATTICE_NODES`` nodes, checked before it is allocated.
    """
    M, N = 2 * grid.M - 1, 2 * grid.N - 1
    for name, d, q, q_name in (("y", grid.d_y, q_phi, "q_phi"), ("z", grid.d_z, q_theta, "q_theta")):
        if d > q / 2.0 and (name == "y" or grid.N > 1):
            raise ValueError(f"grid spacing d_{name} = {d:g} wavelengths exceeds {q_name} / 2 = {q / 2.0:g}: "
                             f"the scoring lattice samples the main lobe fewer than twice")
    n_u, n_v = M * q_phi, 1 if grid.N == 1 else N * q_theta
    if n_u * n_v > MAX_LATTICE_NODES:
        raise ValueError(f"the scoring lattice of a {grid.M} x {grid.N} grid at q_phi = {q_phi}, "
                         f"q_theta = {q_theta} has {n_v} x {n_u} nodes, more than {MAX_LATTICE_NODES}")
    lattice = make_uv_cut(M, q_phi) if grid.N == 1 else make_uv_grid(M, N, q_phi, q_theta)
    return UVGrid(lattice.u_samples, lattice.v_samples, scoring_fov(grid))


def scoring_fov(grid: GridSpec) -> FovRect:
    """Scoring rectangle of ``grid``: per axis ``±min(1, 1/(2 d))``, the sine of ``ufov(d)``."""
    su, sv = (min(1.0, 1.0 / (2.0 * d)) for d in (grid.d_y, grid.d_z))
    return (-su, su, -sv, sv)


def fov_band(lattice: UVGrid) -> UVGrid:
    """The rows of ``lattice`` that hold FOV nodes, as a ``UVBand`` in its FOV, or ``lattice`` if that is every row."""
    rows = np.flatnonzero(lattice.visible.any(1))
    if rows.size == lattice.shape[0]:
        return lattice
    return UVBand(lattice.u_samples, lattice.v_samples[rows[0]:rows[-1] + 1], lattice.fov)


def find_peak(pattern: Pattern) -> Peak:
    """Maximum magnitude inside the grid's FOV (the real-angle disk u^2+v^2 <= 1 when ``fov`` is None).

    Of equal maxima, the node nearest the FOV centre wins ((0, 0) for the
    disk), then the smallest (v index, u index). The peak is kept on the
    pattern, so a second call does not search again.
    """
    if pattern.peak is not None:
        return pattern.peak
    grid = pattern.grid
    rows = np.flatnonzero(grid.visible.any(axis=1))
    if rows.size == 0:
        raise ValueError("FOV does not intersect the pattern grid")
    # Copy only the rows that hold a visible node: on the full lattice a FOV
    # spans half of them or fewer, and the copy counts in the peak RSS.
    first, stop = int(rows[0]), int(rows[-1]) + 1
    mag = np.where(grid.visible[first:stop], pattern.magnitude[first:stop], -1.0)
    top = int(np.argmax(mag))
    tied = mag == mag.flat[top]
    if np.count_nonzero(tied) > 1:  # counted first: listing the ties on every call costs more
        u_min, u_max, v_min, v_max = (-1.0, 1.0, -1.0, 1.0) if grid.fov is None else grid.fov
        ties = np.flatnonzero(tied)
        tv, tu = np.divmod(ties, mag.shape[1])
        du = grid.u_samples[tu] - (u_min + u_max) / 2.0
        dv = grid.v_samples[tv + first] - (v_min + v_max) / 2.0
        top = int(ties[np.argmin(du * du + dv * dv)])  # argmin keeps the first: the smallest index
    iv, iu = np.unravel_index(top, mag.shape)
    iv += first
    peak = Peak(
        magnitude=float(pattern.magnitude[iv, iu]),
        u=float(grid.u_samples[iu]),
        v=float(grid.v_samples[iv]),
        iu=int(iu),
        iv=int(iv),
    )
    object.__setattr__(pattern, "peak", peak)
    return peak


def mask_main_lobe(pattern: Pattern, peak: Peak) -> MainLobeMask:
    """Monotone-descent flood fill of the main lobe from the peak node.

    The fill runs in a window of ``_LOBE_WINDOW`` nodes around the peak and
    doubles the window while the lobe reaches one of its edges that is not an
    edge of the grid (see the module docstring for why that is exact).
    """
    mag = pattern.magnitude
    mask = np.zeros(mag.shape, dtype=bool)
    mask[peak.iv, peak.iu] = True
    radius = _LOBE_WINDOW
    while True:
        v0, v1 = max(peak.iv - radius, 0), peak.iv + radius + 1
        u0, u1 = max(peak.iu - radius, 0), peak.iu + radius + 1
        lobe, level = mask[v0:v1, u0:u1], mag[v0:v1, u0:u1]
        size = 0
        while (count := lobe.sum()) > size:
            size = count
            lobe[1:, :] |= lobe[:-1, :] & (level[1:, :] <= level[:-1, :])
            lobe[:-1, :] |= lobe[1:, :] & (level[:-1, :] <= level[1:, :])
            lobe[:, 1:] |= lobe[:, :-1] & (level[:, 1:] <= level[:, :-1])
            lobe[:, :-1] |= lobe[:, 1:] & (level[:, :-1] <= level[:, 1:])
        n_v, n_u = mag.shape
        if not ((v0 > 0 and lobe[0].any()) or (v1 < n_v and lobe[-1].any())
                or (u0 > 0 and lobe[:, 0].any()) or (u1 < n_u and lobe[:, -1].any())):
            return MainLobeMask(mask=mask)
        radius *= 2


def pslr(pattern: Pattern) -> float:
    """Peak-to-sidelobe ratio in dB: peak over the largest magnitude outside the main lobe.

    Both maxima are restricted to the grid's FOV. Returns ``math.inf`` when nothing
    remains outside the main lobe (single-lobe pattern). On a ``UVBand``
    pattern whose main lobe reaches the band's first or last row, raises
    ``LobeLeavesBand``: the lobe may continue outside the band, so only the
    full lattice scores it exactly.
    """
    peak = find_peak(pattern)
    visible = pattern.grid.visible
    mag = pattern.magnitude
    if peak.magnitude - mag.min(where=visible, initial=peak.magnitude) <= peak.magnitude * 1e-12:
        raise ValueError("degenerate pattern: all magnitudes equal inside the FOV")
    lobe = mask_main_lobe(pattern, peak).mask
    if isinstance(pattern.grid, UVBand) and (lobe[0].any() or lobe[-1].any()):
        raise LobeLeavesBand(f"the main lobe reaches an edge row of the {mag.shape[0]}-row band")
    sidelobe = float(mag.max(where=visible & ~lobe, initial=0.0))
    if sidelobe <= 0.0:
        return math.inf
    return 20.0 * math.log10(peak.magnitude / sidelobe)


def theoretical_beamwidths(L_lambda: float) -> tuple[float, float]:
    """First-null and half-power beamwidths (degrees) of a uniform aperture.

    ``fnbw = asin(1/L)`` (one-sided null angle) and ``hpbw = 0.886/L`` radians
    (two-sided), both for an aperture of ``L_lambda`` wavelengths. The asin
    branch requires L >= 1.
    """
    if L_lambda <= 0:
        raise ValueError("aperture length must be positive")
    if L_lambda < 1.0:
        raise ValueError(f"first null undefined for aperture {L_lambda} < 1 wavelength")
    fnbw = math.degrees(math.asin(1.0 / L_lambda))
    hpbw = math.degrees(0.886 / L_lambda)
    return fnbw, hpbw


def measured_hpbw(pattern: Pattern, peak: Peak, axis: str = "u") -> float:
    """Half-power beamwidth in degrees, measured on an axis cut through ``peak``.

    Walks outward from the peak to the -3 dB level on both sides, linearly
    interpolating in u (or v) between the bracketing samples, then converts
    the crossing points to angles.
    """
    if axis not in ("u", "v"):
        raise ValueError(f"axis must be 'u' or 'v', got {axis!r}")
    ax = "uv".index(axis)
    mag = pattern.magnitude
    # The v cut through the peak is the u cut of the transposed pattern.
    nodes = (peak.iu, peak.iv)
    cut = (mag, mag.T)[ax][nodes[1 - ax]]
    coords = (pattern.grid.u_samples, pattern.grid.v_samples)[ax]
    center = nodes[ax]
    level = peak.magnitude * 10.0 ** (-3.0 / 20.0)
    if int((cut > level).sum()) < 3:
        raise ValueError("pattern too coarse: fewer than 3 samples above the -3 dB level")

    def crossing(step: int) -> float:
        i = center
        while 0 <= i + step < cut.size:
            j = i + step
            if cut[j] < level:
                frac = (cut[i] - level) / (cut[i] - cut[j])
                return float(coords[i] + frac * (coords[j] - coords[i]))
            i = j
        raise ValueError("-3 dB crossing not found within the grid")

    lo, hi = crossing(-1), crossing(+1)
    a_lo, a_hi = (uv_to_angles(*((x, peak.v) if ax == 0 else (peak.u, x))) for x in (lo, hi))
    if a_lo is None or a_hi is None:
        raise ValueError("-3 dB crossing falls outside the real-angle disk")
    return abs(a_hi[ax] - a_lo[ax])


def grating_lobe_angles(d_lambda: float, phi_t: float) -> list[float]:
    """Predicted grating-lobe angles (degrees) of a uniform spacing at a target angle.

    Lobes appear where sin(phi_gl) = n/d + sin(phi_t) lands in [-1, 1] for a
    nonzero integer n; the target direction itself is excluded. The closed
    lower endpoint admits the endfire image at -90 degrees.
    """
    if d_lambda <= 0:
        raise ValueError("spacing must be positive")
    s = math.sin(math.radians(phi_t))
    n_lo = math.floor((-1.0 - s) * d_lambda)
    n_hi = math.ceil((1.0 - s) * d_lambda)
    angles = []
    for n in range(n_lo, n_hi + 1):
        if n == 0:
            continue
        gamma = n / d_lambda + s
        if -1.0 - _EPS <= gamma <= 1.0 + _EPS:
            angle = math.degrees(math.asin(max(-1.0, min(1.0, gamma))))
            if abs(angle - phi_t) > 1e-9:
                angles.append(angle)
    return sorted(angles)


def ufov(d_lambda: float) -> float:
    """One-sided grating-lobe-free field of view in degrees: asin(1/(2 d))."""
    if d_lambda <= 0:
        raise ValueError("spacing must be positive")
    return math.degrees(math.asin(min(1.0, 1.0 / (2.0 * d_lambda))))


def aperture_loss_factor(virtual_area: float, physical_area: float, dimensionality: str) -> float:
    """Virtual-aperture efficiency: virtual area over (2 or 4) times the physical area.

    The gain factor is 2 for 1D (lengths) and 4 for 2D (areas). Values above 1
    indicate an inconsistent area convention and are logged as anomalies.
    """
    if dimensionality not in ("1D", "2D"):
        raise ValueError(f"dimensionality must be '1D' or '2D', got {dimensionality!r}")
    if physical_area <= 0:
        raise ValueError("physical aperture area must be positive")
    beta = 2.0 if dimensionality == "1D" else 4.0
    ratio = virtual_area / (beta * physical_area)
    if ratio > 1.0 + 1e-9:
        log.warning("aperture loss factor %.6f exceeds 1; check area conventions", ratio)
    return ratio


def bw_spreading_factor(observed_hpbw: float, theoretical_hpbw: float) -> float:
    """Beam-broadening multiplier: observed HPBW over the theoretical HPBW."""
    if observed_hpbw <= 0 or theoretical_hpbw <= 0:
        raise ValueError("beamwidths must be positive")
    return observed_hpbw / theoretical_hpbw


def min_axis_spacing(coords: np.ndarray) -> Optional[float]:
    """Smallest positive gap between distinct sorted values, or None if degenerate."""
    # Not np.unique: numpy 2.4 imports numpy.ma on its first call, 14-24 ms and 1.27 MB.
    gaps = np.diff(np.sort(np.asarray(coords, dtype=float)))
    gaps = gaps[gaps > 0]
    return float(gaps.min()) if gaps.size else None


@dataclass(frozen=True)
class MetricsReport:
    """Flat scorecard for one layout/pattern evaluation.

    Beamwidths are two-sided degrees (one-sided values are half); uFOV values
    are one-sided. ``None`` marks quantities undefined for the layout, e.g.
    elevation figures of a purely linear array.
    """

    pslr_db: float
    hpbw_az: Optional[float]
    hpbw_el: Optional[float]
    fnbw_az: Optional[float]
    fnbw_el: Optional[float]
    ufov_az: Optional[float]
    ufov_el: Optional[float]
    grating_lobes_az: list[float]
    grating_lobes_el: list[float]
    thinning_ratio: float
    aperture_loss_factor: float
    bw_spreading_az: Optional[float]
    bw_spreading_el: Optional[float]
    peak_u: float
    peak_v: float

    def to_dict(self) -> dict:
        d = {
            "pslr_db": None if self.pslr_db == math.inf else self.pslr_db,
            "hpbw_az_deg": self.hpbw_az,
            "hpbw_el_deg": self.hpbw_el,
            "hpbw_az_one_sided_deg": None if self.hpbw_az is None else self.hpbw_az / 2.0,
            "hpbw_el_one_sided_deg": None if self.hpbw_el is None else self.hpbw_el / 2.0,
            "fnbw_az_deg": self.fnbw_az,
            "fnbw_el_deg": self.fnbw_el,
            "ufov_az_deg": self.ufov_az,
            "ufov_el_deg": self.ufov_el,
            "grating_lobes_az_deg": self.grating_lobes_az,
            "grating_lobes_el_deg": self.grating_lobes_el,
            "thinning_ratio": self.thinning_ratio,
            "aperture_loss_factor": self.aperture_loss_factor,
            "bw_spreading_az": self.bw_spreading_az,
            "bw_spreading_el": self.bw_spreading_el,
            "peak_u": self.peak_u,
            "peak_v": self.peak_v,
        }
        return d


def evaluate_layout(
    layout: ArrayLayout,
    q_phi: int = 8,
    q_theta: int = 8,
    targets: Optional[Sequence[Target]] = None,
) -> tuple[Pattern, MetricsReport]:
    """Beamform a layout against a target set and assemble its metrics report.

    Defaults to a single unit broadside target. Linear layouts (single grid
    row) are scored on the v = 0 azimuth cut. The PSLR, its peak and the
    beamwidth cuts through that peak lie in the FOV of ``scoring_grid``, as
    in the optimizer. The thinning-ratio reference is the fully populated grid
    covering the VRX bounding box; aperture areas are element-center boxes.
    """
    vrx = build_virtual_array(layout)
    grid = scoring_grid(layout.grid, q_phi, q_theta)
    snapshot = synthesize_snapshot(vrx, BROADSIDE if targets is None else targets)
    pattern = beamform(vrx, snapshot, grid)

    pslr_db = pslr(pattern)
    peak = find_peak(pattern)  # pslr's peak, not searched again: the beamwidth cuts go through it

    m_size, n_size = (vrx.vrx_positions.max(0) - vrx.vrx_positions.min(0) + 1).tolist()
    reference = GridSpec(vrx.grid.d_y, vrx.grid.d_z, m_size, n_size)

    # The grating lobes of an axis are predicted around the peak's angle on it:
    # the azimuth phi, and the elevation asin(v).
    peak_angles = uv_to_angles(peak.u, peak.v)
    peak_deg = (0.0 if peak_angles is None else peak_angles[0],
                math.degrees(math.asin(max(-1.0, min(1.0, peak.v)))))
    coords = vrx.positions_wavelengths()
    phys = layout.grid.to_wavelengths(layout.tx_positions + layout.rx_positions)
    spans, phys_spans = (np.ptp(c, axis=0).tolist() for c in (coords, phys))
    per_axis = {}
    for ax, name in ((0, "az"), (1, "el")):
        d_min, span = min_axis_spacing(coords[:, ax]), spans[ax]
        hpbw = None
        if ax == 0 or layout.grid.N > 1:  # a linear layout's pattern is an azimuth cut
            with contextlib.suppress(ValueError):
                hpbw = measured_hpbw(pattern, peak, "uv"[ax])
        # theoretical_beamwidths raises exactly when the span is below one wavelength.
        fnbw, theory = theoretical_beamwidths(span) if span >= 1.0 else (None, None)
        spreading = None if hpbw is None or theory is None else bw_spreading_factor(hpbw, theory)
        per_axis.update({
            f"hpbw_{name}": hpbw,
            f"fnbw_{name}": fnbw,
            f"ufov_{name}": None if d_min is None else ufov(d_min),
            f"grating_lobes_{name}": [] if d_min is None else grating_lobe_angles(d_min, peak_deg[ax]),
            f"bw_spreading_{name}": spreading,
        })

    if spans[1] > 0 and phys_spans[0] > 0:
        alpha_ap = aperture_loss_factor(spans[0] * spans[1], phys_spans[0] * phys_spans[1], "2D")
    else:  # a line along y, or one column along z: all on one node is a degenerate pattern above
        ax = 0 if phys_spans[0] > 0 else 1
        alpha_ap = aperture_loss_factor(spans[ax], phys_spans[ax], "1D")

    report = MetricsReport(
        pslr_db=pslr_db,
        thinning_ratio=thinning_ratio(vrx, reference),
        aperture_loss_factor=alpha_ap,
        peak_u=peak.u,
        peak_v=peak.v,
        **per_axis,
    )
    return pattern, report
