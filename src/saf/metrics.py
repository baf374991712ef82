"""Pattern and layout scoring: PSLR, beamwidths, grating lobes, uFOV, efficiency.

The main-lobe region used by the PSLR is the monotone-descent closure of the
peak: starting from the peak node, a node joins the region when a 4-connected
neighbor already in the region has magnitude at least as large. The closure is
a fixpoint, so the result does not depend on traversal order.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .beamforming import (
    Pattern,
    Target,
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

# FOV rectangle in sine space: (u_min, u_max, v_min, v_max).
FovRect = tuple[float, float, float, float]


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


def _visible(grid: UVGrid, fov: Optional[FovRect]) -> np.ndarray:
    uu = grid.u_samples[None, :]
    vv = grid.v_samples[:, None]
    visible = uu * uu + vv * vv <= 1.0 + _EPS
    if fov is not None:
        u_min, u_max, v_min, v_max = fov
        visible = visible & (uu >= u_min - _EPS) & (uu <= u_max + _EPS)
        visible = visible & (vv >= v_min - _EPS) & (vv <= v_max + _EPS)
    return visible


def scoring_grid(grid: GridSpec, q_phi: int, q_theta: int) -> UVGrid:
    """Sine-space lattice a layout on reference ``grid`` is scored on.

    The lattice matches the virtual grid, twice the physical aperture: a
    single grid row (linear array) gets the v = 0 azimuth cut.
    """
    if grid.N == 1:
        return make_uv_cut(2 * grid.M - 1, q_phi)
    return make_uv_grid(2 * grid.M - 1, 2 * grid.N - 1, q_phi, q_theta)


def scoring_fov(grid: GridSpec) -> FovRect:
    """Scoring rectangle of ``grid``: per axis ``±min(1, 1/(2 d))``, the sine of ``ufov(d)``."""
    su, sv = (min(1.0, 1.0 / (2.0 * d)) for d in (grid.d_y, grid.d_z))
    return (-su, su, -sv, sv)


def find_peak(pattern: Pattern, fov: Optional[FovRect] = None) -> Peak:
    """Maximum magnitude inside the FOV (default: the real-angle disk u^2+v^2 <= 1).

    Ties resolve to the smallest (v index, u index).
    """
    visible = _visible(pattern.grid, fov)
    if not visible.any():
        raise ValueError("FOV does not intersect the pattern grid")
    mag = np.where(visible, pattern.magnitude, -1.0)
    flat = int(np.argmax(mag))
    iv, iu = np.unravel_index(flat, mag.shape)
    return Peak(
        magnitude=float(mag[iv, iu]),
        u=float(pattern.grid.u_samples[iu]),
        v=float(pattern.grid.v_samples[iv]),
        iu=int(iu),
        iv=int(iv),
    )


def mask_main_lobe(pattern: Pattern, peak: Peak) -> MainLobeMask:
    """Monotone-descent flood fill of the main lobe from the peak node."""
    mag = pattern.magnitude
    mask = np.zeros(mag.shape, dtype=bool)
    mask[peak.iv, peak.iu] = True
    size = 0
    while (count := mask.sum()) > size:
        size = count
        mask[1:, :] |= mask[:-1, :] & (mag[1:, :] <= mag[:-1, :])
        mask[:-1, :] |= mask[1:, :] & (mag[:-1, :] <= mag[1:, :])
        mask[:, 1:] |= mask[:, :-1] & (mag[:, 1:] <= mag[:, :-1])
        mask[:, :-1] |= mask[:, 1:] & (mag[:, :-1] <= mag[:, 1:])
    return MainLobeMask(mask=mask)


def pslr(pattern: Pattern, fov: Optional[FovRect] = None) -> float:
    """Peak-to-sidelobe ratio in dB: peak over the largest magnitude outside the main lobe.

    Both maxima are restricted to the FOV. Returns ``math.inf`` when nothing
    remains outside the main lobe (single-lobe pattern).
    """
    peak = find_peak(pattern, fov)
    visible = _visible(pattern.grid, fov)
    mag = pattern.magnitude
    if peak.magnitude - mag.min(where=visible, initial=peak.magnitude) <= peak.magnitude * 1e-12:
        raise ValueError("degenerate pattern: all magnitudes equal inside the FOV")
    lobe = mask_main_lobe(pattern, peak)
    sidelobe = float(mag.max(where=visible & ~lobe.mask, initial=0.0))
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
    values = np.unique(np.asarray(coords, dtype=float))
    if values.size < 2:
        return None
    return float(np.diff(values).min())


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


def _span(coords: np.ndarray) -> float:
    return float(coords.max() - coords.min())


def evaluate_layout(
    layout: ArrayLayout,
    q_phi: int = 8,
    q_theta: int = 8,
    targets: Optional[Sequence[Target]] = None,
) -> tuple[Pattern, MetricsReport]:
    """Beamform a layout against a target set and assemble its metrics report.

    Defaults to a single unit broadside target. Linear layouts (single grid
    row) are scored on the v = 0 azimuth cut. The PSLR, its peak and the
    beamwidth cuts through that peak lie in ``scoring_fov(layout.grid)``, as
    in the optimizer. The thinning-ratio reference is the fully populated grid
    covering the VRX bounding box; aperture areas are element-center boxes.
    """
    vrx = build_virtual_array(layout)
    grid = scoring_grid(layout.grid, q_phi, q_theta)
    if targets is None:
        targets = [Target(0.0, 0.0, 1.0 + 0.0j)]
    snapshot = synthesize_snapshot(vrx, targets)
    pattern = beamform(vrx, snapshot, grid)

    fov = scoring_fov(layout.grid)
    pslr_db = pslr(pattern, fov)
    peak = find_peak(pattern, fov)  # pslr's peak: the beamwidth cuts go through it too

    coords = vrx.positions_wavelengths()
    ms, ns = zip(*vrx.vrx_positions)
    reference = GridSpec(vrx.grid.d_y, vrx.grid.d_z, max(ms) - min(ms) + 1, max(ns) - min(ns) + 1)
    t_ratio = thinning_ratio(layout, reference)

    d_min_y = min_axis_spacing(coords[:, 0])
    d_min_z = min_axis_spacing(coords[:, 1])
    ufov_az = None if d_min_y is None else ufov(d_min_y)
    ufov_el = None if d_min_z is None else ufov(d_min_z)

    peak_angles = uv_to_angles(peak.u, peak.v)
    phi_peak = 0.0 if peak_angles is None else peak_angles[0]
    elev_peak = math.degrees(math.asin(max(-1.0, min(1.0, peak.v))))
    lobes_az = [] if d_min_y is None else grating_lobe_angles(d_min_y, phi_peak)
    lobes_el = [] if d_min_z is None else grating_lobe_angles(d_min_z, elev_peak)

    span_y = _span(coords[:, 0])
    span_z = _span(coords[:, 1])

    def theory(span: float) -> tuple[Optional[float], Optional[float]]:
        if span > 0:
            try:
                return theoretical_beamwidths(span)
            except ValueError:
                pass
        return None, None

    def measure(axis: str) -> Optional[float]:
        try:
            return measured_hpbw(pattern, peak, axis)
        except ValueError:
            return None

    hpbw_az = measure("u")
    hpbw_el = None if layout.grid.N == 1 else measure("v")
    fnbw_az, th_az = theory(span_y)
    fnbw_el, th_el = theory(span_z)
    spread_az = None if (hpbw_az is None or th_az is None) else bw_spreading_factor(hpbw_az, th_az)
    spread_el = None if (hpbw_el is None or th_el is None) else bw_spreading_factor(hpbw_el, th_el)

    phys = layout.grid.to_wavelengths(layout.tx_positions + layout.rx_positions)
    phys_span_y = _span(phys[:, 0])
    phys_span_z = _span(phys[:, 1])
    if span_z > 0 and phys_span_z > 0:
        alpha_ap = aperture_loss_factor(span_y * span_z, phys_span_y * phys_span_z, "2D")
    elif phys_span_y > 0:
        alpha_ap = aperture_loss_factor(span_y, phys_span_y, "1D")
    else:
        alpha_ap = 1.0

    report = MetricsReport(
        pslr_db=pslr_db,
        hpbw_az=hpbw_az,
        hpbw_el=hpbw_el,
        fnbw_az=fnbw_az,
        fnbw_el=fnbw_el,
        ufov_az=ufov_az,
        ufov_el=ufov_el,
        grating_lobes_az=lobes_az,
        grating_lobes_el=lobes_el,
        thinning_ratio=t_ratio,
        aperture_loss_factor=alpha_ap,
        bw_spreading_az=spread_az,
        bw_spreading_el=spread_el,
        peak_u=peak.u,
        peak_v=peak.v,
    )
    return pattern, report
