"""Physical TX/RX layouts on a reference grid and the virtual arrays they generate.

Element positions are integer (column, row) coordinates on a reference grid;
the grid carries the wavelength scale. Keeping coordinates integral avoids
floating-point drift while layouts are mutated during optimization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

Coord = tuple[int, int]

TX_EXCLUDED = "tx-excluded"
RX_EXCLUDED = "rx-excluded"
BOTH_EXCLUDED = "both-excluded"
ZONE_KINDS = (TX_EXCLUDED, RX_EXCLUDED, BOTH_EXCLUDED)

# Slack absorbing float rounding when positions are converted to wavelengths.
_GEOM_EPS = 1e-9


class LayoutError(ValueError):
    """Raised for layouts that violate their structural invariants."""


@dataclass(frozen=True)
class GridSpec:
    """Reference uniform grid: spacings in wavelengths and node counts.

    The physical aperture extent is (M - 1) * d_y by (N - 1) * d_z wavelengths.
    """

    d_y: float
    d_z: float
    M: int
    N: int

    def __post_init__(self):
        if self.d_y <= 0 or self.d_z <= 0:
            raise ValueError(f"grid spacings must be positive, got ({self.d_y}, {self.d_z})")
        if self.M < 1 or self.N < 1:
            raise ValueError(f"grid dimensions must be >= 1, got ({self.M}, {self.N})")
        if not np.isfinite([self.extent_y, self.extent_z]).all():
            raise ValueError(f"grid extent must be finite, got ({self.extent_y}, {self.extent_z})")

    @property
    def extent_y(self) -> float:
        return (self.M - 1) * self.d_y

    @property
    def extent_z(self) -> float:
        return (self.N - 1) * self.d_z

    def contains(self, pos: Coord) -> bool:
        m, n = pos
        return 0 <= m < self.M and 0 <= n < self.N

    def to_wavelengths(self, positions: Iterable[Coord]) -> np.ndarray:
        """Convert integer grid coordinates to (y, z) wavelength coordinates."""
        arr = np.asarray(list(positions), dtype=float).reshape(-1, 2)
        return arr * np.array([self.d_y, self.d_z])


@dataclass(frozen=True)
class ElementSize:
    """Physical footprint of an antenna element, in wavelengths."""

    width: float
    height: float

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"element size must be positive, got {self.width} x {self.height}")


@dataclass(frozen=True)
class ForbiddenZone:
    """Rectangular keep-out region for element centers.

    ``y_mc``/``z_mc`` are half-width/half-height in wavelengths around the
    ``center`` grid coordinate. An element center exactly on the zone boundary
    is legal; only strictly interior centers violate.
    """

    y_mc: float
    z_mc: float
    center: Coord
    kind: str = BOTH_EXCLUDED

    def __post_init__(self):
        if self.y_mc < 0 or self.z_mc < 0:
            raise ValueError("forbidden-zone half extents must be >= 0")
        if self.kind not in ZONE_KINDS:
            raise ValueError(f"unknown zone kind {self.kind!r}; expected one of {ZONE_KINDS}")
        object.__setattr__(self, "center", _as_coord(self.center))

    def excludes(self, group: str) -> bool:
        if self.kind == BOTH_EXCLUDED:
            return True
        return self.kind == f"{group}-excluded"


def _as_coord(pos) -> Coord:
    m, n = pos
    return (int(m), int(n))


def _as_coords(positions) -> tuple[Coord, ...]:
    return tuple(_as_coord(p) for p in positions)


@dataclass(frozen=True)
class ArrayLayout:
    """TX/RX element placement on a reference grid.

    Positions are integer grid coordinates (m, n) with 0 <= m < M, 0 <= n < N.
    Enforced positions are frozen by the optimizer and must be present in the
    corresponding position list.
    """

    grid: GridSpec
    tx_positions: tuple[Coord, ...]
    rx_positions: tuple[Coord, ...]
    tx_size: ElementSize
    rx_size: ElementSize
    enforced_tx: tuple[Coord, ...] = field(default=())
    enforced_rx: tuple[Coord, ...] = field(default=())

    def __post_init__(self):
        for name in ("tx_positions", "rx_positions", "enforced_tx", "enforced_rx"):
            object.__setattr__(self, name, _as_coords(getattr(self, name)))
        for group, positions in (("tx", self.tx_positions), ("rx", self.rx_positions)):
            for pos in positions:
                if not self.grid.contains(pos):
                    raise LayoutError(f"{group} position {pos} outside grid {self.grid.M}x{self.grid.N}")
            if len(set(positions)) != len(positions):
                raise LayoutError(f"duplicate {group} positions")
        if not set(self.enforced_tx) <= set(self.tx_positions):
            raise LayoutError("enforced_tx is not a subset of tx_positions")
        if not set(self.enforced_rx) <= set(self.rx_positions):
            raise LayoutError("enforced_rx is not a subset of rx_positions")

    @property
    def n_tx(self) -> int:
        return len(self.tx_positions)

    @property
    def n_rx(self) -> int:
        return len(self.rx_positions)


@dataclass(frozen=True)
class VirtualArray:
    """Virtual receiver set: componentwise sums of TX and RX coordinates.

    ``generated_count`` counts every TX/RX pair; ``vrx_positions`` is the
    de-duplicated set in row-major (n, m) order, so ``unique_count`` can be
    smaller when different pairs land on the same grid node. The virtual grid
    spans twice the physical aperture.
    """

    vrx_positions: tuple[Coord, ...]
    generated_count: int
    unique_count: int
    grid: GridSpec

    def positions_wavelengths(self) -> np.ndarray:
        """VRX positions as a (P, 2) array of (y, z) wavelength coordinates."""
        return self.grid.to_wavelengths(self.vrx_positions)


def build_virtual_array(layout: ArrayLayout) -> VirtualArray:
    """Form the virtual array from all TX+RX coordinate sums.

    Duplicated sums are collapsed to a single virtual receiver; the result is
    sorted lexicographically by (n, m) for a stable ordering.
    """
    if not layout.tx_positions or not layout.rx_positions:
        raise LayoutError("virtual array requires at least one TX and one RX element")
    sums = {
        (tm + rm, tn + rn)
        for (tm, tn) in layout.tx_positions
        for (rm, rn) in layout.rx_positions
    }
    ordered = tuple(sorted(sums, key=lambda p: (p[1], p[0])))
    g = layout.grid
    virtual_grid = GridSpec(g.d_y, g.d_z, 2 * g.M - 1, 2 * g.N - 1)
    return VirtualArray(
        vrx_positions=ordered,
        generated_count=layout.n_tx * layout.n_rx,
        unique_count=len(ordered),
        grid=virtual_grid,
    )


def _elements(layout: ArrayLayout):
    """All physical elements as (group, index, center_y, center_z, size)."""
    g = layout.grid
    for group, positions, size in (
        ("tx", layout.tx_positions, layout.tx_size),
        ("rx", layout.rx_positions, layout.rx_size),
    ):
        for i, (m, n) in enumerate(positions):
            yield group, i, m * g.d_y, n * g.d_z, size


def _overlaps(a, b) -> bool:
    """Whether two elements, rectangles centered on their nodes, overlap with positive area.

    Edge contact (center separation exactly the mean of the two widths or
    heights) is legal.
    """
    _ga, _ia, ya, za, sa = a
    _gb, _ib, yb, zb, sb = b
    return (
        (sa.width + sb.width) / 2.0 - abs(ya - yb) > _GEOM_EPS
        and (sa.height + sb.height) / 2.0 - abs(za - zb) > _GEOM_EPS
    )


def _in_zone(element, zone: ForbiddenZone, grid: GridSpec) -> bool:
    """Whether an element's center lies strictly inside a zone that excludes its group.

    A center exactly on the zone boundary is legal.
    """
    group, _i, y, z, _size = element
    return (
        zone.excludes(group)
        and abs(y - zone.center[0] * grid.d_y) < zone.y_mc - _GEOM_EPS
        and abs(z - zone.center[1] * grid.d_z) < zone.z_mc - _GEOM_EPS
    )


def check_overlap(layout: ArrayLayout) -> list[tuple[tuple[str, int], tuple[str, int]]]:
    """Return every pair of elements whose rectangles overlap with positive area."""
    elems = list(_elements(layout))
    violations = []
    for a, elem in enumerate(elems):
        for other in elems[a + 1:]:
            if _overlaps(elem, other):
                violations.append((elem[:2], other[:2]))
    return violations


def check_forbidden_zones(
    layout: ArrayLayout, zones: Sequence[ForbiddenZone]
) -> list[tuple[str, int, int]]:
    """Return (group, element index, zone index) for every center strictly inside a zone."""
    if not zones:
        return []
    return [
        (elem[0], elem[1], zi)
        for elem in _elements(layout)
        for zi, zone in enumerate(zones)
        if _in_zone(elem, zone, layout.grid)
    ]


def element_conflicts(
    layout: ArrayLayout, group: str, index: int, pos: Coord, zones: Sequence[ForbiddenZone]
) -> bool:
    """Whether element ``index`` of ``group``, placed at grid node ``pos``, breaks a constraint.

    The one element is checked against every other element and every zone by
    the rules of ``check_overlap`` and ``check_forbidden_zones``, so a layout
    passes both exactly when each of its elements passes this check in place.
    """
    g = layout.grid
    size = layout.tx_size if group == "tx" else layout.rx_size
    elem = (group, index, pos[0] * g.d_y, pos[1] * g.d_z, size)
    if any(_in_zone(elem, zone, g) for zone in zones):
        return True
    return any(
        _overlaps(elem, other)
        for other in _elements(layout)
        if other[0] != group or other[1] != index
    )


def thinning_ratio(layout: ArrayLayout, reference: GridSpec) -> float:
    """Unique VRX count over the element count of a fully populated reference grid.

    The reference must cover the layout's virtual aperture. A fully populated
    array measured against its own virtual grid gives exactly 1.
    """
    vrx = build_virtual_array(layout)
    coords = vrx.positions_wavelengths()
    span_y = float(coords[:, 0].max() - coords[:, 0].min())
    span_z = float(coords[:, 1].max() - coords[:, 1].min())
    if span_y > reference.extent_y + _GEOM_EPS or span_z > reference.extent_z + _GEOM_EPS:
        raise ValueError(
            f"reference grid extent ({reference.extent_y} x {reference.extent_z}) does not "
            f"cover the virtual aperture ({span_y} x {span_z})"
        )
    return vrx.unique_count / (reference.M * reference.N)


def spacing_ecdf(positions: Sequence[float]) -> list[tuple[float, float]]:
    """Empirical CDF of consecutive inter-element spacings.

    ``positions`` must be strictly increasing 1-D coordinates (wavelengths).
    Returns (spacing, cumulative probability) at each distinct spacing; the
    step function is right-continuous and ends at exactly 1.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 1 or pos.size < 2:
        raise ValueError("spacing ECDF requires at least 2 positions")
    spacings = np.diff(pos)
    if np.any(spacings <= 0):
        raise ValueError("positions must be strictly increasing")
    values, counts = np.unique(spacings, return_counts=True)
    cum = np.cumsum(counts) / spacings.size
    return [(float(v), float(c)) for v, c in zip(values, cum)]


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in wavelength coordinates, used for aperture partitions."""

    y_min: float
    y_max: float
    z_min: float
    z_max: float

    def __post_init__(self):
        if self.y_max < self.y_min or self.z_max < self.z_min:
            raise ValueError("rectangle extents must be nonnegative")

    @property
    def area(self) -> float:
        return (self.y_max - self.y_min) * (self.z_max - self.z_min)


def minkowski_sum(a: Rect, b: Rect) -> Rect:
    """Minkowski sum of two rectangles (the VRX region of two element regions)."""
    return Rect(a.y_min + b.y_min, a.y_max + b.y_max, a.z_min + b.z_min, a.z_max + b.z_max)


def union_area(rects: Sequence[Rect]) -> float:
    """Area of a union of axis-aligned rectangles, by coordinate compression."""
    rects = [r for r in rects if r.area > 0]
    if not rects:
        return 0.0
    ys = np.unique([c for r in rects for c in (r.y_min, r.y_max)])
    zs = np.unique([c for r in rects for c in (r.z_min, r.z_max)])
    covered = np.zeros((ys.size - 1, zs.size - 1), dtype=bool)
    for r in rects:
        i0, i1 = np.searchsorted(ys, (r.y_min, r.y_max))
        j0, j1 = np.searchsorted(zs, (r.z_min, r.z_max))
        covered[i0:i1, j0:j1] = True
    cell = np.outer(np.diff(ys), np.diff(zs))
    return float(cell[covered].sum())


def virtual_coverage_area(tx_regions: Sequence[Rect], rx_regions: Sequence[Rect]) -> float:
    """Covered area of the virtual aperture for TX/RX element regions.

    Every TX region paired with every RX region contributes the Minkowski sum
    of the two rectangles; overlap between contributions is counted once.
    """
    blocks = [minkowski_sum(t, r) for t in tx_regions for r in rx_regions]
    return union_area(blocks)
