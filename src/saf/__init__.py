"""saf: design and evaluation of uniform sparse MIMO antenna arrays."""

__version__ = "0.1.0"

from .beamforming import (
    CouplingMatrix,
    Pattern,
    Target,
    UVGrid,
    angles_to_uv,
    apply_coupling,
    beamform,
    make_uv_cut,
    make_uv_grid,
    steering_vector,
    synthesize_snapshot,
    uv_to_angles,
)
from .geometry import (
    ArrayLayout,
    ElementSize,
    ForbiddenZone,
    GridSpec,
    LayoutError,
    Rect,
    VirtualArray,
    build_virtual_array,
    check_forbidden_zones,
    check_overlap,
    element_conflicts,
    minkowski_sum,
    spacing_ecdf,
    thinning_ratio,
    union_area,
    virtual_coverage_area,
)
from .metrics import (
    MainLobeMask,
    MetricsReport,
    Peak,
    aperture_loss_factor,
    bw_spreading_factor,
    evaluate_layout,
    find_peak,
    grating_lobe_angles,
    mask_main_lobe,
    measured_hpbw,
    min_axis_spacing,
    pslr,
    scoring_fov,
    scoring_grid,
    theoretical_beamwidths,
    ufov,
)
from .optimizer import (
    DesignSpec,
    HiaSpacing,
    InfeasibleSpecError,
    IterationRecord,
    OptimizerTrace,
    derive_grid,
    hia_init,
    optimize,
    outer_loop,
    propose_candidate,
    snap_to_grid,
)

__all__ = [name for name in dir() if not name.startswith("_")]
