"""The bindings ``perfbench/tracing.py`` wraps exist, and return what its observers read."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from saf import find_peak, mask_main_lobe
from saf.metrics import scoring_grid
from saf.beamforming import BROADSIDE, beamform, synthesize_snapshot
from saf.geometry import build_virtual_array
from conftest import layout_12x16, reference_main_lobe

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    """``perfbench/tracing.py`` as a module, loaded by path without running it as a script."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    tracing = load_tracing()
    bound = {(module, name): getattr(importlib.import_module(module), name, None)
             for module, names in tracing.BINDINGS.items() for name in names}
    assert [key for key, fn in bound.items() if not callable(fn)] == []
    # The layer name the tracer gives a binding is the wrapped function's own module and name.
    assert all(fn.__module__.startswith("saf.") and fn.__name__ == name for (_m, name), fn in bound.items())


def test_mask_main_lobe_returns_a_boolean_mask_of_the_pattern_shape():
    layout = layout_12x16(0)
    vrx = build_virtual_array(layout)
    pattern = beamform(vrx, synthesize_snapshot(vrx, BROADSIDE), scoring_grid(layout.grid, 2, 2))
    peak = find_peak(pattern)
    mask = mask_main_lobe(pattern, peak).mask
    assert mask.dtype == np.bool_ and mask.shape == pattern.magnitude.shape
    assert np.array_equal(mask, reference_main_lobe(pattern.magnitude, peak.iv, peak.iu))
