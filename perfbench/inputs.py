"""Seeded inputs for the three benchmark workloads.

Everything the `saf` child process sees is generated here from the
benchmark's ``--seed``: the same seed always yields the same files.

Each workload has ``JOBS`` distinct inputs per seed, and a run cycles
through them. The search of a design config does different work for
different seeds (its main lobes differ in size, and the flood fill's passes
with them): the fastest design command of one sub-seed differed from
another's by up to 30%. A run that covers several inputs measures their
mean work, which varies less from seed to seed than any one input's.

All workloads run at q=4. At q=8 a command takes 4 to 15 s, so a run holds
too few of them for its fastest one to escape the slow spells of a shared
host; at q=4 a command takes 1 to 5 s.

Why these workloads (each stresses a different layer, so a change to one
layer has a workload that exercises it and one that should not move):

- ``design-2d``: the README's 12 TX x 16 RX 2D config (forbidden zone,
  enforced TX) at q=4 with a fixed budget of 100 iterations. Traced, the
  search loop is about 62% of wall time: ``beamform`` 29%,
  ``mask_main_lobe`` 21% and ``pslr``/``find_peak`` 12%. Writing the final
  15 MB ``pattern.csv`` is 28%, interpreter start 6%. A beamform or
  PSLR-kernel change moves it; a CSV-writer change moves it less than
  evaluate-2d.
- ``design-1d``: 12 TX + 16 RX on one 129-node line at q=4, fixed budget.
  The pattern is a single cut, so the main-lobe mask and the CSV are cheap:
  the beamformer's phasor table is 68% of wall time, interpreter start 19%.
  Not in BENCHMARK.json (see ``run.py``); it runs by hand.
- ``evaluate-2d``: ``saf evaluate`` on constraint-satisfying 12x16 layouts
  with a three-target scene at q=4. The optimizer is idle; the 15 MB
  ``pattern.csv`` writer is 78% of wall time and interpreter start 18%. A
  search-loop change should not move it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from saf import ArrayLayout, ElementSize, ForbiddenZone, GridSpec, check_forbidden_zones, check_overlap
from saf.io import layout_to_dict

Q = 4
# Fixed budgets: desired_pslr_db unset and plateau_interval 0, so every
# design command runs exactly k_max iterations whatever the seed.
DESIGN_2D_K_MAX = 100
DESIGN_1D_K_MAX = 100
# Distinct inputs per seed: design sub-seeds or evaluate layouts.
JOBS = 4

README_ZONE = {"y_mc": 7.5, "z_mc": 15.0, "center": [30, 30], "kind": "both-excluded"}
GRID_2D = GridSpec(d_y=0.5, d_z=1.0, M=65, N=36)
SIZE_2D = ElementSize(2.0, 5.0)


def design_2d_config(seed: int) -> dict:
    """README 12x16 config: d_y=0.5, d_z=1.0 on a 65x36 grid, one zone, TX at the origin."""
    return {
        "dimensionality": "2D",
        "n_tx": 12,
        "n_rx": 16,
        "target_ufov_az": 90.0,
        "target_hpbw_az": 0.793,
        "target_ufov_el": 30.0,
        "target_hpbw_el": 0.725,
        "tx_size": {"w": 2.0, "h": 5.0},
        "rx_size": {"w": 2.0, "h": 5.0},
        "zones": [README_ZONE],
        "enforced_tx": [[0, 0]],
        "enforced_rx": [],
        "k_max": DESIGN_2D_K_MAX,
        "seed": seed,
        "q_phi": Q,
        "q_theta": Q,
        "intensity": 3,
        "use_hia": True,
        "plateau_interval": 0,
    }


def design_1d_config(seed: int) -> dict:
    """12 TX + 16 RX, 0.4-wavelength elements, on a 129-node half-wavelength line."""
    return {
        "dimensionality": "1D",
        "n_tx": 12,
        "n_rx": 16,
        "target_ufov_az": 90.0,
        # 0.886 / L with L just above 128 wavelengths gives M = 129 nodes.
        "target_hpbw_az": math.degrees(0.886 / 128.0005),
        "tx_size": {"w": 0.4, "h": 0.4},
        "rx_size": {"w": 0.4, "h": 0.4},
        "enforced_tx": [[0, 0]],
        "enforced_rx": [],
        "k_max": DESIGN_1D_K_MAX,
        "seed": seed,
        "q_phi": Q,
        "q_theta": Q,
        "intensity": 3,
        "use_hia": True,
        "plateau_interval": 0,
    }


def random_layout_2d(rng: np.random.Generator) -> dict:
    """Constraint-satisfying 12x16 layout on the README grid, as a layout-file dict.

    Elements are placed one at a time on uniformly drawn free nodes, keeping
    the enforced TX at the origin and every center out of the README zone.
    """
    zone = ForbiddenZone(README_ZONE["y_mc"], README_ZONE["z_mc"], tuple(README_ZONE["center"]))
    tx, rx = [(0, 0)], []
    for group, want in (("tx", 12), ("rx", 16)):
        placed = tx if group == "tx" else rx
        while len(placed) < want:
            node = (int(rng.integers(GRID_2D.M)), int(rng.integers(GRID_2D.N)))
            if node in tx or node in rx:
                continue
            placed.append(node)
            layout = ArrayLayout(GRID_2D, tx, rx, SIZE_2D, SIZE_2D, enforced_tx=[(0, 0)])
            if check_overlap(layout) or check_forbidden_zones(layout, [zone]):
                placed.pop()
    layout = ArrayLayout(GRID_2D, tx, rx, SIZE_2D, SIZE_2D, enforced_tx=[(0, 0)])
    return layout_to_dict(layout, [zone])


def random_scene(rng: np.random.Generator) -> list[tuple[float, float, float, float]]:
    """Three targets (u, v, re, im) inside the real-angle disk; the first has u < 0."""
    targets = []
    for i in range(3):
        radius = float(rng.uniform(0.1, 0.8))
        angle = float(rng.uniform(0.6 * math.pi, 1.4 * math.pi) if i == 0 else rng.uniform(0.0, 2.0 * math.pi))
        amp = float(rng.uniform(0.3, 1.0))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        targets.append(
            (radius * math.cos(angle), radius * math.sin(angle), amp * math.cos(phase), amp * math.sin(phase))
        )
    return targets


def target_args(scene) -> list[str]:
    # "--target=-U,..." because argparse reads "--target -0.3,..." as an option.
    return [f"--target={u!r},{v!r},{re!r},{im!r}" for u, v, re, im in scene]


def write_inputs(workload: str, seed: int, directory: Path) -> list[dict]:
    """Write the workload's input files; return one job per distinct command.

    A job holds the ``saf`` arguments (``{out}`` marks the output directory)
    and what the checks need to know about its inputs.
    """
    directory.mkdir(parents=True, exist_ok=True)
    if workload in ("design-2d", "design-1d"):
        make = design_2d_config if workload == "design-2d" else design_1d_config
        jobs = []
        for i in range(JOBS):
            config = make(JOBS * seed + i)
            path = directory / f"config{i}.json"
            path.write_text(json.dumps(config, indent=2) + "\n")
            jobs.append({
                "kind": "design",
                "args": ["design", "--config", str(path), "--out", "{out}", "--threads", "1"],
                "config": config,
                "q": config["q_phi"],
            })
        return jobs
    if workload == "evaluate-2d":
        rng = np.random.default_rng([seed, 2])
        jobs = []
        for i in range(JOBS):
            layout = random_layout_2d(rng)
            scene = random_scene(rng)
            path = directory / f"layout{i}.json"
            path.write_text(json.dumps(layout, indent=2) + "\n")
            jobs.append({
                "kind": "evaluate",
                "args": ["evaluate", "--layout", str(path), "--out", "{out}",
                         "--grid-oversample", str(Q)] + target_args(scene),
                "layout": layout,
                "scene": scene,
                "q": Q,
            })
        return jobs
    raise ValueError(f"unknown workload {workload!r}")

