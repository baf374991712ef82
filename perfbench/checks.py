"""Output checks for benchmark commands, independent of the code under test.

Each check returns a list of failure messages; an empty list means the
output is correct. The pattern oracle is a per-node direct sum, written here
rather than imported from ``saf``, in the style of the test suite's
``direct_pattern``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from saf.geometry import check_forbidden_zones, check_overlap
from saf.io import SchemaError, layout_from_dict, zone_from_dict

# Oracle tolerance relative to the pattern peak, and on the stored dB column.
PATTERN_RTOL = 1e-9
DB_ATOL = 1e-9
DB_FLOOR = -120.0
ORACLE_SAMPLES = 200


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def vrx_wavelengths(layout: dict) -> np.ndarray:
    """Unique TX+RX coordinate sums of a layout-file dict, in wavelengths."""
    tx = np.asarray(layout["tx"], dtype=np.int64).reshape(-1, 2)
    rx = np.asarray(layout["rx"], dtype=np.int64).reshape(-1, 2)
    sums = np.unique((tx[:, None, :] + rx[None, :, :]).reshape(-1, 2), axis=0)
    return sums * np.array([layout["grid"]["d_y"], layout["grid"]["d_z"]])


def direct_values(coords: np.ndarray, scene, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pattern at points (u[i], v[i]) by direct summation over VRX and targets.

    snapshot_p = sum_t a_t exp(+j 2 pi (y_p u_t + z_p v_t)), and the pattern
    applies the conjugate phase: value = sum_p snapshot_p exp(-j 2 pi (y_p u + z_p v)).
    """
    snapshot = np.zeros(len(coords), dtype=complex)
    for tu, tv, re, im in scene:
        snapshot += complex(re, im) * np.exp(2j * np.pi * (coords[:, 0] * tu + coords[:, 1] * tv))
    out = np.empty(len(u), dtype=complex)
    for i in range(len(u)):
        phase = -2j * np.pi * (coords[:, 0] * u[i] + coords[:, 1] * v[i])
        out[i] = np.sum(snapshot * np.exp(phase))
    return out


def expected_axes(layout: dict, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample lattice of a layout's pattern: virtual grid (2M-1, 2N-1) times q.

    A single-row layout is scored on the v = 0 cut.
    """
    m_virtual = 2 * layout["grid"]["M"] - 1
    n_virtual = 2 * layout["grid"]["N"] - 1
    u = 2.0 * np.arange(m_virtual * q) / (m_virtual * q) - 1.0
    if layout["grid"]["N"] == 1:
        return u, np.zeros(1)
    return u, 2.0 * np.arange(n_virtual * q) / (n_virtual * q) - 1.0


def check_pattern(path: Path, layout: dict, scene, q: int, rng: np.random.Generator) -> list[str]:
    """Check every row of pattern.csv for form and self-consistency, and a seeded sample against the oracle.

    Every row must sit on the expected lattice in row-major (v, u) order, and
    its mag_db must follow from its own re/im and the file's peak. Sampled rows
    (plus the peak row) must match the direct sum to PATTERN_RTOL of the peak.
    """
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    if header != "u,v,re,im,mag_db":
        return [f"{path.name}: header {header!r}"]
    u_axis, v_axis = expected_axes(layout, q)
    if table.shape != (u_axis.size * v_axis.size, 5):
        return [f"{path.name}: shape {table.shape}, expected {(u_axis.size * v_axis.size, 5)}"]
    failures = []
    if not (np.array_equal(table[:, 0], np.tile(u_axis, v_axis.size))
            and np.array_equal(table[:, 1], np.repeat(v_axis, u_axis.size))):
        failures.append(f"{path.name}: (u, v) columns are not the expected lattice")
    mag = np.hypot(table[:, 2], table[:, 3])
    peak = float(mag.max())
    with np.errstate(divide="ignore"):
        db = np.maximum(DB_FLOOR, 20.0 * np.log10(mag / peak))
    bad_db = np.flatnonzero(np.abs(db - table[:, 4]) > DB_ATOL)
    if bad_db.size:
        failures.append(f"{path.name}: mag_db inconsistent with re/im at {bad_db.size} rows, first row {bad_db[0] + 2}")
    rows = np.unique(np.append(rng.choice(len(table), size=min(ORACLE_SAMPLES, len(table)), replace=False),
                               int(np.argmax(mag))))
    oracle = direct_values(vrx_wavelengths(layout), scene, table[rows, 0], table[rows, 1])
    err = np.abs(table[rows, 2] + 1j * table[rows, 3] - oracle)
    worst = int(np.argmax(err))
    if err[worst] > PATTERN_RTOL * peak:
        failures.append(
            f"{path.name}: row {rows[worst] + 2} differs from the direct sum by "
            f"{err[worst] / peak:.3e} of the peak"
        )
    return failures


def check_layout(layout: dict, config: dict) -> list[str]:
    """The final layout keeps the element budget, its constraints and its enforced positions."""
    try:
        parsed, _zones = layout_from_dict(layout)
        zones = [zone_from_dict(z) for z in config.get("zones", [])]
    except (SchemaError, ValueError, KeyError, TypeError) as exc:
        return [f"layout.json: invalid ({exc})"]
    failures = []
    if (parsed.n_tx, parsed.n_rx) != (config["n_tx"], config["n_rx"]):
        failures.append(f"layout.json: {parsed.n_tx} TX x {parsed.n_rx} RX, expected {config['n_tx']} x {config['n_rx']}")
    overlaps = check_overlap(parsed)
    if overlaps:
        failures.append(f"layout.json: {len(overlaps)} overlapping element pairs, first {overlaps[0]}")
    violations = check_forbidden_zones(parsed, zones)
    if violations:
        failures.append(f"layout.json: {len(violations)} elements inside forbidden zones, first {violations[0]}")
    for group in ("tx", "rx"):
        missing = {tuple(p) for p in config.get(f"enforced_{group}", [])} - set(parsed.tx_positions if group == "tx" else parsed.rx_positions)
        if missing:
            failures.append(f"layout.json: enforced {group} positions {sorted(missing)} moved")
    return failures


def check_trace(path: Path, k_max: int) -> tuple[list[str], dict]:
    """Trace structure: k = 1..k_max, nondecreasing best PSLR, consistent summary.

    Returns the failures and the summary line (empty on failure).
    """
    try:
        records = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    except (OSError, ValueError) as exc:
        return [f"trace.jsonl: unreadable ({exc})"], {}
    if len(records) < 2 or records[0].get("type") != "meta" or records[-1].get("type") != "summary":
        return ["trace.jsonl: missing meta or summary line"], {}
    iterations, summary = records[1:-1], records[-1]
    failures = []
    if [r.get("k") for r in iterations] != list(range(1, k_max + 1)):
        failures.append(f"trace.jsonl: expected iterations 1..{k_max} (fixed budget)")
    best = [float(r.get("best_pslr_db", math.nan)) for r in iterations]
    drops = [i + 1 for i in range(1, len(best)) if not best[i] >= best[i - 1]]
    if drops:
        failures.append(f"trace.jsonl: best PSLR decreases at iteration {drops[0]}")
    if summary.get("iterations") != len(iterations) or summary.get("termination") != "budget":
        failures.append("trace.jsonl: summary does not match a fixed-budget run")
    if best and summary.get("final_pslr_db") != best[-1]:
        failures.append("trace.jsonl: summary final PSLR is not the last best PSLR")
    return failures, summary


def check_design_metrics(path: Path, final_pslr_db: float) -> list[str]:
    """metrics.json scores the final layout with the optimizer's own FOV and grid."""
    try:
        reported = json.loads(Path(path).read_text())["pslr_db"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"metrics.json: unreadable ({exc})"]
    if reported is None or abs(reported - final_pslr_db) > 1e-9:
        return [f"metrics.json: pslr_db {reported} differs from the trace's final {final_pslr_db}"]
    return []
