"""File formats: layout/design JSON, pattern CSV, trace JSONL, run manifests.

JSON numbers are written with Python's shortest round-trip repr and the CSV
with 17 significant digits, so any value read back compares exactly. No
reader mutates its input file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .beamforming import Pattern
from .geometry import BOTH_EXCLUDED, ArrayLayout, Coord, ElementSize, ForbiddenZone, GridSpec
from .metrics import MetricsReport
from .optimizer import TERMINATIONS, DesignSpec, OptimizerTrace

DB_FLOOR = -120.0
_TINY = 5e-324  # smallest positive double: 20 log10 of it is far below DB_FLOOR


class SchemaError(ValueError):
    """Raised for structurally invalid layout/config/trace files."""


# What float() and the model constructors raise for a value of the wrong type or range.
_BAD_VALUE = (TypeError, ValueError, OverflowError)


def _require(mapping, key: str, context: str):
    if not isinstance(mapping, dict):
        raise SchemaError(f"{context}: expected an object, got {type(mapping).__name__}")
    if key not in mapping:
        raise SchemaError(f"{context}: missing field {key!r}")
    return mapping[key]


def _known(raw, keys, context: str) -> dict:
    """``raw`` as an object whose keys are all in ``keys``; any other key is refused."""
    if not isinstance(raw, dict):
        raise SchemaError(f"{context}: expected an object, got {type(raw).__name__}")
    for key in raw:
        if key not in keys:
            raise SchemaError(f"{context}: cannot set {key!r}")
    return raw


def _validated(make, context: str):
    """``make()``, with the type and value errors of bad input reported as schema errors."""
    try:
        return make()
    except SchemaError:
        raise
    except _BAD_VALUE as exc:
        raise SchemaError(f"{context}: {exc}") from exc


def _int(raw, context: str) -> int:
    """A JSON integer. A bool, a float or a string is refused, not converted."""
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise SchemaError(f"{context}: expected an integer, got {raw!r}")
    return raw


def _bool(raw, context: str) -> bool:
    if not isinstance(raw, bool):
        raise SchemaError(f"{context}: expected true or false, got {raw!r}")
    return raw


def _str(raw, context: str) -> str:
    if not isinstance(raw, str):
        raise SchemaError(f"{context}: expected a string, got {raw!r}")
    return raw


def _float(raw, context: str) -> float:
    """A JSON number as a float. Bools, strings and NaN are refused.

    NaN would pass every range check downstream.
    """
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise SchemaError(f"{context}: expected a number, got {raw!r}")
    value = _validated(lambda: float(raw), context)
    if math.isnan(value):
        raise SchemaError(f"{context}: expected a number, got NaN")
    return value


def _number(mapping, key: str, context: str) -> float:
    return _float(_require(mapping, key, context), f"{context}.{key}")


def _integer(mapping, key: str, context: str) -> int:
    return _int(_require(mapping, key, context), f"{context}.{key}")


def _items(raw, decode, context: str) -> tuple:
    if not isinstance(raw, (list, tuple)):
        raise SchemaError(f"{context}: expected a list, got {type(raw).__name__}")
    return tuple(decode(item, f"{context}[{i}]") for i, item in enumerate(raw))


def _coord(pair, context: str) -> Coord:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise SchemaError(f"{context}: expected [m, n], got {pair!r}")
    return _int(pair[0], context), _int(pair[1], context)


def _coords(raw, context: str) -> tuple[Coord, ...]:
    return _items(raw, _coord, context)


def _size_from(raw: dict, context: str) -> ElementSize:
    _known(raw, ("w", "h"), context)
    width, height = _number(raw, "w", context), _number(raw, "h", context)
    return _validated(lambda: ElementSize(width, height), context)


def _to_json(value):
    """Sizes, zones and coordinate tuples as the JSON the readers take back."""
    if isinstance(value, ElementSize):
        return {"w": value.width, "h": value.height}
    if isinstance(value, ForbiddenZone):
        return zone_to_dict(value)
    if isinstance(value, (tuple, list)):
        return [_to_json(v) for v in value]
    return value


def zone_to_dict(zone: ForbiddenZone) -> dict:
    return {"y_mc": zone.y_mc, "z_mc": zone.z_mc, "center": list(zone.center), "kind": zone.kind}


def zone_from_dict(raw: dict, context: str = "zone") -> ForbiddenZone:
    _known(raw, ("y_mc", "z_mc", "center", "kind"), context)
    center = _coord(_require(raw, "center", context), f"{context}.center")
    return _validated(
        lambda: ForbiddenZone(
            _number(raw, "y_mc", context), _number(raw, "z_mc", context), center,
            raw.get("kind", BOTH_EXCLUDED),
        ),
        context,
    )


def layout_to_dict(layout: ArrayLayout, zones: Sequence[ForbiddenZone] = ()) -> dict:
    g = layout.grid
    return {
        "grid": {"d_y": g.d_y, "d_z": g.d_z, "M": g.M, "N": g.N},
        "tx": _to_json(layout.tx_positions),
        "rx": _to_json(layout.rx_positions),
        "tx_size": _to_json(layout.tx_size),
        "rx_size": _to_json(layout.rx_size),
        "enforced_tx": _to_json(layout.enforced_tx),
        "enforced_rx": _to_json(layout.enforced_rx),
        "zones": _to_json(tuple(zones)),
    }


def layout_from_dict(raw: dict) -> tuple[ArrayLayout, tuple[ForbiddenZone, ...]]:
    _known(raw, ("grid", "tx", "rx", "tx_size", "rx_size", "enforced_tx", "enforced_rx", "zones"),
           "layout")
    grid_raw = _known(_require(raw, "grid", "layout"), ("d_y", "d_z", "M", "N"), "grid")
    grid = _validated(
        lambda: GridSpec(
            _number(grid_raw, "d_y", "grid"), _number(grid_raw, "d_z", "grid"),
            _integer(grid_raw, "M", "grid"), _integer(grid_raw, "N", "grid"),
        ),
        "grid",
    )
    fields = {
        "tx_positions": _coords(_require(raw, "tx", "layout"), "tx"),
        "rx_positions": _coords(_require(raw, "rx", "layout"), "rx"),
        "tx_size": _size_from(_require(raw, "tx_size", "layout"), "tx_size"),
        "rx_size": _size_from(_require(raw, "rx_size", "layout"), "rx_size"),
        "enforced_tx": _coords(raw.get("enforced_tx", []), "enforced_tx"),
        "enforced_rx": _coords(raw.get("enforced_rx", []), "enforced_rx"),
    }
    zones = _items(raw.get("zones", []), zone_from_dict, "zones")
    return _validated(lambda: ArrayLayout(grid, **fields), "layout"), zones


def _read_json(path: Path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def save_layout(layout: ArrayLayout, path: Path, zones: Sequence[ForbiddenZone] = ()) -> None:
    Path(path).write_text(json.dumps(layout_to_dict(layout, zones), indent=2) + "\n")


def load_layout(path: Path) -> tuple[ArrayLayout, tuple[ForbiddenZone, ...]]:
    return layout_from_dict(_read_json(path))


# One decoder per DesignSpec field type. Defaults live only in DesignSpec: a
# field missing from a config keeps its dataclass default.
_DECODERS = {
    str: _str,
    int: _int,
    bool: _bool,
    float: _float,
    Optional[float]: lambda raw, context: None if raw is None else _float(raw, context),
    ElementSize: _size_from,
    tuple[ForbiddenZone, ...]: lambda raw, context: _items(raw, zone_from_dict, context),
    tuple[Coord, ...]: _coords,
}
_SPEC_DECODERS = {name: _DECODERS[kind] for name, kind in typing.get_type_hints(DesignSpec).items()}


def spec_to_dict(spec: DesignSpec) -> dict:
    return {f.name: _to_json(getattr(spec, f.name)) for f in dataclasses.fields(DesignSpec)}


def _spec_fields(raw: dict, context: str) -> dict:
    """The DesignSpec fields in ``raw``, each decoded by its field type; any other key is refused."""
    fields = {}
    for name, value in _known(raw, _SPEC_DECODERS, context).items():
        where = f"{context}.{name}"
        fields[name] = _validated(lambda: _SPEC_DECODERS[name](value, where), where)
    return fields


def spec_from_dict(raw: dict) -> DesignSpec:
    for f in dataclasses.fields(DesignSpec):
        if f.default is dataclasses.MISSING:
            _require(raw, f.name, "config")
    fields = _spec_fields({k: v for k, v in raw.items() if k != "outer_loop"}, "config")
    return _validated(lambda: DesignSpec(**fields), "config")


def _outer_points(raw, spec: DesignSpec) -> Optional[list[dict]]:
    """Decoded ``outer_loop`` overrides; each must make a valid spec from ``spec``."""
    if raw is None:
        return None
    if not isinstance(raw, list):
        raise SchemaError("config: outer_loop must be a list of override objects")
    points = []
    for i, point in enumerate(raw):
        context = f"outer_loop[{i}]"
        fields = _spec_fields(point, context)
        if "seed" in fields:  # point i runs with seed ^ i
            raise SchemaError(f"{context}: cannot set 'seed'")
        _validated(lambda: dataclasses.replace(spec, **fields), context)
        points.append(fields)
    return points


def load_design_config(path: Path) -> tuple[DesignSpec, Optional[list[dict]], dict]:
    """Read a design config: its spec, decoded outer-loop points (or None) and raw object."""
    raw = _read_json(path)
    spec = spec_from_dict(raw)
    return spec, _outer_points(raw.get("outer_loop"), spec), raw


def spec_hash(raw_config: dict) -> str:
    """Stable digest of a canonicalized (sorted keys, compact) config object."""
    canonical = json.dumps(raw_config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_pattern_csv(pattern: Pattern, path: Path) -> None:
    """Pattern lattice as CSV: u,v,re,im,mag_db row-major over v then u.

    mag_db is relative to the pattern maximum and floored at -120 dB, also
    where the ratio to the maximum underflows to 0. The file is written one v
    row at a time, so the writer's memory does not grow with the lattice.

    Each row is one ``%`` format: a template with the u texts baked in,
    joined around the row's v text, filled from a (n_u, 3) buffer of re, im
    and mag_db. mag_db takes ``math.log10`` per element: ``np.log10`` differs
    from it in the last bit on some rows, which would change the bytes. A
    ratio of 0 (or NaN) becomes the smallest subnormal, whose level the floor
    maps to -120 dB; ``20.0 *`` and the floor are the same IEEE operations in
    numpy as on Python floats.
    """
    mag = pattern.magnitude
    peak = float(mag.max())
    u_texts = [f"{u:.17g}" for u in pattern.grid.u_samples.tolist()]
    # Row template pieces: "u0," | ",%.17g,%.17g,%.17g\nu1," | ... | ",%.17g,%.17g,%.17g\n".
    nodes = ",%.17g,%.17g,%.17g\n"
    pieces = [f"{u_texts[0]},", *(f"{nodes}{u}," for u in u_texts[1:]), nodes]
    row = np.empty((len(u_texts), 3))
    with Path(path).open("w") as f:
        f.write("u,v,re,im,mag_db\n")
        for v, values, mags in zip(pattern.grid.v_samples.tolist(), pattern.values, mag):
            row[:, 0] = values.real
            row[:, 1] = values.imag
            ratios = np.fmax(mags / peak, _TINY) if peak > 0 else np.full(mags.size, _TINY)
            row[:, 2] = np.maximum(20.0 * np.fromiter(map(math.log10, ratios.tolist()), float), DB_FLOOR)
            f.write(f"{v:.17g}".join(pieces) % tuple(row.ravel().tolist()))


def write_metrics_json(report: MetricsReport, path: Path) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), indent=2) + "\n")


def write_trace_jsonl(trace: OptimizerTrace, path: Path, seed: int, k_max: int) -> None:
    """Trace as JSON lines: a meta line, one line per iteration, and a summary line."""
    meta = {"type": "meta", "seed": seed, "k_max": k_max, "initial_pslr_db": trace.initial_pslr_db}
    iterations = [{"type": "iteration", **dataclasses.asdict(r)} for r in trace.records]
    summary = {
        "type": "summary",
        "termination": trace.termination,
        "final_pslr_db": trace.final_pslr_db,
        "improvements": trace.improvements,
        "iterations": len(trace.records),
    }
    lines = [json.dumps(line) for line in [meta, *iterations, summary]]
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class TraceSummary:
    """Validated digest of a trace file, as shown by the report command."""

    iterations: int
    termination: str
    initial_pslr_db: float
    final_pslr_db: float
    improvements: int


def read_trace_summary(path: Path) -> TraceSummary:
    """Parse and validate a trace JSONL file.

    Checks the meta/iterations/summary structure, the 1..n iteration indexing,
    the nondecreasing best-PSLR sequence, and the summary counters.
    """
    records = []
    for ln, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: line {ln}: {exc.msg}") from exc
        if not isinstance(record, dict):
            raise SchemaError(f"{path}: line {ln}: expected an object, got {type(record).__name__}")
        records.append(record)
    if len(records) < 2 or records[0].get("type") != "meta" or records[-1].get("type") != "summary":
        raise SchemaError(f"{path}: truncated trace (missing meta or summary line)")
    meta, summary = records[0], records[-1]
    iterations = records[1:-1]
    best_prev = -math.inf
    improvements = 0
    for i, rec in enumerate(iterations, start=1):
        context = f"{path}: iteration {i}"
        if rec.get("type") != "iteration" or _integer(rec, "k", context) != i:
            raise SchemaError(f"{path}: iteration line {i} is out of sequence")
        best = _number(rec, "best_pslr_db", context)
        if best < best_prev - 1e-12:
            raise SchemaError(f"{path}: best PSLR decreases at iteration {i}")
        if _bool(_require(rec, "accepted", context), f"{context}.accepted"):
            improvements += 1
        best_prev = best
    context = f"{path}: summary"
    if _integer(summary, "iterations", context) != len(iterations):
        raise SchemaError(f"{path}: summary iteration count does not match the records")
    if _integer(summary, "improvements", context) != improvements:
        raise SchemaError(f"{path}: summary improvement count does not match the records")
    final = _number(summary, "final_pslr_db", context)
    initial = _number(meta, "initial_pslr_db", f"{path}: meta")
    if iterations and abs(final - best_prev) > 1e-12:
        raise SchemaError(f"{path}: summary final PSLR does not match the last record")
    termination = _require(summary, "termination", context)
    if termination not in TERMINATIONS:
        raise SchemaError(f"{context}.termination: expected one of {', '.join(TERMINATIONS)}, "
                          f"got {termination!r}")
    return TraceSummary(
        iterations=len(iterations),
        termination=termination,
        initial_pslr_db=initial,
        final_pslr_db=final,
        improvements=improvements,
    )


def write_manifest(
    path: Path,
    tool_version: str,
    config_digest: str,
    seed: int,
    started_at: str,
    finished_at: str,
    outputs: Sequence[str],
) -> None:
    manifest = {
        "tool_version": tool_version,
        "spec_hash": config_digest,
        "seed": seed,
        "started_at": started_at,
        "finished_at": finished_at,
        "outputs": list(outputs),
    }
    Path(path).write_text(json.dumps(manifest, indent=2) + "\n")
