"""File formats: layout/design JSON, pattern CSV, trace JSONL, run manifests.

JSON numbers are written with Python's shortest round-trip repr and the CSV
with 17 significant digits, so any value read back compares exactly. No
reader mutates its input file.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .beamforming import Pattern
from .geometry import BOTH_EXCLUDED, ArrayLayout, Coord, ElementSize, ForbiddenZone, GridSpec
from .metrics import MetricsReport
from .optimizer import BUDGET, TERMINATIONS, DesignSpec, IterationRecord, OptimizerTrace

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
    import hashlib  # here, not at the top: it loads OpenSSL, about 3.5 MB that only a digest needs

    canonical = json.dumps(raw_config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ``'%.17g' % x`` in numpy arithmetic. Where 1e-4 <= |x| < 1e16, '%.17g' prints
# fixed notation: the 17 significant digits of |x|, rounded half to even as
# CPython's dtoa rounds, with the point after digit E = floor(log10 |x|) (or
# "0." and -E-1 zeros before them when E < 0), trailing zeros of the fraction
# dropped, and the point too when no fraction is left. A field holds one
# number in 32 bytes: byte 0 the sign, bytes 1-5 the "0." and zeros, bytes
# 7-23 the digits, and one byte more once the point is put in; every byte in
# between is NUL. The longest '%.17g' text of all has 24 bytes.
#
# The first call of a numpy loop in a process maps its machine code, 64 KB at
# a time, and that counts in the peak RSS. Of the loops here, only int64 ``&``
# and uint8 arithmetic do not already run while a pattern is scored; that is
# why E comes from the binary exponent and not from ``np.log10``.
_FIELD = 32
_FIRST_DIGIT = 7
_POW10 = np.array([float(10**k) for k in range(22)])  # every one an exact double
# [i]: the double nearest 10**(i - 5).
_TENS = np.array([1 / 10**-k for k in range(-5, 0)] + [float(10**k) for k in range(18)])
_LOG10_2 = math.log10(2.0)
_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two 26-bit halves
_ASCII_ZEROS = int.from_bytes(b"0" * 8, "little")
# [k]: the first k bytes of "0.000", as bytes 1-5 of a field's first int64.
_LEADING = np.array([int.from_bytes(b"\0" + b"0.000"[:k], "little") for k in range(7)])
# Row m: 1 for the bytes before digit m, 0 from there on.
_BEFORE_DIGIT = (np.arange(_FIELD) < _FIRST_DIGIT + np.arange(18)[:, None]).astype(np.uint8)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLITTER * a
    high = c - (c - a)
    return high, a - high


def _rounded_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b`` rounded to an integer, half to even, where the product lies in [2**53, 2**63).

    Dekker's two-product gives ``a * b = p + e`` exactly, without an FMA. p is
    then an even integer, so rounding e half to even rounds p + e half to even.
    """
    p = a * b
    a_high, a_low = _split(a)
    b_high, b_low = _split(b)
    e = ((a_high * b_high - p) + a_high * b_low + a_low * b_high) + a_low * b_low
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _eight_digits(x: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each int64 ``x < 10**8``, one per byte, the first in the lowest.

    Each step splits every lane of the word in two with a multiply and a shift
    that divide exactly in the lane's range: 4-digit halves in 32-bit lanes,
    then 2-digit quarters in 16-bit lanes, then digits in bytes. Lanes never
    carry into each other, so ``+`` joins them.
    """
    half = (((x * 42949673) >> 32) * 42949673) >> 32  # x // 10**4: each step is // 100 below 2**30
    x = half + ((x - half * 10000) << 32)
    quarter = ((x * 10486) >> 20) & 0x0000007F0000007F  # // 100 below 43690
    x = quarter + ((x - quarter * 100) << 16)
    tens = ((x * 103) >> 10) & 0x000F000F000F000F  # // 10 below 170
    return tens + ((x - tens * 10) << 8)


def _highest_byte(words: np.ndarray) -> np.ndarray:
    """Index of the highest nonzero byte of each int64 whose bytes are all 0-9.

    It comes from the exponent of the int64 as a double, and is below -100
    for 0. Rounding to a double cannot reach the next power of 2, because no
    byte is above 9.
    """
    return ((words.astype(float).view(np.int64) >> 52) - 1023) >> 3


def _g17_fields(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` for every v of the 1-D float64 array ``x``, as ASCII rows.

    Row i of the (x.size, 32) uint8 result holds the text of ``x[i]`` with NUL
    bytes in its gaps; ``bytes.translate(None, b"\\0")`` removes them.

    Where 1e-4 <= |v| < 1e16 the 17 digits are ``|v| * 10**(16 - E)`` rounded
    to an integer, exactly (``_rounded_product``). Zero, subnormals, inf, nan
    and every other |v| are formatted by Python's ``'%.17g' %``.

    E is exact: B log10 2 is never within rounding of an integer for these
    binary exponents B, and each power of ten that E is compared with,
    1e-4 to 1e16, is a double or (below 1) rounds up to one, so no double
    lies between the power and its entry in ``_TENS``. The integer then has
    17 digits: no double in the range rounds up to a power of ten.
    """
    n = x.size
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16)
    a[~fast] = 1.0
    # E from the binary exponent B of a: floor(B log10 2) is E or E - 1.
    binary = (a.view(np.int64) >> 52) - 1023
    exponent = np.floor(binary * _LOG10_2).astype(np.int64)
    exponent += a >= _TENS[exponent + 6]
    count = _rounded_product(a, _POW10[16 - exponent])

    lead, rest = np.divmod(count, 10**16)
    halves = np.empty((n, 2), np.int64)
    np.divmod(rest, 10**8, out=(halves[:, 0], halves[:, 1]))
    words = _eight_digits(halves)
    last = _highest_byte(words)
    end = np.maximum(np.maximum(last[:, 1] + 10, last[:, 0] + 2), 1)  # 1 + the last nonzero digit
    point_at = np.maximum(exponent + 1, 0)  # the digits before the point; 0 when E < 0

    fields = np.empty((n, _FIELD // 8), np.int64)
    fields[:, 0] = (x < 0) * ord("-") + _LEADING[(1 - exponent) * (exponent < 0)]
    fields[:, 0] += (lead + ord("0")) << 56
    fields[:, 1:3] = words + _ASCII_ZEROS
    fields[:, 3] = 0
    out = fields.view(np.uint8)
    out *= np.take(_BEFORE_DIGIT, np.maximum(point_at, end), axis=0)  # the fraction's trailing zeros
    stay = np.take(_BEFORE_DIGIT, point_at, axis=0)
    moved = out * (np.uint8(1) - stay)
    out *= stay
    out.reshape(-1)[1:] += moved.reshape(-1)[:-1]  # the digits after the point, one byte on
    point = ((exponent >= 0) & (end > point_at)) * ord(".")
    out.reshape(-1)[np.arange(_FIRST_DIGIT, n * _FIELD, _FIELD) + point_at] = point

    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = ["%.17g" % v for v in x[slow].tolist()]
        out[slow] = np.array(texts, dtype=f"S{_FIELD}").view(np.uint8).reshape(-1, _FIELD)
    return out


def write_pattern_csv(pattern: Pattern, path: Path) -> None:
    """Pattern lattice as CSV: u,v,re,im,mag_db row-major over v then u.

    mag_db is relative to the pattern maximum and floored at -120 dB, also
    where the ratio to the maximum underflows to 0. The file is written one v
    row at a time, so the writer's memory does not grow with the lattice.

    Every number is ``'%.17g' % x``, formatted by ``_g17_fields`` in numpy.
    A row is a (n_u, 5, 33) byte buffer: five 32-byte fields (u, v, re, im,
    mag_db), each followed by its comma or newline, with NUL bytes in the
    gaps that one ``bytes.translate`` per row removes. The u fields are
    formatted once. mag_db takes ``math.log10`` per element: ``np.log10``
    differs from it in the last bit on some rows, which would change the
    bytes. A ratio of 0 (or NaN) becomes the smallest subnormal, whose level
    the floor maps to -120 dB; ``20.0 *`` and the floor are the same IEEE
    operations in numpy as on Python floats.
    """
    mag = pattern.magnitude
    peak = float(mag.max())
    n_u = mag.shape[1]
    v_texts = _g17_fields(pattern.grid.v_samples)
    line = np.empty((n_u, 5, _FIELD + 1), np.uint8)
    line[:, :, _FIELD] = np.frombuffer(b",,,,\n", np.uint8)
    line[:, 0, :_FIELD] = _g17_fields(pattern.grid.u_samples)
    with Path(path).open("wb") as f:
        f.write(b"u,v,re,im,mag_db\n")
        for v_text, values, mags in zip(v_texts, pattern.values, mag):
            ratios = np.fmax(mags / peak, _TINY) if peak > 0 else np.full(mags.size, _TINY)
            db = np.maximum(20.0 * np.fromiter(map(math.log10, ratios.tolist()), float), DB_FLOOR)
            fields = _g17_fields(np.concatenate((values.real, values.imag, db)))
            line[:, 1, :_FIELD] = v_text
            line[:, 2:, :_FIELD] = fields.reshape(3, n_u, _FIELD).transpose(1, 0, 2)
            f.write(line.tobytes().translate(None, b"\0"))


def write_metrics_json(report: MetricsReport, path: Path) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), indent=2) + "\n")


def _summary(trace: OptimizerTrace) -> dict:
    """The summary line of ``trace``: what the writer writes and the reader expects."""
    return {
        "type": "summary",
        "termination": trace.termination,
        "final_pslr_db": trace.final_pslr_db,
        "improvements": trace.improvements,
        "iterations": len(trace.records),
    }


def write_trace_jsonl(trace: OptimizerTrace, path: Path, seed: int, k_max: int) -> None:
    """Trace as JSON lines: a meta line, one line per iteration, and a summary line."""
    meta = {"type": "meta", "seed": seed, "k_max": k_max, "initial_pslr_db": trace.initial_pslr_db}
    iterations = [{"type": "iteration", **dataclasses.asdict(r)} for r in trace.records]
    lines = [json.dumps(line) for line in [meta, *iterations, _summary(trace)]]
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace(path: Path) -> OptimizerTrace:
    """Parse a trace JSONL file and check it is one the search can write.

    Checks the meta/iterations/summary structure and the 1..n iteration
    indexing. From the meta line's initial PSLR on, every iteration line must
    be ``IterationRecord.scored`` of its candidate PSLR and the best before
    it: a candidate is accepted only on a strict PSLR increase, and then its
    PSLR becomes the best. The summary must equal the one the writer makes of
    these records, exactly: JSON numbers read back as the floats written. A
    search runs at most the meta line's ``k_max`` iterations, at least 1, and
    stops on its budget only after exactly that many.
    """
    lines = []
    for ln, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: line {ln}: {exc.msg}") from exc
        if not isinstance(record, dict):
            raise SchemaError(f"{path}: line {ln}: expected an object, got {type(record).__name__}")
        lines.append(record)
    if len(lines) < 2 or lines[0].get("type") != "meta" or lines[-1].get("type") != "summary":
        raise SchemaError(f"{path}: truncated trace (missing meta or summary line)")
    meta, summary = lines[0], lines[-1]
    initial = best = _number(meta, "initial_pslr_db", f"{path}: meta")
    records = []
    for i, rec in enumerate(lines[1:-1], start=1):
        context = f"{path}: iteration {i}"
        if rec.get("type") != "iteration" or _integer(rec, "k", context) != i:
            raise SchemaError(f"{path}: iteration line {i} is out of sequence")
        record = IterationRecord(
            i, _number(rec, "candidate_pslr_db", context), _number(rec, "best_pslr_db", context),
            _bool(_require(rec, "accepted", context), f"{context}.accepted"),
        )
        if record.best_pslr_db < best:
            raise SchemaError(f"{path}: best PSLR decreases at iteration {i}")
        if record != IterationRecord.scored(i, record.candidate_pslr_db, best):
            raise SchemaError(f"{path}: iteration {i} breaks the acceptance rule: a candidate is accepted, "
                              f"and its PSLR becomes the best, exactly when it exceeds the best before it")
        records.append(record)
        best = record.best_pslr_db
    context = f"{path}: summary"
    termination = _require(summary, "termination", context)
    if termination not in TERMINATIONS:
        raise SchemaError(f"{context}.termination: expected one of {', '.join(TERMINATIONS)}, "
                          f"got {termination!r}")
    trace = OptimizerTrace(records=tuple(records), initial_pslr_db=initial, termination=termination)
    written = {"type": "summary", "termination": termination,
               "final_pslr_db": _number(summary, "final_pslr_db", context),
               "improvements": _integer(summary, "improvements", context),
               "iterations": _integer(summary, "iterations", context)}
    for key, value in _summary(trace).items():
        if written[key] != value:
            raise SchemaError(f"{context}.{key}: {written[key]!r} does not match the records' {value!r}")
    k_max = _integer(meta, "k_max", f"{path}: meta")
    if k_max < 1 or len(records) > k_max or (termination == BUDGET and len(records) != k_max):
        raise SchemaError(f"{path}: {len(records)} iterations ending in {termination!r} do not fit "
                          f"the meta line's k_max {k_max}: a search stops on its budget after exactly k_max")
    return trace


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
