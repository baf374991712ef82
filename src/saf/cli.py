"""Command-line front end: design, evaluate, and report subcommands.

Exit codes: 0 success, 1 I/O failure, 2 invalid or infeasible input.
The SAF_LOG environment variable sets the log level (default WARNING).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import logging
import math
import os
import shutil
import sys
import tempfile
from collections.abc import Callable
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .beamforming import Target
from .io import (
    load_design_config,
    load_layout,
    read_trace,
    save_layout,
    spec_hash,
    write_manifest,
    write_metrics_json,
    write_pattern_csv,
    write_trace_jsonl,
)
from .metrics import evaluate_layout
from .optimizer import optimize, outer_loop

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_outputs(out: Path, writers: dict[str, Callable[[Path], None]]) -> None:
    """Write every output into ``out``, or none of them.

    Each writer writes its file under a temporary directory in ``out``; once
    all have succeeded, the files are renamed into place. On a failure, the
    files already renamed are removed, so ``out`` keeps only what it held
    before, less any file this command had already replaced.
    """
    out.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".saf-", dir=out))
    placed = []
    try:
        for name, write in writers.items():
            write(staging / name)
        for name in writers:
            os.replace(staging / name, out / name)
            placed.append(out / name)
    except BaseException:
        for path in placed:
            with contextlib.suppress(OSError):
                path.unlink()
        raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _parse_target(text: str) -> Target:
    parts = text.split(",")
    if len(parts) not in (2, 3, 4):
        raise argparse.ArgumentTypeError(
            f"target must be 'u,v', 'u,v,amp' or 'u,v,re,im', got {text!r}"
        )
    u, v = float(parts[0]), float(parts[1])
    if len(parts) == 2:
        amp = 1.0 + 0.0j
    elif len(parts) == 3:
        amp = complex(float(parts[2]), 0.0)
    else:
        amp = complex(float(parts[2]), float(parts[3]))
    try:
        return Target(u, v, amp)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saf", description="Design and evaluate uniform sparse MIMO antenna arrays."
    )
    parser.add_argument("--version", action="version", version=f"saf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    design = sub.add_parser("design", help="run the layout optimizer from a design config")
    design.add_argument("--config", required=True, type=Path, help="design config JSON")
    design.add_argument("--out", required=True, type=Path, help="output directory")
    design.add_argument("--seed", type=int, default=None, help="override the config seed")
    # The CPUs this process may run on, which under taskset can be fewer than the host's.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    design.add_argument("--threads", type=_at_least_one, default=cpus)
    design.add_argument(
        "--grid-oversample", type=_at_least_one, default=None, help="override q_phi and q_theta"
    )

    evaluate = sub.add_parser("evaluate", help="beamform a layout file and score it")
    evaluate.add_argument("--layout", required=True, type=Path, help="layout JSON")
    evaluate.add_argument("--out", required=True, type=Path, help="output directory")
    evaluate.add_argument("--grid-oversample", type=_at_least_one, default=8)
    evaluate.add_argument(
        "--target",
        action="append",
        type=_parse_target,
        default=None,
        metavar="U,V[,RE[,IM]]",
        help="far-field target (repeatable); default: unit broadside",
    )

    report = sub.add_parser("report", help="summarize an optimizer trace file")
    report.add_argument("--trace", required=True, type=Path, help="trace JSONL file")
    return parser


def cmd_design(args) -> int:
    spec, outer, raw_config = load_design_config(args.config)
    overrides = {} if args.seed is None else {"seed": args.seed}
    if args.grid_oversample is not None:
        overrides.update(q_phi=args.grid_oversample, q_theta=args.grid_oversample)
    spec = dataclasses.replace(spec, **overrides)

    started = _timestamp()
    if outer:
        spec, layout, trace = outer_loop(spec, outer, threads=args.threads)
    else:
        layout, trace = optimize(spec)
    pattern, report = evaluate_layout(layout, q_phi=spec.q_phi, q_theta=spec.q_theta)

    outputs = {
        "layout.json": lambda path: save_layout(layout, path, zones=spec.zones),
        "trace.jsonl": lambda path: write_trace_jsonl(trace, path, seed=spec.seed, k_max=spec.k_max),
        "metrics.json": lambda path: write_metrics_json(report, path),
        "pattern.csv": lambda path: write_pattern_csv(pattern, path),
        "manifest.json": lambda path: write_manifest(
            path,
            tool_version=__version__,
            config_digest=spec_hash({**raw_config, **overrides}),
            seed=spec.seed,
            started_at=started,
            finished_at=_timestamp(),
            outputs=list(outputs),
        ),
    }
    _write_outputs(args.out, outputs)
    print(f"best PSLR {trace.final_pslr_db:.3f} dB after {len(trace.records)} iterations "
          f"({trace.termination}); outputs in {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    layout, _zones = load_layout(args.layout)
    q = args.grid_oversample
    pattern, report = evaluate_layout(layout, q_phi=q, q_theta=q, targets=args.target)
    _write_outputs(args.out, {
        "pattern.csv": lambda path: write_pattern_csv(pattern, path),
        "metrics.json": lambda path: write_metrics_json(report, path),
    })
    pslr_text = "inf" if report.pslr_db == math.inf else f"{report.pslr_db:.3f}"
    print(f"PSLR {pslr_text} dB; outputs in {args.out}")
    return EXIT_OK


def cmd_report(args) -> int:
    trace = read_trace(args.trace)
    print(f"iterations: {len(trace.records)}")
    print(f"termination: {trace.termination}")
    print(f"initial PSLR: {trace.initial_pslr_db:.3f} dB")
    print(f"final PSLR: {trace.final_pslr_db:.3f} dB")
    print(f"improvements: {trace.improvements}")
    return EXIT_OK


COMMANDS = {"design": cmd_design, "evaluate": cmd_evaluate, "report": cmd_report}


def _configure_logging() -> None:
    level = os.environ.get("SAF_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level), int):
        raise ValueError(f"SAF_LOG: unknown log level {level!r}")
    logging.basicConfig(level=level)


def main(argv=None) -> int:
    """Run one subcommand; the one place where a failure becomes an exit code.

    OSError is an I/O failure. Every kind of invalid input, and an infeasible
    or degenerate design, is a ValueError (SchemaError, LayoutError,
    InfeasibleSpecError, a degenerate pattern).
    """
    args = build_parser().parse_args(argv)
    try:
        _configure_logging()
        return COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, OSError) else EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
