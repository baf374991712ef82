"""Layer spans for traced benchmark runs, recorded from outside the package.

Run as a script, this is a traced ``saf`` command::

    python3 perfbench/tracing.py SPANS.json RUN_ID -- design --config ... --out ...

It wraps the public functions of ``saf.geometry``, ``saf.beamforming``,
``saf.metrics``, ``saf.optimizer`` and ``saf.io`` at the module attribute
where each caller looks them up (``saf.optimizer.beamform`` and
``saf.metrics.beamform`` are two bindings of one layer), runs
``saf.cli.main`` inside a root span, and writes the spans held in memory to
SPANS.json when the command ends. Spans are [layer, start, end, parent];
parent is the index of the enclosing span or -1.

Imported, it turns a spans file into per-layer calls, total and self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute) bindings to wrap. The layer name comes from the
# wrapped function's own module, so both bindings of pslr count as one.
BINDINGS = {
    "saf.cli": ("optimize", "evaluate_layout", "load_design_config", "load_layout", "save_layout",
                "write_trace_jsonl", "write_metrics_json", "write_pattern_csv", "write_manifest"),
    "saf.optimizer": ("propose_candidate", "build_virtual_array", "synthesize_snapshot", "beamform",
                      "pslr", "check_overlap", "check_forbidden_zones"),
    "saf.metrics": ("build_virtual_array", "synthesize_snapshot", "beamform", "pslr", "find_peak",
                    "mask_main_lobe", "measured_hpbw"),
}
ROOT = "cli.main"


class Recorder:
    """Spans and per-layer counters of one traced command, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, fn, observe=None):
        layer = f"{fn.__module__.removeprefix('saf.')}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([layer, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index][2] = time.perf_counter()
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps({"run_id": self.run_id, "spans": self.spans, "counts": self.counts}))


def _observe_beamform(counts, args, kwargs, pattern):
    p = pattern.vrx.unique_count
    n_v, n_u = pattern.values.shape
    counts["beamforming.beamform.phasor_exps"] += p * (n_u + n_v)
    counts["beamforming.beamform.matmul_flops"] += 8 * p * n_u * n_v


def _observe_mask(counts, args, kwargs, lobe):
    counts["metrics.mask_main_lobe.lobe_nodes"] += int(lobe.mask.sum())
    counts["metrics.mask_main_lobe.grid_nodes"] += lobe.mask.size


def _observe_csv(counts, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts["io.write_pattern_csv.bytes"] += os.path.getsize(path)


OBSERVERS = {
    "beamform": _observe_beamform,
    "mask_main_lobe": _observe_mask,
    "write_pattern_csv": _observe_csv,
}


def install(recorder: Recorder) -> None:
    for module_name, names in BINDINGS.items():
        module = importlib.import_module(module_name)
        for name in names:
            setattr(module, name, recorder.wrap(getattr(module, name), OBSERVERS.get(name)))


def layer_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per layer: calls, total_s, and self_s (total minus time covered by child spans).

    Spans of one single-threaded command nest strictly, so a child's
    interval lies inside its parent's and siblings do not overlap. No
    wrapped layer calls itself, so summing totals counts no time twice.
    """
    child_time = [0.0] * len(spans)
    for _layer, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, (layer, start, end, _parent) in enumerate(spans):
        out[layer]["calls"] += 1
        out[layer]["total_s"] += end - start
        out[layer]["self_s"] += (end - start) - child_time[i]
    return dict(out)


def nesting_errors(spans: list[list]) -> list[str]:
    """Spans that leave their parent's interval or overlap a sibling."""
    errors = []
    last_end: dict[int, float] = {}
    for i, (layer, start, end, parent) in enumerate(spans):
        if end is None or end < start:
            errors.append(f"span {i} ({layer}) never ended")
            continue
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            if start < p_start or end > p_end:
                errors.append(f"span {i} ({layer}) leaves its parent {spans[parent][0]}")
        if start < last_end.get(parent, -float("inf")):
            errors.append(f"span {i} ({layer}) overlaps its previous sibling")
        last_end[parent] = end
    return errors


def main(argv: list[str]) -> int:
    spans_path, run_id, sep, saf_args = argv[0], argv[1], argv[2], argv[3:]
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS.json RUN_ID -- SAF_ARGS...")
    import saf.cli

    recorder = Recorder(run_id)
    install(recorder)
    cli_main = recorder.wrap(saf.cli.main)
    try:
        return cli_main(saf_args)
    finally:
        recorder.dump(Path(spans_path))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
