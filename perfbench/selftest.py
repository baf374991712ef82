"""Self-test of the benchmark's output checks: each planted fault must be reported.

Usage, from the repository root::

    python3 perfbench/selftest.py

Runs a small ``saf evaluate`` and a small ``saf design``, confirms that the
checks accept their outputs, then confirms that they reject a pattern.csv
with one corrupted row, a layout with overlapping elements, and a trace whose
best PSLR decreases (both the benchmark's own trace check and
``saf report``). Exits 0 only if every case behaves as expected.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys

import run

# As in run.py, the launcher starts before numpy is imported.
run.start_launcher()
sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402

Q = 2
LAYOUT = {
    "grid": {"d_y": 0.5, "d_z": 0.5, "M": 8, "N": 6},
    "tx": [[0, 0], [3, 5]], "rx": [[1, 2], [5, 0], [7, 4]],
    "tx_size": {"w": 0.4, "h": 0.4}, "rx_size": {"w": 0.4, "h": 0.4},
    "enforced_tx": [], "enforced_rx": [], "zones": [],
}
SCENE = [(-0.3, 0.2, 1.0, 0.0), (0.4, -0.1, 0.5, 0.25)]
DESIGN = {
    "dimensionality": "1D", "n_tx": 3, "n_rx": 4, "target_ufov_az": 90.0,
    "target_hpbw_az": math.degrees(0.886 / 16.0005),
    "tx_size": {"w": 0.4, "h": 0.4}, "rx_size": {"w": 0.4, "h": 0.4},
    "k_max": 30, "seed": 3, "q_phi": 4, "plateau_interval": 0,
}


def expect(name: str, failures: list[str], should_fail: bool) -> bool:
    ok = bool(failures) == should_fail
    detail = failures[0] if failures else "no failure reported"
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def main() -> int:
    work = run.WORK / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rng = np.random.default_rng(0)
    results = []
    try:
        (work / "layout.json").write_text(json.dumps(LAYOUT))
        targets = [f"--target={u!r},{v!r},{re!r},{im!r}" for u, v, re, im in SCENE]
        evaluated = run.run_child(["-m", "saf.cli", "evaluate", "--layout", str(work / "layout.json"),
                                   "--out", str(work / "eval"), "--grid-oversample", str(Q)] + targets, work / "logs")
        pattern = work / "eval" / "pattern.csv"
        results.append(expect("evaluate exits 0", [] if evaluated["code"] == 0 else ["non-zero exit"], False))
        results.append(expect("evaluate's own peak RSS", ["launcher floor"] if evaluated["rss_floor"] else [], False))
        tiny = run.run_child(["-S", "-c", "pass"], work / "logs")
        results.append(expect("child below the launcher's peak RSS", ["launcher floor"] if tiny["rss_floor"] else [], True))
        results.append(expect("clean pattern.csv", checks.check_pattern(pattern, LAYOUT, SCENE, Q, rng), False))
        lines = pattern.read_text().splitlines()
        row = len(lines) // 3
        u, v, re, im, db = lines[row].split(",")
        lines[row] = ",".join([u, v, repr(float(re) + 1e-6), im, db])
        pattern.write_text("\n".join(lines) + "\n")
        results.append(expect("pattern.csv with one corrupted row", checks.check_pattern(pattern, LAYOUT, SCENE, Q, rng), True))

        crowded = dict(LAYOUT, tx_size={"w": 2.0, "h": 2.0})
        config = {"n_tx": 2, "n_rx": 3, "zones": [], "enforced_tx": [], "enforced_rx": []}
        results.append(expect("clean layout", checks.check_layout(LAYOUT, config), False))
        results.append(expect("layout with overlapping elements", checks.check_layout(crowded, config), True))

        (work / "design.json").write_text(json.dumps(DESIGN))
        designed = run.run_child(["-m", "saf.cli", "design", "--config", str(work / "design.json"),
                                  "--out", str(work / "design"), "--threads", "1"], work / "logs")
        trace = work / "design" / "trace.jsonl"
        results.append(expect("design exits 0", [] if designed["code"] == 0 else ["non-zero exit"], False))
        results.append(expect("clean trace", checks.check_trace(trace, DESIGN["k_max"])[0], False))
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        records[10]["best_pslr_db"] = records[9]["best_pslr_db"] - 1.0
        trace.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        results.append(expect("trace whose best PSLR decreases", checks.check_trace(trace, DESIGN["k_max"])[0], True))
        report = run.run_child(["-m", "saf.cli", "report", "--trace", str(trace)], work / "logs")
        results.append(expect("saf report on that trace", ["rejected"] if report["code"] != 0 else [], True))
    finally:
        run.stop_launcher()
        shutil.rmtree(work, ignore_errors=True)
    print("selftest:", "ok" if all(results) else "FAILED")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
