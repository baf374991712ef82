"""Repeat the benchmark over seeds and summarise each metric's median and spread.

Usage, from the repository root::

    python3 perfbench/repeat.py --workloads design-2d design-1d evaluate-2d \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/baseline.json

    python3 perfbench/repeat.py --out perfbench/baseline_repeat.json \
        --compare perfbench/baseline.json

Runs ``run.py`` once per (workload, seed), one at a time, with the seconds
given in BENCHMARK.json. For each end-to-end metric it reports the median of
the runs and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median. With
``--compare``, it also reports how far each median moved from an earlier
set's, as a share of that median, and flags a move for the worse beyond the
metric's bound. With ``--trace 1`` it names, per run, the largest self time
among the listed per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("nan"),
            "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path, help="an earlier --out file to compare medians with")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    earlier = json.loads(args.compare.read_text()) if args.compare else {}
    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                return 1
            runs.append(result)
            line = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items() if k in bounds)
            if args.trace:
                selfs = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".self_s")}
                top = sorted(selfs, key=selfs.get, reverse=True)[:2]
                line = f"largest self time {top[0]} {selfs[top[0]]:.3f} s, next {top[1]} {selfs[top[1]]:.3f} s"
            print(f"{workload} seed {seed}: {line} ({time.perf_counter() - start:.0f} s)", flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = summarise([r["metrics"][name]["value"] for r in runs])
            metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
            bound = bounds.get(name)
            if bound is not None:
                flag = "" if name == "setup_s" or metrics[name]["spread"] < bound / 3 else "  <-- above bound/3"
                print(f"  {workload} {name}: median {metrics[name]['median']:.5g} spread "
                      f"{metrics[name]['spread']:.4f} (bound {bound}){flag}")
                before = earlier.get(workload, {}).get("metrics", {}).get(name)
                if before:
                    change = metrics[name]["median"] / before["median"] - 1.0
                    metrics[name]["change"] = change
                    worse = change if better[name] == "lower" else -change
                    flag = "  <-- worse by more than the bound" if worse > bound else ""
                    print(f"  {workload} {name}: median moved {change:+.4f} from the earlier set{flag}")
        summary[workload] = {"seeds": args.seeds, "attempted": sum(r["attempted"] for r in runs),
                             "failed": sum(r["failed"] for r in runs), "metrics": metrics}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
