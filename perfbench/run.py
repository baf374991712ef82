"""saf benchmark: end-to-end `saf` commands, output checks, and a traced per-layer run.

Usage, from the repository root::

    python3 perfbench/run.py --workload design-2d --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

Each workload (see ``inputs.py`` for why each was chosen) is a closed loop of
one client: the next ``saf`` child process starts only after the previous one
ended and its outputs were checked. Commands start while the run's timed
children (commands and ``saf --version`` samples) have taken less than
``--seconds`` in all, and at least until every distinct input ran twice,
so every run checks determinism on each input.
Checks run between children and count neither toward ``--seconds`` nor in
any timed figure, so a workload whose checks are slow still gets its full
measuring time.

``--trace 0`` reports:

- ``wall_s``: wall time of one ``saf`` child process, including interpreter
  start and writing the output files: for each distinct input the fastest of
  its commands, averaged over the inputs;
- ``cpu_s``: user + system CPU time of that child, OpenBLAS threads
  included, taken the same way;
- ``peak_rss_mb``: the child's maximum resident set size, median. Children
  are started by a lean launcher (``spawner.py``), so the figure is the
  child's own and not the harness's; a child whose figure equals the
  launcher's own peak counts as failed;
- ``setup_s``: wall time of a ``saf --version`` child (interpreter start,
  importing saf and numpy, building the parser), fastest of several spread
  over the run.

Times are minima because on a shared host the speed of the same work drifts
by a third over seconds to minutes: a fixed 20 ms pure-Python loop on a
2-vCPU KVM guest had a median of 19 to 32 ms in 20-second bins over ten
minutes, while the bins' minima stayed within 16 to 22 ms. Identical
``saf evaluate`` commands at q=8, seconds apart, took 3.3 to 6.0 s. The
fastest of repeated identical commands follows the program; the median
follows the neighbours. Short commands, many to a run, give the minimum more
chances to land in a quiet spell. Slow spells that last minutes still move
it: from one run to the next, the same workload's figures moved by up to a
quarter. Medians and sample counts are printed as well.

``--trace 1`` alternates untraced and traced commands and reports per-layer
figures as means per traced command (see ``tracing.py``), plus the tracing
overhead: fastest traced minus fastest untraced command. A per-layer metric
that BENCHMARK.json lists but the spans lack fails the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a failed command is
one that exits non-zero or whose outputs fail a check. The lines before it
give the environment, the output digests and every layer's figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPS = 5
# Set-up samples after each command: about 0.2 s each, so a run takes a few
# dozen and its fastest is steadier from seed to seed.
SETUP_AFTER = 2
# Every run times each distinct input at least this many times, so that
# each input's fastest command has more than one to choose from and each is
# checked for determinism.
MIN_REPEATS = 2
# BENCHMARK.json lists design-2d and evaluate-2d only: three workloads at
# windows long enough to be steady on a shared host do not fit the time the
# benchmark's runs may take. design-1d, the beamform-bound one, runs by hand.
WORKLOADS = ("design-2d", "design-1d", "evaluate-2d")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """The lean process that starts every child (see ``spawner.py``).

    Start it before importing numpy, so that its own peak RSS, which every
    child's peak RSS includes, stays a few MB.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)

    def run(self, argv: list[str], log_dir: Path) -> dict:
        request = {"argv": [sys.executable] + argv,
                   "stdout": str(log_dir / "stdout.txt"), "stderr": str(log_dir / "stderr.txt")}
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
            reply = self.proc.stdout.readline()
        except BaseException:
            # Interrupted mid-command: the launcher kills the child on SIGTERM.
            self.proc.terminate()
            self.proc.wait()
            raise
        if not reply:
            raise RuntimeError(f"the launcher exited with code {self.proc.wait()}")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


_launcher: Launcher | None = None


def start_launcher() -> None:
    global _launcher
    if _launcher is None:
        _launcher = Launcher()


def stop_launcher() -> None:
    """End the launcher, unless an interrupted command already did."""
    if _launcher is not None and _launcher.proc.poll() is None:
        _launcher.close()


def run_child(argv: list[str], log_dir: Path) -> dict:
    """Run one ``python3 ARGV`` child; return its exit code, wall, CPU and peak RSS.

    A child whose peak RSS equals the launcher's own got the launcher's
    floor, not a figure of its own, and is flagged in ``rss_floor``.
    """
    log_dir.mkdir(parents=True, exist_ok=True)
    start_launcher()
    result = _launcher.run(argv, log_dir)
    result["rss_floor"] = result.pop("own_peak_rss_mb") >= result["peak_rss_mb"]
    return result


def environment() -> dict:
    """Interpreter, numpy/BLAS and CPU facts, read from numpy, lscpu and /proc only."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    maps = Path("/proc/self/maps").read_text() if Path("/proc/self/maps").exists() else ""
    for lib in sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    cpu = {}
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "CPU(s)", "L1d cache", "L2 cache", "L3 cache"):
            cpu[key.strip()] = value.strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


class Workload:
    """One closed-loop run: inputs from the seed, commands, checks, digests."""

    def __init__(self, name: str, seed: int, work: Path):
        import inputs

        self.name, self.seed, self.work = name, seed, work
        self.jobs = inputs.write_inputs(name, seed, work / "inputs")
        self.first_digests: dict[int, dict[str, str]] = {}
        self.setup: list[dict] = []
        self.count = 0

    def command(self, index: int, traced: bool = False) -> dict:
        """Run job ``index % len(jobs)``, check its outputs, and delete them."""
        job_id = index % len(self.jobs)
        job = self.jobs[job_id]
        out = self.work / f"cmd{self.count}"
        self.count += 1
        saf_argv = [a.replace("{out}", str(out / "saf")) for a in job["args"]]
        if traced:
            argv = [str(HERE / "tracing.py"), str(out / "spans.json"), f"{self.name}-{self.seed}-{index}", "--"] + saf_argv
        else:
            argv = ["-m", "saf.cli"] + saf_argv
        result = run_child(argv, out)
        result["job"], result["traced"] = job_id, traced
        result["failures"] = self.check(job_id, job, out, result["code"])
        if result["rss_floor"]:
            result["failures"].append(f"peak RSS {result['peak_rss_mb']:.2f} MB is the launcher's own, not the child's")
        if traced and not result["failures"]:
            result["spans"] = json.loads((out / "spans.json").read_text())
        if job["kind"] == "design" and not result["failures"]:
            summary = json.loads((out / "saf" / "trace.jsonl").read_text().splitlines()[-1])
            result["acceptance"] = (summary["improvements"], summary["iterations"])
        shutil.rmtree(out)
        return result

    def check(self, job_id: int, job: dict, out: Path, code: int) -> list[str]:
        import numpy as np

        import checks

        saf_out = out / "saf"
        if code != 0:
            tail = (out / "stderr.txt").read_text(errors="replace")[-500:]
            return [f"exit code {code}: {tail}"]
        if job["kind"] == "design":
            try:
                names = json.loads((saf_out / "manifest.json").read_text())["outputs"]
            except (OSError, ValueError, KeyError) as exc:
                return [f"manifest.json: unreadable ({exc})"]
            stable = ["layout.json", "trace.jsonl", "metrics.json", "pattern.csv"]
        else:
            names = stable = ["pattern.csv", "metrics.json"]
        missing = [n for n in names if not (saf_out / n).is_file()]
        if missing:
            return [f"missing outputs {missing}"]
        digests = {n: checks.sha256(saf_out / n) for n in stable}
        first = self.first_digests.get(job_id)
        if first is not None:
            # A repeat of the same inputs: the search must retrace its steps
            # exactly; files that match the checked first run need no re-check.
            changed = [n for n in stable if digests[n] != first[n]]
            if "layout.json" in changed or "trace.jsonl" in changed:
                return [f"not deterministic: {changed} differ from the first run of these inputs"]
            if not changed:
                return []
        rng = np.random.default_rng([self.seed, job_id, self.count])
        if job["kind"] == "design":
            config = job["config"]
            layout = json.loads((saf_out / "layout.json").read_text())
            failures = checks.check_layout(layout, config)
            trace_failures, summary = checks.check_trace(saf_out / "trace.jsonl", config["k_max"])
            failures += trace_failures
            report = run_child(["-m", "saf.cli", "report", "--trace", str(saf_out / "trace.jsonl")], out / "report")
            if report["code"] != 0:
                failures.append(f"saf report rejects the trace (exit {report['code']})")
            if summary:
                failures += checks.check_design_metrics(saf_out / "metrics.json", summary["final_pslr_db"])
            if not failures:
                failures += checks.check_pattern(saf_out / "pattern.csv", layout, [(0.0, 0.0, 1.0, 0.0)], job["q"], rng)
        else:
            failures = checks.check_pattern(saf_out / "pattern.csv", job["layout"], job["scene"], job["q"], rng)
        if first is None and not failures:
            self.first_digests[job_id] = digests
        return failures


def median(values):
    return statistics.median(values) if values else float("nan")


def timed(children: list[dict]) -> float:
    """Wall time spent in these children, the time a run counts toward ``--seconds``."""
    return sum(c["wall_s"] for c in children)


def run_untraced(load: Workload, seconds: float) -> tuple[list[dict], dict, str]:
    def measure_setup():
        load.setup.append(run_child(["-m", "saf.cli", "--version"], load.work / f"setup{len(load.setup)}"))

    setup, results = load.setup, []
    # Set-up samples at the start and after every command spread them over
    # the run, so a slow spell of a shared machine does not decide setup_s.
    for _ in range(SETUP_REPS):
        measure_setup()
    while len(results) < MIN_REPEATS * len(load.jobs) or timed(results + setup) < seconds:
        results.append(load.command(len(results)))
        for _ in range(SETUP_AFTER):
            measure_setup()
    if any(s["code"] != 0 for s in setup):
        results.append({"failures": ["saf --version failed"]})
    ok = [r for r in results if not r["failures"]]
    setup_walls = [s["wall_s"] for s in setup if s["code"] == 0]
    if not ok or not setup_walls:
        return results, {}, ""
    by_job: dict[int, list[dict]] = {}
    for r in ok:
        by_job.setdefault(r["job"], []).append(r)

    def fastest(key: str) -> float:
        return statistics.fmean(min(r[key] for r in runs) for runs in by_job.values())

    metrics = {
        "wall_s": {"value": fastest("wall_s"), "unit": "s"},
        "cpu_s": {"value": fastest("cpu_s"), "unit": "s"},
        "peak_rss_mb": {"value": median([r["peak_rss_mb"] for r in ok]), "unit": "MB"},
        "setup_s": {"value": min(setup_walls), "unit": "s"},
    }
    medians = (f"medians: wall_s {median([r['wall_s'] for r in ok]):.4f} s and cpu_s "
               f"{median([r['cpu_s'] for r in ok]):.4f} s over {len(ok)} commands; "
               f"setup_s {median(setup_walls):.4f} s over {len(setup_walls)}")
    return results, metrics, medians


def layer_report(traced: list[dict], untraced: list[dict]) -> tuple[dict, dict, list[str]]:
    """Per-layer figures per traced command (means), the full table, and errors.

    Self times plus the time outside ``cli.main`` equal the traced wall time
    by construction (every span's time is its own or its parent's), so the
    check that spans nest strictly is the one that can fail.
    """
    import tracing

    per_command, errors = [], []
    for r in traced:
        spans = r["spans"]["spans"]
        errors += tracing.nesting_errors(spans)
        layers = tracing.layer_times(spans)
        counts = r["spans"]["counts"]
        figures = {}
        for layer, entry in layers.items():
            for key, value in entry.items():
                figures[f"{layer}.{key}"] = value
        figures.update(counts)
        figures["trace.self_sum_s"] = sum(entry["self_s"] for entry in layers.values())
        figures["cli.outside_main_s"] = r["wall_s"] - layers[tracing.ROOT]["total_s"]
        figures["trace.wall_s"] = r["wall_s"]
        csv_self = layers.get("io.write_pattern_csv", {}).get("self_s", 0.0)
        if csv_self > 0:
            figures["io.write_pattern_csv.mb_per_s"] = counts.get("io.write_pattern_csv.bytes", 0) / 1e6 / csv_self
        if counts.get("metrics.mask_main_lobe.grid_nodes"):
            figures["metrics.mask_main_lobe.lobe_share"] = (
                100.0 * counts["metrics.mask_main_lobe.lobe_nodes"] / counts["metrics.mask_main_lobe.grid_nodes"]
            )
        if "acceptance" in r:
            accepted, iterations = r["acceptance"]
            figures["optimizer.acceptance_share"] = 100.0 * accepted / iterations
        per_command.append(figures)
    names = sorted({name for figures in per_command for name in figures})
    # Means, not medians, so that self times and the time outside cli.main
    # still add up to the traced wall time.
    table = {name: statistics.fmean([f.get(name, 0.0) for f in per_command]) for name in names}
    # Fastest traced against fastest untraced command, as wall_s is taken.
    if untraced:
        table["trace.overhead_s"] = min(r["wall_s"] for r in traced) - min(u["wall_s"] for u in untraced)

    def unit(name):
        if name.endswith(".mb_per_s"):
            return "MB/s"
        if name.endswith("_s"):
            return "s"
        if name.endswith("_share"):
            return "%"
        if name.endswith(".bytes"):
            return "B"
        return "count"

    # BENCHMARK.json lists only figures that every workload measures. One
    # that is missing here means a layer was renamed or no longer runs: that
    # is an error, not a time of 0 s.
    listed = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    missing = [name for name in listed if name not in table]
    if missing:
        errors.append(f"per-layer metrics not measured: {missing}")
    return (
        {name: {"value": table[name], "unit": unit(name)} for name in listed if name in table},
        {name: {"value": value, "unit": unit(name)} for name, value in table.items()},
        errors,
    )


def run_traced(load: Workload, seconds: float) -> tuple[list[dict], dict, dict]:
    untraced, traced = [], []
    index = 0
    while index < len(load.jobs) or timed(untraced + traced) < seconds:
        # Alternate which of the pair runs first, so order effects cancel in the overhead.
        for traced_now in (index % 2 == 1, index % 2 == 0):
            (traced if traced_now else untraced).append(load.command(index, traced=traced_now))
        index += 1
    results = untraced + traced
    good = [r for r in traced if not r["failures"]]
    if not good:
        return results, {}, {}
    metrics, table, errors = layer_report(good, [u for u in untraced if not u["failures"]])
    if errors:
        results.append({"failures": errors[:5]})
    return results, metrics, table


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        load = Workload(workload, seed, work)
        if trace:
            results, metrics, table = run_traced(load, seconds)
            medians = ""
        else:
            results, metrics, medians = run_untraced(load, seconds)
            table = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [r for r in results if r["failures"]]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "attempted": len(results),
        "failed": len(failed),
        "failures": [msg for r in failed for msg in r["failures"]][:10],
        "digests": {str(job): d for job, d in load.first_digests.items()},
        "commands": [{k: r[k] for k in ("job", "traced", "code", "wall_s", "cpu_s", "peak_rss_mb")} for r in results if "job" in r],
        "setup_walls": [r["wall_s"] for r in load.setup],
        "metrics": metrics,
        "layers": table,
        "medians": medians,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="also write the run's full results to this JSON file")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the running child is killed and the work
    # directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "saf" / "__init__.py").is_file():
        print(f"error: no saf package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start_launcher()
    try:
        return run_all(args)
    finally:
        stop_launcher()


def run_all(args) -> int:
    env = environment()
    print("environment:", json.dumps(env))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    for name in workloads:
        outcome = run(name, args.seed, args.seconds, bool(args.trace))
        runs.append(outcome)
        print(f"== {name} seed {args.seed}: {outcome['attempted']} commands, {outcome['failed']} failed, "
              f"failed_share {outcome['failed'] / outcome['attempted']:.3f}")
        for message in outcome["failures"]:
            print(f"   FAIL {message}")
        for job, digests in outcome["digests"].items():
            print(f"   digests job {job}: " + " ".join(f"{n}={d[:16]}" for n, d in digests.items()))
        table = outcome["layers"]
        if table:
            top = max((k for k in table if k.endswith(".self_s")), key=lambda k: table[k]["value"])
            print(f"   largest self time: {top.removesuffix('.self_s')} {table[top]['value']:.3f} s; "
                  f"self times {table['trace.self_sum_s']['value']:.3f} s + outside cli.main "
                  f"{table['cli.outside_main_s']['value']:.3f} s = traced wall {table['trace.wall_s']['value']:.3f} s")
        if outcome["medians"]:
            print(f"   {outcome['medians']}")
        shown = table or outcome["metrics"]
        for metric, entry in shown.items():
            print(f"   {metric:<44} {entry['value']:>16.6g} {entry['unit']}")
    if args.record:
        args.record.write_text(json.dumps({"environment": env, "runs": runs}, indent=1) + "\n")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    complete = all(r["metrics"] for r in runs)
    if len(runs) > 1:
        metrics = {f"{r['workload']}.{k}": v for r in runs for k, v in r["metrics"].items()}
    else:
        metrics = runs[0]["metrics"]
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
