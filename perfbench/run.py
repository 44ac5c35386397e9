"""tamelab benchmark: run one workload for a fixed time and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload presets --seed 1 --seconds 40 --trace 0

Each pass runs the workload's whole job list through ``tamelab.cli.run``
in a fresh single-threaded interpreter (``passrun.py``), one pass at a
time, until ``--seconds`` have gone by (at least three passes).  Set-up
is timed in those passes and in extra set-up-only processes.  After each
pass the outputs are checked (``checks.py``); a job fails when its exit
code is not 0, it raises, or a check fails.

The last line of standard output is the result object.  With
``--trace 0`` its metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` passes alternate traced and untraced, and the metrics
are the per-layer ones.  Machine facts, the seed and per-pass detail go
to the line before it and to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
SETUP_PROBES_PER_PASS = 3  # set-up-only processes after each pass ...
SETUP_PROBES_MAX = 15  # ... up to this many in a run
RUN_LIMIT_S = 170  # a run must end within 180 s; no pass outlives this
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def machine_facts() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": sys.version.split()[0]}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in SINGLE_THREAD})
    # A fixed hash seed fixes set and dict layouts, which otherwise move peak RSS.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    return env


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, size: str):
        self.root = root
        self.work = root / ".perfbench_out" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.out_root = self.work / "out"
        self.jobs = workloads.build(workload, seed, size,
                                    os.path.relpath(self.out_root, root))
        self.jobs_file = self.work / "jobs.json"
        self.work.mkdir(parents=True)
        self.jobs_file.write_text(json.dumps(self.jobs))
        self.reference = checks.load_reference()
        self.env = child_env(root)
        self.first_digests: dict[str, dict] = {}
        self.problems: list[str] = []
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def spawn(self, trace: bool = False, setup_only: bool = False) -> dict | None:
        """Run passrun.py once; returns its report, or None when it failed."""
        report_file = self.work / "report.json"
        report_file.unlink(missing_ok=True)
        shutil.rmtree(self.out_root, ignore_errors=True)
        self.out_root.mkdir()
        cmd = [sys.executable, str(HERE / "passrun.py"), str(self.jobs_file),
               os.path.relpath(self.out_root, self.root), str(report_file)]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, stdout=sys.stderr,
                                  timeout=max(1.0, self.deadline - started))
        except subprocess.TimeoutExpired:
            self.problems.append("pass process killed at the run's time limit")
            return None
        if proc.returncode != 0 or not report_file.exists():
            self.problems.append(f"pass process exited with {proc.returncode}")
            return None
        report = json.loads(report_file.read_text())
        report["setup_s"] = report["first_job_monotonic"] - started
        return report

    def check_pass(self, report: dict, deep: bool) -> list[bool]:
        """Per-job failure flags for one finished pass."""
        failed = []
        for job, rc in zip(self.jobs, report["exit_codes"]):
            out_dir = self.out_root / job["id"]
            problems = [] if rc == 0 else [f"exit code {rc}"]
            if rc == 0:
                digests = checks.artifact_digests(out_dir)
                first = self.first_digests.setdefault(job["id"], digests)
                if digests != first:
                    problems.append("artifacts differ from the first pass")
                problems += checks.check_job(job, self.out_root, digests,
                                             self.reference, deep)
            self.problems += [f"{job['id']}: {p}" for p in problems]
            failed.append(bool(problems))
        return failed


def percentile_note(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile with at least ten samples
    above it, when that percentile lies above the median."""
    ordered = sorted(samples)
    note = {"median": statistics.median(ordered), "samples": len(ordered)}
    pct = math.floor(100 * (len(ordered) - 10) / len(ordered))
    if pct > 50:
        note[f"p{pct}"] = ordered[math.ceil(pct / 100 * len(ordered)) - 1]
    return note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny runs a few cheap jobs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "tamelab" / "cli.py").is_file():
        print("perfbench: run from the root of a tamelab checkout (src/tamelab missing)",
              file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed, args.size)
    if runner.spawn(setup_only=True) is None:  # warm-up: byte-compiles, fills caches
        print("perfbench: the pass process cannot start: "
              + "; ".join(runner.problems), file=sys.stderr)
        return 3

    passes, probes, attempted, failed = [], [], 0, 0
    began = time.monotonic()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 0
        started = time.monotonic()
        report = runner.spawn(trace=traced)
        attempted += len(runner.jobs)
        if report is None:
            failed += len(runner.jobs)
        else:
            flags = runner.check_pass(report, deep=not passes)
            failed += sum(flags)
            report["traced"] = traced
            passes.append(report)
        for _ in range(min(SETUP_PROBES_PER_PASS, SETUP_PROBES_MAX - len(probes))):
            probes.append(runner.spawn(setup_only=True))
        done = time.monotonic()
        if done > runner.deadline or attempted >= MIN_PASSES * len(runner.jobs) and (
                done - began + (done - started) > args.seconds):
            break
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if not plain or (args.trace and not traced):
        print("perfbench: no pass finished: " + "; ".join(runner.problems[:5]),
              file=sys.stderr)
        return 4
    counts_repeat = all(p["layers"][name] == traced[0]["layers"][name]
                        for p in traced for name, _ in tracing.per_layer_spec()
                        if tracing.is_count(name))
    if not counts_repeat:
        runner.problems.append("computed counts differ between traced passes")

    makespans = [p["makespan_s"] for p in plain]
    job_medians = [statistics.median(p["job_s"][i] for p in plain)
                   for i in range(len(runner.jobs))]
    setups = [p["setup_s"] for p in plain + [q for q in probes if q]]
    end_to_end = {
        "makespan_s": (statistics.median(makespans), "s"),
        "job_geomean_s": (statistics.geometric_mean(job_medians), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] / 1024 for p in plain), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    if args.trace:
        metrics = per_layer(traced, plain, failed / attempted)
        (runner.work / "spans.json").write_text(json.dumps([p["spans"] for p in traced]))
        print_layer_table(metrics)
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end.items()}
    detail = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "machine": machine_facts(), "numpy": passes[0]["numpy"],
        "jobs": [job["id"] for job in runner.jobs],
        "error_rate": failed / attempted, "attempted": attempted, "failed": failed,
        "problems": runner.problems[:20],
        "makespan_s": percentile_note(makespans), "setup_s": percentile_note(setups),
        "job_median_s": dict(zip((job["id"] for job in runner.jobs), job_medians)),
        "pass_log": [{"traced": p["traced"], "makespan_s": p["makespan_s"],
                      "setup_s": p["setup_s"], "peak_rss_mb": p["peak_rss_kb"] / 1024}
                     for p in passes],
        "metrics": metrics,
    }
    results = root / ".perfbench_out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0 and counts_repeat, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def per_layer(traced: list[dict], plain: list[dict], error_rate: float) -> dict:
    """Per-layer metrics: counts from the first traced pass, times as medians."""
    metrics = {}
    for name, unit in tracing.per_layer_spec():
        if name == "error_rate":
            value = error_rate
        elif name == "trace_overhead_s":
            value = (statistics.median(p["makespan_s"] for p in traced)
                     - statistics.median(p["makespan_s"] for p in plain))
        elif tracing.is_count(name):
            value = traced[0]["layers"][name]
        else:
            value = statistics.median(p["layers"][name] for p in traced)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def print_layer_table(metrics: dict) -> None:
    """Self time per layer, largest first, as a share of the traced makespan."""
    layers = {name[:-len(".self_s")]: m["value"] for name, m in metrics.items()
              if name.count(".") == 1 and name.endswith(".self_s")}
    layers["(no span)"] = metrics["uncovered_s"]["value"]
    total = sum(layers.values()) or 1.0
    print(f"{'layer':<12} {'self_s':>9} {'share':>6}")
    for name, value in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"{name:<12} {value:9.4f} {value / total:6.1%}")
    print(f"trace overhead {metrics['trace_overhead_s']['value']:+.4f} s "
          "(traced minus untraced makespan)")
    print("computed counts (from call arguments and results; none measures memory traffic):")
    for name in tracing.COUNTS:
        print(f"  {name} = {metrics[name]['value']}")


if __name__ == "__main__":
    sys.exit(main())
