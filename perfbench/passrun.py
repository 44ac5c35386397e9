"""One pass over a workload's job list, in a fresh interpreter.

Usage: python3 passrun.py JOBS_JSON OUT_ROOT REPORT_JSON [--trace] [--setup-only]

Everything up to the first timed job (interpreter start, importing
``tamelab`` and ``tamelab.cli``, parsing every config) is set-up, which
the CLI pays on every invocation.  The report records the monotonic
clock at the first job so the parent can time set-up from before the
process started.  With ``--setup-only`` the pass stops there.
"""

import ctypes
import gc
import json
import resource
import sys
import time

import numpy

from tamelab import cli

# glibc keeps freed heap pages; trimming before each job gives every job the
# clean allocator a CLI invocation starts with, so peak RSS does not depend
# on which jobs ran before it.
_MALLOC_TRIM = getattr(ctypes.CDLL(None), "malloc_trim", None)


def release_memory() -> None:
    gc.collect()
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def main(argv: list[str]) -> int:
    jobs_path, out_root, report_path = argv[:3]
    trace = "--trace" in argv
    with open(jobs_path) as fh:
        jobs = json.load(fh)
    configs = [cli.ExperimentConfig.from_preset(job["preset"]) if "preset" in job
               else cli.ExperimentConfig.from_text(job["config"]) for job in jobs]
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    first_job = time.monotonic()
    report = {"first_job_monotonic": first_job}
    if "--setup-only" not in argv:
        times, codes = [], []
        start = time.perf_counter()
        for index, (job, config) in enumerate(zip(jobs, configs)):
            release_memory()
            if tracer is not None:
                tracer.job = index
            t0 = time.perf_counter()
            try:
                rc = cli.run(job["command"], config, f"{out_root}/{job['id']}")
            except Exception as exc:  # noqa: BLE001 - a raising job counts as failed
                print(f"job {job['id']} raised {exc!r}", file=sys.stderr)
                rc = -1
            times.append(time.perf_counter() - t0)
            codes.append(rc)
        makespan = sum(times)
        report.update(
            job_s=times, exit_codes=codes, makespan_s=makespan,
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            numpy=numpy.__version__)
        if tracer is not None:
            report["layers"] = tracer.summary(makespan)
            report["spans"] = tracer.dump(start)
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
