"""The benchmark's own tests (not part of the repository's tier-1 suite).

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

They use the tiny size, so the whole file takes well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, workload: str, trace: int = 0, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    return proc, lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_every_metric_and_no_errors(workload, trace):
    proc, lines = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert detail["error_rate"] == 0
    assert detail["seed"] == 3 and detail["machine"]["nproc"] >= 1
    assert all(k in detail["machine"] for k in ("cpu_model", "python")) and detail["numpy"]


def test_traced_and_untraced_passes_write_the_same_artifacts(tmp_path):
    jobs = workloads.build("presets", 5, "tiny", "unused")
    jobs_file = tmp_path / "jobs.json"
    jobs_file.write_text(json.dumps(jobs))
    digests = []
    for flags in ([], ["--trace"]):
        out = tmp_path / ("traced" if flags else "plain")
        subprocess.run([sys.executable, str(HERE / "passrun.py"), str(jobs_file), str(out),
                        str(tmp_path / "report.json"), *flags],
                       env=run.child_env(ROOT), check=True, timeout=170)
        digests.append({job["id"]: checks.artifact_digests(out / job["id"])
                        for job in jobs})
    assert digests[0] == digests[1]


def _copy_checkout(tmp_path: Path, with_program: bool = True) -> Path:
    root = tmp_path / "checkout"
    shutil.copytree(HERE, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    if with_program:
        shutil.copytree(ROOT / "src", root / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return root


def test_corrupted_reference_shows_as_errors(tmp_path):
    root = _copy_checkout(tmp_path)
    ref_file = root / "perfbench" / "reference.json"
    reference = json.loads(ref_file.read_text())
    reference["fib64-generate"]["sequence.seq"] = "0" * 64
    ref_file.write_text(json.dumps(reference))
    proc, lines = bench(root, "presets")
    assert proc.returncode == 0, proc.stderr
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])
    assert not result["correct"] and result["failed"] > 0
    assert detail["error_rate"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    root = _copy_checkout(tmp_path, with_program=False)
    proc, lines = bench(root, "roundtrip")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_theorem_checks_catch_wrong_counts(tmp_path):
    job = {"id": "j", "check": {"sturmian_golden": 3, "de_bruijn": 3}}
    (tmp_path / "j").mkdir()
    (tmp_path / "j" / "complexity.csv").write_text("n,count,rate\n1,2,1\n2,3,1\n3,5,1\n")
    problems = checks.check_job(job, tmp_path, {}, {}, deep=False)
    assert len(problems) == 2


def test_compare_verdicts(tmp_path):
    bound = next(m["bound"] for m in BENCH["end_to_end"] if m["name"] == "makespan_s")
    assert compare.verdict([1.0, 1.0, 1.01], [1.0, 1.01, 1.0], "lower", bound) == "ok"
    assert compare.verdict([1.0, 1.0, 1.01], [2.0, 2.0, 2.01], "lower", bound) == "REGRESSION"
    assert compare.verdict([1.0, 3.0, 1.0, 3.0], [1.0, 1.0, 1.01], "lower", bound) == "unresolved"
    assert compare.verdict([3.0, 5.0, 3.0, 5.0], [1.0, 1.0, 1.01], "lower",
                           bound) == "better (every run)"
