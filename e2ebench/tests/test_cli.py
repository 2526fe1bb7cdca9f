"""The command line: result format, and refusal without the program."""

import json
import shutil
import subprocess
import sys

import run


def test_prints_every_end_to_end_metric_with_a_checked_verdict():
    child = subprocess.run(
        [sys.executable, run.__file__, "--workload", "fwd-relprod",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=300, check=True)
    meta, result = (json.loads(line)
                    for line in child.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert [(name, entry["unit"]) for name, entry
            in result["metrics"].items()] == run.metric_units("end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert {"kernel", "apply", "rev", "seed", "nproc"} <= set(meta["meta"])


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, str(tmp_path / "e2ebench" / "run.py"),
         "--workload", "short-mixed", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert child.returncode != 0
    assert child.stdout == ""


def test_benchmark_spec_names_the_runner_workloads():
    with open(run.os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [entry["name"] for entry in spec["workloads"]] == \
        list(run.WORKLOADS)
