"""Every workload on its tiny config, through the benchmark's command line."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from run import BENCH, ROOT, WORKLOADS, compare_csv

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, env=None):
    env = {k: v for k, v in os.environ.items() if k != "IGAFIN_THREADS"} \
        if env is None else env
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_spec_workloads_are_known():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_refuses_a_set_thread_cap():
    env = dict(os.environ, IGAFIN_THREADS="1")
    proc = bench("--workload", "linear_ladder", "--smoke", env=env)
    assert proc.returncode != 0
    assert "IGAFIN_THREADS" in proc.stderr and proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "convertible_price", "--seconds", "1",
                 cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_output_check_tolerance(tmp_path):
    def csv(name, rows):
        path = tmp_path / name
        path.write_text("S,delta,gamma\n" + "".join(r + "\n" for r in rows))
        return path

    ref = csv("ref.csv", ["100,0.09512345678,1.234567891e-08",
                          "200,0.5123456789,-9.530007486"])
    # a flipped last printed digit, and round-off in a gamma near zero
    # that is tiny beside the column's largest gamma
    near = csv("near.csv", ["100,0.09512345679,1.234567902e-08",
                            "200,0.5123456789,-9.530007486"])
    far = csv("far.csv", ["100,0.09512345678,1.234567891e-08",
                          "200,0.5123456799,-9.530007486"])
    assert compare_csv(near, ref) is None
    assert "delta = 0.5123456799" in compare_csv(far, ref)
    assert "not written" in compare_csv(tmp_path / "none.csv", ref)


def test_failed_runs_report_no_probe_error(tmp_path):
    # wrong references make every run fail its output check
    for part in ("perfbench", "src", "configs"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ref = tmp_path / "perfbench/refs/smoke/linear_ladder/convergence.csv"
    head, *rows = ref.read_text().splitlines()
    rows[-1] = ",".join(f + "1" if f else f for f in rows[-1].split(","))
    ref.write_text("\n".join([head, *rows]) + "\n")
    proc = bench("--workload", "linear_ladder", "--seconds", "1", "--smoke",
                 cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert "probe_err" not in result["metrics"]
    assert result["metrics"]["ok_frac"]["value"] == 0
