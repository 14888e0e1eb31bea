"""Tests of the benchmark itself: its exact counts repeat, and it refuses to
run without the program."""

import json
import os
import shutil
import subprocess
import sys

import bootstrap

if bootstrap.SRC not in sys.path:
    sys.path.insert(0, bootstrap.SRC)

HERE = os.path.dirname(os.path.abspath(__file__))


def _counts_once():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "counts.py")],
                          capture_output=True, text=True, timeout=300,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_exact_counts_repeat_between_runs():
    first, second = _counts_once(), _counts_once()
    assert first == second
    assert all(value > 0 for value in first.values())
    for nfe in (4, 8, 16):
        for tag in ("ckpt", "whole"):
            assert f"engine.taped_ops_per_pair_grads.{tag}.nfe{nfe}" in first
            assert f"engine.retained_per_step.{tag}.nfe{nfe}" in first
    for kind in ("train", "sample", "bound"):
        assert f"denoisers.eps_rows_per_op.{kind}" in first


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(bootstrap.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
