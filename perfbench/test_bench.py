"""Self-test of the benchmark at tiny sizes.

Runs every workload once untraced and once traced with a seed other than the
default, and checks the result lines against BENCHMARK.json.  Run from the
repository root with ``python -m pytest perfbench``; it takes a few seconds.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # first: it puts the checkout's src/ on sys.path
import layers
from stepgate.harness import evaluation
from stepgate.harness.config import (DatasetConfig, ExperimentConfig,
                                     ModelConfig, TrainingConfig)

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 7  # the command-line default is 0


def tiny_config() -> ExperimentConfig:
    """The shape of the test suite's tiny_config, with 16 timesteps so the
    eval budgets 4, 8 and 16 fit."""
    return ExperimentConfig(
        dataset=DatasetConfig(n_train=12, n_test=6, n_classes=3, n_shared=2,
                              n_background=2, d_raw=6, timesteps=16,
                              frames_per_slot=2, noise_sigma=0.3,
                              relevant_fraction=0.34, confuser_share=0.35),
        model=ModelConfig(light_channels=8, heavy_channels=4, n_kernels=8,
                          gate_hidden=4, segment_len=2, open_bias=2.0),
        training=TrainingConfig(batch_size=6, epochs=2, lr=1e-3, eps=1e-4),
    )


def tiny_run(workload, trace, workdir):
    return run.run_workload(workload, SEED, 0.05, trace, workdir, base=tiny_config)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_emits_every_metric_and_passes_its_checks(workload, trace, tmp_path):
    result, detail = tiny_run(workload, trace, tmp_path)
    assert result["correct"], detail["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK[section]}
    emitted = layers.PER_LAYER if trace else run.END_TO_END
    assert emitted == declared
    assert set(result["metrics"]) == set(declared)
    for name, m in result["metrics"].items():
        assert m["unit"] == declared[name][0]
        assert math.isfinite(m["value"])
        if not trace:
            assert m["value"] > 0, name


def test_declared_workloads_are_the_benchmarks():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)


def test_a_wrong_cost_fails_the_run(tmp_path, monkeypatch):
    real = evaluation._cost_for

    def half_the_rows(config, mean_heavy, registry):
        return real(config, mean_heavy / 2, registry)

    monkeypatch.setattr(evaluation, "_cost_for", half_the_rows)
    result, detail = tiny_run("gated-eval", False, tmp_path)
    assert not result["correct"]
    assert result["failed"] > 0
    assert any("heavy_gflops" in p for p in detail["problems"])


def test_a_layer_the_trace_misses_fails_the_coverage_check(tmp_path, monkeypatch):
    targets = [t for t in layers.MEASURE_TARGETS if t[2] != layers.SELECT]
    monkeypatch.setattr(layers, "MEASURE_TARGETS", targets)
    result, detail = tiny_run("e2e-train", True, tmp_path)
    assert not result["correct"]
    assert any(f"{layers.SELECT} recorded no calls" in p for p in detail["problems"])


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "e2e-train",
         "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
