"""The paper's claim at desk scale: conditional gating keeps the accuracy of
dense processing while the heavy stage encodes at most half the timesteps.

Each criterion is asserted on the mean over seeds, never on one run.  The
gated arm (e2e) steers its train-time open rate to ``sample_budget / T`` =
10 / 32; dense uniform sampling trains and evaluates on all 32 timesteps.
Both read the same ``anchored`` split at each seed.
"""

import numpy as np
import pytest

from stepgate.gating import step_open
from stepgate.harness.config import (DatasetConfig, ExperimentConfig, ModelConfig,
                                     TrainingConfig)
from stepgate.harness.evaluation import evaluate_bundle, rankings
from stepgate.harness.training import run_training
from stepgate.synthdata import generate_dataset

T = 32
BUDGET = 10
RHO = BUDGET / T
# the largest shortfall of e2e's mean metric against dense uniform's
MARGIN = 0.05
SINGLE_SEEDS = range(8)
MULTI_SEEDS = range(2)
CLOSED_SEEDS = range(3)


def _config(mode, task, seed, n_train, epochs, budget=BUDGET, open_bias=2.0):
    return ExperimentConfig(
        mode=mode, seed=seed,
        dataset=DatasetConfig(n_train=n_train, n_test=128, timesteps=T,
                              frames_per_slot=8, task=task),
        model=ModelConfig(light_channels=32, n_kernels=32, gate_hidden=16,
                          open_bias=open_bias),
        training=TrainingConfig(epochs=epochs, sample_budget=budget))


def _trained(config):
    """The config's split, its trained bundle and its gate-count entry."""
    d = config.dataset
    dataset = generate_dataset(d.spec(), d.n_train, d.n_test, config.seed)
    result = run_training(config, dataset)
    return dataset, result, evaluate_bundle(result.bundle, config, dataset.test).entry(None)


def _means(task, seeds, n_train, epochs):
    """Over seeds, the mean of e2e's (gate-count metric, heavy rows per
    video, test-mode open ratio) and of dense uniform's (metric, rows)."""
    e2e, dense = [], []
    for seed in seeds:
        config = _config("e2e", task, seed, n_train, epochs)
        dataset, result, entry = _trained(config)
        opened = step_open(rankings(result.bundle, config, dataset.test)).mean()
        e2e.append([entry.value, entry.mean_selected, opened])
        _, _, entry = _trained(_config("uniform", task, seed, n_train, epochs, budget=T))
        dense.append([entry.value, entry.mean_selected])
    return np.mean(e2e, axis=0), np.mean(dense, axis=0)


@pytest.mark.parametrize("task, seeds, n_train, epochs", [
    ("single_label", SINGLE_SEEDS, 128, 12),
    ("multi_label", MULTI_SEEDS, 256, 24),
], ids=["single_label", "multi_label"])
def test_gating_keeps_dense_accuracy_with_at_most_half_the_heavy_rows(
        task, seeds, n_train, epochs):
    (metric, rows, opened), (dense_metric, dense_rows) = _means(task, seeds, n_train,
                                                               epochs)
    assert dense_rows == T
    assert metric >= dense_metric - MARGIN, (metric, dense_metric)
    assert rows <= T / 2, rows
    assert abs(opened - RHO) <= 0.1, opened


def test_a_selector_that_starts_all_closed_reopens_its_gates():
    """A gate MLP whose output bias closes every gate at the start still
    ends training with at least a fifth of its train-time gates open."""
    ratios = []
    for seed in CLOSED_SEEDS:
        config = _config("e2e", "single_label", seed, 128, 12, open_bias=-4.0)
        _, result, _ = _trained(config)
        assert result.epoch_logs[0].selected_ratio < 0.05
        ratios.append(result.epoch_logs[-1].selected_ratio)
    assert np.mean(ratios) >= 0.2, ratios
