import gc

import numpy as np
import numpy.testing as nptest
import pytest

from conftest import tiny_config
from stepgate.autodiff import ComputationRecord, Tensor
from stepgate.errors import ConfigError
from stepgate.harness.checkpoint import save_checkpoint
from stepgate.harness.config import MODES
from stepgate.harness.training import (resolve_dataset, run_training,
                                       spec_from_config)
from stepgate.selector import SelectionResult, heavy_indices
from stepgate.synthdata import ActivitySpec, save_split


# ---------------------------------------------------------------------------
# dataset plumbing


def test_spec_from_config_matches_dataset_fields(tiny_cfg):
    spec = spec_from_config(tiny_cfg)
    d = tiny_cfg.dataset
    assert spec.n_classes == d.n_classes
    assert spec.timesteps == d.timesteps
    assert spec.noise_sigma == d.noise_sigma
    assert spec.task == d.task


def test_spec_from_config_dispatches_on_recipe_style():
    cfg = tiny_config("e2e", **{"dataset.recipe_style": "paired",
                                "dataset.n_classes": 3,
                                "dataset.n_shared": 3})
    spec = spec_from_config(cfg)
    paired = ActivitySpec.paired(
        n_classes=3, n_shared=3, n_background=cfg.dataset.n_background,
        d_raw=cfg.dataset.d_raw, timesteps=cfg.dataset.timesteps,
        frames_per_slot=cfg.dataset.frames_per_slot,
        noise_sigma=cfg.dataset.noise_sigma,
        relevant_fraction=cfg.dataset.relevant_fraction,
        confuser_share=cfg.dataset.confuser_share)
    assert spec == paired
    assert all(len(r) == 2 for r in spec.class_recipes)


def test_resolve_dataset_generates_without_a_path(tiny_cfg, tiny_data):
    resolved = resolve_dataset(tiny_cfg)
    assert len(resolved.train) == tiny_cfg.dataset.n_train
    nptest.assert_array_equal(resolved.prototypes, tiny_data.prototypes)


def test_resolve_dataset_loads_saved_splits(tmp_path, tiny_cfg, tiny_data):
    save_split(tmp_path / "train.sgds", tiny_data, "train")
    save_split(tmp_path / "test.sgds", tiny_data, "test")
    cfg = tiny_config("e2e", **{"dataset.path": str(tmp_path)})
    loaded = resolve_dataset(cfg)
    assert len(loaded.train) == len(tiny_data.train)
    assert len(loaded.test) == len(tiny_data.test)
    nptest.assert_array_equal(loaded.prototypes, tiny_data.prototypes)


def test_resolve_dataset_rejects_mismatched_splits(tmp_path, tiny_cfg, tiny_data):
    from stepgate.harness.training import generate_dataset
    other = generate_dataset(spec_from_config(tiny_cfg), 4, 2, seed=99)
    save_split(tmp_path / "train.sgds", tiny_data, "train")
    save_split(tmp_path / "test.sgds", other, "test")
    cfg = tiny_config("e2e", **{"dataset.path": str(tmp_path)})
    with pytest.raises(ConfigError, match="different runs"):
        resolve_dataset(cfg)


def test_fallback_index_takes_the_highest_logit():
    logits = np.asarray([[-3.0], [-0.5], [-1.0]])
    closed = SelectionResult(features=Tensor(np.zeros((3, 2))), logits=Tensor(logits),
                             activated=Tensor(np.zeros(3)), open=np.zeros(3, dtype=bool))
    assert closed.selected_indices == []
    assert heavy_indices(closed) == [1]


# ---------------------------------------------------------------------------
# every mode trains end to end on the tiny problem


@pytest.fixture(scope="module")
def results(tiny_data):
    out = {}
    for mode in MODES:
        out[mode] = run_training(tiny_config(mode), tiny_data)
    return out


def test_each_mode_produces_a_usable_result(results, tiny_cfg):
    epochs = tiny_cfg.training.epochs
    for mode, res in results.items():
        assert res.config.mode == mode
        assert res.bundle.mode == mode
        assert len(res.epoch_logs or res.classifier_logs) == epochs
        for log in res.epoch_logs + res.classifier_logs:
            assert np.isfinite(log.loss)
            assert 0.0 <= log.accuracy <= 1.0
            assert 0.0 <= log.selected_ratio <= 1.0
        assert set(res.checkpoint.params) == set(res.bundle.named_parameters())


def test_two_phase_modes_log_both_phases(results, tiny_cfg):
    epochs = tiny_cfg.training.epochs
    for mode in ("standalone", "scsampler", "uniform", "random"):
        res = results[mode]
        assert len(res.classifier_logs) == epochs
    for mode in ("standalone", "scsampler"):
        assert len(results[mode].epoch_logs) == epochs
    for mode in ("uniform", "random"):
        assert results[mode].epoch_logs == []


def test_training_changes_the_parameters(results):
    for mode, res in results.items():
        fresh = {n: t.data.copy()
                 for n, t in __import__("stepgate.harness.models",
                                        fromlist=["build_bundle"])
                 .build_bundle(res.config).named_parameters().items()}
        moved = any(not np.array_equal(fresh[n], res.checkpoint.params[n])
                    for n in fresh)
        assert moved, f"{mode} training left every parameter untouched"


def test_checkpoint_step_counts_the_adam_steps_of_every_phase(results, tiny_cfg):
    n_batches = -(-tiny_cfg.dataset.n_train // tiny_cfg.training.batch_size)
    phases = {"e2e": 1, "frame_conditioned": 1, "uniform": 1, "random": 1,
              "standalone": 2, "scsampler": 2}
    assert set(phases) == set(MODES)
    for mode, res in results.items():
        assert res.checkpoint.step == phases[mode] * tiny_cfg.training.epochs * n_batches, mode


def test_training_is_deterministic(tiny_data, results, tmp_path):
    """Every mode: a second same-seed run saves a byte-identical checkpoint."""
    for mode in MODES:
        a, b = results[mode], run_training(tiny_config(mode), tiny_data)
        for name in a.checkpoint.params:
            nptest.assert_array_equal(a.checkpoint.params[name],
                                      b.checkpoint.params[name])
        assert a.epoch_logs == b.epoch_logs, mode
        assert a.classifier_logs == b.classifier_logs, mode
        save_checkpoint(tmp_path / f"{mode}-a.sgck", a.checkpoint)
        save_checkpoint(tmp_path / f"{mode}-b.sgck", b.checkpoint)
        assert ((tmp_path / f"{mode}-a.sgck").read_bytes()
                == (tmp_path / f"{mode}-b.sgck").read_bytes()), mode


def test_seed_changes_the_trajectory(tiny_data):
    a = run_training(tiny_config("e2e"), tiny_data)
    c = run_training(tiny_config("e2e", seed=1), tiny_data)
    assert any(not np.array_equal(a.checkpoint.params[n], c.checkpoint.params[n])
               for n in a.checkpoint.params)


def test_training_frees_every_tape_without_the_cycle_collector(tiny_data):
    def records():
        return sum(isinstance(o, ComputationRecord) for o in gc.get_objects())

    gc.collect()
    before = records()
    gc.disable()
    try:
        result = run_training(tiny_config("e2e"), tiny_data)
        assert result.checkpoint.step > 0
        assert records() == before
    finally:
        gc.enable()


def test_frame_conditioned_has_no_attention_parameters(results):
    frame_names = set(results["frame_conditioned"].checkpoint.params)
    ctx_names = set(results["e2e"].checkpoint.params)
    assert not any(".attn_" in n for n in frame_names)
    assert ctx_names - frame_names == {"selector.attn_q", "selector.attn_k",
                                       "selector.attn_v"}


def test_multi_label_modes_train(tiny_cfg):
    from stepgate.harness.training import generate_dataset
    cfg = tiny_config("e2e", **{"dataset.task": "multi_label",
                                "dataset.n_train": 8, "dataset.n_test": 4,
                                "training.batch_size": 4,
                                "training.epochs": 1})
    data = generate_dataset(spec_from_config(cfg), 8, 4, cfg.seed)
    res = run_training(cfg, data)
    assert np.isfinite(res.epoch_logs[-1].loss)
    cfg_sc = tiny_config("scsampler", **{"dataset.task": "multi_label",
                                         "dataset.n_train": 8,
                                         "dataset.n_test": 4,
                                         "training.batch_size": 4,
                                         "training.epochs": 1})
    res_sc = run_training(cfg_sc, data)
    assert np.isfinite(res_sc.epoch_logs[-1].loss)
    assert np.isfinite(res_sc.classifier_logs[-1].loss)
