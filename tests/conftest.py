import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import stepgate.autodiff as ad
from stepgate.harness.config import (DatasetConfig, EvalConfig,
                                     ExperimentConfig, ModelConfig,
                                     TrainingConfig)
from stepgate.synthdata import generate_dataset


def tiny_config(mode="e2e", **overrides) -> ExperimentConfig:
    """Smallest experiment that still exercises every code path.  An
    override names a field of the config, ``"seed"``, or of one of its
    sections, ``"training.epochs"``; any other name raises.
    ``model.segment_len`` follows ``dataset.frames_per_slot``, which it must
    equal."""
    cfg = ExperimentConfig(
        mode=mode,
        seed=0,
        dataset=DatasetConfig(n_train=12, n_test=6, n_classes=3, n_shared=2,
                              n_background=2, d_raw=6, timesteps=6,
                              frames_per_slot=2, noise_sigma=0.3,
                              relevant_fraction=0.34, confuser_share=0.35),
        model=ModelConfig(light_channels=8, heavy_channels=4, n_kernels=8,
                          gate_hidden=4, open_bias=2.0),
        training=TrainingConfig(batch_size=6, epochs=2, lr=1e-3, eps=1e-4),
        eval=EvalConfig(),
    )
    for key, val in overrides.items():
        section, _, name = key.rpartition(".")
        target = getattr(cfg, section) if section else cfg
        if name not in {f.name for f in fields(target)}:
            raise AttributeError(f"tiny_config override {key!r} names no config field")
        setattr(target, name, val)
    cfg.model.segment_len = cfg.dataset.frames_per_slot
    return cfg


def traced_peak(fn, *args) -> int:
    """Bytes at the traced-allocation peak while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def weighted_sum(t, weights=None):
    """``sum(weights * t)`` over every entry of ``t``, a (1, 1) tensor: one
    ``matmul_t`` of ``t``'s entries and the weights as two (1, n) rows.
    Without ``weights`` every weight is 1."""
    n = t.numel()
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    return ad.matmul_t(ad.reshape(t, (1, n)), ad.Tensor(w.reshape(1, n)))


@pytest.fixture(scope="session")
def tiny_cfg():
    return tiny_config()


@pytest.fixture(scope="session")
def tiny_data(tiny_cfg):
    d = tiny_cfg.dataset
    return generate_dataset(d.spec(), d.n_train, d.n_test,
                            tiny_cfg.seed)
