"""Bundled finite-difference checks: every op with a backward, each under
its tape name, plus training's own batch loss on a two-video batch,
reported as name -> max relative error.

Inputs are fixed and kept away from clip, threshold, and tie boundaries so
central differences are valid; the composite cases freeze gate noise by
reseeding inside the probed function and assert a safety margin on every
gate logit before checking.
"""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad
from .. import gating
from ..autodiff import Tensor, finite_diff_check
from ..errors import ContractError
from ..selector import gate_logits
from ..synthdata import generate_dataset
from .config import DatasetConfig, ExperimentConfig, ModelConfig, TrainingConfig
from .evaluation import light_frames
from .models import build_bundle
from .training import _phase_a_loss, spec_from_config

THRESHOLD = 1e-4

_X34 = np.array([[0.3, -1.1, 0.7, 1.9],
                 [-0.4, 0.8, -1.6, 0.2],
                 [1.2, -0.6, 0.5, -0.9]])
_MAX_SAFE = np.array([[0.1, 1.4, -0.7, 2.2],
                      [1.9, -0.3, 0.8, -1.6],
                      [-2.0, 0.4, 1.1, 0.2]])
# first layer of the mlp cases: _X34 @ _W1 + _B1 sits at least 0.16 from the
# relu kink
_W1 = np.array([[0.5, -0.8, 0.3],
                [-0.6, 0.4, 0.9],
                [0.7, 0.2, -0.5],
                [0.1, -0.3, 0.6]])
_B1 = np.array([0.2, -0.1, 0.3])
# one output column over _X34, pooled by segment_max over rows [0] and
# [1, 2]: row 2 (1.136) beats row 1 (1.012), so row 1 gets no gradient
_W2_POOLED = np.array([[0.8], [-0.5], [0.6]])


def _param(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def _project(t: Tensor, w: np.ndarray) -> Tensor:
    flat = ad.reshape(t, (int(np.prod(t.shape)),))
    return ad.reduce_sum(ad.mul(flat, Tensor(w.ravel())), axis=0)


def _op_cases(rng: np.random.Generator) -> dict[str, float]:
    b = Tensor(rng.standard_normal((4, 2)))
    bias2 = Tensor(rng.standard_normal(2))
    other = Tensor(rng.standard_normal((3, 4)))
    w34 = rng.standard_normal(12)
    w32 = rng.standard_normal(6)
    w43 = rng.standard_normal(12)
    w16 = rng.standard_normal(16)
    w28 = rng.standard_normal(28)
    w2 = Tensor(rng.standard_normal((3, 2)))
    proj = [Tensor(0.5 * rng.standard_normal((4, 4))) for _ in range(3)]
    w24 = rng.standard_normal(24)
    # the rows of two sequences of 3
    stack = np.concatenate([_X34, _MAX_SAFE])
    if np.min(np.abs(_X34 @ _W1 + _B1)) < 0.1:
        raise ContractError("mlp FD case drifted onto the relu kink")
    pooled = (np.maximum(_X34 @ _W1 + _B1, 0.0) @ _W2_POOLED).ravel()
    if pooled[2] - pooled[1] < 0.1:
        raise ContractError("pooled mlp FD case no longer leaves row 1 without gradient")

    def attend(x, q=proj[0], k=proj[1], v=proj[2]):
        return _project(ad.attention(x, q, k, v, 3), w34)

    cases = {
        "matmul": (lambda x: _project(ad.matmul(x, b), w32), _param(_X34)),
        "transpose": (lambda x: _project(ad.transpose(x), w43), _param(_X34)),
        "add": (lambda x: _project(ad.add(x, other), w34), _param(_X34)),
        "mul": (lambda x: _project(ad.mul(x, other), w34), _param(_X34)),
        "scale": (lambda x: _project(ad.scale(x, -1.7), w34), _param(_X34)),
        "sigmoid": (lambda x: _project(ad.sigmoid(x), w34), _param(_X34)),
        "reduce_sum": (lambda x: _project(ad.reduce_sum(x, axis=0),
                                          w34[:4]), _param(_X34)),
        "reduce_mean": (lambda x: _project(ad.reduce_mean(x, axis=1),
                                           w34[:3]), _param(_X34)),
        "reshape": (lambda x: _project(ad.reshape(x, (2, 6)), w34), _param(_X34)),
        "tile_cols": (lambda x: _project(ad.tile_cols(x, 4), w34[:12].reshape(3, 4)),
                      _param(_X34[:, 0])),
        "take_rows": (lambda x: _project(ad.take_rows(x, [0, 2, 2, 1]), w16),
                      _param(_X34)),
        # segments of 1 and 2 rows; each segment's column maxima are unique
        # with margin >= 0.3
        "segment_max": (lambda x: _project(ad.segment_max(x, [1, 2]), w34[:8]),
                        _param(_MAX_SAFE)),
        "concat_rows": (lambda x: _project(ad.concat_rows(
            [ad.take_rows(x, [2]), other, x]), w28), _param(_X34)),
        "softmax_xent": (lambda x: ad.softmax_xent(x, [3, 0, 2]), _param(_X34)),
        # target distributions: uniform over two and over three positives
        "softmax_xent_soft": (lambda x: ad.softmax_xent(
            x, np.array([[0.5, 0.0, 0.5, 0.0], [0.0, 1.0, 0.0, 0.0],
                         [1 / 3, 1 / 3, 0.0, 1 / 3]])), _param(_X34)),
        "bce_logits": (lambda x: ad.bce_logits(
            x, np.array([[1, 0, 0, 1], [0, 1, 1, 0], [1, 1, 0, 0]],
                        dtype=np.float64)), _param(_X34)),
        "affine": (lambda x: _project(ad.affine(x, b, bias2), w32), _param(_X34)),
        # constant first operand: backward skips its gradient product
        "affine_weight": (lambda w: _project(ad.affine(Tensor(_X34), w, bias2), w32),
                          _param(b.data)),
        "affine_bias": (lambda v: _project(ad.affine(Tensor(_X34), b, v), w32),
                        _param(bias2.data)),
        "mlp": (lambda x: _project(ad.mlp(x, Tensor(_W1), Tensor(_B1), w2, bias2), w32),
                _param(_X34)),
        # a row with no output gradient: backward runs on the other rows
        "mlp_pooled": (lambda x: _project(ad.segment_max(ad.mlp(
            x, Tensor(_W1), Tensor(_B1), Tensor(_W2_POOLED), Tensor(np.array([0.1]))),
            [1, 2]), w34[:2]), _param(_X34)),
        # constant input: backward skips its gradient product
        "mlp_weight": (lambda w: _project(ad.mlp(Tensor(_X34), w, Tensor(_B1), w2, bias2),
                                          w32), _param(_W1)),
        # one sequence of 3 rows
        "attention": (attend, _param(_X34)),
        # constant input, one projection at a time
        "attention_q": (lambda w: attend(Tensor(_X34), q=w), _param(proj[0].data)),
        "attention_k": (lambda w: attend(Tensor(_X34), k=w), _param(proj[1].data)),
        "attention_v": (lambda w: attend(Tensor(_X34), v=w), _param(proj[2].data)),
        # two sequences of 3 rows, each attending within itself
        "attention_stack": (lambda x: _project(ad.attention(x, *proj, 3), w24),
                            _param(stack)),
        "attention_stack_q": (lambda w: _project(ad.attention(
            Tensor(stack), w, proj[1], proj[2], 3), w24), _param(proj[0].data)),
    }
    return {name: finite_diff_check(f, x) for name, (f, x) in cases.items()}


def _gating_cases() -> dict[str, float]:
    alphas = np.array([[1.2], [-0.8], [2.0], [-1.5]])
    noises = np.array([[0.5], [-0.7], [1.0], [0.4]])
    if np.min(np.abs(alphas + noises)) < 0.5:
        raise ContractError("gate FD case drifted onto the threshold")
    w = np.array([0.9, -1.3, 0.4, 0.7])

    def train_act(x):
        value, _ = gating.activate_train_batch(x, noises)
        return _project(value, w)

    return {
        "noisy_gate": finite_diff_check(train_act, _param(alphas)),
        "l0_penalty": finite_diff_check(
            lambda x: gating.l0_penalty(x, 0.7), _param(alphas)),
    }


def _suite_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        mode="e2e", seed=seed,
        dataset=DatasetConfig(n_train=4, n_test=2, n_classes=3, n_shared=3,
                              n_background=2, d_raw=6, timesteps=4,
                              frames_per_slot=4, relevant_fraction=0.5),
        model=ModelConfig(light_channels=5, heavy_channels=5, n_kernels=6,
                          gate_hidden=5, segment_len=4),
        training=TrainingConfig(l0_weight=0.3),
    )


def _e2e_cases(seed: int) -> dict[str, float]:
    config = _suite_config(seed)
    bundle = build_bundle(config)
    dataset = generate_dataset(spec_from_config(config), 4, 2, config.seed)
    batch = [0, 1]
    noise_seed = 101

    def loss():
        batch_loss = _phase_a_loss(config, bundle, dataset, np.random.default_rng(noise_seed))
        return batch_loss(0, batch)[0]

    # margin check: every noisy logit must sit clear of the gate threshold,
    # and every video must open a gate
    alphas = gate_logits(light_frames([dataset.train[i] for i in batch], config),
                         bundle.selector).data.ravel()
    z = alphas + gating.sample_gate_noise_batch(np.random.default_rng(noise_seed),
                                                alphas.size)
    margin = float(np.min(np.abs(z)))
    if margin < 5e-2:
        raise ContractError(
            f"gate margin {margin:.4f} too small for finite differences; "
            f"change the suite seed"
        )
    if not (z.reshape(len(batch), -1) > 0.0).any(axis=1).all():
        raise ContractError("an FD video selected nothing; pick another seed")

    named = bundle.named_parameters()
    probes = {f"e2e_loss/{name}": named[name] for name in (
        "selector.gate.w2", "selector.gate.b2", "selector.kernels", "selector.attn_q",
        "selector.enc.b2", "classifier.enc.b2", "classifier.head.w2")}
    return {name: finite_diff_check(lambda _x: loss(), p)
            for name, p in probes.items()}


def run_gradient_suite(seed: int = 0) -> dict[str, float]:
    """All checks; values are max relative errors, passing means < 1e-4."""
    rng = np.random.default_rng(seed)
    errs = _op_cases(rng)
    errs.update(_gating_cases())
    errs.update(_e2e_cases(seed))
    return errs


def suite_passes(errors: dict[str, float], threshold: float = THRESHOLD) -> bool:
    return bool(errors) and max(errors.values()) < threshold
