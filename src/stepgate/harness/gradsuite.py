"""Bundled finite-difference checks: one case table with every op that has
a backward, each under its tape name (the loss terms included), plus
training's own batch loss on a two-video batch, reported as name -> max
relative error.  A case reads a non-scalar op's output through
``_project``, its dot product with fixed weights: one ``matmul_t`` of two
(1, n) rows.

Every case runs in float64: the op cases on float64 inputs, the batch-loss
cases on a float64 bundle, where the same ops run as on the float32 models.
Inputs are fixed and kept away from clip, threshold, and tie boundaries so
central differences are valid; the batch-loss cases freeze gate noise by
reseeding inside the probed function, with the first seed that keeps every
noisy gate logit a safety margin from the threshold.
"""

from __future__ import annotations

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor, finite_diff_check
from ..errors import ContractError
from ..selector import select
from ..synthdata import generate_dataset
from .config import DatasetConfig, ExperimentConfig, ModelConfig
from .evaluation import light_frames
from .models import build_bundle
from .training import _phase_a_loss

THRESHOLD = 1e-4
# gate-noise seeds the e2e cases try, and the margin a noisy logit keeps from
# the gate threshold so that no probe flips a gate
_NOISE_SEED, _NOISE_TRIES, _MARGIN = 101, 20, 5e-2

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
    row = ad.reshape(t, (1, t.numel()))
    return ad.matmul_t(row, Tensor(w.reshape(1, -1)))


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
    alphas = np.array([[1.2], [-0.8], [2.0], [-1.5]])
    noises = np.array([[0.5], [-0.7], [1.0], [0.4]])
    if np.min(np.abs(alphas + noises)) < 0.5:
        raise ContractError("gate FD case drifted onto the threshold")

    def attend(x, q=proj[0], k=proj[1], v=proj[2]):
        return _project(ad.attention(x, q, k, v, 3), w34)

    cases = {
        # rows of x against the rows of a (4, 4) kernel matrix
        "matmul_t": (lambda x: _project(ad.matmul_t(x, proj[0]), w43), _param(_X34)),
        # the kernels' gradient; the constant first operand's is dropped
        "matmul_t_kernels": (lambda k: _project(ad.matmul_t(Tensor(_X34), k), w43),
                             _param(proj[0].data)),
        "add": (lambda x: _project(ad.add(x, other), w34), _param(_X34)),
        "scale_rows": (lambda x: _project(ad.scale_rows(x, Tensor(_X34[:, 0])), w34),
                       _param(_X34)),
        "scale_rows_scales": (lambda v: _project(ad.scale_rows(other, v), w34),
                              _param(_X34[:, 0])),
        "sigmoid": (lambda x: _project(ad.sigmoid(x), w34), _param(_X34)),
        "reshape": (lambda x: _project(ad.reshape(x, (2, 6)), w34), _param(_X34)),
        "take_rows": (lambda x: _project(ad.take_rows(x, [0, 2, 2, 1]), w16),
                      _param(_X34)),
        # segments of 1 and 2 rows; each segment's column maxima are unique
        # with margin >= 0.3
        "segment_max": (lambda x: _project(ad.segment_max(x, [1, 2]), w34[:8]),
                        _param(_MAX_SAFE)),
        "concat_rows": (lambda x: _project(ad.concat_rows(
            [ad.take_rows(x, [2]), other, x]), w28), _param(_X34)),
        "softmax_xent": (lambda x: ad.softmax_xent(x, np.eye(4)[[3, 0, 2]]), _param(_X34)),
        # target distributions: uniform over two and over three positives
        "softmax_xent_soft": (lambda x: ad.softmax_xent(
            x, np.array([[0.5, 0.0, 0.5, 0.0], [0.0, 1.0, 0.0, 0.0],
                         [1 / 3, 1 / 3, 0.0, 1 / 3]])), _param(_X34)),
        "bce_logits": (lambda x: ad.bce_logits(
            x, np.array([[1, 0, 0, 1], [0, 1, 1, 0], [1, 1, 0, 0]],
                        dtype=np.float64)), _param(_X34)),
        "affine": (lambda x: _project(ad.affine(x, b, bias2), w32), _param(_X34)),
        # constant first operand, whose gradient is dropped
        "affine_weight": (lambda w: _project(ad.affine(Tensor(_X34), w, bias2), w32),
                          _param(b.data)),
        "affine_bias": (lambda v: _project(ad.affine(Tensor(_X34), b, v), w32),
                        _param(bias2.data)),
        "mlp": (lambda x: _project(ad.mlp(x, Tensor(_W1), Tensor(_B1), w2, bias2), w32),
                _param(_X34)),
        # a row with no output gradient: its row of the input gradient is 0
        "mlp_pooled": (lambda x: _project(ad.segment_max(ad.mlp(
            x, Tensor(_W1), Tensor(_B1), Tensor(_W2_POOLED), Tensor(np.array([0.1]))),
            [1, 2]), w34[:2]), _param(_X34)),
        # constant input, the encoders' case: backward skips its gradient product
        "mlp_weight": (lambda w: _project(ad.mlp(Tensor(_X34), w, Tensor(_B1), w2, bias2),
                                          w32), _param(_W1)),
        # one sequence of 3 rows
        "attention": (attend, _param(_X34)),
        # constant input, whose gradient is dropped; one projection at a time
        "attention_q": (lambda w: attend(Tensor(_X34), q=w), _param(proj[0].data)),
        "attention_k": (lambda w: attend(Tensor(_X34), k=w), _param(proj[1].data)),
        "attention_v": (lambda w: attend(Tensor(_X34), v=w), _param(proj[2].data)),
        # two sequences of 3 rows, each attending within itself
        "attention_stack": (lambda x: _project(ad.attention(x, *proj, 3), w24),
                            _param(stack)),
        "attention_stack_q": (lambda w: _project(ad.attention(
            Tensor(stack), w, proj[1], proj[2], 3), w24), _param(proj[0].data)),
        "noisy_gate": (lambda x: _project(ad.noisy_gate(x, noises),
                                          np.array([0.9, -1.3, 0.4, 0.7])), _param(alphas)),
        # a mean open probability of 0.54 against a target of 0.25
        "rate_penalty": (lambda x: ad.rate_penalty(ad.sigmoid(x), 0.25), _param(alphas)),
    }
    return {name: finite_diff_check(f, x) for name, (f, x) in cases.items()}


def _suite_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        mode="e2e", seed=seed,
        dataset=DatasetConfig(n_train=4, n_test=2, n_classes=3, n_shared=3,
                              n_background=2, d_raw=6, timesteps=4,
                              frames_per_slot=4, relevant_fraction=0.5),
        model=ModelConfig(light_channels=5, heavy_channels=5, n_kernels=6,
                          gate_hidden=5, segment_len=4),
    )


def _e2e_cases(seed: int) -> dict[str, float]:
    config = _suite_config(seed)
    bundle = build_bundle(config, dtype=np.float64)
    dataset = generate_dataset(config.dataset.spec(), 4, 2, config.seed)
    batch = [0, 1]
    # the first gate-noise seed whose noisy logits all sit clear of the gate
    # threshold and open a gate in every video
    alphas = select(light_frames(dataset.train[batch], config),
                    bundle.selector, "test").logits.data.ravel()
    for noise_seed in range(_NOISE_SEED, _NOISE_SEED + _NOISE_TRIES):
        z = alphas + np.random.default_rng(noise_seed).logistic(size=alphas.size)
        opens = (z.reshape(len(batch), -1) > 0.0).any(axis=1)
        if np.min(np.abs(z)) >= _MARGIN and opens.all():
            break
    else:
        raise ContractError(
            f"no gate-noise seed in [{_NOISE_SEED}, {_NOISE_SEED + _NOISE_TRIES}) keeps "
            f"every noisy logit {_MARGIN} clear of the threshold and opens a gate "
            f"in both videos; change the suite seed"
        )

    def loss():
        batch_loss = _phase_a_loss(config, bundle, dataset, np.random.default_rng(noise_seed))
        return batch_loss(0, batch)[0]

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
    errs.update(_e2e_cases(seed))
    return errs


def suite_passes(errors: dict[str, float]) -> bool:
    return bool(errors) and max(errors.values()) < THRESHOLD
