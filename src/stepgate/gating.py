"""Per-timestep gating: concept similarity, a gate MLP, and noisy thresholding.

All T timesteps of a video are gated at once.  Each timestep feature (a row
of a T x C matrix) is compared against a bank of learned concept kernels, a
two-layer MLP reduces each similarity row to a single logit, and the (T, 1)
logit column is turned into gate values by a noisy clipped sigmoid.

During training the activation is ``a = clip(sigmoid(logit + G))`` where
``G = G1 - G2`` is the difference of two independent Gumbel(0, 1) draws
(equivalently one Logistic(0, 1) sample) and the clip zeroes everything at or
below 1/2.  Because the noise is logistic, the probability that a gate opens
is exactly ``sigmoid(logit)``.  At test time the noise is dropped and the
clipped sigmoid becomes a hard step: open iff the logit is positive.

Backward treats the clip indicator as a constant, so gradient flows through
the sigmoid only for open gates and closed gates contribute exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError, DomainError

GATE_THRESHOLD = 0.5


def sigmoid_np(z):
    """Plain numpy sigmoid with the same exponent clamp as the autodiff op."""
    zc = np.clip(np.asarray(z, dtype=np.float64), -ad.SIGMOID_CLAMP, ad.SIGMOID_CLAMP)
    return 1.0 / (1.0 + np.exp(-zc))


@dataclass
class ConceptBank:
    """Learned concept kernels, one row per concept."""

    kernels: Tensor  # n_kernels x channels

    @classmethod
    def init(cls, n_kernels: int, channels: int, rng: np.random.Generator) -> "ConceptBank":
        if n_kernels < 1 or channels < 1:
            raise DomainError(f"concept bank needs positive sizes, got {n_kernels} x {channels}")
        scale = 1.0 / math.sqrt(channels)
        return cls(Tensor(scale * rng.standard_normal((n_kernels, channels)), requires_grad=True))

    @property
    def n_kernels(self) -> int:
        return self.kernels.shape[0]

    @property
    def channels(self) -> int:
        return self.kernels.shape[1]


@dataclass
class GatingMLP:
    """Two-layer MLP mapping a similarity vector to one gate logit."""

    w1: Tensor  # n_in x hidden
    b1: Tensor  # hidden
    w2: Tensor  # hidden x 1
    b2: Tensor  # 1

    @classmethod
    def init(cls, n_in: int, hidden: int, rng: np.random.Generator,
             open_bias: float = 0.0) -> "GatingMLP":
        """``open_bias`` preloads the output bias so gates start mostly open."""
        if n_in < 1 or hidden < 1:
            raise DomainError(f"gating MLP needs positive sizes, got {n_in} -> {hidden}")
        s1, s2 = 1.0 / math.sqrt(n_in), 1.0 / math.sqrt(hidden)
        return cls(
            w1=Tensor(s1 * rng.standard_normal((n_in, hidden)), requires_grad=True),
            b1=Tensor(np.zeros(hidden), requires_grad=True),
            w2=Tensor(s2 * rng.standard_normal((hidden, 1)), requires_grad=True),
            b2=Tensor(np.full(1, float(open_bias)), requires_grad=True),
        )

    @property
    def n_in(self) -> int:
        return self.w1.shape[0]


# ---------------------------------------------------------------------------
# similarity and logits


def similarity_batch(features: Tensor, bank: ConceptBank) -> Tensor:
    """Similarity of every timestep feature to every concept kernel:
    ``X @ K.T`` for ``X`` of shape T x C."""
    if features.data.ndim != 2 or features.shape[1] != bank.channels:
        raise DimensionError(
            f"similarity_batch got features {features.shape} against kernels "
            f"{tuple(bank.kernels.shape)}"
        )
    return ad.matmul(features, ad.transpose(bank.kernels))


def gate_logits_batch(similarities: Tensor, mlp: GatingMLP) -> Tensor:
    """T x n_in similarities to a T x 1 column of logits."""
    if similarities.data.ndim != 2 or similarities.shape[1] != mlp.n_in:
        raise DimensionError(
            f"gate_logits_batch got similarities {similarities.shape}, expected (T, {mlp.n_in})"
        )
    h = ad.relu(ad.affine(similarities, mlp.w1, mlp.b1))
    return ad.affine(h, mlp.w2, mlp.b2)


# ---------------------------------------------------------------------------
# noise and activation


def sample_gate_noise_batch(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` Logistic(0, 1) draws, the law of a difference of two Gumbel(0, 1)s."""
    if n < 1:
        raise DomainError(f"need at least one noise draw, got {n}")
    u = rng.random(n)
    tiny = np.finfo(np.float64).tiny
    u = np.clip(u, tiny, 1.0 - 2 ** -53)
    return np.log(u) - np.log1p(-u)


def activate_train_batch(alphas: Tensor, noises: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Noisy clipped-sigmoid activation of a logit tensor.

    Returns the activated tensor and the flat open mask.  Values land in {0}
    or (1/2, 1]; an exact 1/2 closes the gate.  The threshold
    ``sigmoid(z) > 1/2`` is evaluated as ``z > 0`` so that it stays exact
    where the sigmoid itself rounds to 1/2.  The clip mask is constant for
    backward, so gradient reaches ``alphas`` only through open gates.
    """
    noises = np.asarray(noises, dtype=np.float64)
    if noises.shape != tuple(alphas.shape):
        raise DimensionError(f"noise shape {noises.shape} does not match logits {alphas.shape}")
    z = ad.add(alphas, Tensor(noises))
    g = ad.sigmoid(z)
    open_mask = z.data > 0.0
    value = ad.mul(g, Tensor(open_mask.astype(np.float64)))
    return value, open_mask.reshape(-1)


def activate_test_batch(alphas) -> tuple[Tensor, np.ndarray]:
    """Deterministic step activation: open iff the logit is positive."""
    data = alphas.data if isinstance(alphas, Tensor) else np.asarray(alphas, dtype=np.float64)
    open_mask = data > 0.0
    return Tensor(open_mask.astype(np.float64)), open_mask.reshape(-1)


def l0_penalty(alphas: Tensor, lam: float) -> Tensor:
    """Expected-open-count surrogate: ``lam * mean(sigmoid(alpha_i))``."""
    if lam < 0:
        raise DomainError(f"sparsity weight must be non-negative, got {lam}")
    flat = ad.reshape(alphas, (alphas.numel(),))
    return ad.scale(ad.reduce_mean(ad.sigmoid(flat), axis=0), float(lam))
