"""Timestep selection: light per-timestep features feed the gating stack.

A cheap encoder (an ``autodiff.MLP``) turns each timestep's light frame into
a feature vector; in context mode a single-head self-attention layer mixes
information across timesteps before gating, while frame mode gates each
timestep from its own feature alone.  Which raw frame of a slot is the light
frame is ``harness.evaluation.light_frames``'s rule; the selector reads only
what it is given.  ``SelectorParams`` holds the encoder, the attention
projections, the concept kernels and the gate MLP, named
``selector.enc.*``, ``selector.attn_{q,k,v}``, ``selector.kernels`` and
``selector.gate.*``.

``select`` and every layer it calls take a (B, T, d_raw) stack of the light
frames of B videos; one video is a stack of one.  Its B*T rows run video
after video through one light-encoder pass, one attention op, one
similarity product and one gate MLP pass, and attention mixes timesteps
within each video only.  Evaluation selects a minibatch per call; training
selects one video per call, a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import gating
from .autodiff import MLP, Tensor
from .errors import ContractError, DimensionError, DomainError

LIGHT_HIDDEN = 64

CONTEXT_MODES = ("context", "frame")


@dataclass
class SelectorConfig:
    """Shapes and switches of the selection stage."""

    channels: int
    n_kernels: int = 128
    context_mode: str = "context"
    timesteps: int = 32

    def __post_init__(self):
        if self.context_mode not in CONTEXT_MODES:
            raise DomainError(f"context_mode must be one of {CONTEXT_MODES}, got {self.context_mode!r}")
        for name in ("channels", "n_kernels", "timesteps"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass
class SelectorParams:
    """Learned state of the selection stage."""

    config: SelectorConfig
    enc: MLP
    attn_q: Tensor | None
    attn_k: Tensor | None
    attn_v: Tensor | None
    kernels: Tensor  # n_kernels x channels
    gate: MLP

    @classmethod
    def init(cls, config: SelectorConfig, d_raw: int, rng: np.random.Generator,
             gate_hidden: int = 64, open_bias: float = 2.0) -> "SelectorParams":
        """Draws q/k/v (context mode only), then the light encoder, the
        concept kernels and the gate MLP, each at scale 1/sqrt(fan-in)."""
        c = config.channels
        s_c = 1.0 / math.sqrt(c)
        if config.context_mode == "context":
            attn = [Tensor(s_c * rng.standard_normal((c, c)), requires_grad=True) for _ in range(3)]
        else:
            attn = [None, None, None]
        enc = MLP.init(d_raw, LIGHT_HIDDEN, c, rng)
        kernels = Tensor(s_c * rng.standard_normal((config.n_kernels, c)), requires_grad=True)
        return cls(config=config, enc=enc, attn_q=attn[0], attn_k=attn[1], attn_v=attn[2],
                   kernels=kernels,
                   gate=MLP.init(config.n_kernels, gate_hidden, 1, rng, out_bias=open_bias))

    def named_parameters(self, prefix: str = "selector") -> dict[str, Tensor]:
        out = self.enc.named_parameters(f"{prefix}.enc")
        if self.attn_q is not None:
            out.update({f"{prefix}.attn_q": self.attn_q, f"{prefix}.attn_k": self.attn_k,
                        f"{prefix}.attn_v": self.attn_v})
        out[f"{prefix}.kernels"] = self.kernels
        out.update(self.gate.named_parameters(f"{prefix}.gate"))
        return out


@dataclass
class SelectionResult:
    """Gate outcomes of a stack of B videos, as arrays over their B*T
    timesteps, video after video.

    ``features`` are the (B*T, C) light features the gates read (after
    attention in context mode), ``logits`` the differentiable (B*T, 1) gate
    logits that feed the L0 term and the top-k ranking, ``activated`` the
    (B*T,) gate values (noisy clipped sigmoid in train mode, 0/1 in test
    mode) and ``open`` the boolean (B*T,) open mask.
    """

    features: Tensor
    logits: Tensor
    activated: Tensor
    open: np.ndarray

    @property
    def selected_indices(self) -> list[int]:
        """The open timesteps of a stack of one, ascending; empty when every
        gate closed."""
        return [int(i) for i in np.flatnonzero(self.open)]


# ---------------------------------------------------------------------------
# forward pieces


def lightnet_features(light: np.ndarray, params: SelectorParams) -> Tensor:
    """The light encoder over a (B, T, d_raw) stack of light frames: (B*T, C)
    features, one row per timestep, video after video."""
    want = (params.config.timesteps, params.enc.n_in)
    if light.ndim != 3 or light.shape[1:] != want:
        raise DimensionError(f"light frames of shape {light.shape} are not a stack of "
                             f"(T, d_raw) = {want} videos")
    return params.enc(Tensor(light.reshape(-1, want[1])))


def self_attention(features: Tensor, params: SelectorParams) -> Tensor:
    """Single-head scaled dot-product self-attention with a residual add,
    within each video of (B*T, C) feature rows."""
    if params.attn_q is None:
        raise ContractError("self_attention called on a frame-mode selector")
    return ad.attention(features, params.attn_q, params.attn_k, params.attn_v,
                        params.config.timesteps)


def _gate_inputs(light: np.ndarray, params: SelectorParams) -> tuple[Tensor, Tensor]:
    """The features the gates read and their (B*T, 1) gate logits."""
    feats = lightnet_features(light, params)
    if params.config.context_mode == "context":
        feats = self_attention(feats, params)
    sims = gating.similarity_batch(feats, params.kernels)
    return feats, gating.gate_logits_batch(sims, params.gate)


def gate_logits(light: np.ndarray, params: SelectorParams) -> Tensor:
    """Per-timestep gate logits of a (B, T, d_raw) light stack as a (B*T, 1)
    column."""
    return _gate_inputs(light, params)[1]


def select(light: np.ndarray, params: SelectorParams, mode: str,
           rng: np.random.Generator | None = None) -> SelectionResult:
    """Run the full selection pipeline over a (B, T, d_raw) stack of light
    frames.

    ``mode`` is "train" (noisy clipped sigmoid; needs ``rng``) or "test"
    (deterministic step).  A stack draws its gate noise video after video,
    so it consumes ``rng`` exactly as B stacks of one in order would.  For a
    stack of one, ``selected_indices`` is exactly the ascending set of open
    gates; empty selections are legal here and resolved by ``heavy_indices``.
    """
    if mode not in ("train", "test"):
        raise DomainError(f"selection mode must be 'train' or 'test', got {mode!r}")
    feats, alphas = _gate_inputs(light, params)
    if mode == "train":
        if rng is None:
            raise ContractError("train-mode selection needs an rng for the gate noise")
        n = alphas.shape[0]
        noises = gating.sample_gate_noise_batch(rng, n).reshape(n, 1)
        value, open_mask = gating.activate_train_batch(alphas, noises)
    else:
        value, open_mask = gating.activate_test_batch(alphas)
    return SelectionResult(features=feats, logits=alphas, activated=value,
                           open=open_mask)


def heavy_indices(open_mask: np.ndarray, logits: np.ndarray) -> list[list[int]]:
    """Per video of (B, T) open masks and gate logits, the timesteps the
    heavy stage encodes: the open ones or, when every gate of the video
    closed, its single timestep with the highest logit; ascending."""
    fallback = np.argmax(logits, axis=1)
    return [np.flatnonzero(row).tolist() or [int(i)]
            for row, i in zip(open_mask, fallback)]


def top_k_indices(logits: np.ndarray, budgets: list[int]) -> list[list[list[int]]]:
    """Per budget k, per video of (B, T) gate logits, the k timesteps with the
    highest gate activation ``sigmoid(logit)``, ascending.

    Ranking uses the continuous activation rather than the thresholded value
    (in test mode the latter is binary and cannot order timesteps); ties go
    to the lower index.  Every budget slices one stable argsort of the whole
    stack.
    """
    t = logits.shape[1]
    for k in budgets:
        if not (1 <= k <= t):
            raise DomainError(f"top-k budget must lie in [1, {t}], got {k}")
    order = np.argsort(-ad.sigmoid_np(logits), axis=1, kind="stable")
    return [np.sort(order[:, :k], axis=1).tolist() for k in budgets]
