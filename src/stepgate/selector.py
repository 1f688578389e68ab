"""Timestep selection: light per-timestep features feed the gating stack.

A cheap encoder (an ``autodiff.MLP``) turns one raw frame per timestep slot
into a feature vector; in context mode a single-head self-attention layer
mixes information across timesteps before gating, while frame mode gates each
timestep from its own feature alone.  A video's frames are T slots of
``frames_per_slot`` raw frames, shaped (T, frames_per_slot, d_raw); the
heavy segment of a slot is its first ``segment_len`` frames and the light
frame is that segment's middle one, ``slot[segment_len // 2]``.
``SelectorParams`` holds the encoder, the attention projections, the concept
kernels and the gate MLP, named ``selector.enc.*``, ``selector.attn_{q,k,v}``,
``selector.kernels`` and ``selector.gate.*``.
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
    segment_len: int = 8

    def __post_init__(self):
        if self.context_mode not in CONTEXT_MODES:
            raise DomainError(f"context_mode must be one of {CONTEXT_MODES}, got {self.context_mode!r}")
        for name in ("channels", "n_kernels", "timesteps", "segment_len"):
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
    """Gate outcomes for one video, as arrays over its T timesteps.

    ``features`` are the (T, C) light features the gates read (after
    attention in context mode), ``logits`` the differentiable (T, 1) gate
    logits that feed the L0 term and the top-k ranking, ``activated`` the
    (T,) gate values (noisy clipped sigmoid in train mode, 0/1 in test mode)
    and ``open`` the boolean (T,) open mask.
    """

    features: Tensor
    logits: Tensor
    activated: Tensor
    open: np.ndarray

    @property
    def selected_indices(self) -> list[int]:
        """The open timesteps, ascending; empty when every gate closed."""
        return [int(i) for i in np.flatnonzero(self.open)]


# ---------------------------------------------------------------------------
# forward pieces


def encode_light(frames: np.ndarray, enc: MLP, segment_len: int) -> Tensor:
    """``enc`` over each slot's light frame, the middle frame of its heavy
    segment: ``frames[:, segment_len // 2]`` of the (T, frames_per_slot,
    d_raw) slots.

    The selector's light encoder and the saliency scorer's private one share
    this code, not their weights.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 3 or frames.shape[1] < segment_len or frames.shape[2] != enc.n_in:
        raise DimensionError(
            f"frames shape {frames.shape} is not slots of at least segment_len "
            f"{segment_len} frames of width {enc.n_in}"
        )
    return enc(Tensor(frames[:, segment_len // 2]))


def lightnet_features(frames: np.ndarray, params: SelectorParams) -> Tensor:
    """The selector's light features, one row per timestep slot."""
    cfg = params.config
    feats = encode_light(frames, params.enc, cfg.segment_len)
    if feats.shape[0] != cfg.timesteps:
        raise DimensionError(
            f"video has {feats.shape[0]} slots, the selector expects {cfg.timesteps}"
        )
    return feats


def self_attention(features: Tensor, params: SelectorParams) -> Tensor:
    """Single-head scaled dot-product self-attention with a residual add."""
    if params.attn_q is None:
        raise ContractError("self_attention called on a frame-mode selector")
    c = params.config.channels
    if features.data.ndim != 2 or features.shape[1] != c:
        raise DimensionError(f"attention needs (T, {c}) features, got {features.shape}")
    return ad.attention(features, params.attn_q, params.attn_k, params.attn_v)


def _gate_inputs(frames: np.ndarray, params: SelectorParams) -> tuple[Tensor, Tensor]:
    """The features the gates read and their (T, 1) gate logits."""
    feats = lightnet_features(frames, params)
    if params.config.context_mode == "context":
        feats = self_attention(feats, params)
    sims = gating.similarity_batch(feats, params.kernels)
    return feats, gating.gate_logits_batch(sims, params.gate)


def gate_logits(frames: np.ndarray, params: SelectorParams) -> Tensor:
    """Per-timestep gate logits as a (T, 1) column."""
    return _gate_inputs(frames, params)[1]


def select(frames: np.ndarray, params: SelectorParams, mode: str,
           rng: np.random.Generator | None = None) -> SelectionResult:
    """Run the full selection pipeline over one video's (T, frames_per_slot,
    d_raw) frames.

    ``mode`` is "train" (noisy clipped sigmoid; needs ``rng``) or "test"
    (deterministic step).  ``selected_indices`` is exactly the ascending set
    of open gates; empty selections are legal here and resolved by
    ``heavy_indices``.
    """
    if mode not in ("train", "test"):
        raise DomainError(f"selection mode must be 'train' or 'test', got {mode!r}")
    t = params.config.timesteps
    feats, alphas = _gate_inputs(frames, params)
    if mode == "train":
        if rng is None:
            raise ContractError("train-mode selection needs an rng for the gate noise")
        noises = gating.sample_gate_noise_batch(rng, t).reshape(t, 1)
        value, open_mask = gating.activate_train_batch(alphas, noises)
    else:
        value, open_mask = gating.activate_test_batch(alphas)
    return SelectionResult(features=feats, logits=alphas, activated=value,
                           open=open_mask)


def heavy_indices(result: SelectionResult) -> list[int]:
    """Timesteps the heavy stage encodes: the open ones or, when every gate
    closed, the single timestep with the highest logit."""
    return result.selected_indices or [int(np.argmax(result.logits.data))]


def top_k_indices(result: SelectionResult, k: int) -> list[int]:
    """The k timesteps with the highest gate activation ``sigmoid(logit)``.

    Ranking uses the continuous activation rather than the thresholded value
    (in test mode the latter is binary and cannot order timesteps); ties go
    to the lower index.  Returned ascending.
    """
    t = result.open.size
    if not (1 <= k <= t):
        raise DomainError(f"top-k budget must lie in [1, {t}], got {k}")
    scores = ad.sigmoid_np(result.logits.data.reshape(-1))
    order = np.argsort(-scores, kind="stable")
    return sorted(int(i) for i in order[:k])
