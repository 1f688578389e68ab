"""Timestep selection: light per-timestep features feed the gating stack.

A cheap shared encoder turns one raw frame per timestep slot into a feature
vector; in context mode a single-head self-attention layer mixes information
across timesteps before gating, while frame mode gates each timestep from its
own feature alone.  Heavy segments start at ``slot * stride`` and the light
frame for a slot is the segment's middle frame at offset ``segment_len // 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import gating
from .autodiff import Tensor
from .errors import ContractError, DimensionError, DomainError
from .gating import ConceptBank, GatingMLP

LIGHT_HIDDEN = 64

CONTEXT_MODES = ("context", "frame")


@dataclass
class SelectorConfig:
    """Shapes and switches of the selection stage."""

    channels: int
    n_kernels: int = 128
    context_mode: str = "context"
    attention_heads: int = 1
    timesteps: int = 32
    segment_len: int = 8

    def __post_init__(self):
        if self.context_mode not in CONTEXT_MODES:
            raise DomainError(f"context_mode must be one of {CONTEXT_MODES}, got {self.context_mode!r}")
        if self.attention_heads != 1:
            raise DomainError(f"only one attention head is supported, got {self.attention_heads}")
        for name in ("channels", "n_kernels", "timesteps", "segment_len"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass
class SelectorParams:
    """Learned state of the selection stage."""

    config: SelectorConfig
    enc_w1: Tensor
    enc_b1: Tensor
    enc_w2: Tensor
    enc_b2: Tensor
    attn_q: Tensor | None
    attn_k: Tensor | None
    attn_v: Tensor | None
    bank: ConceptBank
    gate: GatingMLP

    @classmethod
    def init(cls, config: SelectorConfig, d_raw: int, rng: np.random.Generator,
             gate_hidden: int = 64, open_bias: float = 2.0) -> "SelectorParams":
        c = config.channels
        s_in, s_hid, s_att = 1.0 / math.sqrt(d_raw), 1.0 / math.sqrt(LIGHT_HIDDEN), 1.0 / math.sqrt(c)
        if config.context_mode == "context":
            attn = [Tensor(s_att * rng.standard_normal((c, c)), requires_grad=True) for _ in range(3)]
        else:
            attn = [None, None, None]
        return cls(
            config=config,
            enc_w1=Tensor(s_in * rng.standard_normal((d_raw, LIGHT_HIDDEN)), requires_grad=True),
            enc_b1=Tensor(np.zeros(LIGHT_HIDDEN), requires_grad=True),
            enc_w2=Tensor(s_hid * rng.standard_normal((LIGHT_HIDDEN, c)), requires_grad=True),
            enc_b2=Tensor(np.zeros(c), requires_grad=True),
            attn_q=attn[0], attn_k=attn[1], attn_v=attn[2],
            bank=ConceptBank.init(config.n_kernels, c, rng),
            gate=GatingMLP.init(config.n_kernels, gate_hidden, rng, open_bias=open_bias),
        )

    def named_parameters(self, prefix: str = "selector") -> dict[str, Tensor]:
        out = {
            f"{prefix}.enc_w1": self.enc_w1, f"{prefix}.enc_b1": self.enc_b1,
            f"{prefix}.enc_w2": self.enc_w2, f"{prefix}.enc_b2": self.enc_b2,
        }
        if self.attn_q is not None:
            out.update({f"{prefix}.attn_q": self.attn_q, f"{prefix}.attn_k": self.attn_k,
                        f"{prefix}.attn_v": self.attn_v})
        out.update({
            f"{prefix}.kernels": self.bank.kernels,
            f"{prefix}.gate_w1": self.gate.w1, f"{prefix}.gate_b1": self.gate.b1,
            f"{prefix}.gate_w2": self.gate.w2, f"{prefix}.gate_b2": self.gate.b2,
        })
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
# alignment


def segment_center(start: int, segment_len: int) -> int:
    """Middle frame of the segment covering ``[start, start + segment_len)``.

    For ``segment_len == 1`` this is the identity on starts.
    """
    if start < 0 or segment_len < 1:
        raise DomainError(f"bad segment: start={start}, segment_len={segment_len}")
    return start + segment_len // 2


def align_timesteps(t_heavy: int, segment_len: int, stride: int,
                    n_frames: int | None = None) -> list[int]:
    """Light frame index for each heavy timestep slot.

    The heavy segment of slot ``i`` covers raw frames
    ``[i * stride, i * stride + segment_len)`` and its light frame is the
    segment's middle one, ``segment_center(i * stride, segment_len)``.
    """
    if t_heavy < 1 or segment_len < 1 or stride < 1:
        raise DomainError(
            f"alignment needs positive sizes, got t_heavy={t_heavy}, "
            f"segment_len={segment_len}, stride={stride}"
        )
    indices = [segment_center(i * stride, segment_len) for i in range(t_heavy)]
    limit = n_frames if n_frames is not None else t_heavy * stride
    if indices[-1] >= limit:
        raise ContractError(
            f"alignment index {indices[-1]} out of range for {limit} frames "
            f"(t_heavy={t_heavy}, segment_len={segment_len}, stride={stride})"
        )
    return indices


# ---------------------------------------------------------------------------
# forward pieces


def encode_light(frames: np.ndarray, enc, timesteps: int, segment_len: int,
                 stride: int) -> Tensor:
    """Two-layer MLP over each timestep's aligned light frame.

    ``enc`` is any parameter set with ``enc_w1, enc_b1, enc_w2, enc_b2``: the
    selector's light encoder and the saliency scorer's private one share this
    code, not their weights.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != enc.enc_w1.shape[0]:
        raise DimensionError(
            f"frames shape {frames.shape} does not match encoder input width "
            f"{enc.enc_w1.shape[0]}"
        )
    idx = align_timesteps(timesteps, segment_len, stride, n_frames=frames.shape[0])
    h = ad.relu(ad.affine(Tensor(frames[idx]), enc.enc_w1, enc.enc_b1))
    return ad.affine(h, enc.enc_w2, enc.enc_b2)


def lightnet_features(frames: np.ndarray, params: SelectorParams, stride: int) -> Tensor:
    """The selector's light features, one row per timestep."""
    cfg = params.config
    return encode_light(frames, params, cfg.timesteps, cfg.segment_len, stride)


def self_attention(features: Tensor, params: SelectorParams) -> Tensor:
    """Single-head scaled dot-product self-attention with a residual add."""
    if params.attn_q is None:
        raise ContractError("self_attention called on a frame-mode selector")
    c = params.config.channels
    if features.data.ndim != 2 or features.shape[1] != c:
        raise DimensionError(f"attention needs (T, {c}) features, got {features.shape}")
    q = ad.matmul(features, params.attn_q)
    k = ad.matmul(features, params.attn_k)
    v = ad.matmul(features, params.attn_v)
    scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / math.sqrt(c))
    return ad.add(features, ad.matmul(ad.softmax_rows(scores), v))


def _gate_inputs(frames: np.ndarray, params: SelectorParams,
                 stride: int) -> tuple[Tensor, Tensor]:
    """The features the gates read and their (T, 1) gate logits."""
    feats = lightnet_features(frames, params, stride)
    if params.config.context_mode == "context":
        feats = self_attention(feats, params)
    sims = gating.similarity_batch(feats, params.bank)
    return feats, gating.gate_logits_batch(sims, params.gate)


def gate_logits(frames: np.ndarray, params: SelectorParams, stride: int) -> Tensor:
    """Per-timestep gate logits as a (T, 1) column."""
    return _gate_inputs(frames, params, stride)[1]


def select(frames: np.ndarray, params: SelectorParams, mode: str, stride: int,
           rng: np.random.Generator | None = None) -> SelectionResult:
    """Run the full selection pipeline over one video's frames.

    ``mode`` is "train" (noisy clipped sigmoid; needs ``rng``) or "test"
    (deterministic step).  ``selected_indices`` is exactly the ascending set
    of open gates; empty selections are legal here and resolved by
    ``heavy_indices``.
    """
    if mode not in ("train", "test"):
        raise DomainError(f"selection mode must be 'train' or 'test', got {mode!r}")
    t = params.config.timesteps
    feats, alphas = _gate_inputs(frames, params, stride)
    if mode == "train":
        if rng is None:
            raise ContractError("train-mode selection needs an rng for the gate noise")
        noises = gating.sample_gate_noise_batch(rng, t).reshape(t, 1)
        value, open_mask = gating.activate_train_batch(alphas, noises)
    else:
        value, open_mask = gating.activate_test_batch(alphas)
    return SelectionResult(features=feats, logits=alphas,
                           activated=ad.reshape(value, (t,)), open=open_mask)


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
    scores = gating.sigmoid_np(result.logits.data.reshape(-1))
    order = np.argsort(-scores, kind="stable")
    return sorted(int(i) for i in order[:k])
