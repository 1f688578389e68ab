"""Timestep selection: light per-timestep features feed the gating stack.

A cheap encoder (an ``autodiff.MLP``) turns each timestep's light frame into
a feature vector; a selector with attention projections mixes information
across timesteps before gating, one without (frame mode) gates each
timestep from its own feature alone.  Which raw frame of a slot is the light
frame, and how many timesteps a video has, is
``harness.evaluation.light_frames``'s rule; no parameter's shape depends on
T.  ``SelectorParams`` holds the encoder, the attention projections, the
concept kernels and the gate MLP, named ``selector.enc.*``,
``selector.attn_{q,k,v}``, ``selector.kernels`` and ``selector.gate.*``.

``select`` and every layer it calls take the (B, T, d_raw) light frames of
B videos, B rows of a split's ``light_frames``.  Its B*T rows run video
after video through one light-encoder pass, one attention op, one
similarity product and one gate MLP pass, and attention mixes timesteps
within each video only.  Evaluation selects a minibatch per call; training
selects one video per call, B = 1.
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


@dataclass
class SelectorParams:
    """Learned state of the selection stage."""

    enc: MLP
    attn_q: Tensor | None
    attn_k: Tensor | None
    attn_v: Tensor | None
    kernels: Tensor  # n_kernels x channels
    gate: MLP

    @classmethod
    def init(cls, d_raw: int, channels: int, n_kernels: int, gate_hidden: int,
             open_bias: float, attention: bool,
             rng: np.random.Generator) -> "SelectorParams":
        """Draws q/k/v (only with ``attention``), then the light encoder, the
        concept kernels and the gate MLP (output bias ``open_bias``), each at
        scale 1/sqrt(fan-in)."""
        c = channels
        s_c = 1.0 / math.sqrt(c)
        if attention:
            attn = [Tensor(s_c * rng.standard_normal((c, c)), requires_grad=True) for _ in range(3)]
        else:
            attn = [None, None, None]
        enc = MLP.init(d_raw, LIGHT_HIDDEN, c, rng)
        kernels = Tensor(s_c * rng.standard_normal((n_kernels, c)), requires_grad=True)
        return cls(enc=enc, attn_q=attn[0], attn_k=attn[1], attn_v=attn[2],
                   kernels=kernels,
                   gate=MLP.init(n_kernels, gate_hidden, 1, rng, out_bias=open_bias))


@dataclass
class SelectionResult:
    """Gate outcomes of a stack of B videos, as arrays over their B*T
    timesteps, video after video.

    ``features`` are the (B*T, C) light features the gates read (after
    attention, when the selector has it), ``logits`` the differentiable (B*T, 1) gate
    logits that feed training's rate term and the top-k ranking, ``activated`` the
    (B*T,) gate values (noisy clipped sigmoid in train mode, 0/1 in test
    mode) and ``open`` the boolean (B*T,) open mask.
    """

    features: Tensor
    logits: Tensor
    activated: Tensor
    open: np.ndarray


# ---------------------------------------------------------------------------
# forward pieces


def lightnet_features(light: np.ndarray, params: SelectorParams) -> Tensor:
    """The light encoder over a (B, T, d_raw) stack of light frames: (B*T, C)
    features, one row per timestep, video after video."""
    d_raw = params.enc.n_in
    if light.ndim != 3 or light.shape[2] != d_raw:
        raise DimensionError(f"light frames of shape {light.shape} are not a stack of "
                             f"(T, d_raw = {d_raw}) videos")
    return params.enc(Tensor(light.reshape(-1, d_raw)))


def self_attention(features: Tensor, params: SelectorParams, t: int) -> Tensor:
    """Single-head scaled dot-product self-attention with a residual add,
    within each video of (B*t, C) feature rows."""
    if params.attn_q is None:
        raise ContractError("self_attention called on a frame-mode selector")
    return ad.attention(features, params.attn_q, params.attn_k, params.attn_v, t)


def select(light: np.ndarray, params: SelectorParams, mode: str,
           rng: np.random.Generator | None = None) -> SelectionResult:
    """The gate stack's one entry: light encoder, attention when the selector
    has it, similarity, gate MLP and gates over a (B, T, d_raw) light stack.

    ``mode`` is "train" (noisy clipped sigmoid; needs ``rng``) or "test"
    (deterministic step).  A stack draws its gate noise video after video,
    so it consumes ``rng`` exactly as B stacks of one in order would.  The
    recorded ops are the light ``mlp``, ``attention`` when the selector has
    it, one ``matmul_t`` similarity, the gate ``mlp`` and, in train mode,
    ``noisy_gate``.  A video may close every gate; ``heavy_indices`` resolves
    that.
    """
    if mode not in ("train", "test"):
        raise DomainError(f"selection mode must be 'train' or 'test', got {mode!r}")
    feats = lightnet_features(light, params)
    if params.attn_q is not None:
        feats = self_attention(feats, params, light.shape[1])
    alphas = gating.gate_logits_batch(gating.similarity_batch(feats, params.kernels),
                                      params.gate)
    if mode == "train":
        if rng is None:
            raise ContractError("train-mode selection needs an rng for the gate noise")
        value, open_mask = gating.activate_train_batch(alphas,
                                                       rng.logistic(size=alphas.shape))
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


def top_k_indices(keys: np.ndarray, budgets: list[int]) -> list[list[list[int]]]:
    """Per budget k, per row of (B, T) ranking keys, the k timesteps with the
    highest keys, ascending; ties go to the lower index.  Every budget slices
    one stable argsort of the whole stack.

    This is the one top-k rule.  The selector arms rank by gate activation
    ``sigmoid(logit)`` (``harness.evaluation.split_picks`` passes it), so
    saturated logits tie as their activations do; the SCSampler arm ranks
    by saliency score through ``baselines.sample_indices``.
    """
    t = keys.shape[1]
    for k in budgets:
        if not (1 <= k <= t):
            raise DomainError(f"top-k budget must lie in [1, {t}], got {k}")
    order = np.argsort(-keys, axis=1, kind="stable")
    return [np.sort(order[:, :k], axis=1).tolist() for k in budgets]
