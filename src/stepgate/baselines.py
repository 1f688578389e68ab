"""Segment-conditioned sampling baselines.

The saliency scorer judges each timestep from that timestep's light frame
alone, one (d_raw,) row of the frames ``harness.evaluation.light_frames``
picks: a private light encoder feeds a linear softmax head and the score is
the head's maximum class probability.  No operation here ever looks across
timesteps, so position- and context-invariance hold structurally.  The head
starts at zero, which makes the untrained score exactly ``1 / n_classes``.

``sample_indices`` owns the three selector-free sampling rules (evenly
spaced, seeded random, score top-k) shared by the baseline arms; its top-k
delegates to ``selector.top_k_indices``, the one top-k rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import MLP, Tensor
from .errors import ContractError, DimensionError, DomainError
from .selector import LIGHT_HIDDEN, top_k_indices

SAMPLE_MODES = ("uniform", "random", "topk")


@dataclass
class ScorerParams:
    """Light encoder plus linear classification head of the saliency scorer."""

    enc: MLP
    head_w: Tensor
    head_b: Tensor

    @classmethod
    def init(cls, d_raw: int, channels: int, n_classes: int,
             rng: np.random.Generator) -> "ScorerParams":
        if min(d_raw, channels) < 1 or n_classes < 2:
            raise DomainError(
                f"scorer needs positive dims and >= 2 classes, got "
                f"d_raw={d_raw}, channels={channels}, n_classes={n_classes}"
            )
        return cls(
            enc=MLP.init(d_raw, LIGHT_HIDDEN, channels, rng),
            # zero head: softmax starts uniform, so scores start at 1 / n_classes
            head_w=Tensor(np.zeros((channels, n_classes)), requires_grad=True),
            head_b=Tensor(np.zeros(n_classes), requires_grad=True),
        )


def scorer_logits(light: np.ndarray, params: ScorerParams) -> Tensor:
    """Class logits (N, L) of (N, d_raw) light frames, such as one video's or
    a whole batch's, one row per timestep; the differentiable training path.
    Each row depends on its own light frame only."""
    return ad.affine(params.enc(Tensor(light)), params.head_w, params.head_b)


def scsampler_scores(light: np.ndarray, params: ScorerParams) -> np.ndarray:
    """Saliency scores, shape (N,), of (N, d_raw) light frames: the head's
    maximum softmax probability at each."""
    logits = scorer_logits(light, params).data
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e.max(axis=1) / e.sum(axis=1)


def sample_indices(mode: str, t: int, k: int, scores=None,
                   seed: int | None = None) -> list[int]:
    """Pick ``k`` of ``t`` timesteps; always distinct and ascending.

    uniform: evenly spaced with centered offset, ``floor((2i+1)*t / (2k))``.
    random: seeded draw without replacement.
    topk: the k highest scores, ties to the lower index (``top_k_indices``).
    """
    if mode not in SAMPLE_MODES:
        raise DomainError(f"mode must be one of {SAMPLE_MODES}, got {mode!r}")
    if t < 1 or not 1 <= k <= t:
        raise DomainError(f"need 1 <= k <= t, got k={k}, t={t}")
    if mode == "uniform":
        return [(2 * i + 1) * t // (2 * k) for i in range(k)]
    if mode == "random":
        rng = np.random.default_rng(seed)
        return sorted(int(i) for i in rng.choice(t, size=k, replace=False))
    if scores is None:
        raise ContractError("topk sampling needs scores")
    s = np.asarray(scores, dtype=np.float64)
    if s.shape != (t,):
        raise DimensionError(f"scores shape {s.shape} does not match t={t}")
    return top_k_indices(s.reshape(1, t), [k])[0][0]
