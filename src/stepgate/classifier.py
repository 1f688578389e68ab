"""Heavy-stage classification: segment encoder plus a pooled per-timestep head.

The heavy encoder consumes ``segment_len`` consecutive raw frames per selected
timestep and is the expensive part of the pipeline, so it only ever runs on
the indices handed to it; ``heavy_rows`` counts every encoded timestep to make
that property checkable.  Classification applies gate magnitudes (end-to-end
training only), max-pools over the spatial grid, maps each timestep through a
two-layer head, and max-pools over time, so duplicated timesteps never change
the logits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DimensionError, DomainError
from .synthdata import TASKS

HEAVY_HIDDEN = 128
HEAD_HIDDEN = 256


@dataclass
class HeadParams:
    """Two-layer per-timestep classification head."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def init(cls, channels: int, n_classes: int, rng: np.random.Generator,
             hidden: int = HEAD_HIDDEN) -> "HeadParams":
        s1, s2 = 1.0 / math.sqrt(channels), 1.0 / math.sqrt(hidden)
        return cls(
            w1=Tensor(s1 * rng.standard_normal((channels, hidden)), requires_grad=True),
            b1=Tensor(np.zeros(hidden), requires_grad=True),
            w2=Tensor(s2 * rng.standard_normal((hidden, n_classes)), requires_grad=True),
            b2=Tensor(np.zeros(n_classes), requires_grad=True),
        )

    def named_parameters(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.w1": self.w1, f"{prefix}.b1": self.b1,
                f"{prefix}.w2": self.w2, f"{prefix}.b2": self.b2}


@dataclass
class ClassifierConfig:
    channels: int
    n_classes: int
    task: str = "single_label"
    height: int = 1
    width: int = 1
    segment_len: int = 8

    def __post_init__(self):
        if self.task not in TASKS:
            raise DomainError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.n_classes < 2:
            raise DomainError(f"need at least two classes, got {self.n_classes}")
        for name in ("channels", "height", "width", "segment_len"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass
class ClassifierParams:
    config: ClassifierConfig
    enc_w1: Tensor
    enc_b1: Tensor
    enc_w2: Tensor
    enc_b2: Tensor
    head: HeadParams
    heavy_rows: int = 0  # timesteps encoded so far; instrumentation only

    @classmethod
    def init(cls, config: ClassifierConfig, d_raw: int,
             rng: np.random.Generator) -> "ClassifierParams":
        n_in = config.segment_len * d_raw
        n_out = config.channels * config.height * config.width
        s1, s2 = 1.0 / math.sqrt(n_in), 1.0 / math.sqrt(HEAVY_HIDDEN)
        return cls(
            config=config,
            enc_w1=Tensor(s1 * rng.standard_normal((n_in, HEAVY_HIDDEN)), requires_grad=True),
            enc_b1=Tensor(np.zeros(HEAVY_HIDDEN), requires_grad=True),
            enc_w2=Tensor(s2 * rng.standard_normal((HEAVY_HIDDEN, n_out)), requires_grad=True),
            enc_b2=Tensor(np.zeros(n_out), requires_grad=True),
            head=HeadParams.init(config.channels, config.n_classes, rng),
        )

    def named_parameters(self, prefix: str = "classifier") -> dict[str, Tensor]:
        out = {f"{prefix}.enc_w1": self.enc_w1, f"{prefix}.enc_b1": self.enc_b1,
               f"{prefix}.enc_w2": self.enc_w2, f"{prefix}.enc_b2": self.enc_b2}
        out.update(self.head.named_parameters(f"{prefix}.head"))
        return out

    def reset_instrumentation(self) -> None:
        self.heavy_rows = 0


# ---------------------------------------------------------------------------
# forward


def heavynet_features(frames: np.ndarray, indices, params: ClassifierParams,
                      stride: int) -> Tensor:
    """Encode the segments of the given timestep slots; nothing else runs.

    Returns features of shape (T', channels, height, width).  An empty index
    list is a contract violation: the empty-selection fallback happens before
    this call.
    """
    cfg = params.config
    frames = np.asarray(frames, dtype=np.float64)
    idx = list(int(i) for i in indices)
    if not idx:
        raise ContractError("heavynet_features needs at least one timestep; "
                            "apply the empty-selection fallback upstream")
    m = cfg.segment_len
    d_raw = frames.shape[1] if frames.ndim == 2 else 0
    if frames.ndim != 2 or m * d_raw != params.enc_w1.shape[0]:
        raise DimensionError(
            f"frames shape {frames.shape} does not match encoder input width "
            f"{params.enc_w1.shape[0]} (= segment_len {m} x d_raw)"
        )
    n_frames = frames.shape[0]
    starts = [i * stride for i in idx]
    bad = [j for j in starts if j < 0 or j + m > n_frames]
    if bad:
        raise ContractError(
            f"segment start {bad[0]} with length {m} falls outside the {n_frames} raw frames"
        )
    segments = np.stack([frames[j:j + m].ravel() for j in starts])
    params.heavy_rows += len(idx)
    h = ad.relu(ad.affine(Tensor(segments), params.enc_w1, params.enc_b1))
    out = ad.affine(h, params.enc_w2, params.enc_b2)
    return ad.reshape(out, (len(idx), cfg.channels, cfg.height, cfg.width))


def head_logits(features: Tensor, head: HeadParams) -> Tensor:
    """Per-timestep logits from (T', C) pooled features."""
    h = ad.relu(ad.affine(features, head.w1, head.b1))
    return ad.affine(h, head.w2, head.b2)


def classify(features: Tensor, gate_values: Tensor | None,
             params: ClassifierParams) -> Tensor:
    """Video logits from heavy features of shape (T', C, H, W).

    ``gate_values`` (shape (T',)) multiplies features before spatial pooling
    when given; end-to-end training passes the activated gate magnitudes here
    and every other path passes ``None``.
    """
    if features.data.ndim != 4:
        raise DimensionError(f"classify expects (T', C, H, W) features, got {features.shape}")
    t_sel, c, hgt, wid = features.shape
    cfg = params.config
    if (c, hgt, wid) != (cfg.channels, cfg.height, cfg.width):
        raise DimensionError(
            f"features {features.shape} do not match classifier config "
            f"({cfg.channels}, {cfg.height}, {cfg.width})"
        )
    flat = ad.reshape(features, (t_sel, c * hgt * wid))
    if gate_values is not None:
        if tuple(gate_values.shape) != (t_sel,):
            raise DimensionError(
                f"gate values shape {gate_values.shape} does not match {t_sel} selected timesteps"
            )
        flat = ad.mul(flat, ad.tile_cols(gate_values, c * hgt * wid))
    spatial = ad.reduce_max(ad.reshape(flat, (t_sel, c, hgt * wid)), axis=2)
    per_step = head_logits(spatial, params.head)
    return ad.reduce_max(per_step, axis=0)


def task_loss(logits: Tensor, targets, task: str) -> Tensor:
    """Dispatch to cross-entropy (single label) or binary CE (multi label).

    Single-label accepts either batched (B, L) logits with B integer labels
    or one video's (L,) logits with a scalar label.
    """
    if task == "single_label":
        if logits.data.ndim == 1:
            logits = ad.reshape(logits, (1, logits.shape[0]))
            targets = np.asarray(targets, dtype=np.int64).reshape(-1)
        return ad.softmax_xent(logits, targets)
    if task == "multi_label":
        return ad.bce_logits(logits, targets)
    raise DomainError(f"task must be one of {TASKS}, got {task!r}")
