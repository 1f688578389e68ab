"""Heavy-stage classification: segment encoder plus a pooled per-timestep head.

The heavy encoder, an ``autodiff.MLP``, consumes the first ``segment_len``
raw frames of each selected timestep slot: a video's frames are shaped
(T, frames_per_slot, d_raw), so a slot index picks its segment directly.  It
is the expensive part of the pipeline, so it only ever runs on the indices
handed to it; ``heavy_rows`` counts every encoded timestep to make that
property checkable.  Its features are one (C,) row per encoded timestep, a
(T', C) matrix; there is no spatial grid.  Classification applies gate
magnitudes (end-to-end training only), maps each timestep through the head
(a second ``MLP``), and max-pools over each video's timesteps, so duplicated
timesteps never change the logits.  The rows of several videos may share one
call: consecutive segments of rows belong to one video each.  Parameters are
named ``classifier.enc.*`` and ``classifier.head.*``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import MLP, Tensor
from .errors import ContractError, DimensionError, DomainError
from .synthdata import TASKS

HEAVY_HIDDEN = 128
HEAD_HIDDEN = 256


@dataclass
class ClassifierConfig:
    channels: int
    n_classes: int
    segment_len: int = 8

    def __post_init__(self):
        if self.n_classes < 2:
            raise DomainError(f"need at least two classes, got {self.n_classes}")
        for name in ("channels", "segment_len"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass
class ClassifierParams:
    config: ClassifierConfig
    enc: MLP  # segment_len * d_raw -> channels
    head: MLP  # channels -> n_classes, per timestep
    heavy_rows: int = 0  # timesteps encoded so far; instrumentation only

    @classmethod
    def init(cls, config: ClassifierConfig, d_raw: int,
             rng: np.random.Generator) -> "ClassifierParams":
        """Draws the heavy encoder, then the head."""
        enc = MLP.init(config.segment_len * d_raw, HEAVY_HIDDEN, config.channels, rng)
        head = MLP.init(config.channels, HEAD_HIDDEN, config.n_classes, rng)
        return cls(config=config, enc=enc, head=head)

    def named_parameters(self, prefix: str = "classifier") -> dict[str, Tensor]:
        out = self.enc.named_parameters(f"{prefix}.enc")
        out.update(self.head.named_parameters(f"{prefix}.head"))
        return out

    def reset_instrumentation(self) -> None:
        self.heavy_rows = 0


# ---------------------------------------------------------------------------
# forward


def heavynet_features(frames: np.ndarray, indices,
                      params: ClassifierParams) -> Tensor:
    """Encode the segments of the given slots of (slots, frames_per_slot,
    d_raw) frames, ``frames[idx, :segment_len]``; nothing else runs.

    Returns features of shape (T', channels).  An empty index list is a
    contract violation: the empty-selection fallback happens before this
    call.
    """
    frames = np.asarray(frames, dtype=np.float64)
    idx = np.asarray(indices, dtype=np.int64)
    if not idx.size:
        raise ContractError("heavynet_features needs at least one timestep; "
                            "apply the empty-selection fallback upstream")
    m = params.config.segment_len
    if (frames.ndim != 3 or frames.shape[1] < m
            or m * frames.shape[2] != params.enc.n_in):
        raise DimensionError(
            f"frames shape {frames.shape} is not slots of at least segment_len "
            f"{m} frames for encoder input width {params.enc.n_in} (= segment_len x d_raw)"
        )
    # negative indices would wrap without an error
    n = frames.shape[0]
    if idx.min() < 0 or idx.max() >= n:
        bad = idx[(idx < 0) | (idx >= n)][0]
        raise ContractError(f"slot {bad} falls outside the {n} slots")
    segments = frames[idx, :m].reshape(idx.size, -1)
    params.heavy_rows += idx.size
    return params.enc(Tensor(segments))


def classify(features: Tensor, gate_values: Tensor | None,
             params: ClassifierParams, segments: Sequence[int]) -> Tensor:
    """(B, L) video logits from heavy features of shape (T', C), whose rows
    are B consecutive segments of ``segments[b]`` rows, one per video.

    ``gate_values`` (shape (T',)) multiplies the feature rows before the head
    when given; end-to-end training passes the activated gate magnitudes here
    and every other path passes ``None``.
    """
    c = params.config.channels
    if features.data.ndim != 2 or features.shape[1] != c:
        raise DimensionError(f"classify expects (T', {c}) features, got {features.shape}")
    t_sel = features.shape[0]
    if gate_values is not None:
        if tuple(gate_values.shape) != (t_sel,):
            raise DimensionError(
                f"gate values shape {gate_values.shape} does not match {t_sel} selected timesteps"
            )
        features = ad.mul(features, ad.tile_cols(gate_values, c))
    return ad.segment_max(params.head(features), segments)


def task_loss(logits: Tensor, targets, task: str) -> Tensor:
    """Dispatch (B, L) logits to cross-entropy over B integer labels (single
    label) or binary CE over (B, L) indicators (multi label)."""
    if task == "single_label":
        return ad.softmax_xent(logits, targets)
    if task == "multi_label":
        return ad.bce_logits(logits, targets)
    raise DomainError(f"task must be one of {TASKS}, got {task!r}")
