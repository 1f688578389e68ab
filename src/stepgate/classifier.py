"""Heavy-stage classification: segment encoder, max-pooling over time, then a head.

The heavy encoder, an ``autodiff.MLP``, consumes each selected timestep slot
whole: a video's frames are shaped (T, frames_per_slot, d_raw), a slot is
its segment, and the encoder's input width is frames_per_slot x d_raw.  It
is the expensive part of the pipeline, so it only ever runs on the indices
handed to it; ``heavy_rows`` counts every encoded timestep to make that
property checkable.  Its features are one (C,) row per encoded timestep, a
(T', C) matrix; there is no spatial grid.  ``classify`` applies gate
magnitudes (training's gated arms), max-pools the features over each
video's timesteps, and maps each video's pooled row through a head (an
``MLP``), so duplicated timesteps never change the logits and a class score
can combine evidence from several timesteps.  The rows of several videos
may share one call: consecutive segments of rows belong to one video each.
Parameters are named ``classifier.enc.*`` and ``classifier.head.*``; their
shapes are all the heavy stage knows of the data.
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
class ClassifierParams:
    """Learned state of the heavy stage: the segment encoder and the head."""

    enc: MLP  # frames_per_slot * d_raw -> channels
    head: MLP  # channels -> n_classes, per video on its pooled features
    heavy_rows: int = 0  # timesteps encoded so far, never reset; instrumentation only

    @classmethod
    def init(cls, d_raw: int, frames_per_slot: int, channels: int, n_classes: int,
             rng: np.random.Generator) -> "ClassifierParams":
        """Draws the heavy encoder, then the head."""
        enc = MLP.init(frames_per_slot * d_raw, HEAVY_HIDDEN, channels, rng)
        head = MLP.init(channels, HEAD_HIDDEN, n_classes, rng)
        return cls(enc=enc, head=head)


# ---------------------------------------------------------------------------
# forward


def heavynet_features(frames: np.ndarray, indices,
                      params: ClassifierParams) -> Tensor:
    """Encode the given slots of a (slots, frames_per_slot, d_raw) array of
    frames, each slot whole, ``frames[idx]``; nothing else runs.  The
    segments enter the encoder in the frames' dtype, float32 as stored, with
    no cast: the encoder runs in float32 on a float32 bundle.

    Returns features of shape (T', channels).  An empty index list is a
    contract violation: the empty-selection fallback happens before this
    call.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if not idx.size:
        raise ContractError("heavynet_features needs at least one timestep; "
                            "apply the empty-selection fallback upstream")
    if frames.ndim != 3 or frames.shape[1] * frames.shape[2] != params.enc.n_in:
        raise DimensionError(
            f"frames shape {frames.shape} is not slots of frames_per_slot x d_raw "
            f"= encoder input width {params.enc.n_in}"
        )
    # negative indices would wrap without an error; read as unsigned they
    # exceed n, so one max checks both ends of this per-video call
    n = frames.shape[0]
    if idx.view(np.uint64).max() >= n:
        bad = idx[(idx < 0) | (idx >= n)][0]
        raise ContractError(f"slot {bad} falls outside the {n} slots")
    params.heavy_rows += idx.size
    return params.enc(Tensor(frames[idx].reshape(idx.size, -1)))


def classify(features: Tensor, gate_values: Tensor | None, head: MLP,
             segments: Sequence[int]) -> Tensor:
    """(B, L) video logits: the rows of (T', C) features are max-pooled over
    each of B consecutive segments of ``segments[b]`` rows, one per video,
    and ``head`` maps each video's pooled (C,) row.

    ``gate_values`` (shape (T',)) multiplies the feature rows before the pool
    when given, one ``autodiff.scale_rows`` node: the joint arms' activated
    gates with the heavy head, the stand-alone selector's with its light
    head; every other path passes ``None``.  The ops check the shapes.
    """
    if gate_values is not None:
        features = ad.scale_rows(features, gate_values)
    return head(ad.segment_max(features, segments))


def task_loss(logits: Tensor, targets, task: str) -> Tensor:
    """Dispatch (B, L) logits and (B, L) 0/1 indicator targets to softmax
    cross-entropy (single label: each target row is one-hot) or binary CE
    (multi label)."""
    if task == "single_label":
        return ad.softmax_xent(logits, targets)
    if task == "multi_label":
        return ad.bce_logits(logits, targets)
    raise DomainError(f"task must be one of {TASKS}, got {task!r}")
