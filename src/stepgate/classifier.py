"""Heavy-stage classification: segment encoder plus a pooled per-timestep head.

The heavy encoder, an ``autodiff.MLP``, consumes ``segment_len`` consecutive
raw frames per selected timestep and is the expensive part of the pipeline, so
it only ever runs on the indices handed to it; ``heavy_rows`` counts every
encoded timestep to make that property checkable.  Classification applies
gate magnitudes (end-to-end training only), max-pools over the spatial grid,
maps each timestep through the head (a second ``MLP``), and max-pools over
time, so duplicated timesteps never change the logits.  Parameters are named
``classifier.enc.*`` and ``classifier.head.*``.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    height: int = 1
    width: int = 1
    segment_len: int = 8

    def __post_init__(self):
        if self.n_classes < 2:
            raise DomainError(f"need at least two classes, got {self.n_classes}")
        for name in ("channels", "height", "width", "segment_len"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass
class ClassifierParams:
    config: ClassifierConfig
    enc: MLP  # segment_len * d_raw -> channels * height * width
    head: MLP  # channels -> n_classes, per timestep
    heavy_rows: int = 0  # timesteps encoded so far; instrumentation only

    @classmethod
    def init(cls, config: ClassifierConfig, d_raw: int,
             rng: np.random.Generator) -> "ClassifierParams":
        """Draws the heavy encoder, then the head."""
        n_out = config.channels * config.height * config.width
        enc = MLP.init(config.segment_len * d_raw, HEAVY_HIDDEN, n_out, rng)
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
    if frames.ndim != 2 or m * d_raw != params.enc.n_in:
        raise DimensionError(
            f"frames shape {frames.shape} does not match encoder input width "
            f"{params.enc.n_in} (= segment_len {m} x d_raw)"
        )
    n_frames = frames.shape[0]
    starts = np.asarray(idx, dtype=np.int64) * stride
    bad = starts[(starts < 0) | (starts + m > n_frames)]
    if bad.size:
        raise ContractError(
            f"segment start {bad[0]} with length {m} falls outside the {n_frames} raw frames"
        )
    # one gather: row r holds frames starts[r] .. starts[r] + m - 1, flattened
    segments = frames[starts[:, None] + np.arange(m)].reshape(len(idx), -1)
    params.heavy_rows += len(idx)
    out = params.enc(Tensor(segments))
    return ad.reshape(out, (len(idx), cfg.channels, cfg.height, cfg.width))


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
    return ad.reduce_max(params.head(spatial), axis=0)


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
