"""Training for every experiment mode: ``run_training`` is the one entry point.

A run has up to two phases.  Phase A fits every parameter on the mode's
batch loss: end-to-end and frame-conditioned training fit the selector and
the heavy classifier jointly and stop there; the stand-alone selector (with
its light head) and the SCSampler scorer fit every parameter except the
heavy classifier.  Phase B then fits the heavy classifier on each video's
timesteps: the frozen selector's or the scorer's picks, or uniform or random
samples (those two modes have no phase A).  Evaluation's pick code chooses
them with no budget, so a deterministic arm trains on exactly the rows its
gate-count evaluation entry encodes.

``_fit`` is the only optimisation loop: shuffled minibatches, one batch loss
(the mean over the batch's videos), one backward pass and one Adam step per
batch.  The selector runs once per video; after selection the batch is
stacked, so the heavy encoder, the head and the task loss each run once per
batch.  The checkpoint's ``step`` is the number of Adam steps over both
phases.

All training is deterministic given (config, seed): parameter init, batch
shuffles, gate noise, and baseline sampling each draw from streams derived
from the config seed, and batches run sequentially.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import autodiff as ad
from .. import gating
from ..autodiff import Adam, Tensor
# perfbench/layers.py wraps sample_indices and scsampler_scores in this namespace
from ..baselines import sample_indices, scorer_logits, scsampler_scores
from ..classifier import ClassifierParams, classify, heavynet_features, task_loss
from ..errors import (ConfigError, ContractError, DomainError, GenerationError,
                      TrainingDivergence)
from ..selector import SelectionResult, heavy_indices, select
from ..synthdata import ActivitySpec, Dataset, generate_dataset, load_split
from .checkpoint import Checkpoint
from .config import ExperimentConfig
from .evaluation import rankings, video_indices
from .models import ModelBundle, build_bundle, selection_stride

_TRAIN_STREAM = 0x5EED
_SAMPLE_STREAM = 0xBA5E

_JOINT_MODES = ("e2e", "frame_conditioned")


@dataclass
class EpochLog:
    epoch: int
    loss: float
    accuracy: float
    selected_ratio: float


@dataclass
class TrainResult:
    config: ExperimentConfig
    bundle: ModelBundle
    checkpoint: Checkpoint
    epoch_logs: list[EpochLog] = field(default_factory=list)
    classifier_logs: list[EpochLog] = field(default_factory=list)


# ---------------------------------------------------------------------------
# dataset plumbing


def spec_from_config(config: ExperimentConfig) -> ActivitySpec:
    d = config.dataset
    builder = {"anchored": ActivitySpec.default,
               "paired": ActivitySpec.paired}[d.recipe_style]
    try:
        return builder(
            n_classes=d.n_classes, n_shared=d.n_shared, n_background=d.n_background,
            d_raw=d.d_raw, timesteps=d.timesteps, frames_per_slot=d.frames_per_slot,
            noise_sigma=d.noise_sigma, relevant_fraction=d.relevant_fraction,
            confuser_share=d.confuser_share, task=d.task,
        )
    except (DomainError, GenerationError) as exc:
        raise ConfigError(f"dataset: {exc}") from exc


def resolve_dataset(config: ExperimentConfig) -> Dataset:
    """Load the dataset a config points at, or generate it from the config."""
    d = config.dataset
    if d.path is None:
        spec = spec_from_config(config)
        try:
            return generate_dataset(spec, d.n_train, d.n_test, config.seed)
        except GenerationError as exc:
            raise ConfigError(f"dataset: {exc}") from exc
    base = d.path
    spec_a, protos, train_videos, meta_a = load_split(f"{base}/train.sgds")
    spec_b, protos_b, test_videos, meta_b = load_split(f"{base}/test.sgds")
    if spec_a != spec_b or meta_a["seed"] != meta_b["seed"]:
        raise ConfigError(f"{base}: train and test splits come from different runs")
    if not np.array_equal(protos, protos_b):
        raise ConfigError(f"{base}: train and test splits disagree on prototypes")
    if spec_a != spec_from_config(config):
        raise ConfigError(f"{base}: the stored splits were generated from a "
                          f"different dataset section than this config's")
    return Dataset(spec=spec_a, prototypes=protos, train=train_videos,
                   test=test_videos, seed=meta_a["seed"])


# ---------------------------------------------------------------------------
# loop helpers


def _train_rng(config: ExperimentConfig) -> np.random.Generator:
    return np.random.default_rng([config.seed, _TRAIN_STREAM])


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for lo in range(0, n, batch_size):
        yield [int(i) for i in order[lo:lo + batch_size]]


def _mean_loss(per_video: list[Tensor]) -> Tensor:
    total = per_video[0]
    for term in per_video[1:]:
        total = ad.add(total, term)
    return ad.scale(total, 1.0 / len(per_video))


def _prediction_hit(logits: np.ndarray, labels, task: str) -> float:
    if task == "single_label":
        return float(int(np.argmax(logits)) == int(labels))
    want = np.asarray(labels, dtype=np.float64)
    return float(np.mean((logits > 0.0).astype(np.float64) == want))


def _scored(logits: Tensor, videos: list, task: str) -> tuple[Tensor, float]:
    """The task loss of a batch's (B, L) logits and its prediction hits."""
    if task == "single_label":
        targets = [int(v.labels) for v in videos]
    else:
        targets = np.stack([v.labels for v in videos])
    hits = sum(_prediction_hit(row, v.labels, task)
               for row, v in zip(logits.data, videos))
    return task_loss(logits, targets, task), hits


def _check_finite(loss: Tensor, mode: str, epoch: int) -> None:
    if not np.isfinite(loss.data).all():
        raise TrainingDivergence(
            f"{mode} training diverged at epoch {epoch}: loss became non-finite"
        )


def _fit(params, config: ExperimentConfig, n_videos: int,
         rng: np.random.Generator, batch_loss,
         mode_name: str) -> tuple[list[EpochLog], int]:
    """The training loop: returns the epoch logs and the Adam step count.

    ``batch_loss(epoch, video_indices)`` runs inside the recording and
    returns ``(mean loss over the batch, prediction hits, selected ratios)``,
    the last two summed over the batch's videos.
    """
    tr = config.training
    opt = Adam(params, lr=tr.lr, eps=tr.eps)
    logs: list[EpochLog] = []
    for epoch in range(tr.epochs):
        loss_sum = hit_sum = ratio_sum = 0.0
        for batch in _batches(n_videos, tr.batch_size, rng):
            with ad.record():
                loss, hits, ratios = batch_loss(epoch, batch)
                _check_finite(loss, mode_name, epoch)
                ad.backward(loss)
            opt.step()
            loss_sum += float(loss.data) * len(batch)
            hit_sum += hits
            ratio_sum += ratios
        logs.append(EpochLog(epoch, loss_sum / n_videos, hit_sum / n_videos,
                             ratio_sum / n_videos))
    return logs, opt.t


# ---------------------------------------------------------------------------
# the stacked heavy stage


def _heavy_logits(frames: list[np.ndarray], picks: list[list[int]],
                  gates: Tensor | None, params: ClassifierParams,
                  stride: int) -> Tensor:
    """(B, L) logits of a batch: every video's picked timesteps through one
    heavy-encoder pass and one head pass, pooled per video.

    The videos' frames are stacked end to end, so slot i of video b is slot
    b * T + i of the stack.  Every video is T * stride frames long and no
    segment is longer than a slot, so no segment reaches the next video.
    """
    stacked = np.stack(frames)
    n_videos, n_frames, d_raw = stacked.shape
    t = n_frames // stride
    if (n_frames % stride or params.config.segment_len > stride
            or max(max(idx) for idx in picks) >= t):
        raise ContractError(
            f"cannot stack segments of {params.config.segment_len} frames from "
            f"videos of {n_frames} frames in slots of {stride}")
    rows = [b * t + i for b, idx in enumerate(picks) for i in idx]
    before = params.heavy_rows
    feats = heavynet_features(stacked.reshape(n_videos * n_frames, d_raw), rows,
                              params, stride)
    if params.heavy_rows - before != len(rows):
        raise ContractError(
            f"the heavy encoder counted {params.heavy_rows - before} rows, "
            f"the batch picked {len(rows)}")
    return classify(feats, gates, params, [len(idx) for idx in picks])


def joint_logits(frames: list[np.ndarray], results: list[SelectionResult],
                 bundle: ModelBundle, stride: int) -> Tensor:
    """The joint arms' (B, L) heavy logits of a batch: each selection's heavy
    timesteps, scaled by their gate values, through the heavy classifier."""
    t = bundle.selector.config.timesteps
    picks = [heavy_indices(r) for r in results]
    # the fallback timestep of an all-closed video enters with a constant
    # gate of 1, the last row of the gate column
    column = ad.concat_rows([r.activated for r in results] + [Tensor(np.ones(1))])
    gate_rows = []
    for b, (r, idx) in enumerate(zip(results, picks)):
        gate_rows += [b * t + i for i in idx] if r.open.any() else [len(results) * t]
    return _heavy_logits(frames, picks, ad.take_rows(column, gate_rows),
                         bundle.classifier, stride)


# ---------------------------------------------------------------------------
# the two phases


def _phase_a_loss(config: ExperimentConfig, bundle: ModelBundle,
                  dataset: Dataset, rng: np.random.Generator):
    """The batch loss of the mode's first phase, or None without one.

    End-to-end and frame-conditioned training gate the heavy classifier;
    the stand-alone selector gates its light features into a light head;
    the SCSampler scorer classifies every timestep on its own.
    """
    mode = config.mode
    stride = selection_stride(config)
    task = config.dataset.task
    t_steps, seg = config.dataset.timesteps, config.model.segment_len
    l0_weight = config.training.l0_weight

    if mode in (*_JOINT_MODES, "standalone"):
        def batch_loss(epoch, batch):
            videos = [dataset.train[vi] for vi in batch]
            results = [select(v.frames, bundle.selector, "train", stride, rng=rng)
                       for v in videos]
            if mode == "standalone":
                # light path: gated light features, light head, max over each
                # video's timesteps
                gates = ad.concat_rows([r.activated for r in results])
                gated = ad.mul(ad.concat_rows([r.features for r in results]),
                               ad.tile_cols(gates, bundle.selector.config.channels))
                logits = ad.segment_max(bundle.light_head(gated),
                                        [t_steps] * len(results))
            else:
                logits = joint_logits([v.frames for v in videos], results,
                                      bundle, stride)
            loss, hits = _scored(logits, videos, task)
            if l0_weight > 0.0:
                alphas = ad.concat_rows([r.logits for r in results])
                loss = ad.add(loss, gating.l0_penalty(alphas, l0_weight))
            opened = sum(len(r.selected_indices) for r in results)
            return loss, hits, opened / t_steps
    elif mode == "scsampler":
        def batch_loss(epoch, batch):
            terms, hits = [], 0.0
            for vi in batch:
                video = dataset.train[vi]
                logits = scorer_logits(video.frames, bundle.scorer, stride, t_steps, seg)
                # every timestep carries the video label; a multi-label video
                # averages the cross-entropy over its positives, keeping the
                # softmax head the saliency relies on
                positives = video.positive_classes()
                terms.append(_mean_loss([ad.softmax_xent(logits, [c] * t_steps)
                                         for c in positives]))
                hits += float(np.mean(np.isin(np.argmax(logits.data, axis=1),
                                              positives)))
            return _mean_loss(terms), hits, float(len(batch))
    else:
        return None
    return batch_loss


# ---------------------------------------------------------------------------
# entry point


def run_training(config: ExperimentConfig,
                 dataset: Dataset | None = None) -> TrainResult:
    """Train the config's mode; the checkpoint's step counts every Adam step."""
    dataset = dataset if dataset is not None else resolve_dataset(config)
    bundle = build_bundle(config)
    n_train = len(dataset.train)
    joint = config.mode in _JOINT_MODES
    logs: list[EpochLog] = []
    cls_logs: list[EpochLog] = []
    steps = 0

    rng = _train_rng(config)
    video_loss = _phase_a_loss(config, bundle, dataset, rng)
    if video_loss is not None:
        params = [t for name, t in bundle.named_parameters().items()
                  if joint or not name.startswith("classifier.")]
        logs, steps = _fit(params, config, n_train, rng, video_loss, config.mode)

    if not joint:
        stride = selection_stride(config)
        task = config.dataset.task
        t_steps = config.dataset.timesteps
        # the frozen selector's and the scorer's picks are fixed once phase A
        # is over; random sampling redraws every epoch
        ranked = rankings(bundle, config, dataset.train, stride)

        def classifier_loss(epoch, batch):
            videos = [dataset.train[vi] for vi in batch]
            picks = [video_indices(bundle, config, ranked[vi],
                                   [_SAMPLE_STREAM, epoch, vi], None)
                     for vi in batch]
            logits = _heavy_logits([v.frames for v in videos], picks, None,
                                   bundle.classifier, stride)
            loss, hits = _scored(logits, videos, task)
            return loss, hits, sum(len(idx) for idx in picks) / t_steps

        rng_b = _train_rng(config)
        rng_b.integers(1 << 30)  # offset from the phase A shuffle stream
        cls_logs, cls_steps = _fit(bundle.classifier.named_parameters().values(),
                                   config, n_train, rng_b, classifier_loss,
                                   config.mode)
        steps += cls_steps

    ckpt = Checkpoint.from_bundle(config, bundle, step=steps)
    return TrainResult(config=config, bundle=bundle, checkpoint=ckpt,
                       epoch_logs=logs, classifier_logs=cls_logs)
