"""Training for every experiment mode: ``run_training`` is the one entry point.

A run has up to two phases.  Phase A fits every parameter on the mode's
per-video loss: end-to-end and frame-conditioned training fit the selector
and the heavy classifier jointly and stop there; the stand-alone selector
(with its light head) and the SCSampler scorer fit every parameter except
the heavy classifier.  Phase B then fits the heavy classifier on each
video's timesteps: the frozen selector's or the scorer's picks, or uniform
or random samples (those two modes have no phase A).

``_fit`` is the only optimisation loop: shuffled minibatches, the mean of the
per-video losses, one backward pass and one Adam step per batch.  The
checkpoint's ``step`` is the number of Adam steps over both phases.

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
from ..baselines import sample_indices, scorer_logits, scsampler_scores
from ..classifier import classify, heavynet_features, task_loss
from ..errors import ConfigError, DomainError, GenerationError, TrainingDivergence
from ..selector import heavy_indices, select
from ..synthdata import ActivitySpec, Dataset, generate_dataset, load_split
from .checkpoint import Checkpoint
from .config import ExperimentConfig
from .models import (
    ModelBundle,
    build_bundle,
    selection_stride,
    training_sample_budget,
)

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


def _check_finite(loss: Tensor, mode: str, epoch: int) -> None:
    if not np.isfinite(loss.data).all():
        raise TrainingDivergence(
            f"{mode} training diverged at epoch {epoch}: loss became non-finite"
        )


def _fit(params, config: ExperimentConfig, n_videos: int,
         rng: np.random.Generator, video_loss,
         mode_name: str) -> tuple[list[EpochLog], int]:
    """The training loop: returns the epoch logs and the Adam step count.

    ``video_loss(epoch, video_index)`` runs inside the recording and returns
    ``(loss tensor, prediction hit, selected ratio)`` for one video; the
    batch loss is the mean over the batch's videos.
    """
    tr = config.training
    opt = Adam(params, lr=tr.lr, eps=tr.eps)
    logs: list[EpochLog] = []
    for epoch in range(tr.epochs):
        loss_sum = hit_sum = ratio_sum = 0.0
        for batch in _batches(n_videos, tr.batch_size, rng):
            with ad.record():
                per_video = []
                for vi in batch:
                    loss_i, hit, ratio = video_loss(epoch, vi)
                    per_video.append(loss_i)
                    hit_sum += hit
                    ratio_sum += ratio
                loss = _mean_loss(per_video)
                _check_finite(loss, mode_name, epoch)
                ad.backward(loss)
            opt.step()
            loss_sum += float(loss.data) * len(batch)
        logs.append(EpochLog(epoch, loss_sum / n_videos, hit_sum / n_videos,
                             ratio_sum / n_videos))
    return logs, opt.t


# ---------------------------------------------------------------------------
# the two phases


def _phase_a_loss(config: ExperimentConfig, bundle: ModelBundle,
                  dataset: Dataset, rng: np.random.Generator):
    """The per-video loss of the mode's first phase, or None without one.

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
        def video_loss(epoch, vi):
            video = dataset.train[vi]
            result = select(video.frames, bundle.selector, "train", stride, rng=rng)
            if mode == "standalone":
                # light path: gated light features, light head, max over time
                gated = ad.mul(result.features, ad.tile_cols(
                    result.activated, bundle.selector.config.channels))
                logits = ad.reduce_max(bundle.light_head(gated), axis=0)
            else:
                idx = heavy_indices(result)
                # the fallback timestep of an all-closed video enters ungated
                gates = ad.take_rows(result.activated, idx) if result.open.any() else None
                feats = heavynet_features(video.frames, idx, bundle.classifier, stride)
                logits = classify(feats, gates, bundle.classifier)
            loss = task_loss(logits, video.labels, task)
            if l0_weight > 0.0:
                loss = ad.add(loss, gating.l0_penalty(result.logits, l0_weight))
            return (loss, _prediction_hit(logits.data, video.labels, task),
                    len(result.selected_indices) / t_steps)
    elif mode == "scsampler":
        def video_loss(epoch, vi):
            video = dataset.train[vi]
            logits = scorer_logits(video.frames, bundle.scorer, stride, t_steps, seg)
            # every timestep carries the video label; a multi-label video
            # averages the cross-entropy over its positives, keeping the
            # softmax head the saliency relies on
            positives = video.positive_classes(dataset.spec)
            terms = [ad.softmax_xent(logits, [c] * t_steps) for c in positives]
            hit = float(np.mean(np.isin(np.argmax(logits.data, axis=1), positives)))
            return _mean_loss(terms), hit, 1.0
    else:
        return None
    return video_loss


def _phase_b_indices(config: ExperimentConfig, bundle: ModelBundle,
                     dataset: Dataset):
    """``(epoch, video_index) -> timesteps`` the heavy classifier trains on.

    The frozen selector's and the scorer's picks do not change once phase A
    is over, so they are computed once per video; random sampling redraws
    every epoch.
    """
    stride = selection_stride(config)
    t_steps, seg = config.dataset.timesteps, config.model.segment_len
    k = training_sample_budget(config)
    if config.mode == "standalone":
        fixed = [heavy_indices(select(video.frames, bundle.selector, "test", stride))
                 for video in dataset.train]
        return lambda epoch, vi: fixed[vi]
    if config.mode == "scsampler":
        fixed = [sample_indices("topk", t_steps, k, scores=scsampler_scores(
                     video.frames, bundle.scorer, stride, t_steps, seg))
                 for video in dataset.train]
        return lambda epoch, vi: fixed[vi]
    if config.mode == "uniform":
        return lambda epoch, vi: sample_indices("uniform", t_steps, k)

    def random_indices(epoch, vi):
        seed = np.random.default_rng(
            [config.seed, _SAMPLE_STREAM, epoch, vi]).integers(1 << 62)
        return sample_indices("random", t_steps, k, seed=int(seed))
    return random_indices


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
        indices_for = _phase_b_indices(config, bundle, dataset)

        def classifier_loss(epoch, vi):
            video = dataset.train[vi]
            idx = indices_for(epoch, vi)
            feats = heavynet_features(video.frames, idx, bundle.classifier, stride)
            logits = classify(feats, None, bundle.classifier)
            return (task_loss(logits, video.labels, task),
                    _prediction_hit(logits.data, video.labels, task),
                    len(idx) / t_steps)

        rng_b = _train_rng(config)
        rng_b.integers(1 << 30)  # offset from the phase A shuffle stream
        cls_logs, cls_steps = _fit(bundle.classifier.named_parameters().values(),
                                   config, n_train, rng_b, classifier_loss,
                                   config.mode)
        steps += cls_steps

    ckpt = Checkpoint.from_bundle(config, bundle, step=steps)
    return TrainResult(config=config, bundle=bundle, checkpoint=ckpt,
                       epoch_logs=logs, classifier_logs=cls_logs)
