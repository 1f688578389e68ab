"""Training for every experiment mode, through one loop.

``_fit`` is the only optimisation loop: shuffled minibatches, the mean of the
per-video losses, one backward pass and one Adam step per batch.  Each mode
supplies a per-video loss: end-to-end and frame-conditioned training fit the
selector and the heavy classifier jointly; the stand-alone selector and the
SCSampler scorer fit a light model first (phase A), then the heavy classifier
on their frozen picks (phase B); uniform and random sampling run phase B only.

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
from ..classifier import classify, head_logits, heavynet_features, task_loss
from ..errors import (ConfigError, ContractError, DomainError, GenerationError,
                      TrainingDivergence)
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
        return generate_dataset(spec_from_config(config), d.n_train, d.n_test,
                                config.seed)
    base = d.path
    spec_a, protos, train_videos, meta_a = load_split(f"{base}/train.sgds")
    spec_b, protos_b, test_videos, meta_b = load_split(f"{base}/test.sgds")
    if spec_a != spec_b or meta_a["seed"] != meta_b["seed"]:
        raise ConfigError(f"{base}: train and test splits come from different runs")
    if not np.array_equal(protos, protos_b):
        raise ConfigError(f"{base}: train and test splits disagree on prototypes")
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


def _with_l0(loss: Tensor, logits: Tensor, config: ExperimentConfig) -> Tensor:
    weight = config.training.l0_weight
    return ad.add(loss, gating.l0_penalty(logits, weight)) if weight > 0.0 else loss


def _fit_classifier(bundle: ModelBundle, dataset: Dataset,
                    config: ExperimentConfig, indices_for,
                    mode_name: str) -> list[EpochLog]:
    """Phase B: fit the heavy classifier on given per-video timesteps.

    ``indices_for(epoch, video_index)`` supplies the timesteps; it is
    re-invoked each epoch so baselines may resample.
    """
    stride = selection_stride(config)
    task = config.dataset.task
    t_steps = config.dataset.timesteps
    rng = _train_rng(config)
    rng.integers(1 << 30)  # offset from the phase A shuffle stream

    def video_loss(epoch, vi):
        video = dataset.train[vi]
        idx = indices_for(epoch, vi)
        feats = heavynet_features(video.frames, idx, bundle.classifier, stride)
        logits = classify(feats, None, bundle.classifier)
        return (task_loss(logits, video.labels, task),
                _prediction_hit(logits.data, video.labels, task),
                len(idx) / t_steps)

    logs, _ = _fit(bundle.classifier.named_parameters().values(), config,
                   len(dataset.train), rng, video_loss, mode_name)
    return logs


# ---------------------------------------------------------------------------
# end-to-end (also the frame-conditioned ablation)


def train_end_to_end(config: ExperimentConfig,
                     dataset: Dataset | None = None) -> TrainResult:
    """Joint selector + classifier training on task loss plus the L0 term."""
    if config.mode not in ("e2e", "frame_conditioned"):
        raise ContractError(f"train_end_to_end got mode {config.mode!r}")
    dataset = dataset if dataset is not None else resolve_dataset(config)
    bundle = build_bundle(config)
    stride = selection_stride(config)
    task = config.dataset.task
    t_steps = config.dataset.timesteps
    rng = _train_rng(config)

    def video_loss(epoch, vi):
        video = dataset.train[vi]
        result = select(video.frames, bundle.selector, "train", stride, rng=rng)
        idx = heavy_indices(result)
        # the fallback timestep of an all-closed video enters ungated
        gates = ad.take_rows(result.activated, idx) if result.open.any() else None
        feats = heavynet_features(video.frames, idx, bundle.classifier, stride)
        logits = classify(feats, gates, bundle.classifier)
        loss = _with_l0(task_loss(logits, video.labels, task), result.logits, config)
        return (loss, _prediction_hit(logits.data, video.labels, task),
                len(result.selected_indices) / t_steps)

    logs, steps = _fit(bundle.named_parameters().values(), config,
                       len(dataset.train), rng, video_loss, config.mode)
    ckpt = Checkpoint.from_bundle(config, bundle, step=steps)
    return TrainResult(config=config, bundle=bundle, checkpoint=ckpt,
                       epoch_logs=logs)


# ---------------------------------------------------------------------------
# stand-alone: selector with a light head first, heavy classifier second


def train_standalone_selector(config: ExperimentConfig,
                              dataset: Dataset | None = None) -> TrainResult:
    """Two phases: selector + light head on gated light features, then the
    heavy classifier on the frozen selector's test-mode selections."""
    if config.mode != "standalone":
        raise ContractError(f"train_standalone_selector got mode {config.mode!r}")
    dataset = dataset if dataset is not None else resolve_dataset(config)
    bundle = build_bundle(config)
    stride = selection_stride(config)
    task = config.dataset.task
    t_steps = config.dataset.timesteps
    channels = bundle.selector.config.channels
    rng = _train_rng(config)

    def video_loss(epoch, vi):
        # light path: gated light features, light head, max over time
        video = dataset.train[vi]
        result = select(video.frames, bundle.selector, "train", stride, rng=rng)
        gated = ad.mul(result.features, ad.tile_cols(result.activated, channels))
        logits = ad.reduce_max(head_logits(gated, bundle.light_head), axis=0)
        loss = _with_l0(task_loss(logits, video.labels, task), result.logits, config)
        return (loss, _prediction_hit(logits.data, video.labels, task),
                len(result.selected_indices) / t_steps)

    params = {**bundle.selector.named_parameters("selector"),
              **bundle.light_head.named_parameters("light_head")}
    logs, steps = _fit(params.values(), config, len(dataset.train), rng,
                       video_loss, "standalone")

    # the selector is frozen from here; its test-mode picks are fixed, so
    # compute them once per video
    fixed = [heavy_indices(select(video.frames, bundle.selector, "test", stride))
             for video in dataset.train]
    cls_logs = _fit_classifier(bundle, dataset, config,
                               lambda epoch, vi: fixed[vi], "standalone")

    ckpt = Checkpoint.from_bundle(config, bundle, step=steps)
    return TrainResult(config=config, bundle=bundle, checkpoint=ckpt,
                       epoch_logs=logs, classifier_logs=cls_logs)


# ---------------------------------------------------------------------------
# baselines


def train_scsampler(config: ExperimentConfig,
                    dataset: Dataset | None = None) -> TrainResult:
    """Phase A fits the per-timestep scorer, phase B fits the classifier on
    each video's top-k scoring timesteps."""
    if config.mode != "scsampler":
        raise ContractError(f"train_scsampler got mode {config.mode!r}")
    dataset = dataset if dataset is not None else resolve_dataset(config)
    bundle = build_bundle(config)
    stride = selection_stride(config)
    t_steps, seg = config.dataset.timesteps, config.model.segment_len
    rng = _train_rng(config)

    def video_loss(epoch, vi):
        video = dataset.train[vi]
        logits = scorer_logits(video.frames, bundle.scorer, stride, t_steps, seg)
        # every timestep carries the video label; a multi-label video
        # averages the cross-entropy over its positives, keeping the softmax
        # head the saliency relies on
        positives = video.positive_classes(dataset.spec)
        terms = [ad.softmax_xent(logits, [c] * t_steps) for c in positives]
        frame_loss = terms[0]
        for term in terms[1:]:
            frame_loss = ad.add(frame_loss, term)
        hit = float(np.mean(np.isin(np.argmax(logits.data, axis=1), positives)))
        return ad.scale(frame_loss, 1.0 / len(terms)), hit, 1.0

    logs, steps = _fit(bundle.scorer.named_parameters().values(), config,
                       len(dataset.train), rng, video_loss, "scsampler")

    k = training_sample_budget(config)
    fixed = [sample_indices("topk", t_steps, k, scores=scsampler_scores(
                 video.frames, bundle.scorer, stride, t_steps, seg))
             for video in dataset.train]
    cls_logs = _fit_classifier(bundle, dataset, config,
                               lambda epoch, vi: fixed[vi], "scsampler")

    ckpt = Checkpoint.from_bundle(config, bundle, step=steps)
    return TrainResult(config=config, bundle=bundle, checkpoint=ckpt,
                       epoch_logs=logs, classifier_logs=cls_logs)


def train_fixed_sampler(config: ExperimentConfig,
                        dataset: Dataset | None = None) -> TrainResult:
    """Classifier-only training on uniform or seeded-random timesteps."""
    if config.mode not in ("uniform", "random"):
        raise ContractError(f"train_fixed_sampler got mode {config.mode!r}")
    dataset = dataset if dataset is not None else resolve_dataset(config)
    bundle = build_bundle(config)
    t_steps = config.dataset.timesteps
    k = training_sample_budget(config)

    if config.mode == "uniform":
        def indices_for(epoch, vi):
            return sample_indices("uniform", t_steps, k)
    else:
        def indices_for(epoch, vi):
            seed = np.random.default_rng(
                [config.seed, _SAMPLE_STREAM, epoch, vi]).integers(1 << 62)
            return sample_indices("random", t_steps, k, seed=int(seed))

    cls_logs = _fit_classifier(bundle, dataset, config, indices_for, config.mode)
    ckpt = Checkpoint.from_bundle(config, bundle, step=len(cls_logs))
    return TrainResult(config=config, bundle=bundle, checkpoint=ckpt,
                       classifier_logs=cls_logs)


_TRAINERS = {
    "standalone": train_standalone_selector,
    "e2e": train_end_to_end,
    "frame_conditioned": train_end_to_end,
    "scsampler": train_scsampler,
    "uniform": train_fixed_sampler,
    "random": train_fixed_sampler,
}


def run_training(config: ExperimentConfig,
                 dataset: Dataset | None = None) -> TrainResult:
    return _TRAINERS[config.mode](config, dataset)
