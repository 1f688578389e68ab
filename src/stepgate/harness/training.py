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
batch.  Both light networks read the batch's light frames
(``evaluation.light_frames``).  The selector runs once per video, on a
stack of one; after selection the batch is stacked, so the heavy encoder,
the head and the task loss each run once per batch, on the gathered
segments of the picked slots only.  The SCSampler scorer is stacked whole:
one scorer pass and one cross-entropy cover the light frames of every slot
of the batch.  The checkpoint's ``step`` is the number of Adam steps over
both phases.

All training is deterministic given (config, seed): parameter init, batch
shuffles, gate noise, and baseline sampling each draw from streams derived
from the config seed, and batches run sequentially.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .. import autodiff as ad
from .. import gating
from ..autodiff import Adam, Tensor
# perfbench/layers.py wraps scorer_logits, sample_indices and scsampler_scores
# in this namespace
from ..baselines import sample_indices, scorer_logits, scsampler_scores
from ..classifier import ClassifierParams, classify, heavynet_features, task_loss
from ..errors import (ConfigError, ContractError, DomainError, GenerationError,
                      TrainingDivergence)
from ..selector import SelectionResult, heavy_indices, select
from ..synthdata import ActivitySpec, Dataset, generate_dataset, load_split
from .checkpoint import Checkpoint
from .config import ExperimentConfig
from .evaluation import light_frames, rankings, split_picks
from .models import ModelBundle, build_bundle

_TRAIN_STREAM = 0x5EED
_SAMPLE_STREAM = 0xBA5E

_JOINT_MODES = ("e2e", "frame_conditioned")


@dataclass
class EpochLog:
    epoch: int
    loss: float
    accuracy: float
    selected_ratio: float
    fallback_share: float  # videos whose train-mode gates all closed; 0 without gates


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
    returns ``(mean loss over the batch, prediction hits, selected ratios,
    fallbacks)``, the last three summed over the batch's videos.
    """
    tr = config.training
    opt = Adam(params, lr=tr.lr, eps=tr.eps)
    logs: list[EpochLog] = []
    for epoch in range(tr.epochs):
        loss_sum = hit_sum = ratio_sum = fallback_sum = 0.0
        for batch in _batches(n_videos, tr.batch_size, rng):
            with ad.record():
                loss, hits, ratios, fallbacks = batch_loss(epoch, batch)
                _check_finite(loss, mode_name, epoch)
                ad.backward(loss)
            opt.step()
            loss_sum += float(loss.data) * len(batch)
            hit_sum += hits
            ratio_sum += ratios
            fallback_sum += fallbacks
        logs.append(EpochLog(epoch, loss_sum / n_videos, hit_sum / n_videos,
                             ratio_sum / n_videos, fallback_sum / n_videos))
    return logs, opt.t


# ---------------------------------------------------------------------------
# the stacked heavy stage


def _heavy_logits(frames: list[np.ndarray], picks: list[list[int]],
                  gates: Tensor | None, params: ClassifierParams) -> Tensor:
    """(B, L) logits of a batch: every video's picked timesteps through one
    heavy-encoder pass and one head pass, pooled per video.

    Each video is T slots of shape (frames_per_slot, d_raw).  Only the picked
    segments are gathered, ``frames[b][idx, :segment_len]``, video after
    video, into one (sum of picks, segment_len, d_raw) stack of one-segment
    slots that the encoder reads whole.
    """
    for f, idx in zip(frames, picks):
        # numpy would wrap a negative pick and reject a late one with an
        # IndexError
        if not 0 <= min(idx) <= max(idx) < len(f):
            raise ContractError(f"picks {idx} fall outside the {len(f)} slots of a video")
    m = params.config.segment_len
    segments = np.concatenate([f[idx, :m] for f, idx in zip(frames, picks)])
    before = params.heavy_rows
    feats = heavynet_features(segments, range(len(segments)), params)
    if params.heavy_rows - before != len(segments):
        raise ContractError(
            f"the heavy encoder counted {params.heavy_rows - before} rows, "
            f"the batch picked {len(segments)}")
    return classify(feats, gates, params, [len(idx) for idx in picks])


def joint_logits(frames: list[np.ndarray], results: list[SelectionResult],
                 bundle: ModelBundle) -> Tensor:
    """The joint arms' (B, L) heavy logits of a batch: each selection's heavy
    timesteps, scaled by their gate values, through the heavy classifier."""
    t = bundle.selector.config.timesteps
    opened = np.stack([r.open for r in results])
    picks = heavy_indices(opened, np.stack([r.logits.data.reshape(t) for r in results]))
    # the fallback timestep of an all-closed video enters with a constant
    # gate of 1, the last row of the gate column
    column = ad.concat_rows([r.activated for r in results] + [Tensor(np.ones(1))])
    gate_rows = []
    for b, idx in enumerate(picks):
        gate_rows += [b * t + i for i in idx] if opened[b].any() else [len(results) * t]
    return _heavy_logits(frames, picks, ad.take_rows(column, gate_rows),
                         bundle.classifier)


# ---------------------------------------------------------------------------
# the two phases


def _phase_a_loss(config: ExperimentConfig, bundle: ModelBundle,
                  dataset: Dataset, rng: np.random.Generator):
    """The batch loss of the mode's first phase, or None without one.

    End-to-end and frame-conditioned training gate the heavy classifier;
    the stand-alone selector gates its light features into a light head;
    the SCSampler scorer classifies every timestep on its own, the whole
    batch's light frames in one stack.
    """
    mode = config.mode
    task = config.dataset.task
    t_steps = config.dataset.timesteps
    l0_weight = config.training.l0_weight

    if mode in (*_JOINT_MODES, "standalone"):
        def batch_loss(epoch, batch):
            videos = [dataset.train[vi] for vi in batch]
            light = light_frames(videos, config)
            results = [select(light[b:b + 1], bundle.selector, "train", rng=rng)
                       for b in range(len(videos))]
            if mode == "standalone":
                # light path: gated light features, light head, max over each
                # video's timesteps
                gates = ad.concat_rows([r.activated for r in results])
                gated = ad.mul(ad.concat_rows([r.features for r in results]),
                               ad.tile_cols(gates, bundle.selector.config.channels))
                logits = ad.segment_max(bundle.light_head(gated),
                                        [t_steps] * len(results))
            else:
                logits = joint_logits([v.frames for v in videos], results, bundle)
            loss, hits = _scored(logits, videos, task)
            if l0_weight > 0.0:
                alphas = ad.concat_rows([r.logits for r in results])
                loss = ad.add(loss, gating.l0_penalty(alphas, l0_weight))
            opened = sum(len(r.selected_indices) for r in results)
            closed = sum(not r.open.any() for r in results)
            return loss, hits, opened / t_steps, closed
    elif mode == "scsampler":
        n_classes = config.dataset.n_classes

        def batch_loss(epoch, batch):
            videos = [dataset.train[vi] for vi in batch]
            # every timestep carries the video label: each of a video's T rows
            # targets the uniform distribution over its positive classes, so
            # a multi-label video averages the cross-entropy over its
            # positives, keeping the softmax head the saliency relies on
            dist = np.zeros((len(videos), n_classes))
            for row, v in zip(dist, videos):
                positives = v.positive_classes()
                row[positives] = 1.0 / len(positives)
            light = light_frames(videos, config)
            logits = scorer_logits(light.reshape(-1, light.shape[2]), bundle.scorer)
            loss = ad.softmax_xent(logits, np.repeat(dist, t_steps, axis=0))
            picked = np.argmax(logits.data, axis=1).reshape(len(videos), t_steps)
            hits = sum(float(np.mean(row[p] > 0.0)) for row, p in zip(dist, picked))
            return loss, hits, float(len(batch)), 0
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
        task = config.dataset.task
        t_steps = config.dataset.timesteps
        # the frozen selector's and the scorer's picks are fixed once phase A
        # is over; random sampling redraws every epoch
        ranked = rankings(bundle, config, dataset.train)

        @functools.lru_cache(maxsize=1)
        def epoch_picks(epoch):
            return split_picks(bundle, config, ranked, [None], [_SAMPLE_STREAM, epoch])[0]

        def classifier_loss(epoch, batch):
            videos = [dataset.train[vi] for vi in batch]
            picks = [epoch_picks(epoch)[vi] for vi in batch]
            logits = _heavy_logits([v.frames for v in videos], picks, None,
                                   bundle.classifier)
            loss, hits = _scored(logits, videos, task)
            return loss, hits, sum(len(idx) for idx in picks) / t_steps, 0

        rng_b = _train_rng(config)
        rng_b.integers(1 << 30)  # offset from the phase A shuffle stream
        cls_logs, cls_steps = _fit(bundle.classifier.named_parameters().values(),
                                   config, n_train, rng_b, classifier_loss,
                                   config.mode)
        steps += cls_steps

    ckpt = Checkpoint.from_bundle(config, bundle, step=steps)
    return TrainResult(config=config, bundle=bundle, checkpoint=ckpt,
                       epoch_logs=logs, classifier_logs=cls_logs)
