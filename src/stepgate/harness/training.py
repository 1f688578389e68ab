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
(the mean over the batch's videos, plus the gated arms' rate term), one
backward pass and one Adam step per batch.  A batch is a list of row
indices into the train split.  Both light networks read the batch's rows
of the split's light frames (``evaluation.light_frames``).  The selector
runs once per video, on a stack of one; after selection the heavy encoder,
the head and the task loss each run once per batch, the encoder on the
picked slots only, gathered from the split's frames by one index.  The
SCSampler scorer is stacked whole: one scorer pass and one cross-entropy
cover the light frames of every slot of the batch.  The checkpoint's
``step`` is the number of Adam steps over both phases.

All training is deterministic given (config, seed): parameter init, batch
shuffles, gate noise, and baseline sampling each draw from streams derived
from the config seed, and batches run sequentially.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .. import autodiff as ad
from ..autodiff import Adam, Tensor
# perfbench/layers.py wraps scorer_logits, sample_indices and scsampler_scores
# in this namespace
from ..baselines import sample_indices, scorer_logits, scsampler_scores
from ..classifier import ClassifierParams, classify, heavynet_features, task_loss
from ..container import all_finite
from ..errors import ConfigError, ContractError, GenerationError, TrainingDivergence
from ..selector import SelectionResult, heavy_indices, select
from ..synthdata import Dataset, generate_dataset, load_split
from .checkpoint import Checkpoint
from .config import ExperimentConfig
from .evaluation import SELECTOR_MODES, hits, light_frames, rankings, split_picks
from .models import ModelBundle, build_bundle, training_sample_budget

_TRAIN_STREAM = 0x5EED
_SAMPLE_STREAM = 0xBA5E


@dataclass
class EpochLog:
    epoch: int
    loss: float
    accuracy: float
    selected_ratio: float
    fallback_share: float  # videos whose train-mode gates all closed; 0 without gates


@dataclass
class TrainResult:
    bundle: ModelBundle
    checkpoint: Checkpoint
    epoch_logs: list[EpochLog]
    classifier_logs: list[EpochLog]


# ---------------------------------------------------------------------------
# dataset plumbing


def generate_configured(config: ExperimentConfig) -> Dataset:
    """Generate the dataset of the config's dataset section and seed; its
    ``path`` is not read."""
    d = config.dataset
    try:
        return generate_dataset(d.spec(), d.n_train, d.n_test, config.seed)
    except GenerationError as exc:
        raise ConfigError(f"dataset: {exc}") from exc


def resolve_dataset(config: ExperimentConfig) -> Dataset:
    """Load the dataset a config points at, or generate it from the config."""
    d = config.dataset
    if d.path is None:
        return generate_configured(config)
    base = d.path
    loaded = []
    for split, n_videos in (("train", d.n_train), ("test", d.n_test)):
        path = f"{base}/{split}.sgds"
        loaded.append(load_split(path))
        meta = loaded[-1][3]
        if meta["split"] != split:
            raise ConfigError(f"{path}: holds the {meta['split']!r} split, not {split!r}")
        if meta["n_videos"] != n_videos:
            raise ConfigError(f"{path}: holds {meta['n_videos']} videos, the config's "
                              f"n_{split} is {n_videos}")
    (spec_a, protos, train_videos, meta_a), (spec_b, protos_b, test_videos, meta_b) = loaded
    if spec_a != spec_b or meta_a["seed"] != meta_b["seed"]:
        raise ConfigError(f"{base}: train and test splits come from different runs")
    if not np.array_equal(protos, protos_b):
        raise ConfigError(f"{base}: train and test splits disagree on prototypes")
    if spec_a != d.spec():
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


def _scored(logits: Tensor, labels: np.ndarray, task: str) -> tuple[Tensor, float]:
    """The task loss of a batch's (B, L) logits against its (B, L) label rows,
    and its prediction hits (``evaluation.hits``) summed."""
    return task_loss(logits, labels, task), float(hits(logits.data, labels, task).sum())


def _check_finite(values: dict[str, np.ndarray], mode: str, epoch: int) -> None:
    """Raise ``TrainingDivergence`` naming the first of ``values`` that holds
    a non-finite entry."""
    for name, value in values.items():
        if not all_finite(value):
            raise TrainingDivergence(
                f"{mode} training diverged at epoch {epoch}: {name} became non-finite"
            )


def _fit(params: dict[str, Tensor], config: ExperimentConfig, n_videos: int,
         rng: np.random.Generator, batch_loss) -> tuple[list[EpochLog], int]:
    """The training loop over the named parameters: returns the epoch logs
    and the Adam step count.

    ``batch_loss(epoch, video_indices)`` runs inside the recording and
    returns ``(mean loss over the batch, prediction hits, selected ratios,
    fallbacks)``, the last three summed over the batch's videos.  A
    non-finite loss, checked before each step, or a non-finite weight,
    checked after each epoch, is a ``TrainingDivergence``, so the float32
    weights a run returns always load back through ``load_checkpoint``.
    """
    tr = config.training
    opt = Adam(list(params.values()), lr=tr.lr, eps=tr.eps)
    logs: list[EpochLog] = []
    for epoch in range(tr.epochs):
        loss_sum = hit_sum = ratio_sum = fallback_sum = 0.0
        for batch in _batches(n_videos, tr.batch_size, rng):
            with ad.record():
                loss, hits, ratios, fallbacks = batch_loss(epoch, batch)
                _check_finite({"loss": loss.data}, config.mode, epoch)
                ad.backward(loss)
            opt.step()
            loss_sum += float(loss.data) * len(batch)
            hit_sum += hits
            ratio_sum += ratios
            fallback_sum += fallbacks
        _check_finite({f"parameter {name}": p.data for name, p in params.items()},
                      config.mode, epoch)
        logs.append(EpochLog(epoch, loss_sum / n_videos, hit_sum / n_videos,
                             ratio_sum / n_videos, fallback_sum / n_videos))
    return logs, opt.t


# ---------------------------------------------------------------------------
# the stacked heavy stage


def _heavy_logits(frames: np.ndarray, batch: list[int], picks: list[list[int]],
                  gates: Tensor | None, params: ClassifierParams) -> Tensor:
    """(B, L) logits of a batch: every video's picked timesteps through one
    heavy-encoder pass and one head pass, pooled per video.

    ``frames`` is a split's (N, T, frames_per_slot, d_raw) array, each slot
    one segment; ``picks[b]`` are slots of video ``batch[b]``.  Every picked
    slot is gathered by one index into the split's N*T slots, which
    ``heavynet_features`` encodes; that gather is the only copy.
    """
    n, t = frames.shape[:2]
    rows = []
    for b, idx in zip(batch, picks):
        # numpy would wrap a negative pick and a late one would read the next video
        if not 0 <= min(idx) <= max(idx) < t:
            raise ContractError(f"picks {idx} fall outside the {t} slots of a video")
        rows += [b * t + i for i in idx]
    before = params.heavy_rows
    feats = heavynet_features(frames.reshape(n * t, *frames.shape[2:]), rows, params)
    if params.heavy_rows - before != len(rows):
        raise ContractError(
            f"the heavy encoder counted {params.heavy_rows - before} rows, "
            f"the batch picked {len(rows)}")
    return classify(feats, gates, params.head, [len(idx) for idx in picks])


def joint_logits(frames: np.ndarray, batch: list[int], results: list[SelectionResult],
                 p_open: Tensor, bundle: ModelBundle) -> Tensor:
    """The joint arms' (B, L) heavy logits of a batch, rows ``batch`` of a
    split's ``frames``: each selection's heavy timesteps, scaled by their
    gate values, through the heavy classifier.  ``p_open`` is the (B*T, 1)
    column ``sigmoid(logit)`` of the batch."""
    opened = np.stack([r.open for r in results])
    n, t = opened.size, opened.shape[1]
    picks = heavy_indices(opened, np.stack([r.logits.data.reshape(t) for r in results]))
    # the fallback timestep of an all-closed video enters with its open
    # probability, a live gate, read from the second half of the gate column
    column = ad.concat_rows([r.activated for r in results] + [ad.reshape(p_open, (n,))])
    gate_rows = [b * t + i + (0 if opened[b].any() else n)
                 for b, idx in enumerate(picks) for i in idx]
    return _heavy_logits(frames, batch, picks, ad.take_rows(column, gate_rows),
                         bundle.classifier)


# ---------------------------------------------------------------------------
# the two phases


def _phase_a_loss(config: ExperimentConfig, bundle: ModelBundle,
                  dataset: Dataset, rng: np.random.Generator):
    """The batch loss of the mode's first phase, or None without one.

    End-to-end and frame-conditioned training gate the heavy classifier;
    the stand-alone selector gates its light features into a light head.
    All three add the rate term ``ad.rate_penalty``, one tape node, which
    steers the batch's mean open probability to the training sample budget
    over T.  The SCSampler scorer classifies every timestep on its own, the whole batch's light
    frames in one stack.
    """
    mode = config.mode
    task = config.dataset.task
    t_steps = config.dataset.timesteps
    target_rate = training_sample_budget(config) / t_steps
    train = dataset.train
    split_light = light_frames(train, config)

    if mode in SELECTOR_MODES:
        def batch_loss(epoch, batch):
            light = split_light[batch]
            results = [select(light[b:b + 1], bundle.selector, "train", rng=rng)
                       for b in range(len(batch))]
            p_open = ad.sigmoid(ad.concat_rows([r.logits for r in results]))
            if mode == "standalone":
                # light path: gated light features through the light head
                logits = classify(ad.concat_rows([r.features for r in results]),
                                  ad.concat_rows([r.activated for r in results]),
                                  bundle.light_head, [t_steps] * len(results))
            else:
                logits = joint_logits(train.frames, batch, results, p_open, bundle)
            loss, hits = _scored(logits, train.labels[batch], task)
            loss = ad.add(loss, ad.rate_penalty(p_open, target_rate))
            opened = np.stack([r.open for r in results])
            return (loss, hits, int(opened.sum()) / t_steps,
                    int((~opened.any(axis=1)).sum()))
    elif mode == "scsampler":
        def batch_loss(epoch, batch):
            # every timestep carries the video label: each of a video's T rows
            # targets the uniform distribution over its positive classes, so
            # a multi-label video averages the cross-entropy over its
            # positives, keeping the softmax head the saliency relies on
            labels = train.labels[batch]
            dist = labels / labels.sum(axis=1, keepdims=True)
            light = split_light[batch]
            logits = scorer_logits(light.reshape(-1, light.shape[2]), bundle.scorer)
            loss = ad.softmax_xent(logits, np.repeat(dist, t_steps, axis=0))
            picked = np.argmax(logits.data, axis=1).reshape(len(batch), t_steps)
            hits = float((np.take_along_axis(dist, picked, axis=1) > 0.0).mean(axis=1).sum())
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
    joint = config.mode in ("e2e", "frame_conditioned")
    logs: list[EpochLog] = []
    cls_logs: list[EpochLog] = []
    steps = 0

    rng = _train_rng(config)
    video_loss = _phase_a_loss(config, bundle, dataset, rng)
    if video_loss is not None:
        params = {name: t for name, t in bundle.named_parameters().items()
                  if joint or not name.startswith("classifier.")}
        logs, steps = _fit(params, config, n_train, rng, video_loss)

    if not joint:
        task = config.dataset.task
        t_steps = config.dataset.timesteps
        # the frozen selector's and the scorer's picks and the uniform
        # samples are fixed once phase A is over; only random sampling reads
        # the epoch, and redraws every epoch
        ranked = rankings(bundle, config, dataset.train)
        redraws = config.mode == "random"

        @functools.lru_cache(maxsize=1)
        def epoch_picks(draw):
            return split_picks(config, ranked, [None], [_SAMPLE_STREAM, draw])[0]

        def classifier_loss(epoch, batch):
            chosen = epoch_picks(epoch if redraws else 0)
            picks = [chosen[vi] for vi in batch]
            logits = _heavy_logits(dataset.train.frames, batch, picks, None,
                                   bundle.classifier)
            loss, hits = _scored(logits, dataset.train.labels[batch], task)
            return loss, hits, sum(len(idx) for idx in picks) / t_steps, 0

        rng_b = _train_rng(config)
        rng_b.integers(1 << 30)  # offset from the phase A shuffle stream
        cls_params = {name: t for name, t in bundle.named_parameters().items()
                      if name.startswith("classifier.")}
        cls_logs, cls_steps = _fit(cls_params, config, n_train, rng_b, classifier_loss)
        steps += cls_steps

    ckpt = Checkpoint.from_bundle(config, bundle, step=steps)
    return TrainResult(bundle=bundle, checkpoint=ckpt, epoch_logs=logs,
                       classifier_logs=cls_logs)
