"""Evaluation: metrics per budget with cost accounting attached.

Evaluation always uses deterministic test-mode gates.  The natural
"gate-count" entry comes first and keeps however many gates opened (with a
one-timestep fallback when none did); then a "topk" entry per
``eval.budgets`` value forces exactly k highest-activation timesteps so
different selection policies can be compared at matched budget.
Gate magnitudes are not applied at test time: the test activation is binary,
so on the open set the scaling is the identity, and under a top-k override
it would zero the force-included rows.

Work is stacked where it does not depend on the budget.  ``rankings`` runs
the test-mode selector or the scorer once per minibatch of
``training.batch_size`` videos, on its rows of the view ``light_frames``
takes of the split's frames, so ranking a split needs one minibatch's
working memory, not the split's; ``split_picks`` then derives every
budget's picks for the whole split from that one ranking.  Each entry
encodes each video's row of the split's frames with its own
``heavynet_features`` call, entry after entry, and runs ``classify`` once
per minibatch on the concatenated features.  So a ``select`` or
``classify`` call covers a minibatch, not a video.  An entry's heavy rows
are the growth of the encoder's ``heavy_rows`` over it.

A selector arm's report also holds ``selection_summary`` of that one
ranking: per class, how many gates open and where.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .. import autodiff as ad
from ..baselines import sample_indices, scsampler_scores
from ..classifier import classify, heavynet_features
from ..costmodel import CostRegistry, CostReport, pipeline_cost, row_gflops
from ..errors import ContractError, DimensionError, DomainError
from ..gating import step_open
from ..selector import heavy_indices, select, top_k_indices
from ..synthdata import Dataset, Split
from .checkpoint import Checkpoint
from .config import ExperimentConfig
from .models import ModelBundle, build_bundle, named_tensors, training_sample_budget

_EVAL_STREAM = 0xE7A1

SELECTOR_MODES = ("standalone", "e2e", "frame_conditioned")


# ---------------------------------------------------------------------------
# metrics


def hits(scores: np.ndarray, labels: np.ndarray, task: str) -> np.ndarray:
    """Per video of (N, L) logits ``scores`` and (N, L) 0/1 ``labels``, its
    prediction hit: 1 or 0 for a single-label argmax on the one-hot row, or
    the share of classes whose sign matches a multi-label indicator row."""
    if task == "single_label":
        return labels[np.arange(len(labels)), scores.argmax(axis=1)]
    return ((scores > 0.0) == (labels > 0.0)).mean(axis=1)


def average_precision(scores, targets) -> float:
    """Precision averaged at each positive's rank, best score first.

    Ties keep input order (stable sort); monotone transforms of the scores
    leave the value unchanged.
    """
    s = np.asarray(scores, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if s.shape != t.shape or s.ndim != 1:
        raise DomainError(f"scores and targets must be matching 1-d arrays, "
                          f"got {s.shape} vs {t.shape}")
    if not np.isin(t, (0.0, 1.0)).all():
        raise DomainError("targets must be exactly 0 or 1")
    if not t.any():
        raise DomainError("average precision needs at least one positive")
    order = np.argsort(-s, kind="stable")
    hits = np.cumsum(t[order])
    ranks = np.flatnonzero(t[order]) + 1
    return float(np.mean(hits[ranks - 1] / ranks))


def mean_ap(scores: np.ndarray, targets: np.ndarray) -> tuple[float, list[int]]:
    """Mean AP over classes with at least one positive, and the indices of
    the classes skipped for having none."""
    s = np.asarray(scores, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if s.shape != t.shape or s.ndim != 2:
        raise DomainError(f"need matching (videos, classes) matrices, got {s.shape} vs {t.shape}")
    aps, skipped = [], []
    for c in range(s.shape[1]):
        if t[:, c].any():
            aps.append(average_precision(s[:, c], t[:, c]))
        else:
            skipped.append(c)
    if not aps:
        raise DomainError("every class lacks positives; mAP undefined")
    return float(np.mean(aps)), skipped


# ---------------------------------------------------------------------------
# cost wiring


def cost_registry(bundle: ModelBundle, timesteps: int) -> CostRegistry:
    """The rates of the networks eval runs, read off the bundle's weights by
    ``costmodel.row_gflops``: ``desk_heavy`` and ``desk_head`` from the
    classifier's encoder and head, ``desk_light`` from the selector, or else
    the scorer, or nothing on the fixed-rule samplers.  The standalone arm's
    light head is not charged: eval never runs it."""
    light = bundle.selector if bundle.selector is not None else bundle.scorer
    stages = {"desk_light": light, "desk_heavy": bundle.classifier.enc,
              "desk_head": bundle.classifier.head}
    return CostRegistry(rates={tag: row_gflops(named_tensors(group), timesteps)
                               for tag, group in stages.items() if group is not None})


def cost_registry_for(config: ExperimentConfig) -> CostRegistry:
    """``cost_registry`` of the bundle ``config`` builds.  It takes a config
    alone because the benchmark reads the rates before any bundle exists."""
    return cost_registry(build_bundle(config, draw=False), config.dataset.timesteps)


def _cost_for(config: ExperimentConfig, mean_heavy: float,
              registry: CostRegistry) -> CostReport:
    """A light stage is charged on every timestep exactly when the registry
    holds a ``desk_light`` rate."""
    n_light = config.dataset.timesteps if "desk_light" in registry.rates else 0
    return pipeline_cost(n_light, mean_heavy, registry.rates.get("desk_light", 0.0),
                         registry.rate("desk_heavy"), registry.rate("desk_head"))


# ---------------------------------------------------------------------------
# evaluation proper


@dataclass
class BudgetMetrics:
    budget: int | None          # None = natural gate count
    metric_name: str
    value: float
    mean_selected: float        # heavy timesteps per video
    mean_ratio: float
    heavy_rows: int             # measured on the instrumented encoder
    cost: CostReport

    def to_dict(self) -> dict:
        d = asdict(self)
        d["cost"]["total_gflops"] = self.cost.total_gflops
        return d


@dataclass
class EvalReport:
    """Metrics per budget entry; ``selection`` is the selector arms'
    ``selection_summary``, None on the other arms."""

    mode: str
    task: str
    n_videos: int
    timesteps: int
    entries: list[BudgetMetrics] = field(default_factory=list)
    per_video_counts: dict[str, list[int]] = field(default_factory=dict)
    skipped_classes: list[int] = field(default_factory=list)
    selection: dict | None = None

    def entry(self, budget: int | None) -> BudgetMetrics:
        for e in self.entries:
            if e.budget == budget:
                return e
        raise DomainError(f"no evaluation entry for budget {budget!r}")

    def to_dict(self) -> dict:
        return {**asdict(self), "entries": [e.to_dict() for e in self.entries]}


def entry_key(budget: int | None) -> str:
    """Name of a budget entry in reports, stdout and the tradeoff CSV."""
    return "gate-count" if budget is None else f"topk-{budget}"


def light_frames(split: Split, config: ExperimentConfig) -> np.ndarray:
    """What the light networks read: the light frame of every slot of
    ``split``, the middle frame of the slot, which is the heavy segment,
    ``slot[frames_per_slot // 2]``, as a strided (N, T, d_raw) view of its
    frames in their dtype, float32 as stored, which the light networks read
    with no cast.  Nothing is copied."""
    t, m = config.dataset.timesteps, config.dataset.frames_per_slot
    if split.frames.shape[1:3] != (t, m):
        raise DimensionError(f"the split's videos have {split.frames.shape[1]} slots of "
                             f"{split.frames.shape[2]} frames, the config {t} slots of {m}")
    return split.frames[:, :, m // 2]


def rankings(bundle: ModelBundle, config: ExperimentConfig, split: Split):
    """What every budget picks from, one row per video: the (N, T) test-mode
    gate logits of the selector arms or the (N, T) scores of the scorer, each
    run once per minibatch of ``training.batch_size`` videos, so the working
    memory is one minibatch's whatever the size of the split; N Nones for
    the fixed-rule samplers."""
    t = config.dataset.timesteps
    if config.mode in SELECTOR_MODES:
        def rank(light):
            return select(light, bundle.selector, "test").logits.data
    elif config.mode == "scsampler":
        def rank(light):
            return scsampler_scores(light.reshape(-1, light.shape[2]), bundle.scorer)
    else:
        return [None] * len(split)
    b = config.training.batch_size
    light = light_frames(split, config)
    return np.concatenate([rank(light[lo:lo + b]).reshape(-1, t)
                           for lo in range(0, len(split), b)])


def split_picks(config: ExperimentConfig, ranked, budgets: list,
                stream: list[int]) -> list[list[list[int]]]:
    """Per budget, per row of ``ranked``, the timesteps that video's heavy
    stage encodes (budget None: the natural gate count, or the training
    sample budget for the selector-free arms).

    The selector arms' budgets all read one ranking of the split, the other
    arms take one ``sample_indices`` call per budget.  Video i's random
    draws are seeded from the config seed, then ``stream``, then i.
    """
    t = config.dataset.timesteps
    if config.mode in SELECTOR_MODES:
        ks = [k for k in budgets if k is not None]
        top = dict(zip(ks, top_k_indices(ad.sigmoid_np(ranked), ks)))
        return [heavy_indices(step_open(ranked), ranked) if k is None else top[k]
                for k in budgets]
    rows = ranked
    if config.mode == "random":
        rows = [int(np.random.default_rng([config.seed, *stream, i]).integers(1 << 62))
                for i in range(len(ranked))]
    mode = "topk" if config.mode == "scsampler" else config.mode
    return [sample_indices(mode, t, training_sample_budget(config) if k is None else k, rows)
            for k in budgets]


def selection_summary(ranked: np.ndarray, labels: np.ndarray) -> dict:
    """Per class of the (N, L) ``labels``, over its videos (a video counts
    once per positive class, sums run in video order) and their (N, T) gate
    logits ``ranked``: ``class_ratios``, the mean share of open test-mode
    gates, no fallback, so a closed selector reads 0; ``temporal_profiles``,
    sigmoid(logit) averaged per position, min-max normalised, flat reads 0.
    ``mean_ratio`` and ``ratio_variance`` run over the classes present."""
    t, n_classes = ranked.shape[1], labels.shape[1]
    videos, classes = np.nonzero(labels)
    counts = np.bincount(classes, minlength=n_classes)
    ratio_sums = np.zeros(n_classes)
    np.add.at(ratio_sums, classes, (np.count_nonzero(step_open(ranked), axis=1) / t)[videos])
    gate_sums = np.zeros((n_classes, t))
    np.add.at(gate_sums, classes, ad.sigmoid_np(ranked)[videos])

    seen = counts > 0
    ratios = np.zeros(n_classes)
    ratios[seen] = ratio_sums[seen] / counts[seen]
    profiles = np.zeros((n_classes, t))
    profiles[seen] = gate_sums[seen] / counts[seen, None]
    lo = profiles.min(axis=1, keepdims=True)
    span = profiles.max(axis=1, keepdims=True) - lo
    profiles = np.divide(profiles - lo, span, out=np.zeros_like(profiles), where=span > 0)
    return {"class_ratios": ratios.tolist(),
            "mean_ratio": float(np.mean(ratios[seen])),
            "ratio_variance": float(np.var(ratios[seen])),
            "temporal_profiles": profiles.tolist()}


def evaluate_bundle(bundle: ModelBundle, config: ExperimentConfig,
                    split: Split) -> EvalReport:
    """Metric per budget entry, ``[None, *config.eval.budgets]`` in that
    order, over one split (normally the test split)."""
    if not len(split):
        raise ContractError("evaluation needs at least one video")
    task = config.dataset.task
    t = config.dataset.timesteps
    b = config.training.batch_size
    registry = cost_registry(bundle, t)
    budgets: list[int | None] = [None, *config.eval.budgets]

    report = EvalReport(mode=config.mode, task=task, n_videos=len(split),
                        timesteps=t)
    # test-mode gates and scores do not depend on the budget
    ranked = rankings(bundle, config, split)
    if config.mode in SELECTOR_MODES:
        report.selection = selection_summary(ranked, split.labels)
    picks = split_picks(config, ranked, budgets, [_EVAL_STREAM])
    for budget, entry_picks in zip(budgets, picks):
        before = bundle.classifier.heavy_rows
        minibatch_scores = []
        for lo in range(0, len(split), b):
            chunk = entry_picks[lo:lo + b]
            feats = [heavynet_features(split.frames[lo + i], idx, bundle.classifier)
                     for i, idx in enumerate(chunk)]
            minibatch_scores.append(classify(ad.concat_rows(feats), None, bundle.classifier.head,
                                             [len(idx) for idx in chunk]).data)
        score_rows = np.concatenate(minibatch_scores)
        counts = [len(idx) for idx in entry_picks]
        heavy_rows = bundle.classifier.heavy_rows - before
        if heavy_rows != sum(counts):
            raise ContractError(
                f"{entry_key(budget)}: the heavy encoder counted "
                f"{heavy_rows} rows, the videos picked {sum(counts)}")
        if task == "single_label":
            name = "accuracy"
            value = float(np.mean(hits(score_rows, split.labels, task)))
        else:
            name = "mAP"
            value, report.skipped_classes = mean_ap(score_rows, split.labels)
        mean_sel = float(np.mean(counts))
        report.per_video_counts[entry_key(budget)] = counts
        report.entries.append(BudgetMetrics(
            budget=budget, metric_name=name, value=value,
            mean_selected=mean_sel, mean_ratio=mean_sel / t,
            heavy_rows=heavy_rows,
            cost=_cost_for(config, mean_sel, registry),
        ))
    return report


def evaluate_checkpoint(ckpt: Checkpoint, dataset: Dataset) -> EvalReport:
    """Evaluate the model a checkpoint describes, under its stored config, on
    the test split."""
    config = ckpt.experiment_config()
    return evaluate_bundle(ckpt.bundle(config), config, dataset.test)
