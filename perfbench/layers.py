"""Which stepgate functions the traced run wraps, and the layer metrics
derived from their spans.

Names that ``harness.training`` and ``harness.evaluation`` bind with
``from ... import`` are wrapped in those modules' namespaces, where the
loops look them up; the rest are wrapped on their own module or class.
"""

from __future__ import annotations

import os
import statistics

from stepgate import autodiff, gating, selector, synthdata
from stepgate.harness import checkpoint, evaluation, training

TRAIN = "harness.training.run_training"
EVAL = "harness.evaluation.evaluate_bundle"
SELECT = "selector.select"
HEAVY = "classifier.heavynet_features"
CLASSIFY = "classifier.classify"
BACKWARD = "autodiff.backward"
ADAM = "autodiff.Adam.step"
ACTIVATE = ("gating.activate_train_batch", "gating.activate_test_batch")


def _rows(args, out):
    return {"rows": len(args[1])}


def _open(args, out):
    mask = out[1]
    return {"open": int(mask.sum()), "gates": int(mask.size)}


def _nodes(args, out):
    return {"nodes": args[0].node_id[1] + 1}


def _file_bytes(args, out):
    return {"bytes": os.path.getsize(args[0])}


def video_epochs(result, n_train: int) -> int:
    """Videos pushed through training: every video once per epoch of every
    phase."""
    return n_train * (len(result.epoch_logs) + len(result.classifier_logs))


def _video_passes(args, out):
    return {"videos": video_epochs(out, len(args[1].train))}


def _eval_calls(args, out):
    return {"videos": len(args[2]), "entries": list(out.per_video_counts)}


# (owner, attribute, span name, count) -- installed around set-up
SETUP_TARGETS = [
    (training, "generate_dataset", "synthdata.generate_dataset", None),
    (synthdata, "save_split", "synthdata.save_split", _file_bytes),
    (training, "load_split", "synthdata.load_split", _file_bytes),
    (checkpoint, "save_checkpoint", "harness.checkpoint.save_checkpoint", None),
    (checkpoint, "load_checkpoint", "harness.checkpoint.load_checkpoint", None),
]

# installed around the measured rounds
MEASURE_TARGETS = [
    (training, "run_training", TRAIN, _video_passes),
    (evaluation, "evaluate_bundle", EVAL, _eval_calls),
    (training, "select", SELECT, None),
    (evaluation, "select", SELECT, None),
    (selector, "lightnet_features", "selector.lightnet_features", None),
    (selector, "self_attention", "selector.self_attention", None),
    (gating, "similarity_batch", "gating.similarity_batch", None),
    (gating, "gate_logits_batch", "gating.gate_logits_batch", None),
    (gating, "activate_train_batch", ACTIVATE[0], _open),
    (gating, "activate_test_batch", ACTIVATE[1], _open),
    (training, "heavynet_features", HEAVY, _rows),
    (evaluation, "heavynet_features", HEAVY, _rows),
    (training, "classify", CLASSIFY, None),
    (evaluation, "classify", CLASSIFY, None),
    (training, "task_loss", "classifier.task_loss", None),
    (training, "scorer_logits", "baselines.scorer_logits", None),
    (training, "scsampler_scores", "baselines.scsampler_scores", None),
    (evaluation, "scsampler_scores", "baselines.scsampler_scores", None),
    (training, "sample_indices", "baselines.sample_indices", None),
    (evaluation, "sample_indices", "baselines.sample_indices", None),
    (autodiff, "backward", BACKWARD, _nodes),
    (autodiff.Adam, "step", ADAM, None),
]

TRAINING = {"e2e-train", "baseline-train"}
ALL = TRAINING | {"gated-eval"}
SELECTING = {"e2e-train", "gated-eval"}

# Span name -> workloads on which it must record calls; on every other
# workload it must record none.  Training workloads evaluate the model they
# trained in each round, so the test-mode gate runs on e2e-train too.
WORKS = {
    TRAIN: TRAINING,
    EVAL: ALL,
    SELECT: SELECTING,
    "selector.lightnet_features": SELECTING,
    "selector.self_attention": SELECTING,
    "gating.similarity_batch": SELECTING,
    "gating.gate_logits_batch": SELECTING,
    ACTIVATE[0]: {"e2e-train"},
    ACTIVATE[1]: SELECTING,
    HEAVY: ALL,
    CLASSIFY: ALL,
    "classifier.task_loss": TRAINING,
    "baselines.scorer_logits": {"baseline-train"},
    "baselines.scsampler_scores": {"baseline-train"},
    "baselines.sample_indices": {"baseline-train"},
    BACKWARD: TRAINING,
    ADAM: TRAINING,
    "synthdata.generate_dataset": ALL,
    "synthdata.save_split": ALL,
    "synthdata.load_split": ALL,
    "harness.checkpoint.save_checkpoint": {"gated-eval"},
    "harness.checkpoint.load_checkpoint": {"gated-eval"},
}

EVAL_ENTRIES = ("gate-count", "topk-4", "topk-8", "topk-16")

# name -> (unit, better); the order is the order of the output
PER_LAYER = {
    "autodiff.backward.ms_per_step": ("ms", "lower"),
    "autodiff.backward.tape_nodes_per_step": ("count", "lower"),
    "autodiff.backward.us_per_node": ("us", "lower"),
    "autodiff.Adam.step.ms_per_step": ("ms", "lower"),
    "autodiff.step_ms.p50": ("ms", "lower"),
    "selector.select.ms": ("ms", "lower"),
    "selector.select.self_ms": ("ms", "lower"),
    "selector.select.calls_per_video": ("count", "lower"),
    "selector.lightnet_features.ms": ("ms", "lower"),
    "selector.self_attention.ms": ("ms", "lower"),
    "selector.gflops_per_s": ("GFLOP/s", "higher"),
    "gating.similarity_batch.ms": ("ms", "lower"),
    "gating.gate_logits_batch.ms": ("ms", "lower"),
    "gating.activate_train_batch.ms": ("ms", "lower"),
    "gating.activate_test_batch.ms": ("ms", "lower"),
    "gating.open_ratio": ("fraction", "lower"),
    "gating.fallback_share": ("fraction", "lower"),
    "classifier.heavynet_features.ms": ("ms", "lower"),
    **{f"classifier.heavynet_features.us_per_row.{e}": ("us", "lower")
       for e in EVAL_ENTRIES},
    "classifier.heavy_rows_per_video": ("count", "lower"),
    "classifier.heavy_gflops_per_s": ("GFLOP/s", "higher"),
    "classifier.classify.ms": ("ms", "lower"),
    "classifier.task_loss.ms": ("ms", "lower"),
    "baselines.scorer_logits.ms": ("ms", "lower"),
    "baselines.scsampler_scores.ms": ("ms", "lower"),
    "baselines.sample_indices.ms": ("ms", "lower"),
    "synthdata.generate_dataset.ms": ("ms", "lower"),
    "synthdata.save_split.mb_per_s": ("MB/s", "higher"),
    "synthdata.load_split.mb_per_s": ("MB/s", "higher"),
    "harness.checkpoint.save_checkpoint.ms": ("ms", "lower"),
    "harness.checkpoint.load_checkpoint.ms": ("ms", "lower"),
    "harness.training.run_training.self_ms": ("ms", "lower"),
    "harness.evaluation.evaluate_bundle.self_ms": ("ms", "lower"),
    "trace_overhead_pct": ("%", "lower"),
}


def coverage_failures(spans, workload: str) -> list[str]:
    """Wrapped functions whose call count breaks the WORKS map."""
    calls = {name: 0 for name in WORKS}
    for s in spans:
        calls[s.name] += 1
    out = []
    for name, works_on in WORKS.items():
        if workload in works_on and calls[name] == 0:
            out.append(f"coverage: {name} recorded no calls on {workload}")
        elif workload not in works_on and calls[name] != 0:
            out.append(f"coverage: {name} recorded {calls[name]} calls on "
                       f"{workload}, where its layer is bypassed")
    return out


def eval_entry_rows(spans, eval_span_index: int) -> dict[str, list]:
    """Heavy-encoder spans of one evaluate call, split by eval entry.

    ``evaluate_bundle`` runs its entries one after another, each over every
    video, so the calls split into equal consecutive chunks.
    """
    ev = spans[eval_span_index]
    heavy = []
    for i in range(eval_span_index + 1, len(spans)):
        if spans[i].root != ev.root:
            break
        if spans[i].name == HEAVY:
            heavy.append(spans[i])
    n = ev.counts["videos"]
    return {key: heavy[i * n:(i + 1) * n]
            for i, key in enumerate(ev.counts["entries"])}


def _group(spans) -> dict[str, list]:
    out: dict[str, list] = {}
    for s in spans:
        out.setdefault(s.name, []).append(s)
    return out


def _under(spans, primary: str) -> list:
    """Spans inside the top-level calls named ``primary``."""
    roots = {i for i, s in enumerate(spans) if s.parent is None and s.name == primary}
    return [s for s in spans if s.root in roots]


def _mean_ms(spans) -> float:
    return 1e3 * sum(s.seconds for s in spans) / len(spans) if spans else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def step_intervals_ms(spans) -> list[float]:
    """Time between consecutive Adam step ends inside one training call."""
    out, last = [], {}
    for s in spans:
        if s.name == ADAM:
            if s.root in last:
                out.append(1e3 * (s.end - last[s.root]))
            last[s.root] = s.end
    return out


def layer_metrics(spans, primary: str, timesteps: int, desk_light: float,
                  desk_heavy: float) -> dict[str, float]:
    """Per-layer values from the spans of the traced rounds and set-ups.

    Compute layers are read from the calls under ``primary`` (the training
    call on a training workload, the evaluate call on gated-eval); the
    per-entry heavy-encoder cost is read from every evaluate call.  A ``.ms``
    value is the mean per call; a layer with no calls reads 0.
    """
    by_name = _group(spans)
    under = _group(_under(spans, primary))

    def named(name):
        return under.get(name, [])

    passes = sum(s.counts.get("videos", 0) for s in named(primary))
    backward, adam, select = named(BACKWARD), named(ADAM), named(SELECT)
    heavy, classify = named(HEAVY), named(CLASSIFY)
    activate = named(ACTIVATE[0]) + named(ACTIVATE[1])
    nodes = sum(s.counts["nodes"] for s in backward)
    rows = sum(s.counts["rows"] for s in heavy)
    select_s = sum(s.seconds for s in select)
    intervals = step_intervals_ms(adam)

    m = {
        "autodiff.backward.ms_per_step": _mean_ms(backward),
        "autodiff.backward.tape_nodes_per_step": _ratio(nodes, len(backward)),
        "autodiff.backward.us_per_node": _ratio(
            1e6 * sum(s.seconds for s in backward), nodes),
        "autodiff.Adam.step.ms_per_step": _mean_ms(adam),
        "autodiff.step_ms.p50": statistics.median(intervals) if intervals else 0.0,
        "selector.select.ms": _mean_ms(select),
        "selector.select.self_ms": _ratio(
            1e3 * sum(s.self_seconds for s in select), len(select)),
        "selector.select.calls_per_video": _ratio(len(select), passes),
        "selector.lightnet_features.ms": _mean_ms(named("selector.lightnet_features")),
        "selector.self_attention.ms": _mean_ms(named("selector.self_attention")),
        "selector.gflops_per_s": _ratio(desk_light * timesteps * len(select), select_s),
        "gating.similarity_batch.ms": _mean_ms(named("gating.similarity_batch")),
        "gating.gate_logits_batch.ms": _mean_ms(named("gating.gate_logits_batch")),
        "gating.activate_train_batch.ms": _mean_ms(named(ACTIVATE[0])),
        "gating.activate_test_batch.ms": _mean_ms(named(ACTIVATE[1])),
        "gating.open_ratio": _ratio(sum(s.counts["open"] for s in activate),
                                    sum(s.counts["gates"] for s in activate)),
        "gating.fallback_share": _ratio(
            sum(1 for s in activate if s.counts["open"] == 0), len(activate)),
        "classifier.heavynet_features.ms": _mean_ms(heavy),
    }
    entry_spans: dict[str, list] = {e: [] for e in EVAL_ENTRIES}
    for i, s in enumerate(spans):
        if s.name == EVAL:
            for key, chunk in eval_entry_rows(spans, i).items():
                entry_spans.setdefault(key, []).extend(chunk)
    for key in EVAL_ENTRIES:
        chunk = entry_spans[key]
        m[f"classifier.heavynet_features.us_per_row.{key}"] = _ratio(
            1e6 * sum(s.seconds for s in chunk), sum(s.counts["rows"] for s in chunk))
    m.update({
        # per pass through the heavy stage: a video-epoch in training, a
        # (video, entry) pair in evaluation
        "classifier.heavy_rows_per_video": _ratio(rows, len(heavy)),
        # desk_heavy counts the heavy encoder and the head for one row
        "classifier.heavy_gflops_per_s": _ratio(
            desk_heavy * rows, sum(s.seconds for s in heavy + classify)),
        "classifier.classify.ms": _mean_ms(classify),
        "classifier.task_loss.ms": _mean_ms(named("classifier.task_loss")),
        "baselines.scorer_logits.ms": _mean_ms(named("baselines.scorer_logits")),
        "baselines.scsampler_scores.ms": _mean_ms(named("baselines.scsampler_scores")),
        "baselines.sample_indices.ms": _mean_ms(named("baselines.sample_indices")),
        "synthdata.generate_dataset.ms": _mean_ms(by_name.get("synthdata.generate_dataset", [])),
    })
    for io in ("save_split", "load_split"):
        calls = by_name.get(f"synthdata.{io}", [])
        m[f"synthdata.{io}.mb_per_s"] = _ratio(
            sum(s.counts["bytes"] for s in calls) / 1e6, sum(s.seconds for s in calls))
    for io in ("save_checkpoint", "load_checkpoint"):
        m[f"harness.checkpoint.{io}.ms"] = _mean_ms(
            by_name.get(f"harness.checkpoint.{io}", []))
    for name in (TRAIN, EVAL):
        calls = by_name.get(name, [])
        m[f"{name}.self_ms"] = _ratio(1e3 * sum(s.self_seconds for s in calls), len(calls))
    return m


def step_p90_ms(spans, primary: str) -> float | None:
    """p90 of the Adam step interval, only when ten or more lie beyond it."""
    intervals = step_intervals_ms(_under(spans, primary))
    if len(intervals) < 100:
        return None
    return statistics.quantiles(intervals, n=10)[-1]
