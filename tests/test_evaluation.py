import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_config, traced_peak
from stepgate.autodiff import sigmoid_np
from stepgate.baselines import scsampler_scores
from stepgate.classifier import classify, heavynet_features
from stepgate.costmodel import GFLOP
from stepgate.errors import ContractError, DomainError
from stepgate.harness import evaluation
from stepgate.harness.checkpoint import Checkpoint
from stepgate.harness.evaluation import (average_precision, cost_registry_for,
                                         evaluate_bundle,
                                         evaluate_checkpoint, hits, light_frames,
                                         mean_ap, selection_summary)
from stepgate.harness.models import build_bundle, training_sample_budget
from stepgate.harness.training import resolve_dataset, run_training
from stepgate.selector import select
from stepgate.synthdata import generate_dataset

MODES = ["e2e", "frame_conditioned", "standalone", "scsampler", "uniform", "random"]


# ---------------------------------------------------------------------------
# metric oracles


def test_hits_oracle():
    """Per video: a single-label hit is 1 where the argmax is the one
    positive class, else 0, and its mean is the accuracy; a multi-label hit
    is the share of classes whose logit sign matches the indicator row, a
    zero logit counting as negative."""
    scores = np.array([[0.2, 0.9, -1.0], [2.0, 0.1, 0.3],
                       [-0.5, -0.4, 0.7], [0.0, 3.0, 1.0]])
    single = hits(scores, np.eye(3)[[1, 2, 2, 1]], "single_label")
    assert single.tolist() == [1.0, 0.0, 1.0, 1.0]
    assert np.mean(single) == 0.75
    multi = np.array([[1, 1, 0], [1, 0, 0], [0, 0, 1], [0, 0, 0]], dtype=np.float64)
    assert hits(scores, multi, "multi_label").tolist() == [1.0, 1 / 3, 1.0, 1 / 3]


def test_average_precision_hand_computed():
    # positives land at ranks 1 and 3: (1/1 + 2/3) / 2
    assert average_precision([0.9, 0.8, 0.7, 0.6],
                             [1, 0, 1, 0]) == pytest.approx(5 / 6)
    assert average_precision([0.1, 0.9], [1, 0]) == pytest.approx(0.5)
    assert average_precision([0.5, 0.6], [1, 1]) == 1.0
    # worst ordering: positives at the bottom
    assert average_precision([0.9, 0.8, 0.1],
                             [0, 0, 1]) == pytest.approx(1 / 3)


def test_average_precision_ties_keep_input_order():
    assert average_precision([0.5, 0.5], [1, 0]) == 1.0
    assert average_precision([0.5, 0.5], [0, 1]) == pytest.approx(0.5)


@given(st.lists(st.tuples(st.integers(-20, 20), st.booleans()),
                min_size=2, max_size=30).filter(
                    lambda rows: any(t for _, t in rows)))
@settings(max_examples=60, deadline=None)
def test_average_precision_invariants(rows):
    # integer scores keep ties exact under the affine transform below
    scores = [float(s) for s, _ in rows]
    targets = [int(t) for _, t in rows]
    ap = average_precision(scores, targets)
    assert 0.0 < ap <= 1.0
    shifted = average_precision([3.0 * s + 7.0 for s in scores], targets)
    assert ap == pytest.approx(shifted)   # monotone transforms change nothing
    if all(targets):
        assert ap == 1.0


def test_average_precision_needs_a_positive():
    with pytest.raises(DomainError):
        average_precision([0.4, 0.2], [0, 0])


def test_mean_ap_averages_and_skips_empty_classes():
    scores = np.asarray([[0.9, 0.1, 0.3],
                         [0.2, 0.8, 0.4],
                         [0.7, 0.6, 0.5]])
    targets = np.asarray([[1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0],
                          [1.0, 0.0, 0.0]])
    value, skipped = mean_ap(scores, targets)
    assert skipped == [2]
    expected = (average_precision(scores[:, 0], targets[:, 0])
                + average_precision(scores[:, 1], targets[:, 1])) / 2
    assert value == pytest.approx(expected)
    with pytest.raises(DomainError):
        mean_ap(scores, targets[:, :2])


# ---------------------------------------------------------------------------
# evaluate_bundle


@pytest.fixture(scope="module")
def e2e_setup(tiny_data):
    cfg = tiny_config("e2e")
    cfg.eval.budgets = [1, 3]
    return cfg, build_bundle(cfg), tiny_data


def test_report_structure(e2e_setup):
    cfg, bundle, data = e2e_setup
    report = evaluate_bundle(bundle, cfg, data.test)
    assert [e.budget for e in report.entries] == [None, 1, 3]
    assert report.n_videos == len(data.test)
    assert set(report.per_video_counts) == {"gate-count", "topk-1", "topk-3"}
    nat = report.entries[0]
    assert nat.metric_name == "accuracy"
    assert 0.0 <= nat.value <= 1.0
    # fresh selector with positive open bias keeps every gate open
    assert nat.mean_selected == cfg.dataset.timesteps
    assert nat.mean_ratio == 1.0


def test_topk_entries_select_exactly_k(e2e_setup):
    cfg, bundle, data = e2e_setup
    report = evaluate_bundle(bundle, cfg, data.test)
    for k in (1, 3):
        entry = report.entry(k)
        assert entry.mean_selected == k
        assert entry.mean_ratio == pytest.approx(k / cfg.dataset.timesteps)
        assert all(c == k for c in report.per_video_counts[f"topk-{k}"])
    with pytest.raises(DomainError):
        report.entry(5)


def test_heavy_rows_instrumentation_counts_selected_rows(e2e_setup):
    cfg, bundle, data = e2e_setup
    report = evaluate_bundle(bundle, cfg, data.test)
    assert report.entry(1).heavy_rows == len(data.test)
    assert report.entry(3).heavy_rows == 3 * len(data.test)
    # the encoder's counter is never reset: each entry counts its own growth
    before = bundle.classifier.heavy_rows
    again = evaluate_bundle(bundle, cfg, data.test)
    assert again.to_dict() == report.to_dict()
    assert bundle.classifier.heavy_rows - before == sum(e.heavy_rows for e in again.entries)


def test_cost_scales_with_budget(e2e_setup):
    cfg, bundle, data = e2e_setup
    report = evaluate_bundle(bundle, cfg, data.test)
    c1, c3 = report.entry(1).cost, report.entry(3).cost
    assert c1.n_heavy == 1 and c3.n_heavy == 3
    assert c1.n_light == c3.n_light == cfg.dataset.timesteps
    assert c3.total_gflops > c1.total_gflops
    registry = cost_registry_for(cfg)
    assert registry.rate("desk_heavy") > 0
    assert c1.heavy_gflops == pytest.approx(registry.rate("desk_heavy"))


def test_rates_follow_the_layers(monkeypatch):
    """The rates are read off the weights the layers hold, so a width
    changed in the layer's module changes the rate with no formula edit."""
    monkeypatch.setattr("stepgate.selector.LIGHT_HIDDEN", 5)
    monkeypatch.setattr("stepgate.classifier.HEAVY_HIDDEN", 9)
    cfg = tiny_config("e2e")  # d_raw 6, T 6, C 8, 8 kernels, gate hidden 4
    registry = cost_registry_for(cfg)
    # encoder 6*5 + 5*8, attention 3*8*8 + 2*6*8, kernels 8*8, gate 8*4 + 4
    assert registry.rate("desk_light") * GFLOP == pytest.approx(458, abs=1e-9)
    # 2-frame slots: encoder 2*6*9 + 9*4
    assert registry.rate("desk_heavy") * GFLOP == pytest.approx(144, abs=1e-9)


@pytest.mark.parametrize("mode", MODES)
def test_every_entry_charges_one_head_pass_per_video(mode, tiny_data):
    """The head runs once per video on the pooled features, so every arm's
    every entry, dense uniform included, adds ``desk_head`` once to its
    per-row heavy cost."""
    t = tiny_data.spec.timesteps
    cfg = tiny_config(mode, **{"training.sample_budget": t})
    cfg.eval.budgets = [2, t]
    registry = cost_registry_for(cfg)
    report = evaluate_bundle(build_bundle(cfg), cfg, tiny_data.test)
    for e in report.entries:
        if mode in ("uniform", "random"):
            assert e.cost.n_light == 0 and e.cost.light_gflops == 0
        else:
            assert e.cost.n_light == t
        assert e.cost.head_gflops == registry.rate("desk_head")
        assert e.cost.heavy_gflops == e.mean_selected * registry.rate("desk_heavy")
        assert e.cost.total_gflops == pytest.approx(
            e.cost.light_gflops + e.cost.heavy_gflops + registry.rate("desk_head"))


def test_evaluation_is_deterministic(e2e_setup):
    cfg, bundle, data = e2e_setup
    a = evaluate_bundle(bundle, cfg, data.test)
    b = evaluate_bundle(bundle, cfg, data.test)
    for ea, eb in zip(a.entries, b.entries):
        assert ea.value == eb.value
        assert ea.mean_selected == eb.mean_selected


@pytest.mark.parametrize("mode", ["e2e", "frame_conditioned", "standalone"])
def test_selection_runs_once_per_video(mode, tiny_data, monkeypatch):
    """Test-mode gates do not depend on the budget, so every budget entry
    reuses one selection of each video: each video is selected exactly
    once, in minibatches of training.batch_size videos, by its light
    frames."""
    calls = []
    real = evaluation.select

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluation, "select", counted)
    cfg = tiny_config(mode, **{"eval.budgets": [2, 4], "training.batch_size": 4})
    report = evaluate_bundle(build_bundle(cfg), cfg, tiny_data.test)
    assert len(report.entries) == 3
    assert [len(c) for c in calls] == [4, 2]
    selected = np.concatenate(calls)
    np.testing.assert_array_equal(selected, [v.frames[:, cfg.dataset.frames_per_slot // 2]
                                             for v in tiny_data.test])


def test_scsampler_rankings_equal_each_videos_own_scores(tiny_data):
    """The scorer's minibatch passes rank every video as scoring it alone
    would: row i of the stack is slot i % T of video i // T."""
    cfg = tiny_config("scsampler")
    bundle = build_bundle(cfg)
    rng = np.random.default_rng(5)
    for p in (bundle.scorer.head_w, bundle.scorer.head_b):
        p.data[...] = rng.standard_normal(p.shape)
    ranked = evaluation.rankings(bundle, cfg, tiny_data.test)
    assert len(ranked) == len(tiny_data.test)
    for i, scores in enumerate(ranked):
        alone = scsampler_scores(light_frames(tiny_data.test[i:i + 1], cfg)[0], bundle.scorer)
        assert scores.shape == alone.shape == (cfg.dataset.timesteps,)
        np.testing.assert_allclose(scores, alone, rtol=1e-12, atol=0.0)
        assert np.ptp(alone) > 0.0


def _ranking_bundle(mode):
    """A config whose minibatch intermediates dwarf the per-call overhead, a
    bundle with a scorer head that tells slots apart, and 8 minibatches of
    videos."""
    cfg = tiny_config(mode, **{"dataset.d_raw": 32, "dataset.timesteps": 16,
                               "model.light_channels": 32, "training.batch_size": 8})
    bundle = build_bundle(cfg)
    if bundle.scorer is not None:   # a zero head scores every slot alike
        bundle.scorer.head_w.data[...] = np.random.default_rng(3).standard_normal(
            bundle.scorer.head_w.shape)
    videos = generate_dataset(cfg.dataset.spec(), 8 * cfg.training.batch_size, 1,
                              cfg.seed).train
    return cfg, bundle, videos


@pytest.mark.parametrize("mode", ["e2e", "scsampler"])
def test_ranking_a_split_needs_one_minibatchs_working_memory(mode):
    """Ranking 8 minibatches peaks at under 1.5 times what ranking one does:
    the intermediates of one minibatch are freed before the next is ranked."""
    cfg, bundle, videos = _ranking_bundle(mode)
    one = videos[:cfg.training.batch_size]
    evaluation.rankings(bundle, cfg, one)   # warm numpy's lazy set-up
    assert (traced_peak(evaluation.rankings, bundle, cfg, videos)
            < 1.5 * traced_peak(evaluation.rankings, bundle, cfg, one))


@pytest.mark.parametrize("mode", ["e2e", "scsampler"])
def test_rankings_split_at_a_minibatch_boundary_concatenate_bitwise(mode):
    cfg, bundle, videos = _ranking_bundle(mode)
    cut = 3 * cfg.training.batch_size
    whole = evaluation.rankings(bundle, cfg, videos)
    assert whole.shape == (len(videos), cfg.dataset.timesteps) and np.ptp(whole) > 0.0
    np.testing.assert_array_equal(
        whole, np.concatenate([evaluation.rankings(bundle, cfg, videos[:cut]),
                               evaluation.rankings(bundle, cfg, videos[cut:])]))


@pytest.mark.parametrize("mode", ["e2e", "frame_conditioned", "scsampler"])
def test_the_light_networks_read_only_the_light_frame_of_each_slot(mode):
    """The selector, in context and in frame mode, and the scorer see a slot
    through ``slot[frames_per_slot // 2]`` alone: rewriting every other frame
    leaves the rankings bitwise unchanged, and changing that one frame
    changes them."""
    cfg = tiny_config(mode, **{"dataset.frames_per_slot": 5})
    videos = generate_dataset(cfg.dataset.spec(), 2, 3, cfg.seed).test
    bundle = build_bundle(cfg)
    if bundle.scorer is not None:   # a zero head scores every slot alike
        bundle.scorer.head_w.data[...] = np.random.default_rng(3).standard_normal(
            bundle.scorer.head_w.shape)
    base = evaluation.rankings(bundle, cfg, videos)
    others = [0, 1, 3, 4]   # the light frame is frame 2 of 5
    assert light_frames(videos, cfg).tolist() == videos.frames[:, :, 2].tolist()
    wrecked = dataclasses.replace(videos, frames=videos.frames.copy())
    wrecked.frames[:, :, others] = -3.0 * wrecked.frames[:, :, others] + 7.0
    np.testing.assert_array_equal(evaluation.rankings(bundle, cfg, wrecked), base)

    bumped = dataclasses.replace(videos, frames=videos.frames.copy())
    bumped.frames[0, 0, 2] += 1.0
    moved = evaluation.rankings(bundle, cfg, bumped)
    assert moved[0, 0] != base[0, 0]
    np.testing.assert_array_equal(moved[1:], base[1:])


def test_a_selector_arm_ranks_saturated_logits_as_tied_activations():
    """``split_picks`` ranks a selector arm by sigmoid(logit): logits whose
    sigmoids round to 1 tie, and the tie goes to the lower index."""
    picks = evaluation.split_picks(tiny_config("e2e"), np.array([[38.0, 39.0, 40.0]]),
                                   [1], [evaluation._EVAL_STREAM])
    assert picks == [[[0]]]


def _per_video_picks(cfg, ranked, budgets, stream):
    """``split_picks``' rule for the selector-free arms, one video at a time."""
    t = cfg.dataset.timesteps
    out = []
    for budget in budgets:
        k = training_sample_budget(cfg) if budget is None else budget
        rows = []
        for i in range(len(ranked)):
            if cfg.mode == "scsampler":
                rows.append(sorted(np.argsort(-ranked[i], kind="stable")[:k].tolist()))
            elif cfg.mode == "uniform":
                rows.append([(2 * j + 1) * t // (2 * k) for j in range(k)])
            else:
                s = np.random.default_rng([cfg.seed, *stream, i]).integers(1 << 62)
                rows.append(sorted(np.random.default_rng(int(s))
                                   .choice(t, size=k, replace=False).tolist()))
        out.append(rows)
    return out


@pytest.mark.parametrize("mode", ["scsampler", "uniform", "random"])
def test_split_picks_samples_each_budget_once_for_the_whole_split(monkeypatch, mode):
    """A selector-free arm's picks take one ``sample_indices`` call per
    budget, over every row, and equal the rule applied video by video."""
    cfg = tiny_config(mode, seed=3)
    ranked = (np.random.default_rng(0).random((4, cfg.dataset.timesteps)).round(1)
              if mode == "scsampler" else [None] * 4)
    calls = []
    sample = evaluation.sample_indices
    monkeypatch.setattr(evaluation, "sample_indices",
                        lambda *a: calls.append(a[:3]) or sample(*a))
    budgets = [None, 2, 5]
    picks = evaluation.split_picks(cfg, ranked, budgets, [0xBA5E, 1])
    mode_name = "topk" if mode == "scsampler" else mode
    assert calls == [(mode_name, 6, 2), (mode_name, 6, 2), (mode_name, 6, 5)]
    assert picks == _per_video_picks(cfg, ranked, budgets, [0xBA5E, 1])
    if mode == "random":
        # the seed stream, pinned: every budget reads the same per-video seeds
        assert picks == [[[0, 3], [0, 5], [1, 4], [0, 4]], [[0, 3], [0, 5], [1, 4], [0, 4]],
                         [[0, 1, 2, 3, 4], [0, 1, 2, 3, 5], [0, 1, 2, 4, 5],
                          [0, 1, 2, 3, 5]]]


def test_random_mode_reuses_the_per_video_eval_stream(tiny_data):
    cfg = tiny_config("random")
    bundle = build_bundle(cfg)
    a = evaluate_bundle(bundle, cfg, tiny_data.test)
    b = evaluate_bundle(bundle, cfg, tiny_data.test)
    assert a.entries[0].value == b.entries[0].value
    cfg2 = tiny_config("random", seed=1)
    c = evaluate_bundle(build_bundle(cfg2), cfg2, tiny_data.test)
    assert c.entries[0].mean_selected == a.entries[0].mean_selected


def test_multi_label_reports_map():
    cfg = tiny_config("e2e", **{"dataset.task": "multi_label"})
    data = generate_dataset(cfg.dataset.spec(), 6, 12, cfg.seed)
    bundle = build_bundle(cfg)
    report = evaluate_bundle(bundle, cfg, data.test)
    assert report.entries[0].metric_name == "mAP"
    assert report.task == "multi_label"
    assert 0.0 <= report.entries[0].value <= 1.0


@pytest.mark.parametrize("mode", ["e2e", "uniform"])
def test_every_arm_reports_the_gate_count_entry_then_its_budgets(mode, tiny_data):
    """A selector arm and a selector-free arm both evaluate ``[None,
    *eval.budgets]``, in that order."""
    cfg = tiny_config(mode, **{"eval.budgets": [4, 2]})
    report = evaluate_bundle(build_bundle(cfg), cfg, tiny_data.test)
    assert [e.budget for e in report.entries] == [None, 4, 2]
    assert list(report.per_video_counts) == ["gate-count", "topk-4", "topk-2"]


def test_empty_video_list_is_rejected(e2e_setup):
    cfg, bundle, data = e2e_setup
    with pytest.raises(ContractError):
        evaluate_bundle(bundle, cfg, data.test[:0])


def test_evaluate_checkpoint_matches_bundle_evaluation(e2e_setup):
    cfg, bundle, data = e2e_setup
    ckpt = Checkpoint.from_bundle(cfg, bundle, step=0)
    via_ckpt = evaluate_checkpoint(ckpt, data)
    direct = evaluate_bundle(bundle, cfg, data.test)
    assert via_ckpt.entries[0].value == direct.entries[0].value
    train_side = evaluate_bundle(bundle, cfg, data.train)
    assert train_side.n_videos == len(data.train)


# ---------------------------------------------------------------------------
# the stacked evaluation equals a per-video loop


def _reference_picks(bundle, cfg, videos, vi, budget):
    """Video ``vi``'s picks under one budget, each arm's rule written out."""
    t = cfg.dataset.timesteps
    one = videos[vi:vi + 1]
    if cfg.mode in evaluation.SELECTOR_MODES:
        logits = select(light_frames(one, cfg), bundle.selector, "test").logits.data.ravel()
        if budget is None:
            return [int(i) for i in np.flatnonzero(logits > 0.0)] or [int(np.argmax(logits))]
        order = np.argsort(-sigmoid_np(logits), kind="stable")
        return sorted(int(i) for i in order[:budget])
    k = budget if budget is not None else training_sample_budget(cfg)
    if cfg.mode == "scsampler":
        scores = scsampler_scores(light_frames(one, cfg)[0], bundle.scorer)
        return sorted(int(i) for i in np.argsort(-scores, kind="stable")[:k])
    if cfg.mode == "uniform":
        return [(2 * i + 1) * t // (2 * k) for i in range(k)]
    seed = np.random.default_rng([cfg.seed, evaluation._EVAL_STREAM, vi]).integers(1 << 62)
    return sorted(int(i) for i in np.random.default_rng(int(seed)).choice(t, k, replace=False))


def _reference_entries(bundle, cfg, videos):
    """Per entry key: per-video counts and the metric, one select, one heavy
    pass and one head pass per video and entry."""
    out = {}
    for budget in [None, *cfg.eval.budgets]:
        picks = [_reference_picks(bundle, cfg, videos, vi, budget) for vi in range(len(videos))]
        scores = np.stack([
            classify(heavynet_features(v.frames, idx, bundle.classifier), None,
                     bundle.classifier.head, [len(idx)]).data[0]
            for v, idx in zip(videos, picks)])
        if cfg.dataset.task == "single_label":
            value = np.mean([np.argmax(s) == np.flatnonzero(v.labels)[0]
                             for s, v in zip(scores, videos)])
        else:
            value, _ = mean_ap(scores, videos.labels)
        out[evaluation.entry_key(budget)] = ([len(idx) for idx in picks], value)
    return out


@pytest.mark.parametrize("task", ["single_label", "multi_label"])
@pytest.mark.parametrize("mode", MODES)
def test_evaluate_bundle_equals_a_per_video_loop(mode, task):
    """Seven test videos in minibatches of 3: a short last minibatch."""
    cfg = tiny_config(mode, **{"dataset.task": task, "training.batch_size": 3,
                               "eval.budgets": [1, 3]})
    data = generate_dataset(cfg.dataset.spec(), 4, 7, cfg.seed)
    bundle = build_bundle(cfg)
    rng = np.random.default_rng(19)
    for p in bundle.named_parameters().values():
        p.data += 0.5 * rng.standard_normal(p.shape)
    if bundle.selector is not None:
        bundle.selector.gate.b2.data[...] = 0.0   # some gates open, some close

    report = evaluate_bundle(bundle, cfg, data.test)
    want = _reference_entries(bundle, cfg, data.test)
    assert list(report.per_video_counts) == list(want)
    for entry, (key, (counts, value)) in zip(report.entries, want.items()):
        assert report.per_video_counts[key] == counts
        assert entry.heavy_rows == sum(counts)
        assert entry.value == pytest.approx(value, rel=1e-12, abs=1e-12)
    if mode in evaluation.SELECTOR_MODES:
        assert 1 < len(set(report.per_video_counts["gate-count"]))


@pytest.mark.parametrize("mode", ["e2e", "scsampler", "random"])
def test_each_entry_encodes_each_video_once_in_order(mode, tiny_data, monkeypatch):
    """What the benchmark's traced check counts: one heavy-encoder call per
    video per entry, entry after entry, each video in split order."""
    calls = []
    real = evaluation.heavynet_features

    def counted(frames, indices, params):
        calls.append((frames, len(indices)))
        return real(frames, indices, params)

    monkeypatch.setattr(evaluation, "heavynet_features", counted)
    cfg = tiny_config(mode, **{"eval.budgets": [2, 4], "training.batch_size": 4})
    report = evaluate_bundle(build_bundle(cfg), cfg, tiny_data.test)
    n = len(tiny_data.test)
    assert len(calls) == n * len(report.entries)
    for e, counts in enumerate(report.per_video_counts.values()):
        chunk = calls[e * n:(e + 1) * n]
        assert all(np.shares_memory(f, v.frames) and np.array_equal(f, v.frames)
                   for (f, _), v in zip(chunk, tiny_data.test))
        assert [rows for _, rows in chunk] == counts


# ---------------------------------------------------------------------------
# the selection section


@pytest.fixture(scope="module")
def fresh_selection(tiny_data):
    cfg = tiny_config("e2e")
    return evaluate_bundle(build_bundle(cfg), cfg, tiny_data.test).selection


def test_selection_shapes_and_ranges(fresh_selection, tiny_cfg):
    d = tiny_cfg.dataset
    ratios = fresh_selection["class_ratios"]
    profiles = np.asarray(fresh_selection["temporal_profiles"])
    assert len(ratios) == d.n_classes
    assert all(0.0 <= r <= 1.0 for r in ratios)
    assert profiles.shape == (d.n_classes, d.timesteps)
    assert profiles.min() >= 0.0 and profiles.max() <= 1.0
    assert fresh_selection["ratio_variance"] >= 0.0


def test_selection_mean_and_variance_match_the_class_ratios(fresh_selection):
    ratios = np.asarray(fresh_selection["class_ratios"])
    assert fresh_selection["mean_ratio"] == pytest.approx(float(ratios.mean()))
    assert fresh_selection["ratio_variance"] == pytest.approx(float(ratios.var()))


def test_a_fresh_selector_with_open_bias_opens_every_gate(fresh_selection):
    # open_bias 2.0 and zero-init gate head: every gate starts open
    assert fresh_selection["mean_ratio"] == 1.0
    assert fresh_selection["ratio_variance"] == 0.0


def test_selection_profiles_are_min_max_normalised_or_flat(fresh_selection):
    for row in np.asarray(fresh_selection["temporal_profiles"]):
        if row.any():
            assert row.min() == 0.0 and row.max() == 1.0
        # a flat profile normalises to all zeros, which the branch above skips


def test_a_fresh_selectors_report_carries_its_selection_through_json(tiny_data):
    cfg = tiny_config("e2e")
    report = evaluate_bundle(build_bundle(cfg), cfg, tiny_data.test)
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["mode"] == "e2e"
    selection = payload["selection"]
    assert selection == report.selection
    assert selection["mean_ratio"] == pytest.approx(1.0)
    assert len(selection["class_ratios"]) == cfg.dataset.n_classes
    assert len(selection["temporal_profiles"]) == cfg.dataset.n_classes
    assert all(len(row) == cfg.dataset.timesteps
               for row in selection["temporal_profiles"])


@pytest.mark.parametrize("mode", ["scsampler", "uniform", "random"])
def test_gateless_arms_have_no_selection(mode, tiny_data):
    cfg = tiny_config(mode)
    report = evaluate_bundle(build_bundle(cfg), cfg, tiny_data.test)
    assert report.selection is None
    assert report.to_dict()["selection"] is None


def test_selection_summary_hand_computed():
    """Video 0 is in classes 0 and 1 with two of four gates open (a zero
    logit stays closed); video 1, in class 0, has every gate closed and
    reads 0, with no fallback; video 2, in class 3, has a flat profile;
    class 2 has no video."""
    ranked = np.asarray([[2.0, -1.0, 0.0, 1.0],
                         [-1.0, -2.0, -3.0, -4.0],
                         [-3.0, -3.0, -3.0, -3.0]])
    labels = np.asarray([[1.0, 1.0, 0.0, 0.0],
                         [1.0, 0.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0, 1.0]])
    got = selection_summary(ranked, labels)
    assert got["class_ratios"] == [0.25, 0.5, 0.0, 0.0]
    # classes 0, 1 and 3 are present; class 2 is left out
    assert got["mean_ratio"] == 0.25
    assert got["ratio_variance"] == pytest.approx((0.0 ** 2 + 0.25 ** 2 + 0.25 ** 2) / 3)

    def min_max(row):
        return (row - row.min()) / (row.max() - row.min())

    profiles = np.asarray(got["temporal_profiles"])
    np.testing.assert_allclose(profiles[0], min_max(sigmoid_np(ranked[:2]).mean(axis=0)))
    assert profiles[1].tolist() == [1.0, 0.0, pytest.approx(0.3776, abs=1e-4),
                                    pytest.approx(0.7553, abs=1e-4)]
    assert profiles[2].tolist() == profiles[3].tolist() == [0.0] * 4


def _reference_selection(ranked, videos, n_classes):
    """The selection section one video at a time: each video adds its open
    share and its gate activations to each of its classes."""
    t = ranked.shape[1]
    ratio_sums, gate_sums = np.zeros(n_classes), np.zeros((n_classes, t))
    counts = np.zeros(n_classes)
    for video, row, gates in zip(videos, ranked, sigmoid_np(ranked)):
        ratio = np.count_nonzero(row > 0.0) / t
        for c in np.flatnonzero(video.labels):
            ratio_sums[c] += ratio
            gate_sums[c] += gates
            counts[c] += 1
    seen = counts > 0
    ratios = np.zeros(n_classes)
    ratios[seen] = ratio_sums[seen] / counts[seen]
    profiles = np.zeros((n_classes, t))
    profiles[seen] = gate_sums[seen] / counts[seen, None]
    for c in range(n_classes):
        lo, hi = profiles[c].min(), profiles[c].max()
        profiles[c] = (profiles[c] - lo) / (hi - lo) if hi > lo else 0.0
    return {"class_ratios": [float(r) for r in ratios],
            "mean_ratio": float(np.mean(ratios[seen])),
            "ratio_variance": float(np.var(ratios[seen])),
            "temporal_profiles": profiles.tolist()}


def test_selection_equals_a_per_video_loop_exactly_on_a_trained_multi_label_arm():
    cfg = tiny_config("e2e", **{"dataset.task": "multi_label", "training.epochs": 3,
                                "training.lr": 1e-2})
    data = resolve_dataset(cfg)
    bundle = run_training(cfg, data).bundle
    assert max(np.count_nonzero(v.labels) for v in data.test) >= 2
    report = evaluate_bundle(bundle, cfg, data.test)
    # the trained gates open on some timesteps and not on others
    assert 0.0 < report.selection["mean_ratio"] < 1.0
    ranked = evaluation.rankings(bundle, cfg, data.test)
    assert report.selection == _reference_selection(ranked, data.test, cfg.dataset.n_classes)
