import dataclasses
import gc

import numpy as np
import numpy.testing as nptest
import pytest

from conftest import tiny_config, weighted_sum
import stepgate.autodiff as ad
from stepgate.autodiff import ComputationRecord, Tensor
from stepgate.classifier import classify, heavynet_features, task_loss
from stepgate.baselines import scorer_logits
from stepgate.errors import ConfigError, ContractError, DimensionError
from stepgate.harness.checkpoint import save_checkpoint
from stepgate.harness import evaluation, training
from stepgate.harness.config import MODES, ExperimentConfig
from stepgate.harness.models import build_bundle, training_sample_budget
from stepgate.harness.training import resolve_dataset, run_training
from stepgate.selector import SelectionResult, heavy_indices, select
from stepgate.synthdata import save_split


# ---------------------------------------------------------------------------
# dataset plumbing


def test_resolve_dataset_generates_without_a_path(tiny_cfg, tiny_data):
    resolved = resolve_dataset(tiny_cfg)
    assert len(resolved.train) == tiny_cfg.dataset.n_train
    nptest.assert_array_equal(resolved.prototypes, tiny_data.prototypes)


def test_resolve_dataset_loads_saved_splits(tmp_path, tiny_cfg, tiny_data):
    save_split(tmp_path / "train.sgds", tiny_data, "train")
    save_split(tmp_path / "test.sgds", tiny_data, "test")
    cfg = tiny_config("e2e", **{"dataset.path": str(tmp_path)})
    loaded = resolve_dataset(cfg)
    assert len(loaded.train) == len(tiny_data.train)
    assert len(loaded.test) == len(tiny_data.test)
    nptest.assert_array_equal(loaded.prototypes, tiny_data.prototypes)


def test_resolve_dataset_rejects_mismatched_splits(tmp_path, tiny_cfg, tiny_data):
    from stepgate.harness.training import generate_dataset
    other = generate_dataset(tiny_cfg.dataset.spec(), tiny_cfg.dataset.n_train,
                             tiny_cfg.dataset.n_test, seed=99)
    save_split(tmp_path / "train.sgds", tiny_data, "train")
    save_split(tmp_path / "test.sgds", other, "test")
    cfg = tiny_config("e2e", **{"dataset.path": str(tmp_path)})
    with pytest.raises(ConfigError, match="different runs"):
        resolve_dataset(cfg)


def test_fallback_index_takes_the_highest_logit():
    logits = np.asarray([[-3.0], [-0.5], [-1.0]])
    closed = SelectionResult(features=Tensor(np.zeros((3, 2))), logits=Tensor(logits),
                             activated=Tensor(np.zeros(3)), open=np.zeros(3, dtype=bool))
    assert heavy_indices(closed.open[None], logits.T) == [[1]]


@pytest.mark.parametrize("task, logits, labels, hits", [
    # argmax 0 misses class 1; argmax 1 and argmax 2 hit
    ("single_label", [[2.0, 1.0, 0.0], [0.0, 3.0, 1.0], [1.0, 0.0, 5.0]],
     [[0, 1, 0], [0, 1, 0], [0, 0, 1]], 2.0),
    # 2 of 3 signs, 3 of 3, 2 of 3: a zero logit predicts absent
    ("multi_label", [[1.0, -1.0, 2.0], [-1.0, -2.0, 3.0], [0.5, 0.5, 0.0]],
     [[1, 0, 0], [0, 0, 1], [1, 1, 1]], 7 / 3),
])
def test_a_batch_scores_its_hits_and_its_task_loss(task, logits, labels, hits):
    rows = np.asarray(labels, dtype=np.float64)
    loss, got = training._scored(Tensor(np.asarray(logits)), rows, task)
    assert type(got) is float and got == pytest.approx(hits, abs=1e-12)
    want = task_loss(Tensor(np.asarray(logits)), np.asarray(labels, dtype=np.float64), task)
    assert float(loss.data) == float(want.data)


# ---------------------------------------------------------------------------
# every mode trains end to end on the tiny problem


@pytest.fixture(scope="module")
def results(tiny_data):
    out = {}
    for mode in MODES:
        out[mode] = run_training(tiny_config(mode), tiny_data)
    return out


def test_each_mode_produces_a_usable_result(results, tiny_cfg):
    epochs = tiny_cfg.training.epochs
    for mode, res in results.items():
        assert res.checkpoint.config == tiny_config(mode).to_dict()
        assert len(res.epoch_logs or res.classifier_logs) == epochs
        for log in res.epoch_logs + res.classifier_logs:
            assert np.isfinite(log.loss)
            assert 0.0 <= log.accuracy <= 1.0
            assert 0.0 <= log.selected_ratio <= 1.0
        assert set(res.checkpoint.params) == set(res.bundle.named_parameters())


def test_two_phase_modes_log_both_phases(results, tiny_cfg):
    epochs = tiny_cfg.training.epochs
    for mode in ("standalone", "scsampler", "uniform", "random"):
        res = results[mode]
        assert len(res.classifier_logs) == epochs
    for mode in ("standalone", "scsampler"):
        assert len(results[mode].epoch_logs) == epochs
    for mode in ("uniform", "random"):
        assert results[mode].epoch_logs == []


def _record_calls(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, recorded)


@pytest.mark.parametrize("mode", ["standalone", "scsampler"])
def test_phase_b_encodes_the_rows_gate_count_evaluation_picks(mode, tiny_data,
                                                               monkeypatch):
    """Every phase-B epoch encodes, per training video, exactly the rows
    that evaluating the trained bundle on the train split picks."""
    cfg = tiny_config(mode)
    slot_of = {v.frames[i].tobytes(): (vi, i)
               for vi, v in enumerate(tiny_data.train)
               for i in range(cfg.dataset.timesteps)}
    assert len(slot_of) == len(tiny_data.train) * cfg.dataset.timesteps

    def picks_by_video(calls):
        """(video, slots) per encoded video: each encoded row's segment names
        its (video, slot), and a call's rows hold one video's picks after
        another."""
        out = []
        for frames, indices, _params in calls:
            videos: list[tuple[int, list[int]]] = []
            for row in indices:
                vi, i = slot_of[frames[row].tobytes()]
                if videos and videos[-1][0] == vi:
                    videos[-1][1].append(i)
                else:
                    videos.append((vi, [i]))
            out += videos
        return out

    trained, evaluated = [], []
    _record_calls(monkeypatch, training, "heavynet_features", trained)
    _record_calls(monkeypatch, evaluation, "heavynet_features", evaluated)
    result = run_training(cfg, tiny_data)
    report = evaluation.evaluate_bundle(result.bundle, cfg, tiny_data.train)
    n = len(tiny_data.train)
    assert list(report.per_video_counts) == ["gate-count"]
    picks = dict(picks_by_video(evaluated))
    assert len(evaluated) == len(picks) == n
    per_epoch = -(-n // cfg.training.batch_size)
    assert len(trained) == cfg.training.epochs * per_epoch
    for epoch in range(cfg.training.epochs):
        encoded = picks_by_video(trained[epoch * per_epoch:(epoch + 1) * per_epoch])
        assert len(encoded) == n and dict(encoded) == picks, epoch


def test_e2e_encodes_each_minibatch_in_one_heavy_call(tiny_data, monkeypatch):
    """The selector runs once per video and epoch, the heavy encoder, the
    head and the task loss once per minibatch."""
    heavy, selects, heads, losses = [], [], [], []
    _record_calls(monkeypatch, training, "heavynet_features", heavy)
    _record_calls(monkeypatch, training, "select", selects)
    _record_calls(monkeypatch, training, "classify", heads)
    _record_calls(monkeypatch, training, "task_loss", losses)
    cfg = tiny_config("e2e")
    result = run_training(cfg, tiny_data)
    n, epochs = len(tiny_data.train), cfg.training.epochs
    batches = epochs * -(-n // cfg.training.batch_size)
    assert len(heavy) == len(heads) == len(losses) == batches
    assert len(selects) == n * epochs
    assert sum(len(args[1]) for args in heavy) == result.bundle.classifier.heavy_rows
    for args in heads:
        assert len(args[3]) == cfg.training.batch_size


def _overcounting(module, monkeypatch):
    """Make ``module``'s heavy encoder count one row more than it encodes."""
    real = module.heavynet_features

    def overcounted(frames, indices, params):
        params.heavy_rows += 1
        return real(frames, indices, params)
    monkeypatch.setattr(module, "heavynet_features", overcounted)


@pytest.mark.parametrize("mode", ["e2e", "uniform"])
def test_training_checks_the_heavy_rows_of_each_batch(mode, tiny_data, monkeypatch):
    _overcounting(training, monkeypatch)
    with pytest.raises(ContractError, match="heavy encoder counted"):
        run_training(tiny_config(mode), tiny_data)


def test_a_pick_past_the_last_slot_of_a_video_is_a_contract_error(tiny_data):
    """The segment gather refuses a pick past a video's last slot and a
    negative pick, which numpy would wrap to a slot from the end."""
    cfg = tiny_config("uniform")
    params = build_bundle(cfg).classifier
    frames = tiny_data.train.frames
    t = cfg.dataset.timesteps
    with pytest.raises(ContractError, match=fr"picks \[{t}\] fall outside the {t} slots"):
        training._heavy_logits(frames, [0, 1], [[t], [0]], None, params)
    with pytest.raises(ContractError, match=fr"picks \[-1, 2\] fall outside the {t} slots"):
        training._heavy_logits(frames, [0, 1], [[0], [-1, 2]], None, params)
    assert params.heavy_rows == 0
    logits = training._heavy_logits(frames, [0, 1], [[t - 1], [0]], None, params)
    assert logits.shape == (2, cfg.dataset.n_classes) and params.heavy_rows == 2


def test_the_heavy_stage_gathers_the_picked_slots_of_the_batch_in_one_index(
        tiny_data, monkeypatch):
    """On an unsorted batch with picks of different lengths, the encoder
    reads the split's own frames, not a copy, and its rows are each video's
    picked slots in batch order, bit for bit; one encoder call covers the
    batch."""
    calls = []
    real = training.heavynet_features

    def captured(frames, indices, params):
        calls.append((frames, frames[np.asarray(indices)]))
        return real(frames, indices, params)

    monkeypatch.setattr(training, "heavynet_features", captured)
    cfg = tiny_config("uniform")
    params = build_bundle(cfg).classifier
    frames = tiny_data.train.frames
    batch, picks = [5, 0, 3], [[4, 1], [0, 2, 3, 5], [3]]
    logits = training._heavy_logits(frames, batch, picks, None, params)
    assert logits.shape == (3, cfg.dataset.n_classes)
    (seen, rows), = calls
    assert np.shares_memory(seen, frames)
    want = np.concatenate([frames[b][p] for b, p in zip(batch, picks)])
    assert rows.dtype == want.dtype and rows.tobytes() == want.tobytes()


def test_evaluation_checks_the_heavy_rows_of_each_entry(results, tiny_data,
                                                        monkeypatch):
    res = results["e2e"]
    _overcounting(evaluation, monkeypatch)
    with pytest.raises(ContractError, match="gate-count: the heavy encoder counted"):
        evaluation.evaluate_bundle(res.bundle, tiny_config("e2e"), tiny_data.test)


# ---------------------------------------------------------------------------
# the stacked batch loss equals the mean of the per-video losses


def _per_video_loss(video, result, bundle, cfg):
    """One video's task loss from the public per-video calls; an all-closed
    video's fallback row is gated by its open probability."""
    idx, = heavy_indices(result.open[None], result.logits.data.T)
    if result.open.any():
        gates = ad.take_rows(result.activated, idx)
    else:
        gates = ad.reshape(ad.sigmoid(ad.take_rows(result.logits, idx)), (1,))
    feats = heavynet_features(video.frames, idx, bundle.classifier)
    logits = classify(feats, gates, bundle.classifier.head, [len(idx)])
    return task_loss(logits, video.labels[None, :], cfg.dataset.task)


def _loss_and_grads(bundle, build):
    params = bundle.named_parameters()
    for p in params.values():
        p.zero_grad()
    with ad.record() as rec:
        loss = build()
    ad.backward(loss)
    return float(loss.data), {n: p.grad.copy() for n, p in params.items()}


@pytest.mark.parametrize("task, sample_budget, open_bias", [
    ("single_label", None, 2.0),
    ("multi_label", None, 2.0),
    ("single_label", 5, 2.0),
    ("multi_label", 1, -2.0),
])
def test_batch_loss_is_the_per_video_mean_plus_one_rate_term(task, sample_budget,
                                                            open_bias):
    """The batch loss equals the mean of the per-video task losses plus one
    rate term over all the batch's gates, loss and every gradient, on
    float64 weights, where the two orders of summation agree to 1e-10."""
    cfg = tiny_config("e2e", **{"dataset.task": task,
                                "training.sample_budget": sample_budget,
                                "model.open_bias": open_bias})
    data = training.generate_dataset(cfg.dataset.spec(), 6, 2, cfg.seed)
    bundle = build_bundle(cfg, dtype=np.float64)
    batch = [4, 1, 3, 0]

    def selections():
        rng = np.random.default_rng(7)
        return [select(evaluation.light_frames(data.train[vi:vi + 1], cfg), bundle.selector,
                       "train", rng=rng) for vi in batch]

    closed = [not r.open.any() for r in selections()]
    if open_bias < 0.0:  # the batch mixes fallback and open videos
        assert any(closed) and not all(closed)
    else:
        assert not any(closed)

    stacked_loss = training._phase_a_loss(cfg, bundle, data,
                                          np.random.default_rng(7))
    got, got_grads = _loss_and_grads(bundle, lambda: stacked_loss(0, batch)[0])

    def reference():
        results = selections()
        terms = [ad.reshape(_per_video_loss(data.train[vi], r, bundle, cfg), (1,))
                 for vi, r in zip(batch, results)]
        mean = weighted_sum(ad.concat_rows(terms), [1.0 / len(terms)] * len(terms))
        rate = ad.rate_penalty(ad.sigmoid(ad.concat_rows([r.logits for r in results])),
                               training_sample_budget(cfg) / cfg.dataset.timesteps)
        return ad.add(ad.reshape(mean, ()), rate)
    want, want_grads = _loss_and_grads(bundle, reference)

    assert abs(got - want) <= 1e-10 * abs(want)
    for name, g in want_grads.items():
        assert np.abs(got_grads[name] - g).max() <= 1e-10 * np.abs(g).max(), name
        assert np.abs(g).max() > 0.0, name


@pytest.mark.parametrize("task", ["single_label", "multi_label"])
def test_stacked_scorer_loss_equals_the_mean_of_per_video_losses(task):
    """The scorer's one cross-entropy over the batch's B * T rows equals the
    mean over videos of each video's mean over its positives of the
    per-timestep cross-entropy, loss and every scorer gradient, on float64
    weights."""
    cfg = tiny_config("scsampler", **{"dataset.task": task})
    data = training.generate_dataset(cfg.dataset.spec(), 8, 2, cfg.seed)
    bundle = build_bundle(cfg, dtype=np.float64)
    # a zero head would give every video the same loss
    rng = np.random.default_rng(11)
    for p in (bundle.scorer.head_w, bundle.scorer.head_b):
        p.data[...] = rng.standard_normal(p.shape)
    batch = [5, 2, 7, 0, 3]
    t = cfg.dataset.timesteps
    if task == "multi_label":
        assert max(np.count_nonzero(data.train[vi].labels) for vi in batch) >= 2

    stacked_loss = training._phase_a_loss(cfg, bundle, data, None)
    got, got_grads = _loss_and_grads(bundle, lambda: stacked_loss(0, batch)[0])

    def reference():
        terms = []
        for vi in batch:
            video = data.train[vi]
            logits = scorer_logits(evaluation.light_frames(data.train[vi:vi + 1], cfg)[0],
                                   bundle.scorer)
            n_classes = logits.shape[1]
            per_class = [ad.softmax_xent(logits, np.eye(n_classes)[[c] * t])
                         for c in np.flatnonzero(video.labels)]
            terms.append(ad.reshape(weighted_sum(
                ad.concat_rows([ad.reshape(x, (1,)) for x in per_class]),
                [1.0 / len(per_class)] * len(per_class)), (1,)))
        return ad.reshape(weighted_sum(ad.concat_rows(terms),
                                       [1.0 / len(terms)] * len(terms)), ())
    want, want_grads = _loss_and_grads(bundle, reference)

    assert abs(got - want) <= 1e-10 * abs(want)
    for name, g in want_grads.items():
        if name.startswith("scorer."):
            assert np.abs(got_grads[name] - g).max() <= 1e-10 * np.abs(g).max(), name
            assert np.abs(g).max() > 0.0, name
        else:
            assert not got_grads[name].any(), name


def test_the_scorer_runs_once_per_minibatch_in_training_and_in_ranking(
        tiny_data, monkeypatch):
    """Training and ranking both run the scorer once per minibatch: phase B
    ranks the train split and evaluation the test split in calls of at most
    ``batch_size`` videos, whose rows add up to the split's."""
    logits_calls, score_calls = [], []
    _record_calls(monkeypatch, training, "scorer_logits", logits_calls)
    _record_calls(monkeypatch, evaluation, "scsampler_scores", score_calls)
    cfg = tiny_config("scsampler", **{"training.batch_size": 5})
    b, t = cfg.training.batch_size, cfg.dataset.timesteps
    result = run_training(cfg, tiny_data)
    n = len(tiny_data.train)
    per_epoch = -(-n // b)
    assert len(logits_calls) == cfg.training.epochs * per_epoch
    assert sum(len(args[0]) for args in logits_calls) == cfg.training.epochs * n * t
    rows = [len(args[0]) for args in score_calls]
    assert len(rows) == per_epoch and max(rows) <= b * t and sum(rows) == n * t
    n_test = len(tiny_data.test)
    evaluation.evaluate_bundle(result.bundle, cfg, tiny_data.test)
    rows = [len(args[0]) for args in score_calls[per_epoch:]]
    assert len(rows) == -(-n_test // b) and max(rows) <= b * t and sum(rows) == n_test * t


@pytest.mark.parametrize("mode", ["standalone", "scsampler", "uniform", "random"])
def test_phase_b_draws_picks_once_unless_they_depend_on_the_epoch(mode, tiny_data,
                                                                  monkeypatch):
    """Only random sampling redraws its picks every phase-B epoch."""
    calls = []
    _record_calls(monkeypatch, training, "split_picks", calls)
    cfg = tiny_config(mode, **{"training.epochs": 3})
    run_training(cfg, tiny_data)
    assert len(calls) == (3 if mode == "random" else 1)


def test_the_scorer_stack_rejects_a_video_with_the_wrong_slot_count(tiny_data):
    cfg = tiny_config("scsampler")
    short = dataclasses.replace(tiny_data.train, frames=tiny_data.train.frames[:, :-1])
    with pytest.raises(DimensionError, match="the split's videos have 5 slots of 2 frames, "
                                             "the config 6 slots of 2$"):
        evaluation.light_frames(short, cfg)


def test_fallback_share_counts_the_videos_whose_gates_all_closed(tiny_data):
    """Started all-closed, e2e training falls back on some videos; phases
    without gates read 0."""
    shut = run_training(tiny_config("e2e", **{"model.open_bias": -4.0}), tiny_data)
    assert shut.epoch_logs[0].fallback_share > 0.0
    for log in shut.epoch_logs:
        assert 0.0 <= log.fallback_share <= 1.0
    wide = run_training(tiny_config("e2e", **{"model.open_bias": 8.0}), tiny_data)
    assert all(log.fallback_share == 0.0 for log in wide.epoch_logs)
    for mode in ("scsampler", "uniform"):
        res = run_training(tiny_config(mode), tiny_data)
        assert all(log.fallback_share == 0.0
                   for log in res.epoch_logs + res.classifier_logs), mode


def test_training_changes_the_parameters(results):
    for mode, res in results.items():
        fresh = {n: t.data
                 for n, t in build_bundle(tiny_config(mode)).named_parameters().items()}
        moved = any(not np.array_equal(fresh[n], res.checkpoint.params[n])
                    for n in fresh)
        assert moved, f"{mode} training left every parameter untouched"


def test_checkpoint_step_counts_the_adam_steps_of_every_phase(results, tiny_cfg):
    n_batches = -(-tiny_cfg.dataset.n_train // tiny_cfg.training.batch_size)
    phases = {"e2e": 1, "frame_conditioned": 1, "uniform": 1, "random": 1,
              "standalone": 2, "scsampler": 2}
    assert set(phases) == set(MODES)
    for mode, res in results.items():
        assert res.checkpoint.step == phases[mode] * tiny_cfg.training.epochs * n_batches, mode


def test_training_is_deterministic(tiny_data, results, tmp_path):
    """Every mode: a second same-seed run saves a byte-identical checkpoint."""
    for mode in MODES:
        a, b = results[mode], run_training(tiny_config(mode), tiny_data)
        for name in a.checkpoint.params:
            nptest.assert_array_equal(a.checkpoint.params[name],
                                      b.checkpoint.params[name])
        assert a.epoch_logs == b.epoch_logs, mode
        assert a.classifier_logs == b.classifier_logs, mode
        save_checkpoint(tmp_path / f"{mode}-a.sgck", a.checkpoint)
        save_checkpoint(tmp_path / f"{mode}-b.sgck", b.checkpoint)
        assert ((tmp_path / f"{mode}-a.sgck").read_bytes()
                == (tmp_path / f"{mode}-b.sgck").read_bytes()), mode


def test_same_seed_runs_on_stored_splits_save_identical_checkpoints(tmp_path, tiny_data):
    """Two same-seed runs that read the float32 frames back from split files
    save the same checkpoint bytes, and so does a run on the generated
    dataset: a loaded split is the generated one."""
    save_split(tmp_path / "train.sgds", tiny_data, "train")
    save_split(tmp_path / "test.sgds", tiny_data, "test")
    cfg = tiny_config("e2e", **{"dataset.path": str(tmp_path)})
    runs = [run_training(cfg), run_training(cfg), run_training(cfg, tiny_data)]
    saved = []
    for i, res in enumerate(runs):
        save_checkpoint(tmp_path / f"{i}.sgck", res.checkpoint)
        saved.append((tmp_path / f"{i}.sgck").read_bytes())
    assert saved[0] == saved[1] == saved[2]


def test_seed_changes_the_trajectory(tiny_data):
    a = run_training(tiny_config("e2e"), tiny_data)
    c = run_training(tiny_config("e2e", seed=1), tiny_data)
    assert any(not np.array_equal(a.checkpoint.params[n], c.checkpoint.params[n])
               for n in a.checkpoint.params)


def test_training_frees_every_tape_without_the_cycle_collector(tiny_data):
    def records():
        return sum(isinstance(o, ComputationRecord) for o in gc.get_objects())

    gc.collect()
    before = records()
    gc.disable()
    try:
        result = run_training(tiny_config("e2e"), tiny_data)
        assert result.checkpoint.step > 0
        assert records() == before
    finally:
        gc.enable()


def test_the_modes_record_every_op_the_tape_knows(monkeypatch):
    """Every op with a backward is one a model path records: one phase-A and
    one phase-B batch of each mode, in both tasks, record exactly the ops of
    ``ad._BACKWARD`` between them."""
    recorded, calls = set(), []
    backward = ad.backward

    def spy(loss):
        calls.append(loss)
        recorded.update(node.op for node in loss.node_id[0]().nodes)
        backward(loss)

    monkeypatch.setattr(ad, "backward", spy)
    for mode in MODES:
        for task in ("single_label", "multi_label"):
            # one minibatch of all 12 training videos per phase
            run_training(tiny_config(mode, **{"dataset.task": task, "training.epochs": 1,
                                              "training.batch_size": 12}))
    # the joint arms and the fixed samplers have one phase, the other two both
    assert len(calls) == 2 * (len(MODES) + 2)
    assert recorded == set(ad._BACKWARD)


@pytest.mark.parametrize("task", ["single_label", "multi_label"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_array_of_a_step_and_of_evaluation_has_the_weights_dtype(dtype, task,
                                                                      monkeypatch):
    """Every op output, every gradient a backward function returns, every
    ``.grad``, weight and Adam moment has the weights' dtype: float32 on the
    default bundle, float64 on the gradient suite's.  One phase-A step of
    each gated arm and of the scorer, the phase-B step of the two-phase
    arms, then ``evaluate_bundle``: a float64 constant in one op would
    upcast the path after it."""
    seen = []
    emit = ad._emit

    def emit_spy(op, out_data, inputs, ctx=None):
        out = emit(op, out_data, inputs, ctx)
        seen.append((op, out.data.dtype))
        return out

    def backward_spy(op, fn):
        def spy(node, g, data):
            grads = fn(node, g, data)
            seen.extend((f"d {op}", gi.dtype) for gi in grads if gi is not None)
            return grads
        return spy

    step = ad.Adam.step

    def step_spy(self):
        seen.extend(("grad", p.grad.dtype) for p in self.params)
        step(self)
        seen.extend(("moment", a.dtype) for a in self.m + self.v)
        seen.extend(("weight", p.data.dtype) for p in self.params)

    monkeypatch.setattr(ad, "_emit", emit_spy)
    for op, fn in list(ad._BACKWARD.items()):
        monkeypatch.setitem(ad._BACKWARD, op, backward_spy(op, fn))
    monkeypatch.setattr(ad.Adam, "step", step_spy)
    build = training.build_bundle
    if dtype is np.float64:
        monkeypatch.setattr(training, "build_bundle", lambda cfg: build(cfg, dtype=dtype))
    for mode in ("e2e", "frame_conditioned", "standalone", "scsampler"):
        # one minibatch of all 12 training videos per phase
        cfg = tiny_config(mode, **{"dataset.task": task, "training.epochs": 1,
                                   "training.batch_size": 12})
        cfg.eval.budgets = [2]
        data = resolve_dataset(cfg)
        evaluation.evaluate_bundle(run_training(cfg, data).bundle, cfg, data.test)
    loss = "softmax_xent" if task == "single_label" else "bce_logits"
    assert {"grad", "moment", "weight", "noisy_gate", "rate_penalty", loss,
            f"d {loss}", "d noisy_gate", "d rate_penalty", "attention"} <= {w for w, _ in seen}
    assert sorted({what for what, dt in seen if dt != dtype}) == []


def test_a_phase_a_tape_holds_ops_only_and_the_loss_index_counts_them(monkeypatch):
    """At the benchmark's e2e config (default sizes, 256 training videos,
    seed 1) the first 32-video phase-A step records every layer as an op and
    nothing else, so ``loss.node_id[1] + 1``, what the benchmark reads as a
    step's tape length, is the number of ops."""
    class Stop(Exception):
        pass

    tapes = []

    def spy(loss):
        tapes.append((loss.node_id[1] + 1, [node.op for node in loss.node_id[0]().nodes]))
        raise Stop

    monkeypatch.setattr(ad, "backward", spy)
    cfg = ExperimentConfig(mode="e2e", seed=1)
    cfg.dataset.n_train, cfg.dataset.n_test = 256, 128
    with pytest.raises(Stop):
        run_training(cfg)
    (count, ops), = tapes
    assert count == len(ops) and set(ops) <= set(ad._BACKWARD)


def test_frame_conditioned_has_no_attention_parameters(results):
    frame_names = set(results["frame_conditioned"].checkpoint.params)
    ctx_names = set(results["e2e"].checkpoint.params)
    assert not any(".attn_" in n for n in frame_names)
    assert ctx_names - frame_names == {"selector.attn_q", "selector.attn_k",
                                       "selector.attn_v"}


def test_multi_label_modes_train(tiny_cfg):
    from stepgate.harness.training import generate_dataset
    cfg = tiny_config("e2e", **{"dataset.task": "multi_label",
                                "dataset.n_train": 8, "dataset.n_test": 4,
                                "training.batch_size": 4,
                                "training.epochs": 1})
    data = generate_dataset(cfg.dataset.spec(), 8, 4, cfg.seed)
    res = run_training(cfg, data)
    assert np.isfinite(res.epoch_logs[-1].loss)
    cfg_sc = tiny_config("scsampler", **{"dataset.task": "multi_label",
                                         "dataset.n_train": 8,
                                         "dataset.n_test": 4,
                                         "training.batch_size": 4,
                                         "training.epochs": 1})
    res_sc = run_training(cfg_sc, data)
    assert np.isfinite(res_sc.epoch_logs[-1].loss)
    assert np.isfinite(res_sc.classifier_logs[-1].loss)
