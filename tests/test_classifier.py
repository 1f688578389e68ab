import math

import numpy as np
import numpy.testing as nptest
import pytest

import stepgate.autodiff as ad
import stepgate.classifier as cls
import stepgate.selector as sel
from stepgate.autodiff import Tensor
from stepgate.errors import ContractError, DimensionError, DomainError

SLOT = 16  # frames per slot


def make_params(channels=3, n_classes=4, segment_len=8, d_raw=5, seed=0):
    return cls.ClassifierParams.init(d_raw, segment_len, channels, n_classes,
                                     np.random.default_rng(seed))


def random_frames(rng, timesteps=4, d_raw=5):
    return rng.standard_normal((timesteps, SLOT, d_raw))


def encode_oracle(frames, indices, params):
    rows = np.stack([frames[i][:params.segment_len].ravel() for i in indices])
    enc = params.enc
    h = np.maximum(rows @ enc.w1.data + enc.b1.data, 0.0)
    return h @ enc.w2.data + enc.b2.data


def classify_oracle(features, gate_values, params):
    """One video's logits: gate the rows, max-pool them, then the head."""
    if gate_values is not None:
        features = features * gate_values[:, None]
    head = params.head
    pooled = features.max(axis=0)
    h = np.maximum(pooled @ head.w1.data + head.b1.data, 0.0)
    return h @ head.w2.data + head.b2.data


# ---------------------------------------------------------------------------
# heavy encoder


def test_heavynet_matches_numpy_oracle():
    params = make_params()
    frames = random_frames(np.random.default_rng(1))
    feats = cls.heavynet_features(frames, [0, 2], params)
    assert feats.shape == (2, 3)
    nptest.assert_allclose(feats.data, encode_oracle(frames, [0, 2], params),
                           rtol=1e-12)


def test_heavynet_runs_only_on_given_indices():
    params = make_params()
    frames = random_frames(np.random.default_rng(2))
    # corrupt every frame outside the requested segments; output must not move
    base = cls.heavynet_features(frames, [1], params).data.copy()
    wrecked = np.full_like(frames, 1e6)
    seg = (1, slice(0, params.segment_len))
    wrecked[seg] = frames[seg]
    nptest.assert_array_equal(cls.heavynet_features(wrecked, [1], params).data, base)


def test_heavynet_instrumentation_counts_encoded_timesteps():
    params = make_params()
    frames = random_frames(np.random.default_rng(3))
    assert params.heavy_rows == 0
    cls.heavynet_features(frames, [0, 1, 3], params)
    assert params.heavy_rows == 3
    cls.heavynet_features(frames, [2], params)
    assert params.heavy_rows == 4
    # a repeated slot is encoded, and counted, once per occurrence
    cls.heavynet_features(frames, [1, 1], params)
    assert params.heavy_rows == 6


def test_heavynet_contract_errors():
    params = make_params()
    frames = random_frames(np.random.default_rng(4))
    with pytest.raises(ContractError):
        cls.heavynet_features(frames, [], params)
    # slots 4 and -1 lie outside the 4 slots; numpy would wrap -1 silently;
    # the message names the first bad slot
    for idx, first in (([4], 4), ([0, -1], -1), ([1, 7, -2], 7)):
        with pytest.raises(ContractError, match=f"slot {first} falls outside the 4 slots"):
            cls.heavynet_features(frames, idx, params)
    assert params.heavy_rows == 0
    for bad in (np.zeros((4, SLOT, 7)),          # wrong width
                # twice the width: 4 frames of it fill the encoder, but the
                # segment is 8 frames
                np.zeros((4, SLOT, 10)),
                np.zeros((4 * SLOT, 5)),         # frames not in slots
                frames[:, :7]):                  # slots shorter than segment_len 8
        with pytest.raises(DimensionError):
            cls.heavynet_features(bad, [0], params)


# ---------------------------------------------------------------------------
# classification head


def test_classify_matches_numpy_oracle():
    params = make_params(channels=2, d_raw=4, seed=5)
    frames = random_frames(np.random.default_rng(6), d_raw=4)
    feats = cls.heavynet_features(frames, [0, 1, 2], params)
    gates = np.asarray([0.9, 0.6, 0.75])
    got = cls.classify(feats, Tensor(gates), params.head, [3]).data
    want = classify_oracle(feats.data, gates, params)
    nptest.assert_allclose(got[0], want, rtol=1e-12)
    assert got.shape == (1, 4)


def test_gate_scaling_happens_before_the_head():
    # one timestep, one channel holding -1: a gate of 0.5 feeds -0.5 to the
    # head
    params = make_params(channels=1, n_classes=2, d_raw=4, seed=7)
    feats = Tensor(np.asarray([[-1.0]]))
    scaled = cls.classify(feats, Tensor(np.asarray([0.5])), params.head, [1]).data[0]
    want = classify_oracle(feats.data, np.asarray([0.5]), params)
    nptest.assert_allclose(scaled, want, rtol=1e-12)
    h = np.maximum(np.asarray([[-0.5]]) @ params.head.w1.data + params.head.b1.data, 0.0)
    nptest.assert_allclose(scaled, (h @ params.head.w2.data + params.head.b2.data)[0],
                           rtol=1e-12)


def test_unit_gates_equal_no_gating_exactly():
    params = make_params(channels=2, d_raw=4, seed=8)
    frames = random_frames(np.random.default_rng(9), d_raw=4)
    feats = cls.heavynet_features(frames, [0, 3], params)
    ungated = cls.classify(feats, None, params.head, [2]).data
    gated = cls.classify(feats, Tensor(np.ones(2)), params.head, [2]).data
    nptest.assert_array_equal(gated, ungated)


def test_duplicate_timesteps_do_not_change_logits():
    params = make_params(seed=10)
    frames = random_frames(np.random.default_rng(11))
    feats = cls.heavynet_features(frames, [0, 2], params)
    once = cls.classify(feats, None, params.head, [2]).data
    # duplicating feature rows changes nothing at all under max pooling
    doubled = Tensor(feats.data[[0, 1, 1, 0]])
    nptest.assert_array_equal(cls.classify(doubled, None, params.head, [4]).data, once)
    # re-encoding a different batch size may differ in the last ulp (blas)
    twice = cls.classify(cls.heavynet_features(frames, [0, 2, 2, 0], params), None,
                         params.head, [4]).data
    nptest.assert_allclose(twice, once, rtol=1e-12)


def test_classify_shape_validation():
    params = make_params(channels=2, d_raw=4)
    with pytest.raises(DimensionError):
        cls.classify(Tensor(np.zeros((3, 2, 1))), None, params.head, [3])
    with pytest.raises(DimensionError):
        cls.classify(Tensor(np.zeros((3, 3))), None, params.head, [3])
    with pytest.raises(DimensionError):
        cls.classify(Tensor(np.zeros((3, 2))), Tensor(np.ones(2)), params.head, [3])
    with pytest.raises(DimensionError):
        cls.classify(Tensor(np.zeros((3, 2))), None, params.head, [1, 1])


# ---------------------------------------------------------------------------
# task losses


def test_task_loss_single_label_uniform_oracle():
    logits = Tensor(np.zeros((1, 5)))
    loss = cls.task_loss(logits, np.eye(5)[[3]], "single_label")
    nptest.assert_allclose(loss.data, math.log(5.0), rtol=1e-12)


def test_task_loss_single_label_batched():
    logits = Tensor(np.asarray([[4.0, 0.0], [0.0, 4.0]]))
    loss = cls.task_loss(logits, np.eye(2), "single_label")
    nptest.assert_allclose(loss.data, math.log1p(math.exp(-4.0)), rtol=1e-12)


def test_task_loss_multi_label_oracle():
    logits = Tensor(np.zeros(4))
    loss = cls.task_loss(logits, np.asarray([1.0, 0.0, 1.0, 0.0]), "multi_label")
    nptest.assert_allclose(loss.data, math.log(2.0), rtol=1e-12)


def test_task_loss_unknown_task():
    with pytest.raises(DomainError):
        cls.task_loss(Tensor(np.zeros(3)), 0, "ranking")


# ---------------------------------------------------------------------------
# gradients through the full two-stage pipeline


def build_small_pipeline(seed=0):
    rng = np.random.default_rng(seed)
    sparams = sel.SelectorParams.init(4, 3, 4, 6, 1.5, True, rng)
    cparams = cls.ClassifierParams.init(4, 4, 4, 3, rng)
    frames = np.random.default_rng(seed + 100).standard_normal((3, SLOT, 4))
    return sparams, cparams, frames


def e2e_loss(sparams, cparams, frames, noises, label):
    import stepgate.gating as gt
    alphas = sel.select(frames[None, :, 2], sparams, "test").logits   # segment_len 4
    activated, open_mask = gt.activate_train_batch(alphas, noises)
    selected = [i for i in range(3) if open_mask[i]]
    feats = cls.heavynet_features(frames, selected, cparams)
    gate_vals = ad.take_rows(activated, selected)
    logits = cls.classify(feats, gate_vals, cparams.head, [len(selected)])
    return cls.task_loss(logits, np.eye(3)[[label]], "single_label")


def test_e2e_gradient_reaches_selector_and_classifier():
    import stepgate.gating as gt
    sparams, cparams, frames = build_small_pipeline(seed=3)
    noises = gt.sample_gate_noise_batch(np.random.default_rng(40), 3).reshape(3, 1)
    with ad.record() as rec:
        loss = e2e_loss(sparams, cparams, frames, noises, 1)
    ad.backward(loss, rec)
    assert np.abs(sparams.gate.w2.grad).max() > 0.0
    assert np.abs(sparams.kernels.grad).max() > 0.0
    assert np.abs(sparams.attn_q.grad).max() > 0.0
    assert np.abs(cparams.enc.w1.grad).max() > 0.0
    assert np.abs(cparams.head.w2.grad).max() > 0.0


def test_e2e_finite_difference_check():
    import stepgate.gating as gt
    sparams, cparams, frames = build_small_pipeline(seed=4)
    noises = gt.sample_gate_noise_batch(np.random.default_rng(41), 3).reshape(3, 1)
    alphas = sel.select(frames[None, :, 2], sparams, "test").logits.data
    assert np.abs(alphas + noises).min() > 1e-2, "gate too close to its threshold for fd"

    def f(_):
        return e2e_loss(sparams, cparams, frames, noises, 2)

    for p in (sparams.gate.w1, sparams.attn_v, sparams.enc.w2,
              cparams.enc.w2, cparams.head.w1):
        assert ad.finite_diff_check(f, p) < 1e-4
