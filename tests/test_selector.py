import math
from types import SimpleNamespace

import numpy as np
import numpy.testing as nptest
import pytest
from hypothesis import given, settings, strategies as st

import stepgate.autodiff as ad
import stepgate.gating as gt
import stepgate.selector as sel
from conftest import tiny_config, weighted_sum
from stepgate.autodiff import Tensor
from stepgate.errors import ContractError, DimensionError, DomainError
from stepgate.harness.evaluation import light_frames
from stepgate.harness.models import ModelBundle

SLOT = 8  # frames per slot


def make_params(context_mode="context", channels=4, n_kernels=6, d_raw=5, seed=0,
                open_bias=0.0):
    return sel.SelectorParams.init(d_raw, channels, n_kernels, 8, open_bias,
                                   context_mode == "context", np.random.default_rng(seed))


def random_frames(rng, timesteps=4, d_raw=5, slot=SLOT):
    """One video's (T, slot, d_raw) slots."""
    return rng.standard_normal((timesteps, slot, d_raw))


def random_light(rng, timesteps=4, d_raw=5, videos=1):
    """A (videos, T, d_raw) stack of light frames."""
    return rng.standard_normal((videos, timesteps, d_raw))


def light_of(frames, frames_per_slot=SLOT):
    """The (1, T, d_raw) light stack of one video's slots."""
    cfg = tiny_config(**{"dataset.timesteps": len(frames),
                         "dataset.frames_per_slot": frames_per_slot})
    return light_frames([SimpleNamespace(frames=frames)], cfg)


# ---------------------------------------------------------------------------
# light features


def _encode_one(params, v):
    h = np.maximum(v @ params.enc.w1.data + params.enc.b1.data, 0.0)
    return h @ params.enc.w2.data + params.enc.b2.data


def test_lightnet_reads_center_frames_with_shared_encoder():
    params = make_params(context_mode="frame")
    rng = np.random.default_rng(3)
    frames = random_frames(rng)
    feats = sel.lightnet_features(light_of(frames), params).data
    for t in range(4):
        # 8-frame slots: the light frame is frame 4
        nptest.assert_allclose(feats[t], _encode_one(params, frames[t, 4]), rtol=1e-12)


@pytest.mark.parametrize("frames_per_slot,middle", [(1, 0), (2, 1), (5, 2), (8, 4), (16, 8)])
def test_light_frame_is_the_middle_frame_of_the_heavy_segment(frames_per_slot, middle):
    params = make_params(context_mode="frame")
    frames = random_frames(np.random.default_rng(14), slot=frames_per_slot)
    light = light_of(frames, frames_per_slot)
    nptest.assert_array_equal(light, frames[None, :, middle])
    base = sel.lightnet_features(light, params).data
    # every other frame of every slot is wrecked; the features must not move
    wrecked = np.full_like(frames, 1e6)
    wrecked[:, middle] = frames[:, middle]
    nptest.assert_array_equal(sel.lightnet_features(light_of(wrecked, frames_per_slot),
                                                    params).data, base)


def test_lightnet_rejects_wrong_width():
    params = make_params()
    with pytest.raises(DimensionError):
        sel.lightnet_features(np.zeros((1, 4, 7)), params)


def test_lightnet_rejects_frames_that_are_not_the_configured_slots():
    params = make_params()   # d_raw 5
    light = random_light(np.random.default_rng(15))
    for bad in (light[0],                   # one video without its stack axis
                np.zeros((1, 4, SLOT, 5))):  # whole slots, not light frames
        with pytest.raises(DimensionError):
            sel.lightnet_features(bad, params)
        with pytest.raises(DimensionError):
            sel.select(bad, params, "test")


def test_lightnet_rejects_slots_longer_or_shorter_than_the_segment():
    # the config's slots are 8 frames: shorter or longer ones are refused
    frames = random_frames(np.random.default_rng(15), slot=16)
    for wrong in (frames[:, :7], frames[:, :4], frames[:, :9], frames):
        with pytest.raises(DimensionError, match=f"slots of {wrong.shape[1]} frames, "
                                                 "the config 4 slots of 8$"):
            light_of(wrong)


# ---------------------------------------------------------------------------
# attention


def test_self_attention_hand_oracle_t2():
    """Exhaustive scalar-loop oracle for a 2-timestep, 2-channel attention."""
    rng = np.random.default_rng(0)
    params = sel.SelectorParams.init(3, 2, 2, 4, 2.0, True, rng)
    x = np.asarray([[1.0, -0.5], [0.25, 2.0]])
    out = sel.self_attention(Tensor(x), params, 2).data

    wq, wk, wv = params.attn_q.data, params.attn_k.data, params.attn_v.data
    q, k, v = x @ wq, x @ wk, x @ wv
    expected = np.zeros_like(x)
    for i in range(2):
        scores = [sum(q[i][c] * k[j][c] for c in range(2)) / math.sqrt(2) for j in range(2)]
        mx = max(scores)
        weights = [math.exp(s - mx) for s in scores]
        z = sum(weights)
        for c in range(2):
            expected[i, c] = x[i, c] + sum(weights[j] / z * v[j][c] for j in range(2))
    nptest.assert_allclose(out, expected, rtol=1e-12)


def test_attention_rows_mix_other_timesteps():
    params = make_params(context_mode="context")
    rng = np.random.default_rng(4)
    light = random_light(rng)
    base = sel.select(light, params, "test").logits.data.copy()
    # change only the last timestep's light frame; earlier logits must move
    light2 = light.copy()
    light2[0, -1] += 10.0
    bumped = sel.select(light2, params, "test").logits.data
    assert np.abs(bumped[:-1] - base[:-1]).max() > 1e-9


def test_frame_mode_ignores_other_timesteps():
    params = make_params(context_mode="frame")
    rng = np.random.default_rng(5)
    light = random_light(rng)
    base = sel.select(light, params, "test").logits.data.copy()
    light2 = light.copy()
    light2[0, -1] += 10.0
    bumped = sel.select(light2, params, "test").logits.data
    nptest.assert_array_equal(bumped[:-1], base[:-1])
    assert abs(bumped[-1] - base[-1]).max() > 1e-9


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_frame_mode_is_permutation_equivariant(seed):
    params = make_params(context_mode="frame", seed=1)
    rng = np.random.default_rng(seed)
    light = random_light(rng)
    perm = rng.permutation(4)
    base = sel.select(light, params, "test").logits.data
    permuted = sel.select(light[:, perm], params, "test").logits.data
    nptest.assert_array_equal(permuted, base[perm])


def test_context_mode_is_not_permutation_invariant():
    params = make_params(context_mode="context", seed=2)
    rng = np.random.default_rng(6)
    light = random_light(rng)
    perm = np.asarray([1, 0, 3, 2])
    base = sel.select(light, params, "test").logits.data
    permuted = sel.select(light[:, perm], params, "test").logits.data
    assert np.abs(permuted - base).max() > 1e-9


# ---------------------------------------------------------------------------
# select


def test_select_test_mode_is_deterministic_and_consistent():
    params = make_params(open_bias=0.5)
    rng = np.random.default_rng(7)
    light = random_light(rng)
    r1 = sel.select(light, params, "test")
    r2 = sel.select(light, params, "test")
    nptest.assert_array_equal(r1.open, r2.open)
    nptest.assert_array_equal(r1.activated.data, r2.activated.data)
    nptest.assert_array_equal(r1.open, r1.logits.data[:, 0] > 0.0)
    nptest.assert_array_equal(r1.activated.data, r1.open.astype(np.float64))


def test_select_train_mode_reproducible_under_seed():
    params = make_params()
    light = random_light(np.random.default_rng(8))
    r1 = sel.select(light, params, "train", rng=np.random.default_rng(99))
    r2 = sel.select(light, params, "train", rng=np.random.default_rng(99))
    nptest.assert_array_equal(r1.open, r2.open)
    nptest.assert_array_equal(r1.activated.data, r2.activated.data)


def test_select_train_mode_requires_rng():
    params = make_params()
    with pytest.raises(ContractError):
        sel.select(random_light(np.random.default_rng(0)), params, "train")


def test_select_unknown_mode_is_domain_error():
    params = make_params()
    with pytest.raises(DomainError):
        sel.select(random_light(np.random.default_rng(0)), params, "eval")


def test_select_train_activated_matches_decisions():
    params = make_params()
    light = random_light(np.random.default_rng(10))
    res = sel.select(light, params, "train", rng=np.random.default_rng(1))
    assert res.open.shape == res.activated.shape == (4,)
    assert res.logits.shape == (4, 1)
    assert res.features.shape == (4, 4)   # 4 timesteps of 4 channels
    opened, closed = res.activated.data[res.open], res.activated.data[~res.open]
    assert ((opened > 0.5) & (opened <= 1.0)).all()
    assert (closed == 0.0).all()


def test_zero_noise_train_selection_equals_test_selection():
    params = make_params(open_bias=0.3)
    light = random_light(np.random.default_rng(11))
    alphas = sel.select(light, params, "test").logits
    value, mask = gt.activate_train_batch(alphas, np.zeros_like(alphas.data))
    test_res = sel.select(light, params, "test")
    nptest.assert_array_equal(mask, test_res.open)


@pytest.mark.parametrize("context_mode, ops", [
    # light mlp, attention, similarity, gate mlp, noisy gate
    ("context", ["mlp", "attention", "matmul_t", "mlp", "noisy_gate"]),
    ("frame", ["mlp", "matmul_t", "mlp", "noisy_gate"]),
])
def test_train_select_records_one_tape_op_per_layer(context_mode, ops):
    params = make_params(context_mode=context_mode)
    light = random_light(np.random.default_rng(14))
    with ad.record() as rec:
        sel.select(light, params, "train", rng=np.random.default_rng(3))
    assert [node.op for node in rec.nodes] == ops


# ---------------------------------------------------------------------------
# a stack of videos


@pytest.mark.parametrize("context_mode", ["context", "frame"])
def test_stacked_select_equals_per_video_select(context_mode):
    """A (B, T, d_raw) stack gates each video exactly as B stacks of one do,
    and train mode draws the same gate noise from the same stream."""
    params = make_params(context_mode=context_mode, open_bias=0.2, seed=4)
    stack = random_light(np.random.default_rng(16), videos=5)
    ones = [stack[b:b + 1] for b in range(5)]

    def joined(results, field):
        return np.concatenate([getattr(r, field).data if field != "open" else r.open
                               for r in results])

    test = sel.select(stack, params, "test")
    alone = [sel.select(one, params, "test") for one in ones]
    nptest.assert_array_equal(test.logits.data, joined(alone, "logits"))
    nptest.assert_array_equal(test.open, joined(alone, "open"))
    assert 0 < test.open.sum() < test.open.size

    named = ModelBundle(selector=params).named_parameters()

    def train_grads(build):
        for p in named.values():
            p.zero_grad()
        rng = np.random.default_rng(17)
        with ad.record() as rec:
            results = build(rng)
            loss = weighted_sum(ad.concat_rows([r.activated for r in results]))
        ad.backward(loss)
        grads = {n: p.grad.copy() for n, p in named.items()}
        return results, grads, rng.random()   # the next draw shows the stream's use

    (stacked,), got, next_draw = train_grads(
        lambda g: [sel.select(stack, params, "train", rng=g)])
    singles, want, next_alone = train_grads(
        lambda g: [sel.select(one, params, "train", rng=g) for one in ones])
    assert next_draw == next_alone
    for field in ("logits", "activated", "open"):
        nptest.assert_array_equal(joined([stacked], field), joined(singles, field))
    for name in want:
        nptest.assert_allclose(got[name], want[name], rtol=1e-12, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("context_mode", ["context", "frame"])
def test_one_selector_selects_stacks_of_any_length(context_mode):
    """No parameter depends on T: the selector that gates 4-timestep videos
    gates 7-timestep ones, and a 2-video stack of them equals two stacks of
    one in gates and in the gate noise it draws."""
    params = make_params(context_mode=context_mode, open_bias=0.2, seed=6)
    rng = np.random.default_rng(18)
    assert sel.select(random_light(rng), params, "test").logits.shape == (4, 1)
    stack = random_light(rng, timesteps=7, videos=2)
    for mode in ("test", "train"):
        g, g1 = np.random.default_rng(19), np.random.default_rng(19)
        whole = sel.select(stack, params, mode, rng=g)
        ones = [sel.select(stack[b:b + 1], params, mode, rng=g1) for b in range(2)]
        assert whole.logits.shape == (14, 1)
        nptest.assert_array_equal(whole.logits.data,
                                  np.concatenate([r.logits.data for r in ones]))
        nptest.assert_array_equal(whole.activated.data,
                                  np.concatenate([r.activated.data for r in ones]))
        nptest.assert_array_equal(whole.open, np.concatenate([r.open for r in ones]))
        assert g.random() == g1.random()


# ---------------------------------------------------------------------------
# top-k override


def _result(logits):
    """A test-mode selection result with the given gate logits."""
    alphas = Tensor(np.asarray(logits, dtype=np.float64).reshape(-1, 1))
    value, mask = gt.activate_test_batch(alphas)
    return sel.SelectionResult(features=Tensor(np.zeros((len(logits), 2))),
                               logits=alphas, activated=value, open=mask)


def test_top_k_ranks_by_activation_with_lower_index_ties():
    res = _result([0.5, 2.0, 0.5, -1.0])
    assert np.flatnonzero(res.open).tolist() == [0, 1, 2]
    # the keys are the activations evaluation ranks by; the second video's
    # order is the first's reversed, and a tie at 0.5 goes to the lower index
    # in both
    logits = np.array([[0.5, 2.0, 0.5, -1.0], [-1.0, 0.5, 2.0, 0.5]])
    assert sel.top_k_indices(ad.sigmoid_np(logits), [1, 2, 3, 4]) == [
        [[1], [2]],
        [[0, 1], [1, 2]],
        [[0, 1, 2], [1, 2, 3]],
        [[0, 1, 2, 3], [0, 1, 2, 3]],
    ]
    # equal keys tie, whatever the logits behind them
    assert sel.top_k_indices(np.array([[1.0, 1.0, 1.0]]), [1]) == [[[0]]]


def test_heavy_indices_keep_the_open_gates():
    res = _result([0.5, -2.0, 0.1, -1.0])
    logits = np.stack([res.logits.data.ravel(), [-3.0, -0.5, -1.0, -0.7]])
    # the second video closed every gate: its highest logit stands in
    assert sel.heavy_indices(logits > 0.0, logits) == [[0, 2], [1]]


def test_top_k_budget_out_of_range():
    params = make_params()
    res = sel.select(random_light(np.random.default_rng(0)), params, "test")
    for k in (0, 5):
        with pytest.raises(DomainError):
            sel.top_k_indices(res.logits.data.T, [2, k])


# ---------------------------------------------------------------------------
# gradients through the whole selection stack


def test_selection_gradient_reaches_all_selector_params():
    params = make_params(context_mode="context", open_bias=2.0)
    light = random_light(np.random.default_rng(12))
    with ad.record() as rec:
        res = sel.select(light, params, "train", rng=np.random.default_rng(2))
        loss = weighted_sum(res.activated)
    assert res.open.any(), "expected at least one open gate with open bias 2"
    ad.backward(loss)
    for name, p in ModelBundle(selector=params).named_parameters().items():
        assert p.grad is not None, name
    assert np.abs(params.kernels.grad).max() > 0.0
    assert np.abs(params.enc.w1.grad).max() > 0.0
    assert np.abs(params.attn_q.grad).max() > 0.0


def test_selection_fd_gradient_with_frozen_noise():
    params = make_params(context_mode="context", channels=3, n_kernels=4,
                         d_raw=4, seed=5, open_bias=1.0)
    light = np.random.default_rng(13).standard_normal((1, 3, 4))
    noises = gt.sample_gate_noise_batch(np.random.default_rng(21), 3).reshape(3, 1)

    def f(_):
        alphas = sel.select(light, params, "test").logits
        value, _mask = gt.activate_train_batch(alphas, noises)
        return weighted_sum(value)

    # keep the check honest: no gate may sit within 1e-2 of its threshold
    alphas = sel.select(light, params, "test").logits.data
    assert np.abs(alphas + noises).min() > 1e-2
    assert ad.finite_diff_check(f, params.kernels) < 1e-4
    assert ad.finite_diff_check(f, params.attn_v) < 1e-4
    assert ad.finite_diff_check(f, params.enc.w2) < 1e-4
