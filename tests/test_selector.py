import math

import numpy as np
import numpy.testing as nptest
import pytest
from hypothesis import given, settings, strategies as st

import stepgate.autodiff as ad
import stepgate.gating as gt
import stepgate.selector as sel
from stepgate.autodiff import Tensor
from stepgate.errors import ContractError, DimensionError, DomainError

SLOT = 16  # frames per slot


def make_params(context_mode="context", channels=4, n_kernels=6, timesteps=4,
                segment_len=8, d_raw=5, seed=0, open_bias=0.0):
    cfg = sel.SelectorConfig(channels=channels, n_kernels=n_kernels,
                             context_mode=context_mode, timesteps=timesteps,
                             segment_len=segment_len)
    return sel.SelectorParams.init(cfg, d_raw, np.random.default_rng(seed),
                                   gate_hidden=8, open_bias=open_bias)


def random_frames(rng, timesteps=4, d_raw=5):
    return rng.standard_normal((timesteps, SLOT, d_raw))


# ---------------------------------------------------------------------------
# light features


def _encode_one(params, v):
    h = np.maximum(v @ params.enc.w1.data + params.enc.b1.data, 0.0)
    return h @ params.enc.w2.data + params.enc.b2.data


def test_lightnet_reads_center_frames_with_shared_encoder():
    params = make_params(context_mode="frame")
    rng = np.random.default_rng(3)
    frames = random_frames(rng)
    feats = sel.lightnet_features(frames, params).data
    for t in range(4):
        # segment_len 8: the heavy segment is frames 0..7 of the slot
        nptest.assert_allclose(feats[t], _encode_one(params, frames[t, 4]), rtol=1e-12)


@pytest.mark.parametrize("segment_len,middle", [(1, 0), (2, 1), (5, 2), (8, 4), (16, 8)])
def test_light_frame_is_the_middle_frame_of_the_heavy_segment(segment_len, middle):
    params = make_params(context_mode="frame", segment_len=segment_len)
    frames = random_frames(np.random.default_rng(14))
    base = sel.lightnet_features(frames, params).data
    # every other frame of every slot is wrecked; the features must not move
    wrecked = np.full_like(frames, 1e6)
    wrecked[:, middle] = frames[:, middle]
    nptest.assert_array_equal(sel.lightnet_features(wrecked, params).data, base)


def test_lightnet_rejects_wrong_width():
    params = make_params()
    with pytest.raises(DimensionError):
        sel.lightnet_features(np.zeros((4, SLOT, 7)), params)


def test_lightnet_rejects_frames_that_are_not_the_configured_slots():
    params = make_params()   # 4 slots, segment_len 8, d_raw 5
    frames = random_frames(np.random.default_rng(15))
    for bad in (np.zeros((4 * SLOT, 5)),    # frames not in slots
                frames[:3]):                # 3 slots where the selector has 4
        with pytest.raises(DimensionError):
            sel.lightnet_features(bad, params)
        with pytest.raises(DimensionError):
            sel.select(bad, params, "test")


def test_lightnet_rejects_slots_shorter_than_the_segment():
    params = make_params()   # segment_len 8: the light frame is frame 4 of a slot
    frames = random_frames(np.random.default_rng(15))
    for short in (frames[:, :7], frames[:, :4]):
        with pytest.raises(DimensionError):
            sel.lightnet_features(short, params)
        with pytest.raises(DimensionError):
            sel.select(short, params, "test")


def test_align_bad_sizes_are_domain_errors():
    # timesteps and segment_len fix which frame of which slot the light
    # encoder reads; a non-positive one is refused when the selector is built
    for bad in ({"timesteps": 0}, {"segment_len": 0}, {"segment_len": -1}):
        with pytest.raises(DomainError):
            make_params(**bad)


# ---------------------------------------------------------------------------
# attention


def test_self_attention_hand_oracle_t2():
    """Exhaustive scalar-loop oracle for a 2-timestep, 2-channel attention."""
    cfg = sel.SelectorConfig(channels=2, n_kernels=2, timesteps=2, segment_len=1)
    rng = np.random.default_rng(0)
    params = sel.SelectorParams.init(cfg, 3, rng, gate_hidden=4)
    x = np.asarray([[1.0, -0.5], [0.25, 2.0]])
    out = sel.self_attention(Tensor(x), params).data

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
    frames = random_frames(rng)
    base = sel.gate_logits(frames, params).data.copy()
    # change only the last timestep's center frame; earlier logits must move
    frames2 = frames.copy()
    frames2[-1, 4] += 10.0
    bumped = sel.gate_logits(frames2, params).data
    assert np.abs(bumped[:-1] - base[:-1]).max() > 1e-9


def test_frame_mode_ignores_other_timesteps():
    params = make_params(context_mode="frame")
    rng = np.random.default_rng(5)
    frames = random_frames(rng)
    base = sel.gate_logits(frames, params).data.copy()
    frames2 = frames.copy()
    frames2[-1, 4] += 10.0
    bumped = sel.gate_logits(frames2, params).data
    nptest.assert_array_equal(bumped[:-1], base[:-1])
    assert abs(bumped[-1] - base[-1]).max() > 1e-9


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_frame_mode_is_permutation_equivariant(seed):
    params = make_params(context_mode="frame", seed=1)
    rng = np.random.default_rng(seed)
    frames = random_frames(rng)
    perm = rng.permutation(4)
    base = sel.gate_logits(frames, params).data
    permuted = sel.gate_logits(frames[perm], params).data
    nptest.assert_array_equal(permuted, base[perm])


def test_context_mode_is_not_permutation_invariant():
    params = make_params(context_mode="context", seed=2)
    rng = np.random.default_rng(6)
    frames = random_frames(rng)
    perm = np.asarray([1, 0, 3, 2])
    base = sel.gate_logits(frames, params).data
    permuted = sel.gate_logits(frames[perm], params).data
    assert np.abs(permuted - base).max() > 1e-9


# ---------------------------------------------------------------------------
# select


def test_select_test_mode_is_deterministic_and_consistent():
    params = make_params(open_bias=0.5)
    rng = np.random.default_rng(7)
    frames = random_frames(rng)
    r1 = sel.select(frames, params, "test")
    r2 = sel.select(frames, params, "test")
    assert r1.selected_indices == r2.selected_indices
    nptest.assert_array_equal(r1.activated.data, r2.activated.data)
    assert r1.selected_indices == [int(i) for i in np.flatnonzero(r1.open)]
    assert r1.selected_indices == sorted(r1.selected_indices)
    nptest.assert_array_equal(r1.open, r1.logits.data[:, 0] > 0.0)
    nptest.assert_array_equal(r1.activated.data, r1.open.astype(np.float64))


def test_select_train_mode_reproducible_under_seed():
    params = make_params()
    frames = random_frames(np.random.default_rng(8))
    r1 = sel.select(frames, params, "train", rng=np.random.default_rng(99))
    r2 = sel.select(frames, params, "train", rng=np.random.default_rng(99))
    assert r1.selected_indices == r2.selected_indices
    nptest.assert_array_equal(r1.activated.data, r2.activated.data)


def test_select_train_mode_requires_rng():
    params = make_params()
    with pytest.raises(ContractError):
        sel.select(random_frames(np.random.default_rng(0)), params, "train")


def test_select_unknown_mode_is_domain_error():
    params = make_params()
    with pytest.raises(DomainError):
        sel.select(random_frames(np.random.default_rng(0)), params, "eval")


def test_select_train_activated_matches_decisions():
    params = make_params()
    frames = random_frames(np.random.default_rng(10))
    res = sel.select(frames, params, "train", rng=np.random.default_rng(1))
    assert res.open.shape == res.activated.shape == (4,)
    assert res.logits.shape == (4, 1)
    assert res.features.shape == (4, params.config.channels)
    opened, closed = res.activated.data[res.open], res.activated.data[~res.open]
    assert ((opened > 0.5) & (opened <= 1.0)).all()
    assert (closed == 0.0).all()


def test_zero_noise_train_selection_equals_test_selection():
    params = make_params(open_bias=0.3)
    frames = random_frames(np.random.default_rng(11))
    alphas = sel.gate_logits(frames, params)
    value, mask = gt.activate_train_batch(alphas, np.zeros_like(alphas.data))
    test_res = sel.select(frames, params, "test")
    assert list(np.where(mask)[0]) == test_res.selected_indices


@pytest.mark.parametrize("context_mode, ops", [
    # light mlp, attention, similarity (transpose and matmul), gate mlp,
    # noisy gate
    ("context", ["mlp", "attention", "transpose", "matmul", "mlp", "noisy_gate"]),
    ("frame", ["mlp", "transpose", "matmul", "mlp", "noisy_gate"]),
])
def test_train_select_records_one_tape_op_per_layer(context_mode, ops):
    params = make_params(context_mode=context_mode)
    frames = random_frames(np.random.default_rng(14))
    with ad.record() as rec:
        sel.select(frames, params, "train", rng=np.random.default_rng(3))
    assert [node.op for node in rec.nodes if node.op != "leaf"] == ops


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
    assert res.selected_indices == [0, 1, 2]
    assert sel.top_k_indices(res, 1) == [1]
    assert sel.top_k_indices(res, 2) == [0, 1]   # tie at 0.5 goes to index 0
    assert sel.top_k_indices(res, 3) == [0, 1, 2]
    assert sel.top_k_indices(res, 4) == [0, 1, 2, 3]


def test_heavy_indices_keep_the_open_gates():
    assert sel.heavy_indices(_result([0.5, -2.0, 0.1, -1.0])) == [0, 2]


def test_top_k_budget_out_of_range():
    params = make_params()
    res = sel.select(random_frames(np.random.default_rng(0)), params, "test")
    with pytest.raises(DomainError):
        sel.top_k_indices(res, 0)
    with pytest.raises(DomainError):
        sel.top_k_indices(res, 5)


# ---------------------------------------------------------------------------
# gradients through the whole selection stack


def test_selection_gradient_reaches_all_selector_params():
    params = make_params(context_mode="context", open_bias=2.0)
    frames = random_frames(np.random.default_rng(12))
    with ad.record() as rec:
        res = sel.select(frames, params, "train", rng=np.random.default_rng(2))
        loss = ad.reduce_sum(res.activated, axis=0)
    assert res.selected_indices, "expected at least one open gate with open bias 2"
    ad.backward(loss, rec)
    for name, p in params.named_parameters().items():
        assert p.grad is not None, name
    assert np.abs(params.kernels.grad).max() > 0.0
    assert np.abs(params.enc.w1.grad).max() > 0.0
    assert np.abs(params.attn_q.grad).max() > 0.0


def test_selection_fd_gradient_with_frozen_noise():
    params = make_params(context_mode="context", channels=3, n_kernels=4,
                         timesteps=3, segment_len=4, d_raw=4, seed=5, open_bias=1.0)
    frames = np.random.default_rng(13).standard_normal((3, SLOT, 4))
    noises = gt.sample_gate_noise_batch(np.random.default_rng(21), 3).reshape(3, 1)

    def f(_):
        alphas = sel.gate_logits(frames, params)
        value, _mask = gt.activate_train_batch(alphas, noises)
        return ad.reduce_sum(value, axis=0)

    # keep the check honest: no gate may sit within 1e-2 of its threshold
    alphas = sel.gate_logits(frames, params).data
    assert np.abs(alphas + noises).min() > 1e-2
    assert ad.finite_diff_check(f, params.kernels) < 1e-4
    assert ad.finite_diff_check(f, params.attn_v) < 1e-4
    assert ad.finite_diff_check(f, params.enc.w2) < 1e-4
