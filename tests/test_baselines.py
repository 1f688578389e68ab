import numpy as np
import numpy.testing as nptest
import pytest
from hypothesis import given, settings, strategies as st

import stepgate.baselines as bl
from stepgate.errors import ContractError, DimensionError, DomainError

STRIDE = 16


def make_scorer(d_raw=5, channels=6, n_classes=4, seed=0):
    return bl.ScorerParams.init(d_raw, channels, n_classes, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# saliency scores


def video_scores(frames, params):
    """Scores of a 4-timestep video at segment length 8."""
    return bl.scsampler_scores(frames, params, STRIDE, 4, 8)


def random_video(rng):
    return rng.standard_normal((4 * STRIDE, 5))


def test_untrained_score_is_exactly_one_over_classes():
    params = make_scorer(n_classes=7)
    for seed in range(5):
        scores = video_scores(random_video(np.random.default_rng(seed)), params)
        assert (scores == 1.0 / 7.0).all()


def test_score_matches_softmax_max_oracle():
    params = make_scorer(seed=1)
    rng = np.random.default_rng(2)
    params.head_w.data[:] = rng.standard_normal(params.head_w.shape)
    params.head_b.data[:] = rng.standard_normal(params.head_b.shape)
    frames = random_video(rng)
    light = frames[[4, 20, 36, 52]]  # the middle frame of each segment
    enc = params.enc
    hidden = np.maximum(light @ enc.w1.data + enc.b1.data, 0.0)
    x = hidden @ enc.w2.data + enc.b2.data
    z = x @ params.head_w.data + params.head_b.data
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    nptest.assert_allclose(video_scores(frames, params), p.max(axis=1), rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_score_lies_in_unit_interval(seed):
    params = make_scorer(seed=3)
    rng = np.random.default_rng(seed)
    params.head_w.data[:] = rng.standard_normal(params.head_w.shape)
    scores = video_scores(random_video(rng) * 5, params)
    assert ((scores > 0.0) & (scores <= 1.0)).all()


def test_identical_features_score_identically_anywhere():
    params = make_scorer(seed=4)
    params.head_w.data[:] = np.random.default_rng(5).standard_normal(params.head_w.shape)
    frames = random_video(np.random.default_rng(6))
    frames[52] = frames[4]  # timesteps 0 and 3 see the same light frame
    scores = video_scores(frames, params)
    assert scores[0] == scores[3]
    nptest.assert_array_equal(video_scores(frames.copy(), params), scores)


def test_score_rejects_wrong_width():
    with pytest.raises(DimensionError):
        video_scores(np.zeros((4 * STRIDE, 4)), make_scorer(d_raw=5))


def test_video_scores_are_context_invariant():
    """Duplicated segment contents must give byte-identical scores even when
    every other timestep differs between the two videos."""
    params = make_scorer(seed=7)
    params.head_w.data[:] = np.random.default_rng(8).standard_normal(params.head_w.shape)
    rng = np.random.default_rng(9)
    a = rng.standard_normal((4 * STRIDE, 5))
    b = rng.standard_normal((4 * STRIDE, 5))
    shared = rng.standard_normal(5)
    centers = [4, 20, 36, 52]
    a[centers[1]] = shared
    b[centers[3]] = shared
    sa = bl.scsampler_scores(a, params, STRIDE, 4, 8)
    sb = bl.scsampler_scores(b, params, STRIDE, 4, 8)
    assert sa[1] == sb[3]
    assert sa.shape == (4,)


def test_scorer_logits_rows_are_per_timestep():
    params = make_scorer(seed=10)
    rng = np.random.default_rng(11)
    frames = rng.standard_normal((4 * STRIDE, 5))
    base = bl.scorer_logits(frames, params, STRIDE, 4, 8).data.copy()
    frames[4] += 3.0  # center frame of timestep 0 only
    bumped = bl.scorer_logits(frames, params, STRIDE, 4, 8).data
    nptest.assert_array_equal(bumped[1:], base[1:])


def test_scorer_init_validation():
    with pytest.raises(DomainError):
        bl.ScorerParams.init(5, 6, 1, np.random.default_rng(0))
    with pytest.raises(DomainError):
        bl.ScorerParams.init(0, 6, 3, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# index sampling


def test_uniform_sampling_worked_examples():
    assert bl.sample_indices("uniform", 8, 4) == [1, 3, 5, 7]
    assert bl.sample_indices("uniform", 5, 2) == [1, 3]
    assert bl.sample_indices("uniform", 6, 1) == [3]


@settings(max_examples=40, deadline=None)
@given(t=st.integers(min_value=1, max_value=200), data=st.data())
def test_sampling_always_k_distinct_ascending_in_range(t, data):
    k = data.draw(st.integers(min_value=1, max_value=t))
    mode = data.draw(st.sampled_from(["uniform", "random", "topk"]))
    scores = np.random.default_rng(0).random(t) if mode == "topk" else None
    out = bl.sample_indices(mode, t, k, scores=scores, seed=123)
    assert len(out) == k
    assert out == sorted(set(out))
    assert all(0 <= i < t for i in out)
    if k == t:
        assert out == list(range(t))


def test_random_sampling_reproducible_under_seed():
    a = bl.sample_indices("random", 50, 10, seed=42)
    b = bl.sample_indices("random", 50, 10, seed=42)
    assert a == b
    assert len(set(a)) == 10


def test_topk_tie_goes_to_lower_index():
    assert bl.sample_indices("topk", 4, 2, scores=[0.1, 0.9, 0.9, 0.2]) == [1, 2]
    assert bl.sample_indices("topk", 3, 1, scores=[0.5, 0.5, 0.5]) == [0]


def test_topk_is_a_subset_of_score_argsort():
    rng = np.random.default_rng(13)
    scores = rng.random(20)
    top = bl.sample_indices("topk", 20, 6, scores=scores)
    best = set(np.argsort(-scores)[:6].tolist())
    assert set(top) == best


def test_sampling_errors():
    with pytest.raises(DomainError):
        bl.sample_indices("uniform", 8, 9)
    with pytest.raises(DomainError):
        bl.sample_indices("uniform", 8, 0)
    with pytest.raises(DomainError):
        bl.sample_indices("striped", 8, 2)
    with pytest.raises(ContractError):
        bl.sample_indices("topk", 8, 2)
    with pytest.raises(DimensionError):
        bl.sample_indices("topk", 8, 2, scores=[0.1, 0.2])
