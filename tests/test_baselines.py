import numpy as np
import numpy.testing as nptest
import pytest
from hypothesis import given, settings, strategies as st

import stepgate.baselines as bl
from stepgate.errors import DimensionError, DomainError

SLOT = 16  # frames per slot
MID = 4    # a slot's light frame at segment length 8


def make_scorer(d_raw=5, channels=6, n_classes=4, seed=0):
    return bl.ScorerParams.init(d_raw, channels, n_classes, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# saliency scores


def video_scores(frames, params):
    """Scores of a video's (T, SLOT, d_raw) slots from their light frames."""
    return bl.scsampler_scores(frames[:, MID], params)


def random_video(rng):
    return rng.standard_normal((4, SLOT, 5))


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
    light = frames[:, MID]
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
    frames[3, MID] = frames[0, MID]  # timesteps 0 and 3 see the same light frame
    scores = video_scores(frames, params)
    assert scores[0] == scores[3]
    nptest.assert_array_equal(video_scores(frames.copy(), params), scores)


def test_score_rejects_wrong_width():
    with pytest.raises(DimensionError):
        video_scores(np.zeros((4, SLOT, 4)), make_scorer(d_raw=5))


def test_video_scores_are_context_invariant():
    """Duplicated segment contents must give byte-identical scores even when
    every other timestep differs between the two videos."""
    params = make_scorer(seed=7)
    params.head_w.data[:] = np.random.default_rng(8).standard_normal(params.head_w.shape)
    rng = np.random.default_rng(9)
    a = rng.standard_normal((4, SLOT, 5))
    b = rng.standard_normal((4, SLOT, 5))
    shared = rng.standard_normal(5)
    a[1, MID] = shared  # the light frames of a's slot 1 and b's slot 3
    b[3, MID] = shared
    sa = video_scores(a, params)
    sb = video_scores(b, params)
    assert sa[1] == sb[3]
    assert sa.shape == (4,)


def test_scorer_logits_rows_are_per_timestep():
    params = make_scorer(seed=10)
    rng = np.random.default_rng(11)
    light = rng.standard_normal((4, 5))
    base = bl.scorer_logits(light, params).data.copy()
    light[0] += 3.0  # the light frame of timestep 0 only
    bumped = bl.scorer_logits(light, params).data
    nptest.assert_array_equal(bumped[1:], base[1:])


def test_scorer_init_validation():
    with pytest.raises(DomainError):
        bl.ScorerParams.init(5, 6, 1, np.random.default_rng(0))
    with pytest.raises(DomainError):
        bl.ScorerParams.init(0, 6, 3, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# index sampling


def test_uniform_sampling_worked_examples():
    assert bl.sample_indices("uniform", 8, 4, [None]) == [[1, 3, 5, 7]]
    assert bl.sample_indices("uniform", 5, 2, [None, None]) == [[1, 3], [1, 3]]
    assert bl.sample_indices("uniform", 6, 1, range(3)) == [[3]] * 3
    # each row owns its list
    rows = bl.sample_indices("uniform", 8, 2, [None, None])
    rows[0].append(9)
    assert rows[1] == [2, 6]


@settings(max_examples=40, deadline=None)
@given(t=st.integers(min_value=1, max_value=200), data=st.data())
def test_sampling_always_k_distinct_ascending_in_range(t, data):
    k = data.draw(st.integers(min_value=1, max_value=t))
    n = data.draw(st.integers(min_value=1, max_value=4))
    mode = data.draw(st.sampled_from(["uniform", "random", "topk"]))
    rows = (np.random.default_rng(0).random((n, t)) if mode == "topk"
            else [123 + i for i in range(n)])
    picks = bl.sample_indices(mode, t, k, rows)
    assert len(picks) == n
    for out in picks:
        assert len(out) == k
        assert out == sorted(set(out))
        assert all(0 <= i < t for i in out)
        if k == t:
            assert out == list(range(t))


def test_random_sampling_reproducible_under_seed():
    a = bl.sample_indices("random", 50, 10, [42, 7])
    b = bl.sample_indices("random", 50, 10, [42])
    assert a[0] == b[0]
    assert a[1] == bl.sample_indices("random", 50, 10, [7])[0]
    assert len(set(a[0])) == 10
    # the draw is numpy's sorted, per row's seed
    assert a[0] == sorted(np.random.default_rng(42).choice(50, size=10, replace=False).tolist())


def test_topk_tie_goes_to_lower_index():
    assert bl.sample_indices("topk", 4, 2, [[0.1, 0.9, 0.9, 0.2]]) == [[1, 2]]
    assert bl.sample_indices("topk", 3, 1, [[0.5, 0.5, 0.5], [0.1, 0.3, 0.3]]) == [[0], [1]]


def test_topk_is_a_subset_of_score_argsort():
    rng = np.random.default_rng(13)
    scores = rng.random((5, 20))
    for row, top in zip(scores, bl.sample_indices("topk", 20, 6, scores)):
        assert set(top) == set(np.argsort(-row)[:6].tolist())


def test_sampling_errors():
    with pytest.raises(DomainError):
        bl.sample_indices("uniform", 8, 9, [None])
    with pytest.raises(DomainError):
        bl.sample_indices("uniform", 8, 0, [None])
    with pytest.raises(DomainError):
        bl.sample_indices("striped", 8, 2, [None])
    # a score stack must be (videos, t)
    with pytest.raises(DimensionError):
        bl.sample_indices("topk", 8, 2, [[0.1, 0.2]])
    with pytest.raises(DimensionError):
        bl.sample_indices("topk", 8, 2, np.zeros(8))
