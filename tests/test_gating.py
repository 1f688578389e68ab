import math

import numpy as np
import numpy.testing as nptest
import pytest
from hypothesis import given, settings, strategies as st

import stepgate.autodiff as ad
from conftest import weighted_sum
import stepgate.gating as gt
from stepgate.autodiff import Tensor
from stepgate.errors import DimensionError


def column(*logits):
    """A (n, 1) logit column, the shape the gate MLP emits."""
    return Tensor(np.asarray(logits, dtype=np.float64).reshape(-1, 1))


def train_gate(logit, noise):
    """Activate one gate in train mode; returns (value, open)."""
    value, mask = gt.activate_train_batch(column(logit), np.full((1, 1), noise))
    return float(value.data[0]), bool(mask[0])


def step_gate(logit):
    value, mask = gt.activate_test_batch(column(logit))
    return float(value.data[0]), bool(mask[0])


@pytest.fixture
def mlp_2x2():
    """Tiny hand-checkable gate MLP: 2 inputs, 2 hidden units."""
    m = ad.MLP(
        w1=Tensor([[1.0, -1.0], [0.5, 2.0]], requires_grad=True),
        b1=Tensor([0.1, -0.2], requires_grad=True),
        w2=Tensor([[1.0], [-2.0]], requires_grad=True),
        b2=Tensor([0.3], requires_grad=True),
    )
    return m


# ---------------------------------------------------------------------------
# similarity and logits


def test_similarity_is_plain_dot_products():
    kernels = Tensor([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    s = gt.similarity_batch(Tensor([[2.0, -3.0]]), kernels)
    nptest.assert_array_equal(s.data, [[2.0, -3.0, -1.0]])


def test_similarity_batch_matches_scalar_path():
    """Row t of the batch equals the one-timestep call, and ``K @ x_t``."""
    rng = np.random.default_rng(0)
    kernels = rng.standard_normal((5, 3))
    bank = Tensor(kernels, requires_grad=True)
    feats = rng.standard_normal((4, 3))
    batched = gt.similarity_batch(Tensor(feats), bank).data
    for t in range(4):
        row = gt.similarity_batch(Tensor(feats[t:t + 1]), bank).data
        nptest.assert_allclose(batched[t:t + 1], row, rtol=1e-12)
        nptest.assert_allclose(batched[t], kernels @ feats[t], rtol=1e-12)


def test_similarity_shape_mismatch():
    bank = Tensor(np.ones((4, 3)))
    with pytest.raises(DimensionError):
        gt.similarity_batch(Tensor([[1.0, 2.0]]), bank)
    with pytest.raises(DimensionError):
        gt.similarity_batch(Tensor([1.0, 2.0, 3.0]), bank)


def test_gate_logit_hand_oracle(mlp_2x2):
    # hidden = relu([1*1 + 2*0.5 + 0.1, 1*(-1) + 2*2 - 0.2]) = [2.1, 2.8]
    # logit  = 2.1 * 1 + 2.8 * (-2) + 0.3 = -3.2
    out = gt.gate_logits_batch(Tensor([[1.0, 2.0]]), mlp_2x2)
    assert out.shape == (1, 1)
    nptest.assert_allclose(out.data[0, 0], -3.2, rtol=1e-12)


def test_gate_logits_batch_matches_scalar_path(mlp_2x2):
    """Row t of the batch equals the one-timestep call and a numpy MLP."""
    sims = np.asarray([[1.0, 2.0], [-0.5, 0.25], [0.0, 0.0]])
    batched = gt.gate_logits_batch(Tensor(sims), mlp_2x2).data
    assert batched.shape == (3, 1)
    m = mlp_2x2
    for t in range(3):
        one = gt.gate_logits_batch(Tensor(sims[t:t + 1]), mlp_2x2).data
        nptest.assert_allclose(batched[t:t + 1], one, rtol=1e-12)
        hidden = np.maximum(sims[t] @ m.w1.data + m.b1.data, 0.0)
        nptest.assert_allclose(batched[t], hidden @ m.w2.data + m.b2.data, rtol=1e-12)


def test_gate_logit_gradient_reaches_kernels():
    rng = np.random.default_rng(1)
    kernels = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    mlp = ad.MLP.init(6, 4, 1, rng)
    x = Tensor(rng.standard_normal((1, 3)))
    with ad.record() as rec:
        alpha = gt.gate_logits_batch(gt.similarity_batch(x, kernels), mlp)
        loss = weighted_sum(ad.sigmoid(alpha))
    ad.backward(loss)
    assert np.abs(kernels.grad).max() > 0.0


# ---------------------------------------------------------------------------
# noise


def test_noise_is_reproducible_and_logistic_shaped():
    a = gt.sample_gate_noise_batch(np.random.default_rng(42), 200000)
    b = gt.sample_gate_noise_batch(np.random.default_rng(42), 200000)
    nptest.assert_array_equal(a, b)
    # Logistic(0,1): mean 0, variance pi^2 / 3, median 0
    assert abs(a.mean()) < 0.02
    assert abs(a.var() - math.pi ** 2 / 3) < 0.05
    assert abs((a > 0).mean() - 0.5) < 0.005


def test_scalar_noise_matches_batch_stream():
    """One draw per call reads the same stream as one batch of draws."""
    rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
    singles = [gt.sample_gate_noise_batch(rng1, 1)[0] for _ in range(5)]
    batch = gt.sample_gate_noise_batch(rng2, 5)
    nptest.assert_allclose(singles, batch, rtol=1e-15)


# ---------------------------------------------------------------------------
# activation semantics


def test_activate_train_value_range():
    rng = np.random.default_rng(5)
    alphas = rng.uniform(-4, 4, size=(500, 1))
    noises = gt.sample_gate_noise_batch(rng, 500).reshape(500, 1)
    value, mask = gt.activate_train_batch(Tensor(alphas), noises)
    assert mask.shape == value.shape == (500,)
    opened, closed = value.data[mask], value.data[~mask]
    assert ((opened > 0.5) & (opened <= 1.0)).all()
    assert (closed == 0.0).all()
    assert 0 < mask.sum() < 500


def test_activate_train_exact_half_closes():
    assert train_gate(0.0, 0.0) == (0.0, False)
    assert train_gate(1.5, -1.5) == (0.0, False)


def test_activate_test_is_positive_logit_step():
    value, mask = gt.activate_test_batch(column(0.3, 0.0, -0.3, 40.0))
    nptest.assert_array_equal(mask, [True, False, False, True])
    nptest.assert_array_equal(value.data, [1.0, 0.0, 0.0, 1.0])
    assert step_gate(0.3) == (1.0, True)
    assert step_gate(-0.3) == (0.0, False)


def test_step_open_keeps_the_shape_and_is_the_test_activation_rule():
    logits = np.array([[0.3, 0.0, -0.3], [40.0, -1e-300, 1e-300]])
    mask = gt.step_open(logits)
    nptest.assert_array_equal(mask, [[True, False, False], [True, False, True]])
    nptest.assert_array_equal(gt.activate_test_batch(Tensor(logits))[1], mask.reshape(-1))


@settings(max_examples=50, deadline=None)
@given(logit=st.floats(min_value=-30, max_value=30, allow_nan=False))
def test_zero_noise_train_matches_test_decision(logit):
    assert train_gate(logit, 0.0)[1] == step_gate(logit)[1]


def test_batch_activation_matches_scalar_path():
    """Each gate equals its one-gate call and ``sigmoid(z) * [z > 0]``."""
    rng = np.random.default_rng(11)
    alphas = rng.uniform(-3, 3, size=(20, 1))
    noises = gt.sample_gate_noise_batch(rng, 20).reshape(20, 1)
    value, mask = gt.activate_train_batch(Tensor(alphas), noises)
    for i in range(20):
        assert train_gate(alphas[i, 0], noises[i, 0]) == (value.data[i], mask[i])
    z = (alphas + noises)[:, 0]
    nptest.assert_allclose(value.data, np.where(z > 0, ad.sigmoid_np(z), 0.0), rtol=1e-14)
    nptest.assert_array_equal(mask, z > 0)


def test_open_probability_identity_quick():
    """Empirical open rate tracks sigmoid(alpha); the acceptance suite tightens this."""
    rng = np.random.default_rng(123)
    n = 20000
    for alpha in (-1.0, 0.0, 2.0):
        noises = gt.sample_gate_noise_batch(rng, n).reshape(n, 1)
        _, mask = gt.activate_train_batch(Tensor(np.full((n, 1), alpha)), noises)
        assert abs(mask.mean() - ad.sigmoid_np(alpha)) < 0.02


def test_monotonicity_under_shared_noise():
    rng = np.random.default_rng(2)
    noise = gt.sample_gate_noise_batch(rng, 200).reshape(200, 1)
    pairs = np.sort(rng.uniform(-4, 4, size=(200, 2)), axis=1)
    lo, _ = gt.activate_train_batch(Tensor(pairs[:, :1]), noise)
    hi, _ = gt.activate_train_batch(Tensor(pairs[:, 1:]), noise)
    assert (hi.data >= lo.data).all()


# ---------------------------------------------------------------------------
# gradient behaviour


def _gated_sum(x, value):
    """Sum of a (n, C) feature matrix scaled row-wise by (n,) gate values."""
    gated = ad.scale_rows(x, value)
    return gated, weighted_sum(gated)


def test_open_gate_passes_sigmoid_gradient():
    alpha = Tensor(np.asarray([[1.0]]), requires_grad=True)
    with ad.record() as rec:
        value, mask = gt.activate_train_batch(alpha, np.full((1, 1), 0.5))
        loss = ad.reshape(value, ())
    assert mask[0]
    ad.backward(loss)
    s = ad.sigmoid_np(1.5)
    nptest.assert_allclose(alpha.grad, [[s * (1 - s)]], rtol=1e-12)


def test_closed_gate_blocks_gradient_to_feature_and_logit():
    alpha = Tensor(np.asarray([[-2.0]]), requires_grad=True)
    x = Tensor(np.asarray([[1.0, 2.0, 3.0]]), requires_grad=True)
    with ad.record() as rec:
        value, mask = gt.activate_train_batch(alpha, np.zeros((1, 1)))
        gated, loss = _gated_sum(x, value)
    assert not mask[0]
    nptest.assert_array_equal(gated.data, [[0.0, 0.0, 0.0]])  # exact zero tensor
    ad.backward(loss)
    nptest.assert_array_equal(x.grad, [[0.0, 0.0, 0.0]])
    nptest.assert_array_equal(alpha.grad, [[0.0]])


def test_open_gate_scales_feature_and_passes_feature_gradient():
    x = Tensor(np.asarray([[2.0, -4.0]]), requires_grad=True)
    alpha = Tensor(np.asarray([[3.0]]), requires_grad=True)
    with ad.record() as rec:
        value, _ = gt.activate_train_batch(alpha, np.zeros((1, 1)))
        _, loss = _gated_sum(x, value)
    ad.backward(loss)
    a = float(value.data[0])
    nptest.assert_allclose(x.grad, [[a, a]], rtol=1e-12)
    assert np.abs(alpha.grad).max() > 0.0


def test_activation_fd_gradient_away_from_threshold():
    # alpha + noise = 1.2, comfortably inside the open region
    alpha = Tensor(np.asarray([[0.7]]), requires_grad=True)

    def f(a):
        value, _ = gt.activate_train_batch(a, np.full((1, 1), 0.5))
        return ad.reshape(value, ())

    assert ad.finite_diff_check(f, alpha) < 1e-4
