import gc
import math
import weakref

import numpy as np
import numpy.testing as nptest
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import traced_peak, weighted_sum
import stepgate.autodiff as ad
from stepgate.errors import ContractError, DimensionError, DomainError


def tensor(values, requires_grad=False):
    return ad.Tensor(np.asarray(values, dtype=np.float64), requires_grad=requires_grad)


def finite_arrays(shape, lo=-2.0, hi=2.0):
    n = int(np.prod(shape))
    return st.lists(
        st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False),
        min_size=n, max_size=n,
    ).map(lambda xs: np.asarray(xs, dtype=np.float64).reshape(shape))


# ---------------------------------------------------------------------------
# forward oracles


def test_matmul_oracle():
    a = tensor([[1.0, 0.0], [0.0, 2.0]])
    b = tensor([[3.0, 4.0]])
    out = ad.matmul_t(a, b)
    nptest.assert_array_equal(out.data, [[3.0], [8.0]])


def test_matmul_identity_is_unchanged():
    x = tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
    out = ad.matmul_t(x, tensor(np.eye(3)))
    nptest.assert_array_equal(out.data, x.data)


def test_matmul_zero_annihilates():
    x = tensor(np.ones((3, 4)))
    out = ad.matmul_t(x, tensor(np.zeros((2, 4))))
    nptest.assert_array_equal(out.data, np.zeros((3, 2)))


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError) as exc:
        ad.matmul_t(tensor(np.ones((2, 3))), tensor(np.ones((4, 2))))
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)
    with pytest.raises(DimensionError):
        ad.matmul_t(tensor(np.ones(3)), tensor(np.ones((2, 3))))


@settings(max_examples=20, deadline=None)
@given(a=finite_arrays((3, 4)), b=finite_arrays((2, 4)))
def test_matmul_matches_triple_loop(a, b):
    naive = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                naive[i, j] += a[i, k] * b[j, k]
    out = ad.matmul_t(tensor(a), tensor(b))
    nptest.assert_allclose(out.data, naive, rtol=1e-12, atol=1e-12)


def _layer_grads(op, operands, probe):
    """The op's output and each operand's gradient for the output gradient
    ``probe``, read off one recorded node."""
    ts = [tensor(v, requires_grad=True) for v in operands]
    with ad.record() as rec:
        out = op(*ts)
    assert [node.op for node in rec.nodes if node.op != "leaf"] == [op.__name__]
    return out.data, ad._BACKWARD[op.__name__](rec.nodes[-1], probe,
                                               tuple(t.data for t in ts))


def test_matmul_t_is_the_product_with_a_transpose_bitwise():
    """Forward ``a @ b.T``; backward ``g @ b`` and ``(a.T @ g).T``, the
    expressions of a product with a transposed second operand."""
    rng = np.random.default_rng(21)
    a, b, g = rng.standard_normal((7, 5)), rng.standard_normal((3, 5)), rng.standard_normal((7, 3))
    out, (ga, gb) = _layer_grads(ad.matmul_t, (a, b), g)
    assert np.array_equal(out, a @ b.T)
    assert np.array_equal(ga, g @ b)
    assert np.array_equal(gb, (a.T @ g).T)


def test_scale_rows_is_the_product_with_tiled_scales_bitwise():
    """Forward ``x * v[:, None]``; backward ``g * v[:, None]`` and ``(g *
    x).sum(axis=1)``, the expressions of an elementwise product with the
    scales tiled across the columns."""
    rng = np.random.default_rng(22)
    x, v, g = rng.standard_normal((6, 4)), rng.standard_normal(6), rng.standard_normal((6, 4))
    out, (gx, gv) = _layer_grads(ad.scale_rows, (x, v), g)
    assert np.array_equal(out, x * v[:, None])
    assert np.array_equal(gx, g * v[:, None])
    assert np.array_equal(gv, (g * x).sum(axis=1))


def test_rate_penalty_is_the_squared_gap_chain_bitwise():
    """Forward and backward equal the numpy expressions of the chain the op
    stands for, bit for bit: the column's mean reshaped to (1, 1) plus the
    negated target, squared as ``gap @ gap.T``; backward ``g @ gap + (gap.T @
    g).T``, broadcast to (N, 1), then divided by N."""
    rng = np.random.default_rng(23)
    p, g = rng.uniform(0.0, 1.0, (7, 1)), rng.standard_normal(())

    def rate_penalty(x):
        return ad.rate_penalty(x, 0.3)

    out, (gp,) = _layer_grads(rate_penalty, (p,), g)
    gap = p.mean(axis=0).reshape(1, 1) + np.full((1, 1), -0.3)
    assert np.array_equal(out, (gap @ gap.T).reshape(()))
    g1 = g.reshape(1, 1)
    g_mean = (g1 @ gap + (gap.T @ g1).T).reshape(1)
    assert np.array_equal(gp, np.broadcast_to(np.expand_dims(g_mean, 0), (7, 1)) / 7)


def test_ewise_oracles():
    x = tensor([1.0, -2.0, 3.0])
    nptest.assert_array_equal(ad.add(x, tensor([1.0, 1.0, 1.0])).data, [2.0, -1.0, 4.0])
    rows = ad.scale_rows(tensor([[1.0, -2.0], [3.0, 0.5]]), tensor([2.0, -1.0]))
    nptest.assert_array_equal(rows.data, [[2.0, -4.0], [-3.0, -0.5]])


def test_ewise_rejects_general_broadcast():
    with pytest.raises(DimensionError):
        ad.add(tensor(np.ones((2, 3))), tensor(np.ones(3)))
    with pytest.raises(DimensionError):
        ad.scale_rows(tensor(np.ones((2, 2))), tensor([2.0]))
    with pytest.raises(DimensionError):
        ad.scale_rows(tensor(np.ones((2, 2))), tensor(np.ones((2, 1))))
    with pytest.raises(ContractError):
        ad.add(tensor(np.ones(3)), 1.0)


def test_activation_oracles():
    z = tensor([0.0, 2.0, -3.0])
    sig = ad.sigmoid(z).data
    assert sig[0] == 0.5
    nptest.assert_allclose(sig[1], 0.8807970779778823, rtol=1e-9)
    # the noisy gate: logits + noise is 0, 2 and -3, so only the middle opens
    gate = ad.noisy_gate(tensor([[1.0], [2.5], [-1.0]]), [[-1.0], [-0.5], [-2.0]])
    nptest.assert_array_equal(gate.data, [0.0, sig[1], 0.0])


def test_sigmoid_clamp_keeps_everything_finite():
    z = tensor([-1e6, -745.0, 745.0, 1e6])
    out = ad.sigmoid(z).data
    assert np.isfinite(out).all()
    assert out[0] >= 0.0 and out[-1] <= 1.0


def test_mlp_init_shapes_biases_and_size_check():
    mlp = ad.MLP.init(3, 5, 2, np.random.default_rng(0), out_bias=-1.5)
    assert (mlp.w1.shape, mlp.w2.shape, mlp.n_in) == ((3, 5), (5, 2), 3)
    nptest.assert_array_equal(mlp.b1.data, np.zeros(5))
    nptest.assert_array_equal(mlp.b2.data, [-1.5, -1.5])
    x = np.random.default_rng(1).standard_normal((4, 3))
    hidden = np.maximum(x @ mlp.w1.data, 0.0)
    nptest.assert_allclose(mlp(tensor(x)).data, hidden @ mlp.w2.data - 1.5, rtol=1e-12)
    for sizes in ((0, 5, 2), (3, 0, 2), (3, 5, 0)):
        with pytest.raises(DomainError):
            ad.MLP.init(*sizes, np.random.default_rng(0))


def test_softmax_rows_sums_to_one():
    """Attention's mixing weights: a value column of ones comes back as each
    softmax row's sum; zero queries mix uniformly."""
    x = tensor([[1.0, 2.0], [1.0, -3.0], [1.0, 0.5]])
    wk = tensor([[0.3, -1.2], [0.8, 0.4]])
    take_first = tensor([[1.0, 0.0], [0.0, 0.0]])
    mixed = ad.attention(x, tensor([[0.5, 1.0], [-0.7, 0.2]]), wk, take_first, 3).data - x.data
    nptest.assert_allclose(mixed[:, 0], np.ones(3), rtol=1e-12)
    assert (mixed[:, 1] == 0.0).all()
    uniform = ad.attention(x, tensor(np.zeros((2, 2))), wk, tensor(np.eye(2)), 3).data
    nptest.assert_allclose(uniform - x.data, np.tile(x.data.mean(axis=0), (3, 1)),
                           rtol=1e-12)


def test_softmax_xent_uniform_logits_is_log_l():
    for l in (2, 5, 10):
        loss = ad.softmax_xent(tensor(np.zeros((3, l))), np.eye(l)[[0, 1, 0]])
        assert abs(loss.data.item() - math.log(l)) < 1e-12
        # constant shifts of each row leave the loss unchanged
        shifted = tensor(np.full((3, l), 7.25))
        assert abs(ad.softmax_xent(shifted, np.eye(l)[[0, 1, 0]]).data.item()
                   - math.log(l)) < 1e-12


def test_softmax_xent_confident_correct_oracle():
    loss = ad.softmax_xent(tensor([[10.0, -10.0]]), [[1.0, 0.0]])
    nptest.assert_allclose(loss.data.item(), 2.0611536181902037e-09, rtol=1e-6)


def test_softmax_xent_soft_targets_oracle():
    """A uniform target over two classes is the mean of their two losses."""
    x = tensor([[0.3, -1.2, 2.0], [1.5, 0.1, -0.4]])
    half = ad.softmax_xent(x, [[0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]).data.item()
    want = 0.5 * (ad.softmax_xent(x, np.eye(3)[[0, 1]]).data.item()
                  + ad.softmax_xent(x, np.eye(3)[[2, 2]]).data.item())
    assert abs(half - want) <= 1e-15 * want


@pytest.mark.parametrize("targets, error", [
    ([[1.2, -0.2, 0.0], [0.0, 1.0, 0.0]], DomainError),      # a negative entry
    ([[0.5, 0.4, 0.0], [0.0, 1.0, 0.0]], DomainError),       # sums to 0.9
    ([[0.5, 0.5, 0.5], [0.0, 1.0, 0.0]], DomainError),       # sums to 1.5
    ([[np.nan, 1.0, 0.0], [0.0, 1.0, 0.0]], DomainError),    # not a number
    ([[0.5, 0.5], [0.0, 1.0]], DimensionError),              # too few classes
    ([[0.0, 1.0, 0.0]], DimensionError),                     # too few rows
    ([0, 1, 2], DimensionError),                             # labels for 3 rows
    ([0, 1], DimensionError),                                # labels, not rows
], ids=["negative", "sum-below-1", "sum-above-1", "nan", "narrow", "short",
        "label-count", "labels"])
def test_softmax_xent_rejects_bad_targets(targets, error):
    with pytest.raises(error):
        ad.softmax_xent(tensor(np.zeros((2, 3))), targets)


def test_softmax_xent_extreme_logits_stay_finite():
    loss = ad.softmax_xent(tensor([[1000.0, -1000.0], [-1000.0, 1000.0]]), np.eye(2))
    assert math.isfinite(loss.data.item())
    assert loss.data.item() < 1e-12


def test_bce_logits_oracles():
    assert abs(ad.bce_logits(tensor([[0.0]]), [[1.0]]).data.item() - math.log(2)) < 1e-12
    assert abs(ad.bce_logits(tensor([[0.0]]), [[0.0]]).data.item() - math.log(2)) < 1e-12
    big = ad.bce_logits(tensor([[800.0, -800.0]]), [[1.0, 0.0]])
    assert math.isfinite(big.data.item()) and big.data.item() < 1e-12


def test_bce_logits_rejects_soft_targets():
    with pytest.raises(DomainError):
        ad.bce_logits(tensor([[0.0]]), [[0.5]])


# ---------------------------------------------------------------------------
# backward


def test_backward_square_sum_oracle():
    """x feeds both operands of one node, so its gradient is their sum."""
    x = tensor([1.0, 2.0], requires_grad=True)
    with ad.record() as rec:
        row = ad.reshape(x, (1, 2))
        loss = ad.matmul_t(row, row)
    ad.backward(loss)
    nptest.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_accumulates_until_zeroed():
    x = tensor([3.0], requires_grad=True)
    for expected in (2.0, 4.0):
        with ad.record() as rec:
            loss = weighted_sum(x, [2.0])
        ad.backward(loss)
        nptest.assert_allclose(x.grad, [expected])
    x.zero_grad()
    nptest.assert_array_equal(x.grad, [0.0])


def test_backward_disconnected_tensor_grad_stays_zero():
    x = tensor([1.0, 1.0], requires_grad=True)
    bystander = tensor([5.0], requires_grad=True)
    with ad.record() as rec:
        loss = weighted_sum(x)
    ad.backward(loss)
    nptest.assert_array_equal(bystander.grad, [0.0])


def test_backward_requires_scalar_loss():
    x = tensor([1.0, 2.0], requires_grad=True)
    with ad.record() as rec:
        y = ad.sigmoid(x)
    with pytest.raises(ContractError):
        ad.backward(y)


def test_backward_loss_must_belong_to_record():
    x = tensor([1.0], requires_grad=True)
    with pytest.raises(ContractError):
        ad.backward(weighted_sum(x))
    # a dropped record is freed with its tape
    with ad.record():
        loss = weighted_sum(x)
    with pytest.raises(ContractError):
        ad.backward(loss)


def test_tape_is_freed_without_the_cycle_collector():
    x = tensor([[1.0, -2.0]], requires_grad=True)
    w = tensor([[0.5, -0.25]], requires_grad=True)
    gc.disable()
    try:
        with ad.record() as rec:
            hidden = ad.matmul_t(x, w)
            loss = weighted_sum(hidden, [2.0])
        ad.backward(loss)
        alive = weakref.ref(rec)
        del rec, hidden, loss
        assert alive() is None
    finally:
        gc.enable()
    nptest.assert_array_equal(w.grad, [[2.0, -4.0]])


def test_backward_drops_each_gradient_once_it_is_passed_on():
    """A chain of 40 row scalings of a 1 MiB tensor: backward holds a couple
    of the chain's gradients at a time, not all 40."""
    x = tensor(np.ones((1 << 14, 8)), requires_grad=True)
    scales = tensor(np.full(1 << 14, 1.01))
    with ad.record() as rec:
        y = x
        for _ in range(40):
            y = ad.scale_rows(y, scales)
        loss = weighted_sum(y)
    assert traced_peak(ad.backward, loss) <= 4 * x.data.nbytes
    nptest.assert_allclose(x.grad, 1.01 ** 40, rtol=1e-12)


def test_records_do_not_nest():
    with ad.record():
        with pytest.raises(ContractError):
            with ad.record():
                pass


def test_segment_max_pools_each_segment_like_reduce_max():
    x = np.random.default_rng(3).standard_normal((7, 4))
    got = ad.segment_max(tensor(x), [2, 1, 4]).data
    want = np.stack([x[:2].max(axis=0), x[2], x[3:].max(axis=0)])
    nptest.assert_array_equal(got, want)
    nptest.assert_array_equal(ad.segment_max(tensor(x), [7]).data[0], x.max(axis=0))


def test_segment_max_backward_routes_to_the_first_maximal_row_of_each_segment():
    x = tensor([[2.0, 1.0], [2.0, 4.0], [0.0, 4.0], [3.0, 3.0], [3.0, 5.0]],
               requires_grad=True)
    with ad.record() as rec:
        pooled = ad.segment_max(x, [3, 2])
        loss = weighted_sum(pooled, [[1.0, 2.0], [3.0, 4.0]])
    ad.backward(loss)
    nptest.assert_array_equal(pooled.data, [[2.0, 4.0], [3.0, 5.0]])
    nptest.assert_array_equal(x.grad, [[1.0, 0.0], [0.0, 2.0], [0.0, 0.0],
                                       [3.0, 0.0], [0.0, 4.0]])


def test_segment_max_rejects_bad_segments():
    x = tensor(np.ones((3, 2)))
    for lengths in ([], [3, 0], [-1, 4]):
        with pytest.raises(ContractError):
            ad.segment_max(x, lengths)
    with pytest.raises(DimensionError):
        ad.segment_max(x, [1, 1])
    with pytest.raises(DimensionError):
        ad.segment_max(tensor(np.ones(3)), [3])


def test_concat_rows_forward_and_split_backward():
    a = tensor([[1.0, 2.0]], requires_grad=True)
    b = tensor([[3.0, 4.0], [5.0, 6.0]])
    c = tensor([[7.0, 8.0]], requires_grad=True)
    with ad.record() as rec:
        joined = ad.concat_rows([a, b, c])
        loss = weighted_sum(joined, np.arange(8.0))
    ad.backward(loss)
    nptest.assert_array_equal(joined.data, [[1, 2], [3, 4], [5, 6], [7, 8]])
    nptest.assert_array_equal(a.grad, [[0.0, 1.0]])
    nptest.assert_array_equal(c.grad, [[6.0, 7.0]])
    assert b.grad is None


def test_concat_rows_rejects_empty_and_mismatched_parts():
    with pytest.raises(ContractError):
        ad.concat_rows([])
    with pytest.raises(DimensionError):
        ad.concat_rows([tensor(np.ones((1, 2))), tensor(np.ones((1, 3)))])


def test_only_leaf_tensors_receive_grads():
    x = tensor([1.0, 2.0], requires_grad=True)
    with ad.record() as rec:
        y = ad.reshape(x, (1, 2))
        loss = ad.matmul_t(y, y)
    ad.backward(loss)
    assert y.requires_grad and y.grad is None
    assert loss.grad is None
    nptest.assert_array_equal(x.grad, [2.0, 4.0])


@pytest.mark.parametrize("twice_arrives_first", [True, False])
def test_gradient_sums_never_write_into_an_array_a_backward_function_returned(
        monkeypatch, twice_arrives_first):
    """x feeds add(x, x), whose backward returns one array twice, and two
    more ops; backward sums the four contributions in a buffer of its own,
    whether add(x, x)'s pair reaches x first or last."""
    returned = []

    def spy(fn):
        def wrapped(node, g, data):
            grads = fn(node, g, data)
            returned.extend((a, a.copy()) for a in grads if a is not None)
            return grads
        return wrapped

    for op, fn in list(ad._BACKWARD.items()):
        monkeypatch.setitem(ad._BACKWARD, op, spy(fn))
    x = tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)
    rows = np.array([0.3, -1.2])
    # backward runs the tape in reverse, so the op recorded last arrives first
    makers = [lambda: ad.scale_rows(x, tensor(rows)), lambda: ad.scale_rows(x, tensor([1.5, 1.5])),
              lambda: ad.add(x, x)]
    if not twice_arrives_first:
        makers.reverse()
    with ad.record() as rec:
        a, b, c = (make() for make in makers)
        loss = weighted_sum(ad.add(ad.add(a, b), c))
    ad.backward(loss)
    nptest.assert_allclose(x.grad, np.repeat(rows[:, None] + 3.5, 2, axis=1), rtol=1e-15)
    assert returned
    for array, before in returned:
        nptest.assert_array_equal(array, before)


def test_affine_is_one_node_and_matches_matmul_plus_bias():
    x = tensor([[0.5, -1.0], [1.5, 0.25], [-0.75, 0.8]], requires_grad=True)
    w = tensor([[0.4, -0.7, 1.1], [0.2, 0.9, -0.3]])
    b = tensor([0.1, -0.2, 0.3])
    with ad.record() as rec:
        out = ad.affine(x, w, b)
    assert [node.op for node in rec.nodes] == ["leaf", "leaf", "leaf", "affine"]
    nptest.assert_array_equal(out.data, x.data @ w.data + b.data)


def test_affine_rejects_a_2d_bias_and_a_width_mismatch():
    x, w = tensor(np.ones((3, 2))), tensor(np.ones((2, 4)))
    with pytest.raises(DimensionError) as exc:
        ad.affine(x, w, tensor(np.ones((1, 4))))
    assert "(1, 4)" in str(exc.value)
    with pytest.raises(DimensionError):
        ad.affine(x, tensor(np.ones((3, 4))), tensor(np.ones(4)))
    with pytest.raises(DimensionError):
        ad.affine(x, w, tensor(np.ones(3)))


def test_constant_first_operand_gets_no_gradient():
    frames = np.array([[0.5, -1.0], [1.5, 0.25], [-0.75, 0.8]])
    probe = np.array([[1.0, -2.0, 0.5], [0.25, 1.5, -1.0], [2.0, 0.0, 0.75]])
    x = tensor(frames)
    w = tensor([[0.4, -0.7, 1.1], [0.2, 0.9, -0.3]], requires_grad=True)
    b = tensor([0.1, -0.2, 0.3], requires_grad=True)
    v = tensor(np.ones((3, 2)), requires_grad=True)
    with ad.record() as rec:
        loss = ad.add(weighted_sum(ad.affine(x, w, b), probe),
                      weighted_sum(ad.matmul_t(x, v), probe))
    ad.backward(loss)
    assert x.grad is None
    # d/dw sum(probe * (x @ w + b)) = x.T @ probe; d/db = column sums of probe;
    # d/dv sum(probe * (x @ v.T)) = (x.T @ probe).T
    nptest.assert_array_equal(w.grad, frames.T @ probe)
    nptest.assert_array_equal(b.grad, probe.sum(axis=0))
    nptest.assert_array_equal(v.grad, (frames.T @ probe).T)


def _mlp_operands(rng, n_rows, n_out):
    x = tensor(rng.standard_normal((n_rows, 4)), requires_grad=True)
    params = [tensor(0.5 * rng.standard_normal(s), requires_grad=True)
              for s in ((4, 5), (5,), (5, n_out), (n_out,))]
    return x, params


@pytest.mark.parametrize("dead", [[], [1, 4], [0, 1, 2, 3, 5]])
def test_mlp_backward_skips_rows_without_output_gradient(dead):
    """With none, some or all but one of the output-gradient rows zero, the
    gradients match the dense formula to 1e-12 and the dead rows of the input
    gradient are exactly 0; with no zero row they equal it bitwise."""
    rng = np.random.default_rng(5)
    x, (w1, b1, w2, b2) = _mlp_operands(rng, 6, 3)
    probe = rng.standard_normal((6, 3))
    probe[dead] = 0.0
    with ad.record() as rec:
        out = ad.mlp(x, w1, b1, w2, b2)
        loss = weighted_sum(out, probe)
    ad.backward(loss)
    # the output gradient is probe; the dense formula runs on every row
    pre = x.data @ w1.data + b1.data
    g_pre = (probe @ w2.data.T) * (pre > 0.0)
    dense = [g_pre @ w1.data.T, x.data.T @ g_pre, g_pre.sum(axis=0),
             np.maximum(pre, 0.0).T @ probe, probe.sum(axis=0)]
    for t, want in zip((x, w1, b1, w2, b2), dense):
        if dead:
            nptest.assert_allclose(t.grad, want, rtol=1e-12, atol=1e-12)
        else:
            nptest.assert_array_equal(t.grad, want)
    assert not x.grad[dead].any()


def test_take_rows_backward_scatter_adds_duplicates():
    x = tensor([[1.0], [2.0], [3.0]], requires_grad=True)
    with ad.record() as rec:
        g = ad.take_rows(x, [0, 0, 2])
        loss = weighted_sum(g)
    ad.backward(loss)
    nptest.assert_array_equal(x.grad, [[2.0], [0.0], [1.0]])


def test_take_rows_out_of_range_is_contract_error():
    with pytest.raises(ContractError):
        ad.take_rows(tensor(np.ones((2, 2))), [0, 2])


# ---------------------------------------------------------------------------
# finite differences: every differentiable op family


FD_TOL = 1e-4


def _away_from_zero(arr, margin=1e-2):
    out = arr.copy()
    small = np.abs(out) < margin
    out[small] = margin * np.where(out[small] >= 0, 1.0, -1.0)
    return out


@settings(max_examples=15, deadline=None)
@given(x=finite_arrays((2, 3)))
def test_fd_sigmoid_sigmoid_chain(x):
    t = tensor(x, requires_grad=True)
    err = ad.finite_diff_check(
        lambda v: weighted_sum(ad.sigmoid(ad.sigmoid(v))), t)
    assert err < FD_TOL


@settings(max_examples=15, deadline=None)
@given(x=finite_arrays((2, 3)))
def test_fd_relu_away_from_kink(x):
    """The mlp's relu: x @ I + 0 is x, kept away from the kink."""
    t = tensor(_away_from_zero(x), requires_grad=True)
    w2 = tensor([[0.5, -1.0], [1.5, 0.25], [-0.75, 0.8]])
    err = ad.finite_diff_check(lambda v: weighted_sum(
        ad.mlp(v, tensor(np.eye(3)), tensor(np.zeros(3)), w2, tensor([0.1, -0.2]))), t)
    assert err < FD_TOL


@settings(max_examples=15, deadline=None)
@given(x=finite_arrays((3, 2)))
def test_fd_matmul_affine(x):
    w = tensor([[0.4, -0.7, 1.1], [0.2, 0.9, -0.3]])
    b = tensor([0.1, -0.2, 0.3])
    t = tensor(x, requires_grad=True)
    err = ad.finite_diff_check(lambda v: weighted_sum(ad.affine(v, w, b)), t)
    assert err < FD_TOL


def test_fd_weights_and_bias_of_affine():
    x = tensor([[0.5, -1.0], [1.5, 0.25], [-0.75, 0.8]])
    w = tensor([[0.4, -0.7], [0.2, 0.9]], requires_grad=True)
    b = tensor([0.1, -0.2], requires_grad=True)
    f = lambda _: weighted_sum(ad.sigmoid(ad.affine(x, w, b)))
    assert ad.finite_diff_check(f, w) < FD_TOL
    assert ad.finite_diff_check(f, b) < FD_TOL


@settings(max_examples=15, deadline=None)
@given(x=finite_arrays((3, 4)))
def test_fd_attention(x):
    rng = np.random.default_rng(5)
    weights = [tensor(0.5 * rng.standard_normal((4, 4))) for _ in range(3)]
    probe = np.linspace(0.5, 1.5, 12)
    err = ad.finite_diff_check(
        lambda v: weighted_sum(ad.attention(v, *weights, 3), probe),
        tensor(x, requires_grad=True))
    assert err < FD_TOL


def test_fd_every_operand_of_a_stacked_attention():
    """The rows of two sequences of 3 attend within each sequence: their
    values are each sequence's own, and the weight gradients sum over both."""
    rng = np.random.default_rng(13)
    x = tensor(rng.standard_normal((6, 4)), requires_grad=True)
    params = [tensor(0.5 * rng.standard_normal((4, 4)), requires_grad=True)
              for _ in range(3)]
    probe = rng.standard_normal((6, 4))

    def f(_):
        return weighted_sum(ad.attention(x, *params, 3), probe)

    for t in (x, *params):
        assert ad.finite_diff_check(f, t) < FD_TOL
    alone = [ad.attention(tensor(x.data[lo:lo + 3]), *params, 3).data for lo in (0, 3)]
    nptest.assert_array_equal(ad.attention(x, *params, 3).data, np.concatenate(alone))
    with ad.record() as rec:
        ad.attention(x, *params, 3)
    assert [node.op for node in rec.nodes if node.op != "leaf"] == ["attention"]


def test_attention_rejects_rows_that_are_not_whole_sequences():
    params = [tensor(np.eye(4)) for _ in range(3)]
    for rows, t in ((7, 3), (6, 4), (6, 0)):
        with pytest.raises(DimensionError, match=f"{rows} rows are not whole sequences"):
            ad.attention(tensor(np.zeros((rows, 4))), *params, t)
    # rows of (B, t, C) stacks only: a 3-d input is refused
    with pytest.raises(DimensionError):
        ad.attention(tensor(np.zeros((2, 3, 4))), *params, 3)


@pytest.mark.parametrize("layer", ["mlp", "attention"])
def test_fd_every_parameter_of_a_layer_op(layer):
    """Every operand of the fused layer ops, with the input grad-requiring too."""
    rng = np.random.default_rng(11)
    x = tensor(rng.standard_normal((3, 4)), requires_grad=True)
    if layer == "mlp":
        shapes = [(4, 5), (5,), (5, 2), (2,)]
    else:
        shapes = [(4, 4)] * 3
    params = [tensor(0.5 * rng.standard_normal(s), requires_grad=True) for s in shapes]
    op = getattr(ad, layer)
    extra = (3,) if layer == "attention" else ()   # one sequence of 3 rows
    if layer == "mlp":
        pre = x.data @ params[0].data + params[1].data
        assert np.abs(pre).min() > 1e-2, "a hidden unit sits on the relu kink"
    probe = rng.standard_normal((3, shapes[-1][-1]))

    def f(_):
        return weighted_sum(op(x, *params, *extra), probe)

    for t in (x, *params):
        assert ad.finite_diff_check(f, t) < FD_TOL


def test_fd_every_mlp_operand_under_segment_max():
    """segment_max sends each column's gradient to one row of the mlp's
    output, so rows 1, 3 and 4 get none and backward skips them."""
    rng = np.random.default_rng(20)
    x, params = _mlp_operands(rng, 6, 2)
    lengths = [4, 2]
    pre = x.data @ params[0].data + params[1].data
    assert np.abs(pre).min() > 1e-2, "a hidden unit sits on the relu kink"
    out = ad.mlp(x, *params).data
    live = set()
    for start, segment in ((0, out[:4]), (4, out[4:])):
        top = np.sort(segment, axis=0)
        assert (top[-1] - top[-2]).min() > 0.1, "a segment's column max is nearly tied"
        live.update(start + segment.argmax(axis=0))
    assert live == {0, 2, 5}
    probe = rng.standard_normal((2, 2))

    def f(_):
        return weighted_sum(ad.segment_max(ad.mlp(x, *params), lengths), probe)

    for t in (x, *params):
        assert ad.finite_diff_check(f, t) < FD_TOL


@settings(max_examples=15, deadline=None)
@given(x=finite_arrays((3, 4)), label=st.integers(min_value=0, max_value=3))
def test_fd_softmax_xent(x, label):
    t = tensor(x, requires_grad=True)
    targets = np.eye(4)[[label, (label + 1) % 4, 0]]
    err = ad.finite_diff_check(lambda v: ad.softmax_xent(v, targets), t)
    assert err < FD_TOL


def _soft_targets(weights, masks):
    """Rows of ``weights`` kept where the bits of ``masks`` are set,
    normalized to sum to 1."""
    keep = (np.asarray(masks)[:, None] >> np.arange(4)) & 1
    targets = weights * keep
    return targets / targets.sum(axis=1, keepdims=True)


@settings(max_examples=15, deadline=None)
@given(x=finite_arrays((3, 4)), weights=finite_arrays((3, 4), lo=0.05, hi=1.0),
       masks=st.lists(st.integers(min_value=1, max_value=15), min_size=3,
                      max_size=3))
def test_fd_softmax_xent_soft_targets(x, weights, masks):
    """Target distributions over one to four positives per row."""
    targets = _soft_targets(weights, masks)
    # every gradient coordinate (p - t) / 3 stays well above the central
    # difference's roundoff, so the check compares gradients, not rounding
    p = np.exp(x - x.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    assume(np.abs(p - targets).min() > 1e-4)
    t = tensor(x, requires_grad=True)
    err = ad.finite_diff_check(lambda v: ad.softmax_xent(v, targets), t)
    assert err < FD_TOL


def test_softmax_xent_gradient_is_zero_where_the_target_is_the_softmax():
    """The draw x = 0, unit weights, masks [1, 1, 15]: the last row's target
    is uniform, as is its softmax, so its gradient is exactly zero."""
    targets = _soft_targets(np.ones((3, 4)), [1, 1, 15])
    t = tensor(np.zeros((3, 4)), requires_grad=True)
    with ad.record() as rec:
        loss = ad.softmax_xent(t, targets)
    ad.backward(loss)
    nptest.assert_array_equal(t.grad[2], np.zeros(4))
    nptest.assert_allclose(t.grad[:2], (0.25 - targets[:2]) / 3, rtol=1e-15)


@settings(max_examples=15, deadline=None)
@given(x=finite_arrays((2, 3)))
def test_fd_bce_logits(x):
    t = tensor(x, requires_grad=True)
    targets = np.asarray([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    err = ad.finite_diff_check(lambda v: ad.bce_logits(v, targets), t)
    assert err < FD_TOL


def test_fd_max_with_comfortable_gaps():
    # each column's maximum leads its runner-up by more than 0.2 after the
    # sigmoid, so the argmax is stable under +-h
    t = tensor([[0.1, 2.0], [1.0, 0.5], [-0.4, -0.3]], requires_grad=True)
    err = ad.finite_diff_check(
        lambda v: weighted_sum(ad.segment_max(ad.sigmoid(v), [3])), t)
    assert err < FD_TOL


def test_fd_reshape_take_scale_rows():
    """Both operands of ``scale_rows`` depend on the probed tensor."""
    t = tensor(np.linspace(-1.0, 1.0, 6), requires_grad=True)

    def f(v):
        m = ad.reshape(v, (3, 2))
        picked = ad.take_rows(m, [0, 2])                        # 2 x 2
        scales = ad.reshape(ad.take_rows(m, [1]), (2,))         # row 1 of m
        col = ad.scale_rows(ad.scale_rows(picked, tensor([0.5, 2.0])), scales)
        return weighted_sum(ad.sigmoid(col))

    assert ad.finite_diff_check(f, t) < FD_TOL


# ---------------------------------------------------------------------------
# rate term


def rate(logits, target):
    """The rate term of the open probabilities of a list of gate logits."""
    return ad.rate_penalty(ad.sigmoid(tensor(np.reshape(logits, (-1, 1)))),
                           target).data.item()


def test_rate_penalty_saturated_oracle():
    # one gate shut, one wide open: a mean open probability of exactly 1/2
    assert rate([-40.0, 40.0], 0.25) == 0.0625


def test_rate_penalty_is_the_squared_gap_of_the_mean_open_probability():
    rng = np.random.default_rng(8)
    alphas = rng.uniform(-3, 3, size=7)
    want = (ad.sigmoid_np(alphas).mean() - 0.3) ** 2
    nptest.assert_allclose(rate(alphas, 0.3), want, rtol=1e-12)
    assert ad.rate_penalty(ad.sigmoid(tensor(alphas.reshape(-1, 1))), 0.3).shape == ()


def test_rate_penalty_is_zero_on_target():
    assert rate([1.0, -1.0], 0.5) == 0.0


def test_rate_penalty_rejects_probabilities_that_are_not_a_column():
    with pytest.raises(DimensionError):
        ad.rate_penalty(tensor([0.5, 0.5]), 0.5)


@settings(max_examples=30, deadline=None)
@given(base=st.floats(min_value=-15, max_value=15), bump=st.floats(min_value=1e-3, max_value=5))
def test_rate_penalty_strictly_increases_in_any_logit_above_target(base, bump):
    # the mean open probability is at least sigmoid(0.5) / 2 > 0.3, above the
    # target; beyond |logit| ~ 15 the sigmoid increment drops under one ulp
    # of the mean, so strictness is only claimed where float64 can express it
    assert rate([base + bump, 0.5], 0.25) > rate([base, 0.5], 0.25)


def test_rate_penalty_fd_gradient():
    alphas = tensor([[0.3], [-1.2], [2.0]], requires_grad=True)
    err = ad.finite_diff_check(lambda a: ad.rate_penalty(ad.sigmoid(a), 0.7), alphas)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# determinism


@settings(max_examples=10, deadline=None)
@given(x=finite_arrays((4, 3)))
def test_forward_is_deterministic(x):
    w = tensor(np.linspace(-1, 1, 9).reshape(3, 3))
    first = ad.attention(tensor(x), w, w, w, 4).data
    second = ad.attention(tensor(x), w, w, w, 4).data
    nptest.assert_array_equal(first, second)


def test_backward_is_deterministic():
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((5, 4))
    grads = []
    for _ in range(2):
        x = tensor(vals, requires_grad=True)
        with ad.record() as rec:
            loss = ad.softmax_xent(ad.sigmoid(x), np.eye(4)[[0, 1, 2, 3, 0]])
        ad.backward(loss)
        grads.append(x.grad.copy())
    nptest.assert_array_equal(grads[0], grads[1])


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_grad_leaves_params_unchanged():
    p = tensor([1.0, -2.0], requires_grad=True)
    opt = ad.Adam([p])
    opt.step()
    nptest.assert_array_equal(p.data, [1.0, -2.0])


def test_adam_first_step_oracle():
    """With g=1 at t=1 bias correction cancels and the step is lr/(1+eps)."""
    p = tensor([1.0], requires_grad=True)
    opt = ad.Adam([p], lr=1e-3, eps=1e-4)
    p.grad[...] = 1.0
    opt.step()
    expected = 1.0 - 1e-3 / (1.0 + 1e-4)
    nptest.assert_allclose(p.data, [expected], rtol=1e-12)
    nptest.assert_array_equal(p.grad, [0.0])  # grads zeroed after the step


def test_adam_steps_equal_the_formula_bitwise():
    """Parameters of different sizes, which share one scratch buffer, each
    follow the formula bitwise."""
    rng = np.random.default_rng(4)
    shapes = [(4,), (3, 5), (2,)]
    ps = [tensor(rng.standard_normal(shape), requires_grad=True) for shape in shapes]
    grads = [p.grad for p in ps]
    want = [p.data.copy() for p in ps]
    m, v = [np.zeros(shape) for shape in shapes], [np.zeros(shape) for shape in shapes]
    opt = ad.Adam(ps, lr=3e-3, eps=1e-4)
    for t in range(1, 6):
        gs = [rng.standard_normal(shape) for shape in shapes]
        for p, g in zip(ps, gs):
            p.grad[...] = g
        opt.step()
        for i, (p, g) in enumerate(zip(ps, gs)):
            m[i] = m[i] * 0.9 + (1.0 - 0.9) * g
            v[i] = v[i] * 0.999 + (1.0 - 0.999) * (g * g)
            want[i] = want[i] - 3e-3 * (m[i] / (1.0 - 0.9 ** t)) / (
                np.sqrt(v[i] / (1.0 - 0.999 ** t)) + 1e-4)
            nptest.assert_array_equal(p.data, want[i])
            assert p.grad is grads[i] and not p.grad.any()


def test_adam_identical_twins_stay_identical():
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(6)
    p1 = tensor(vals, requires_grad=True)
    p2 = tensor(vals, requires_grad=True)
    o1, o2 = ad.Adam([p1]), ad.Adam([p2])
    for step in range(5):
        g = rng.standard_normal(6)
        p1.grad[...] = g
        p2.grad[...] = g
        o1.step()
        o2.step()
        nptest.assert_array_equal(p1.data, p2.data)


def test_adam_rejects_untracked_params():
    with pytest.raises(ContractError):
        ad.Adam([tensor([1.0])])


def test_adam_missing_grad_is_contract_error():
    p = tensor([1.0], requires_grad=True)
    opt = ad.Adam([p])
    p.grad = None
    with pytest.raises(ContractError):
        opt.step()
