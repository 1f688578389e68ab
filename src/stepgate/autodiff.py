"""Reverse-mode automatic differentiation over dense float tensors.

A small tape machine: operations executed inside a :func:`record` context
append nodes to the open :class:`ComputationRecord`, :func:`backward`
replays the tape once in reverse, and gradients accumulate into every
``requires_grad`` tensor that no op of the tape produced (op outputs get
none).  Outside a recording context the same functions run as plain numpy
forward computations, which is the inference fast path.

Deliberate conventions:

* every op runs in the dtype of its operands, float32 or float64: a
  ``Tensor`` keeps either as given, and the targets, noise, constants and
  masks an op builds take its logits' dtype, so no op upcasts a float32
  path.  Models compute in float32, the dtype of the stored frames; the
  gradient suite runs the same ops on float64 weights, where
  finite-difference checks stay tight.  A gradient, and an ``Adam``
  moment, has its parameter's dtype.
* no broadcasting.  ``add`` takes two tensors of the same shape and
  ``scale_rows`` multiplies row i of a matrix by entry i of a vector.
* ``sigmoid`` clamps its exponent argument to ``[-SIGMOID_CLAMP,
  SIGMOID_CLAMP]``; the clamp is part of the function's definition, not an
  implementation detail, so no forward op can overflow on finite input.
* ``segment_max`` routes its gradient to the first maximal row of each
  segment, so backward is deterministic even under ties.

Tape lifetime: the tape holds ops only, and a node keeps its input
tensors.  Only an op's output carries ``node_id``: a weak reference to its
record and its index on the tape, kept when a later record reads it.  The
record holds its tensors strongly, so a tape forms no reference cycle: it
and every intermediate are freed by reference counting as soon as the
record's ``with`` block has ended and the last reference to the record
drops.  Within :func:`backward` an op output's gradient lives until its
backward function has read it, and any other tensor's gradient goes into its
``grad`` at once, so the walk holds only gradients still to be read.

Every op is one that a model path records.  A network layer is one tape
node with a hand-written backward: ``affine`` (``x @ w + b``), ``mlp`` (two
affines around a relu, the body of every :class:`MLP`), ``attention``
(single-head self-attention with its residual add), ``matmul_t`` (``a @
b.T``, the selector's similarity to its concept kernels), ``noisy_gate`` (the
noisy clipped-sigmoid gate) and ``scale_rows`` (the gate scaling of feature
rows).  Each loss term is one tape node too: ``softmax_xent``, ``bce_logits``
and the rate term ``rate_penalty``.  Each backward of a layer or of
``rate_penalty`` evaluates the numpy expressions, in the order, of the chain
of matrix products, transposes, tilings and elementwise products it stands
for, so the fused op's values and gradients equal the chain's bitwise, with
one rule for ``mlp``: its backward leaves out the rows whose output gradient
is all zero (``segment_max`` sends each column's gradient to one row).  With
no such row its gradients equal the chain's bitwise; with one, they match to
rounding, because the products and sums skip exact zero terms and so may add
in another order, and those rows of the input gradient are exactly 0.
Backward computes no gradient product for a constant first operand of
``matmul_t``, ``affine``, ``mlp`` or ``attention`` (such as raw frames).

One record is open per process at a time, in one module-level slot.
"""

from __future__ import annotations

import itertools
import math
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, DomainError

SIGMOID_CLAMP = 40.0
_FLOATS = (np.float32, np.float64)


class Tensor:
    """Dense n-dimensional float value, optionally tracked for gradients.

    ``data`` is a C-contiguous array (row major): float32 or float64 data is
    kept in its dtype, anything else becomes float64.  ``grad`` starts as
    a zero array for tensors constructed with ``requires_grad=True`` and is
    accumulated into by :func:`backward` when no op of the loss's record
    produced the tensor.  ``node_id`` is ``(weak reference to the record,
    tape index)`` for an op's output and ``None`` for any other tensor.
    """

    __slots__ = ("data", "requires_grad", "grad", "node_id")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        if data.dtype not in _FLOATS:
            data = data.astype(np.float64)
        self.data = np.ascontiguousarray(data)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self.node_id = None

    @classmethod
    def _from_op(cls, data, requires_grad: bool) -> "Tensor":
        out = cls.__new__(cls)
        out.data = np.asarray(data)
        out.requires_grad = requires_grad
        out.grad = None
        out.node_id = None
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def numel(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        """Zero ``grad`` in place; a leaf gets its array when it is built."""
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("op", "inputs", "ctx", "tensor")

    def __init__(self, op: str, inputs: tuple[Tensor, ...], ctx, tensor: Tensor):
        self.op = op
        self.inputs = inputs
        self.ctx = ctx
        self.tensor = tensor


class ComputationRecord:
    """Append-only operation tape; insertion order is a topological order.

    Tensors refer back to the record only through ``_ref``, a weak reference,
    so the tape is freed by reference counting once the record is dropped.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._ref = weakref.ref(self)

    def add(self, op: str, inputs: tuple[Tensor, ...], ctx, out: Tensor) -> None:
        out.node_id = (self._ref, len(self.nodes))
        self.nodes.append(_Node(op, inputs, ctx, out))


# the open record, if any
_open: ComputationRecord | None = None


@contextmanager
def record():
    """Context manager opening a fresh computation record.

    Records do not nest; open one record per forward pass.
    """
    global _open
    if _open is not None:
        raise ContractError("computation records do not nest")
    _open = ComputationRecord()
    try:
        yield _open
    finally:
        _open = None


def _emit(op: str, out_data: np.ndarray, inputs: tuple[Tensor, ...], ctx=None) -> Tensor:
    req = any(t.requires_grad for t in inputs)
    out = Tensor._from_op(out_data, req)
    if _open is not None and req:
        _open.add(op, inputs, ctx, out)
    return out


# ---------------------------------------------------------------------------
# forward operations


def matmul_t(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b.T`` for 2-d ``a`` (N, C) and ``b`` (M, C): every row of ``a``
    against every row of ``b``; one tape node."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DimensionError(f"matmul_t got incompatible shapes {a.shape} and {b.shape}")
    return _emit("matmul_t", a.data @ b.data.T, (a, b), a.requires_grad)


def add(a: Tensor, b: Tensor) -> Tensor:
    if not isinstance(a, Tensor) or not isinstance(b, Tensor):
        raise ContractError("add takes two Tensors")
    if b.shape != a.shape:
        raise DimensionError(f"add got incompatible shapes {a.shape} and {b.shape}")
    return _emit("add", a.data + b.data, (a, b))


def scale_rows(x: Tensor, v: Tensor) -> Tensor:
    """Row i of 2-d ``x`` times entry i of 1-d ``v``, ``x * v[:, None]``; one
    tape node."""
    if x.data.ndim != 2 or v.data.ndim != 1 or v.shape[0] != x.shape[0]:
        raise DimensionError(f"scale_rows got rows {x.shape} and scales {v.shape}")
    return _emit("scale_rows", x.data * v.data[:, None], (x, v))


def sigmoid_np(z):
    """Plain numpy sigmoid with the exponent clamp; ``sigmoid``'s forward."""
    zc = np.clip(z, -SIGMOID_CLAMP, SIGMOID_CLAMP)
    return 1.0 / (1.0 + np.exp(-zc))


def sigmoid(z: Tensor) -> Tensor:
    return _emit("sigmoid", sigmoid_np(z.data), (z,))


def segment_max(x: Tensor, lengths: Sequence[int]) -> Tensor:
    """Column-wise max over consecutive row segments of a 2-d tensor: row b
    of the result pools the ``lengths[b]`` rows after the previous segments."""
    if x.data.ndim != 2:
        raise DimensionError(f"segment_max expects a 2-d tensor, got shape {x.shape}")
    n = [int(k) for k in lengths]
    if not n or min(n) < 1:
        raise ContractError("segment_max needs a non-empty list of positive segment lengths")
    if sum(n) != x.shape[0]:
        raise DimensionError(f"segment lengths sum to {sum(n)}, "
                             f"but the tensor has {x.shape[0]} rows")
    starts = list(itertools.accumulate(n[:-1], initial=0))
    return _emit("segment_max", np.maximum.reduceat(x.data, starts, axis=0), (x,),
                 (starts, n))


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Tensors end to end along their first axis; the other axes must agree."""
    if not parts:
        raise ContractError("concat_rows needs at least one tensor")
    tail = parts[0].shape[1:]
    if parts[0].data.ndim < 1 or any(p.shape[1:] != tail for p in parts):
        raise DimensionError(f"concat_rows got incompatible shapes "
                             f"{[p.shape for p in parts]}")
    splits = np.cumsum([p.shape[0] for p in parts[:-1]], dtype=np.int64)
    return _emit("concat_rows", np.concatenate([p.data for p in parts]),
                 tuple(parts), splits)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.data.size:
        raise DimensionError(f"cannot reshape {x.shape} ({x.data.size} elements) to {shape}")
    return _emit("reshape", np.ascontiguousarray(x.data).reshape(shape), (x,), x.shape)


def take_rows(x: Tensor, indices: Sequence[int]) -> Tensor:
    """Gather rows of a tensor by index; backward scatter-adds."""
    if x.data.ndim < 1:
        raise DimensionError(f"take_rows expects at least 1-d input, got shape {x.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise ContractError("take_rows needs a non-empty 1-d index list")
    if idx.min() < 0 or idx.max() >= x.shape[0]:
        raise ContractError(
            f"take_rows index out of range: indices span [{idx.min()}, {idx.max()}] "
            f"but the tensor has {x.shape[0]} rows"
        )
    return _emit("take_rows", x.data[idx], (x,), idx)


def _target_rows(targets, b: int, l: int, dtype) -> np.ndarray:
    """(B, L) target distributions, non-negative rows that sum to 1, checked
    in float64 and returned in ``dtype``."""
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != (b, l):
        raise DimensionError(f"target distributions shape {t.shape} does not match "
                             f"logits shape {(b, l)}")
    # the negated comparisons also reject NaN entries
    if not (t >= 0.0).all():
        raise DomainError("target distributions must be non-negative")
    if not (np.abs(t.sum(axis=1) - 1.0) <= 1e-9).all():
        raise DomainError("every target distribution must sum to 1")
    return t.astype(dtype, copy=False)


def softmax_xent(logits: Tensor, targets) -> Tensor:
    """Mean over rows of the cross-entropy of row-wise softmax against a
    (B, L) array of target distributions, ``-sum_j t_ij log p_ij``; a one-hot
    row makes a row's loss its label's negative log-probability.

    Stabilized with a max shift; backward is ``(softmax - targets) / B``.
    """
    if logits.data.ndim != 2:
        raise DimensionError(f"softmax_xent expects B x L logits, got shape {logits.shape}")
    b, l = logits.shape
    z = logits.data
    t = _target_rows(targets, b, l, z.dtype)
    m = z.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=1, keepdims=True))
    loss = float(((lse - z) * t).sum(axis=1).mean())
    p = np.exp(z - lse)
    return _emit("softmax_xent", np.array(loss, dtype=z.dtype), (logits,), (t, p))


def bce_logits(logits: Tensor, targets) -> Tensor:
    """Mean binary cross-entropy over all entries, computed from logits."""
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != tuple(logits.shape):
        raise DimensionError(f"targets shape {t.shape} does not match logits shape {logits.shape}")
    if not np.isin(t, (0.0, 1.0)).all():
        raise DomainError("bce_logits targets must be exactly 0 or 1")
    z = logits.data
    t = t.astype(z.dtype, copy=False)
    loss = float((np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))).mean())
    return _emit("bce_logits", np.array(loss, dtype=z.dtype), (logits,), t)


def rate_penalty(p_open: Tensor, target: float) -> Tensor:
    """The rate term of ConvNet-AIG (Veit & Belongie, arXiv:1711.11503): the
    scalar ``(mean(p_open) - target)**2`` of a non-empty (N, 1) column of open
    probabilities, its gap squared as the (1, 1) product ``gap @ gap.T``."""
    if p_open.data.ndim != 2 or p_open.shape[1] != 1 or p_open.shape[0] == 0:
        raise DimensionError(f"rate_penalty expects a non-empty (N, 1) column, "
                             f"got {p_open.shape}")
    p = p_open.data
    gap = p.mean(axis=0).reshape(1, 1) + np.full((1, 1), -float(target), dtype=p.dtype)
    return _emit("rate_penalty", (gap @ gap.T).reshape(()), (p_open,), gap)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` for 2-d ``x`` and ``w`` and a 1-d bias added to every row;
    one tape node."""
    if (x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1
            or x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]):
        raise DimensionError(
            f"affine got incompatible shapes {x.shape} @ {w.shape} + {b.shape}")
    return _emit("affine", x.data @ w.data + b.data, (x, w, b), x.requires_grad)


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``relu(x @ w1 + b1) @ w2 + b2`` over the rows of 2-d ``x``; one tape
    node."""
    if (x.data.ndim != 2 or w1.data.ndim != 2 or b1.data.ndim != 1
            or w2.data.ndim != 2 or b2.data.ndim != 1
            or x.shape[1] != w1.shape[0] or w1.shape[1] != b1.shape[0]
            or b1.shape[0] != w2.shape[0] or w2.shape[1] != b2.shape[0]):
        raise DimensionError(
            f"mlp got incompatible shapes {x.shape} @ {w1.shape} + {b1.shape} "
            f"then @ {w2.shape} + {b2.shape}")
    hidden = x.data @ w1.data
    hidden += b1.data
    np.maximum(hidden, 0.0, out=hidden)
    out = hidden @ w2.data
    out += b2.data
    # backward needs only the relu output: hidden > 0 exactly where pre > 0
    return _emit("mlp", out, (x, w1, b1, w2, b2), (x.requires_grad, hidden))


def attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, t: int) -> Tensor:
    """Single-head self-attention with a residual add over (B*t, C) rows
    ``x``, B sequences of ``t`` rows each, and (C, C) projections: each
    sequence attends within itself, ``x + softmax((x wq)(x wk)^T / sqrt(C))
    (x wv)``, the softmax row-wise and stabilized by a max shift; one tape
    node.

    The projections run as single (B*t, C) products; the scores and the mix
    run on (B, t, ...) views, so no reshape reaches the tape.
    """
    if x.data.ndim != 2 or any(w.shape != (x.shape[1], x.shape[1]) for w in (wq, wk, wv)):
        raise DimensionError(
            f"attention got features {x.shape} and projections "
            f"{wq.shape}, {wk.shape}, {wv.shape}")
    if t < 1 or x.shape[0] % t:
        raise DimensionError(f"{x.shape[0]} rows are not whole sequences of {t}")
    d = x.data
    q, k, v = ((d @ w.data).reshape(-1, t, d.shape[1]) for w in (wq, wk, wv))
    c = 1.0 / math.sqrt(d.shape[1])
    # the softmax runs in place on the score array, which becomes p
    p = q @ k.swapaxes(-1, -2)
    p *= c
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = (p @ v).reshape(d.shape)
    out += d
    return _emit("attention", out, (x, wq, wk, wv), (x.requires_grad, q, k, v, p, c))


def noisy_gate(logits: Tensor, noise) -> Tensor:
    """Flat gate values ``sigmoid(z) * 1[z > 0]`` for ``z = logits + noise``;
    one tape node.

    The indicator is constant for backward, so gradient reaches ``logits``
    through open entries only.
    """
    noise = np.asarray(noise, dtype=logits.data.dtype)
    if noise.shape != tuple(logits.shape):
        raise DimensionError(f"noise shape {noise.shape} does not match logits {logits.shape}")
    z = logits.data + noise
    y = sigmoid_np(z)
    keep = (z > 0.0).astype(z.dtype)
    return _emit("noisy_gate", (y * keep).reshape(-1), (logits,), (y, keep))


@dataclass
class MLP:
    """Two-layer perceptron ``relu(x @ w1 + b1) @ w2 + b2`` over the rows of x."""

    w1: Tensor  # n_in x hidden
    b1: Tensor  # hidden
    w2: Tensor  # hidden x n_out
    b2: Tensor  # n_out

    @classmethod
    def init(cls, n_in: int, hidden: int, n_out: int, rng: np.random.Generator,
             out_bias: float = 0.0) -> "MLP":
        """Normal weights at scale 1/sqrt(fan-in), drawn ``w1`` then ``w2``;
        ``b1`` is zero and every entry of ``b2`` is ``out_bias``."""
        if min(n_in, hidden, n_out) < 1:
            raise DomainError(f"MLP needs positive sizes, got {n_in} -> {hidden} -> {n_out}")
        s1, s2 = 1.0 / math.sqrt(n_in), 1.0 / math.sqrt(hidden)
        return cls(
            w1=Tensor(s1 * rng.standard_normal((n_in, hidden)), requires_grad=True),
            b1=Tensor(np.zeros(hidden), requires_grad=True),
            w2=Tensor(s2 * rng.standard_normal((hidden, n_out)), requires_grad=True),
            b2=Tensor(np.full(n_out, float(out_bias)), requires_grad=True),
        )

    def __call__(self, x: Tensor) -> Tensor:
        return mlp(x, self.w1, self.b1, self.w2, self.b2)

    @property
    def n_in(self) -> int:
        return self.w1.shape[0]


# ---------------------------------------------------------------------------
# backward


def _bwd_matmul_t(node, g, data):
    a, b = data
    # node.ctx: whether the first operand needs a gradient at all
    return (g @ b if node.ctx else None, (a.T @ g).T)


def _bwd_affine(node, g, data):
    x, w, _ = data
    return (g @ w.T if node.ctx else None, x.T @ g, g.sum(axis=0))


def _bwd_mlp(node, g, data):
    x, w1, _, w2, _ = data
    x_grad, hidden = node.ctx
    # a row whose output gradient is all zero (segment_max sends each
    # column's gradient to one row) adds nothing: backpropagate the others
    live = g.any(axis=1)
    rows = None if live.all() else np.flatnonzero(live)
    if rows is not None:
        g, x, hidden = g[rows], x[rows], hidden[rows]
    g_pre = g @ w2.T
    g_pre *= hidden > 0.0
    gx = g_pre @ w1.T if x_grad else None
    if gx is not None and rows is not None:
        full = np.zeros_like(data[0])
        full[rows] = gx
        gx = full
    return (gx, x.T @ g_pre, g_pre.sum(axis=0), hidden.T @ g, g.sum(axis=0))


def _bwd_attention(node, g, data):
    x, wq, wk, wv = data
    x_grad, q, k, v, p, c = node.ctx
    g = g.reshape(q.shape)
    g_p = g @ v.swapaxes(-1, -2)
    g_v = p.swapaxes(-1, -2) @ g
    g_s = p * (g_p - (g_p * p).sum(axis=-1, keepdims=True)) * c
    g_q = g_s @ k
    g_k = (q.swapaxes(-1, -2) @ g_s).swapaxes(-1, -2)
    # the weight gradients sum over all B*t rows
    g, g_q, g_k, g_v = (a.reshape(x.shape) for a in (g, g_q, g_k, g_v))
    gx = ((g + g_v @ wv.T) + g_k @ wk.T) + g_q @ wq.T if x_grad else None
    return (gx, x.T @ g_q, x.T @ g_k, x.T @ g_v)


def _bwd_noisy_gate(node, g, data):
    y, keep = node.ctx
    return (g.reshape(y.shape) * keep * y * (1.0 - y),)


def _bwd_add(node, g, data):
    return (g, g)


def _bwd_scale_rows(node, g, data):
    x, v = data
    return (g * v[:, None], (g * x).sum(axis=1))


def _bwd_sigmoid(node, g, data):
    y = node.tensor.data
    return (g * y * (1.0 - y),)


def _bwd_segment_max(node, g, data):
    x = data[0]
    starts, n = node.ctx
    # the first row of each segment that holds the segment's max, per column
    hit = x == np.repeat(node.tensor.data, n, axis=0)
    rows = np.where(hit, np.arange(x.shape[0])[:, None], x.shape[0])
    gx = np.zeros_like(x)
    np.put_along_axis(gx, np.minimum.reduceat(rows, starts, axis=0), g, axis=0)
    return (gx,)


def _bwd_concat_rows(node, g, data):
    return tuple(np.split(g, node.ctx))


def _bwd_reshape(node, g, data):
    return (np.ascontiguousarray(g).reshape(node.ctx),)


def _bwd_take_rows(node, g, data):
    gx = np.zeros_like(data[0])
    np.add.at(gx, node.ctx, g)
    return (gx,)


def _bwd_softmax_xent(node, g, data):
    t, p = node.ctx
    return ((p - t) * (float(g.reshape(())) / t.shape[0]),)


def _bwd_bce(node, g, data):
    t = node.ctx
    z = data[0]
    return ((sigmoid_np(z) - t) * (float(g.reshape(())) / t.size),)


def _bwd_rate_penalty(node, g, data):
    gap = node.ctx
    g = g.reshape(1, 1)
    g_gap = g @ gap + (gap.T @ g).T
    return (np.broadcast_to(g_gap, data[0].shape) / data[0].shape[0],)


_BACKWARD: dict[str, Callable] = {
    "matmul_t": _bwd_matmul_t,
    "affine": _bwd_affine,
    "add": _bwd_add,
    "scale_rows": _bwd_scale_rows,
    "sigmoid": _bwd_sigmoid,
    "segment_max": _bwd_segment_max,
    "concat_rows": _bwd_concat_rows,
    "reshape": _bwd_reshape,
    "take_rows": _bwd_take_rows,
    "softmax_xent": _bwd_softmax_xent,
    "bce_logits": _bwd_bce,
    "rate_penalty": _bwd_rate_penalty,
    "mlp": _bwd_mlp,
    "attention": _bwd_attention,
    "noisy_gate": _bwd_noisy_gate,
}


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into every reachable ``requires_grad``
    tensor that no op of the record of ``loss`` produced.

    Each contribution is added into the leaf's ``grad`` as the walk reaches
    it; an input with no ``grad``, such as an op output of another record,
    raises ``ContractError``.  From a zero ``grad``, as after ``zero_grad``
    or an ``Adam`` step, that gives the sum of the contributions in the
    order the walk finds them.  Repeated calls without an intervening
    ``zero_grad`` keep adding, one contribution at a time: a second call
    onto G adds ``(G + g1) + g2``, not ``G + (g1 + g2)``.  Op outputs of the
    record and the loss keep ``grad is None``.  The walk drops each node's
    gradient as soon as it has passed it on to the node's inputs, so only
    gradients still waiting to be read are alive.
    """
    nid = loss.node_id
    rec = None if nid is None else nid[0]()
    if rec is None:
        raise ContractError("loss tensor belongs to no live computation record")
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")

    ref, nodes = nid[0], rec.nodes
    grads: list[np.ndarray | None] = [None] * len(nodes)
    grads[nid[1]] = np.ones_like(loss.data)

    for idx in range(nid[1], -1, -1):
        g = grads[idx]
        if g is None:
            continue
        # no later node reads this gradient: drop it once it is passed on
        grads[idx] = None
        node = nodes[idx]
        input_grads = _BACKWARD[node.op](node, g, tuple(t.data for t in node.inputs))
        for t, gi in zip(node.inputs, input_grads):
            if gi is None or not t.requires_grad:
                continue
            tid = t.node_id
            if tid is None or tid[0] is not ref:
                if t.grad is None:
                    raise ContractError(
                        f"input {node.inputs.index(t)} of a {node.op} op requires grad but "
                        f"has no grad array; an op output of another record is no leaf")
                t.grad += gi
                continue
            # a first contribution may be an array a backward function shares,
            # so each later one is added into a new array, never into it
            pos = tid[1]
            acc = grads[pos]
            grads[pos] = gi if acc is None else acc + gi


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Adam with bias correction; gradients are zeroed after each step.
    Each moment has its parameter's dtype.

    The update is ``p -= lr * m_hat / (sqrt(v_hat) + eps)`` with the epsilon
    outside the square root, and the moment decay rates are 0.9 and 0.999.
    """

    beta1, beta2 = 0.9, 0.999

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3, eps: float = 1e-4):
        self.params = list(params)
        for p in self.params:
            if not isinstance(p, Tensor) or not p.requires_grad:
                raise ContractError("Adam can only optimize requires_grad tensors")
        self.lr = float(lr)
        self.eps = float(eps)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        # one buffer the size of the largest parameter, in the parameters'
        # common dtype; each parameter's scratch is a view of its first
        # p.size entries
        buf = np.empty(max((p.data.size for p in self.params), default=0),
                       dtype=np.result_type(np.float32, *(p.data.dtype for p in self.params)))
        self._scratch = [buf[:p.data.size].reshape(p.shape) for p in self.params]

    def step(self) -> None:
        """One update, in place: the scratch array and the spent gradient
        hold the temporaries, in the operation order of the formula."""
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, m, v, s in zip(self.params, self.m, self.v, self._scratch):
            g = p.grad
            if g is None:
                raise ContractError("Adam.step() found a parameter with no gradient")
            m *= self.beta1
            np.multiply(1.0 - self.beta1, g, out=s)
            m += s
            v *= self.beta2
            np.multiply(g, g, out=s)
            s *= 1.0 - self.beta2
            v += s
            # s = sqrt(v / bc2) + eps, then g = lr * (m / bc1) / s
            np.divide(v, bc2, out=s)
            np.sqrt(s, out=s)
            s += self.eps
            np.divide(m, bc1, out=g)
            g *= self.lr
            g /= s
            p.data -= g
            g.fill(0.0)


# ---------------------------------------------------------------------------
# gradient checking


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor) -> float:
    """Max relative error between the analytic gradient of ``f`` at ``x`` and
    central finite differences of step ``h = 1e-5``.

    ``f`` must build a scalar from ``x`` using operations of this module, in
    float64, where a step of ``h`` resolves the gradient, and be twice
    differentiable in a neighbourhood of ``x`` (callers keep inputs
    away from clip and threshold boundaries).  The relative error denominator
    is ``max(|analytic|, |numeric|, 1e4 * r)`` per coordinate, where ``r =
    eps * (|f(x+h)| + |f(x-h)|) / (2h)`` is the rounding error of the central
    difference itself: a gap no wider than the difference can resolve reads
    at most 1e-4, the tolerance every caller checks against.
    """
    if not x.requires_grad:
        raise ContractError("finite_diff_check needs a requires_grad input tensor")
    x.zero_grad()
    with record():
        y = f(x)
        if y.data.size != 1:
            raise ContractError(f"finite_diff_check needs a scalar-valued f, got shape {y.shape}")
        backward(y)
    analytic = x.grad.copy().ravel()
    x.zero_grad()

    h = 1e-5
    flat = x.data.ravel()
    numeric = np.empty_like(analytic)
    rounding = np.empty_like(analytic)
    eps = np.finfo(np.float64).eps
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(x).data.reshape(()))
        flat[i] = orig - h
        fm = float(f(x).data.reshape(()))
        flat[i] = orig
        numeric[i] = (fp - fm) / (2.0 * h)
        rounding[i] = eps * (abs(fp) + abs(fm)) / (2.0 * h)

    # tiny keeps 0 / 0 at 0 where f and both gradients vanish
    floor = 1e4 * rounding + np.finfo(np.float64).tiny
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom)) if flat.size else 0.0
