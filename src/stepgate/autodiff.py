"""Reverse-mode automatic differentiation over dense float64 tensors.

A small tape machine: operations executed inside a :func:`record` context
append nodes to the active :class:`ComputationRecord`, :func:`backward`
replays the tape once in reverse, and gradients accumulate into every tensor
flagged ``requires_grad``.  Outside a recording context the same functions run
as plain numpy forward computations, which is the inference fast path.

Deliberate conventions:

* float64 everywhere; desk-scale problems make precision cheap and keep
  finite-difference checks tight.
* no general broadcasting.  Elementwise operands must match shapes exactly,
  except that the second operand may be a python scalar or a one-element
  tensor (scalar broadcast only).
* ``sigmoid`` clamps its exponent argument to ``[-SIGMOID_CLAMP,
  SIGMOID_CLAMP]``; the clamp is part of the function's definition, not an
  implementation detail, so no forward op can overflow on finite input.
* the max reduction routes its gradient to the first maximal index of each
  reduced slice, so backward is deterministic even under ties.

The active record is thread-local: independent records on different threads
do not interact, but a single record must only ever be used from one thread.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, DomainError

SIGMOID_CLAMP = 40.0

_Scalar = (int, float, np.integer, np.floating)


class Tensor:
    """Dense n-dimensional float64 value, optionally tracked for gradients.

    ``data`` is a C-contiguous float64 array (row major).  ``grad`` starts as
    a zero array for tensors constructed with ``requires_grad=True`` and is
    accumulated into by :func:`backward`; for derived tensors it stays
    ``None`` until a backward pass reaches them.  ``node_id`` identifies the
    tensor inside the record that first consumed or produced it.
    """

    __slots__ = ("data", "requires_grad", "grad", "node_id")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self.node_id = None

    @classmethod
    def _from_op(cls, data, requires_grad: bool) -> "Tensor":
        out = cls.__new__(cls)
        out.data = np.asarray(data, dtype=np.float64)
        out.requires_grad = requires_grad
        out.grad = None
        out.node_id = None
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def numel(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a one-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0
        elif self.requires_grad:
            self.grad = np.zeros_like(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("op", "inputs", "ctx", "tensor")

    def __init__(self, op: str, inputs: tuple[int, ...], ctx, tensor: Tensor):
        self.op = op
        self.inputs = inputs
        self.ctx = ctx
        self.tensor = tensor


class ComputationRecord:
    """Append-only operation tape; insertion order is a topological order."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def _bind(self, t: Tensor) -> int:
        nid = t.node_id
        if isinstance(nid, tuple) and nid[0] is self:
            return nid[1]
        idx = len(self.nodes)
        self.nodes.append(_Node("leaf", (), None, t))
        t.node_id = (self, idx)
        return idx

    def add(self, op: str, inputs: Sequence[Tensor], ctx, out: Tensor) -> None:
        idxs = tuple(self._bind(t) for t in inputs)
        idx = len(self.nodes)
        self.nodes.append(_Node(op, idxs, ctx, out))
        out.node_id = (self, idx)


_state = threading.local()


def active_record() -> ComputationRecord | None:
    return getattr(_state, "record", None)


@contextmanager
def record():
    """Context manager opening a fresh computation record.

    Records do not nest; open one record per forward pass.
    """
    if active_record() is not None:
        raise ContractError("computation records do not nest")
    rec = ComputationRecord()
    _state.record = rec
    try:
        yield rec
    finally:
        _state.record = None


def _emit(op: str, out_data: np.ndarray, inputs: tuple[Tensor, ...], ctx=None) -> Tensor:
    req = any(t.requires_grad for t in inputs)
    out = Tensor._from_op(out_data, req)
    rec = active_record()
    if rec is not None and req:
        rec.add(op, inputs, ctx, out)
    return out


# ---------------------------------------------------------------------------
# forward operations


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul got incompatible shapes {a.shape} and {b.shape}")
    return _emit("matmul", a.data @ b.data, (a, b))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError(f"transpose expects a 2-d tensor, got shape {a.shape}")
    return _emit("transpose", a.data.T, (a,))


def _ewise(op: str, a: Tensor, b) -> Tensor:
    if not isinstance(a, Tensor):
        raise ContractError("first elementwise operand must be a Tensor")
    forward = {"add": np.add, "sub": np.subtract, "mul": np.multiply}[op]
    if isinstance(b, Tensor):
        if b.shape == a.shape:
            return _emit(op, forward(a.data, b.data), (a, b), "dense")
        if b.data.size == 1:
            return _emit(op, forward(a.data, b.data.reshape(())), (a, b), "scalar_tensor")
        raise DimensionError(
            f"{op} got incompatible shapes {a.shape} and {b.shape} (only scalar broadcast is allowed)"
        )
    if isinstance(b, _Scalar):
        return _emit(op, forward(a.data, float(b)), (a,), ("scalar", float(b)))
    raise ContractError(f"{op} got unsupported operand type {type(b).__name__}")


def add(a: Tensor, b) -> Tensor:
    return _ewise("add", a, b)


def sub(a: Tensor, b) -> Tensor:
    return _ewise("sub", a, b)


def mul(a: Tensor, b) -> Tensor:
    return _ewise("mul", a, b)


def scale(a: Tensor, c) -> Tensor:
    """Multiply by a python scalar (no gradient flows to ``c``)."""
    if not isinstance(c, _Scalar):
        raise ContractError("scale() takes a python scalar; use mul() for tensors")
    return _ewise("mul", a, float(c))


def sigmoid(z: Tensor) -> Tensor:
    zc = np.clip(z.data, -SIGMOID_CLAMP, SIGMOID_CLAMP)
    return _emit("sigmoid", 1.0 / (1.0 + np.exp(-zc)), (z,))


def relu(z: Tensor) -> Tensor:
    return _emit("relu", np.maximum(z.data, 0.0), (z,))


def tanh(z: Tensor) -> Tensor:
    return _emit("tanh", np.tanh(z.data), (z,))


def _check_axis(x: Tensor, axis: int) -> int:
    if not isinstance(axis, (int, np.integer)):
        raise ContractError(f"axis must be an integer, got {axis!r}")
    nd = x.data.ndim
    if not (-nd <= axis < nd):
        raise DimensionError(f"axis {axis} out of range for shape {x.shape}")
    axis = int(axis) % nd
    if x.data.shape[axis] == 0:
        raise DomainError(f"cannot reduce over empty axis {axis} of shape {x.shape}")
    return axis


def reduce_sum(x: Tensor, axis: int) -> Tensor:
    axis = _check_axis(x, axis)
    return _emit("sum", x.data.sum(axis=axis), (x,), axis)


def reduce_mean(x: Tensor, axis: int) -> Tensor:
    axis = _check_axis(x, axis)
    return _emit("mean", x.data.mean(axis=axis), (x,), axis)


def reduce_max(x: Tensor, axis: int) -> Tensor:
    axis = _check_axis(x, axis)
    # np.argmax returns the first maximal index, fixing the tie-break rule.
    return _emit("max", x.data.max(axis=axis), (x,), (axis, np.argmax(x.data, axis=axis)))


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.data.size:
        raise DimensionError(f"cannot reshape {x.shape} ({x.data.size} elements) to {shape}")
    return _emit("reshape", np.ascontiguousarray(x.data).reshape(shape), (x,), x.shape)


def tile_rows(v: Tensor, n: int) -> Tensor:
    """Repeat a 1-d tensor as ``n`` identical rows (explicit bias broadcast)."""
    if v.data.ndim != 1:
        raise DimensionError(f"tile_rows expects a 1-d tensor, got shape {v.shape}")
    if n < 1:
        raise DomainError(f"tile_rows needs n >= 1, got {n}")
    return _emit("tile_rows", np.broadcast_to(v.data, (int(n), v.shape[0])), (v,))


def tile_cols(v: Tensor, k: int) -> Tensor:
    """Repeat a 1-d tensor as ``k`` identical columns."""
    if v.data.ndim != 1:
        raise DimensionError(f"tile_cols expects a 1-d tensor, got shape {v.shape}")
    if k < 1:
        raise DomainError(f"tile_cols needs k >= 1, got {k}")
    return _emit("tile_cols", np.broadcast_to(v.data[:, None], (v.shape[0], int(k))), (v,))


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


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of a 2-d tensor, stabilized by a max shift."""
    if x.data.ndim != 2:
        raise DimensionError(f"softmax_rows expects a 2-d tensor, got shape {x.shape}")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    return _emit("softmax", e / e.sum(axis=1, keepdims=True), (x,))


def softmax_xent(logits: Tensor, labels: Sequence[int]) -> Tensor:
    """Mean cross-entropy of row-wise softmax against integer labels.

    Stabilized with a max shift; backward is ``(softmax - onehot) / B``.
    """
    if logits.data.ndim != 2:
        raise DimensionError(f"softmax_xent expects B x L logits, got shape {logits.shape}")
    b, l = logits.shape
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (b,):
        raise DimensionError(f"labels shape {y.shape} does not match batch of {b} logits rows")
    if y.size and (y.min() < 0 or y.max() >= l):
        raise DomainError(f"labels must lie in [0, {l}), got range [{y.min()}, {y.max()}]")
    z = logits.data
    m = z.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=1, keepdims=True))
    loss = float((lse.ravel() - z[np.arange(b), y]).mean())
    p = np.exp(z - lse)
    return _emit("softmax_xent", np.array(loss, dtype=np.float64), (logits,), (y, p))


def bce_logits(logits: Tensor, targets) -> Tensor:
    """Mean binary cross-entropy over all entries, computed from logits."""
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != tuple(logits.shape):
        raise DimensionError(f"targets shape {t.shape} does not match logits shape {logits.shape}")
    if not np.isin(t, (0.0, 1.0)).all():
        raise DomainError("bce_logits targets must be exactly 0 or 1")
    z = logits.data
    loss = float((np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))).mean())
    return _emit("bce_logits", np.array(loss, dtype=np.float64), (logits,), t)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` with the bias explicitly tiled across rows."""
    out = matmul(x, w)
    return add(out, tile_rows(b, out.shape[0]))


# ---------------------------------------------------------------------------
# backward


def _sigmoid_np(z: np.ndarray) -> np.ndarray:
    zc = np.clip(z, -SIGMOID_CLAMP, SIGMOID_CLAMP)
    return 1.0 / (1.0 + np.exp(-zc))


def _bwd_matmul(node, g, data):
    a, b = data
    return ((g @ b.T), (a.T @ g))


def _bwd_transpose(node, g, data):
    return (g.T,)


def _bwd_add(node, g, data):
    if node.ctx == "scalar_tensor":
        return (g, np.array(g.sum(), dtype=np.float64).reshape(data[1].shape))
    if isinstance(node.ctx, tuple):  # python scalar second operand
        return (g,)
    return (g, g)


def _bwd_sub(node, g, data):
    if node.ctx == "scalar_tensor":
        return (g, np.array(-g.sum(), dtype=np.float64).reshape(data[1].shape))
    if isinstance(node.ctx, tuple):
        return (g,)
    return (g, -g)


def _bwd_mul(node, g, data):
    if node.ctx == "scalar_tensor":
        a, b = data
        return (g * b.reshape(()), np.array((g * a).sum(), dtype=np.float64).reshape(b.shape))
    if isinstance(node.ctx, tuple):
        return (g * node.ctx[1],)
    a, b = data
    return (g * b, g * a)


def _bwd_sigmoid(node, g, data):
    y = node.tensor.data
    return (g * y * (1.0 - y),)


def _bwd_relu(node, g, data):
    return (g * (data[0] > 0.0),)


def _bwd_tanh(node, g, data):
    y = node.tensor.data
    return (g * (1.0 - y * y),)


def _bwd_sum(node, g, data):
    axis = node.ctx
    return (np.broadcast_to(np.expand_dims(g, axis), data[0].shape),)


def _bwd_mean(node, g, data):
    axis = node.ctx
    n = data[0].shape[axis]
    return (np.broadcast_to(np.expand_dims(g, axis), data[0].shape) / n,)


def _bwd_max(node, g, data):
    axis, am = node.ctx
    gx = np.zeros_like(data[0])
    np.put_along_axis(gx, np.expand_dims(am, axis), np.expand_dims(g, axis), axis)
    return (gx,)


def _bwd_reshape(node, g, data):
    return (np.ascontiguousarray(g).reshape(node.ctx),)


def _bwd_tile_rows(node, g, data):
    return (g.sum(axis=0),)


def _bwd_tile_cols(node, g, data):
    return (g.sum(axis=1),)


def _bwd_take_rows(node, g, data):
    gx = np.zeros_like(data[0])
    np.add.at(gx, node.ctx, g)
    return (gx,)


def _bwd_softmax(node, g, data):
    y = node.tensor.data
    return (y * (g - (g * y).sum(axis=1, keepdims=True)),)


def _bwd_softmax_xent(node, g, data):
    y, p = node.ctx
    gl = p.copy()
    gl[np.arange(y.size), y] -= 1.0
    return (gl * (float(g.reshape(())) / y.size),)


def _bwd_bce(node, g, data):
    t = node.ctx
    z = data[0]
    return ((_sigmoid_np(z) - t) * (float(g.reshape(())) / t.size),)


_BACKWARD: dict[str, Callable] = {
    "matmul": _bwd_matmul,
    "transpose": _bwd_transpose,
    "add": _bwd_add,
    "sub": _bwd_sub,
    "mul": _bwd_mul,
    "sigmoid": _bwd_sigmoid,
    "relu": _bwd_relu,
    "tanh": _bwd_tanh,
    "sum": _bwd_sum,
    "mean": _bwd_mean,
    "max": _bwd_max,
    "reshape": _bwd_reshape,
    "tile_rows": _bwd_tile_rows,
    "tile_cols": _bwd_tile_cols,
    "take_rows": _bwd_take_rows,
    "softmax": _bwd_softmax,
    "softmax_xent": _bwd_softmax_xent,
    "bce_logits": _bwd_bce,
}


def backward(loss: Tensor, rec: ComputationRecord | None = None) -> None:
    """Accumulate d(loss)/d(tensor) into every reachable ``requires_grad`` tensor.

    Gradients add onto whatever is already stored, so repeated calls without
    an intervening ``zero_grad`` sum their contributions.
    """
    nid = loss.node_id
    if rec is None:
        rec = nid[0] if isinstance(nid, tuple) else None
    if rec is None or not (isinstance(nid, tuple) and nid[0] is rec):
        raise ContractError("loss tensor does not belong to the given computation record")
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")

    nodes = rec.nodes
    grads: list[np.ndarray | None] = [None] * len(nodes)
    grads[nid[1]] = np.ones_like(loss.data)

    for idx in range(nid[1], -1, -1):
        g = grads[idx]
        if g is None:
            continue
        node = nodes[idx]
        t = node.tensor
        if t.requires_grad:
            if t.grad is None:
                t.grad = np.array(g, dtype=np.float64, copy=True)
            else:
                t.grad += g
        if node.op == "leaf":
            continue
        data = tuple(nodes[i].tensor.data for i in node.inputs)
        input_grads = _BACKWARD[node.op](node, g, data)
        for pos, gi in zip(node.inputs, input_grads):
            if gi is None or not nodes[pos].tensor.requires_grad:
                continue
            if grads[pos] is None:
                grads[pos] = gi
            else:
                grads[pos] = grads[pos] + gi


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Adam with bias correction; gradients are zeroed after each step.

    The update is ``p -= lr * m_hat / (sqrt(v_hat) + eps)`` with the epsilon
    outside the square root.
    """

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3, eps: float = 1e-4,
                 betas: tuple[float, float] = (0.9, 0.999)):
        self.params = list(params)
        for p in self.params:
            if not isinstance(p, Tensor) or not p.requires_grad:
                raise ContractError("Adam can only optimize requires_grad tensors")
        self.lr = float(lr)
        self.eps = float(eps)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                raise ContractError("Adam.step() found a parameter with no gradient")
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.grad[...] = 0.0


# ---------------------------------------------------------------------------
# gradient checking


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between the analytic gradient of ``f`` at ``x`` and
    central finite differences.

    ``f`` must build a scalar from ``x`` using operations of this module and
    be twice differentiable in a neighbourhood of ``x`` (callers keep inputs
    away from clip and threshold boundaries).  The relative error denominator
    is ``max(|analytic|, |numeric|, 1e-8)`` per coordinate.
    """
    if not x.requires_grad:
        raise ContractError("finite_diff_check needs a requires_grad input tensor")
    x.zero_grad()
    with record() as rec:
        y = f(x)
    if y.data.size != 1:
        raise ContractError(f"finite_diff_check needs a scalar-valued f, got shape {y.shape}")
    backward(y, rec)
    analytic = x.grad.copy().ravel()
    x.zero_grad()

    flat = x.data.ravel()
    numeric = np.empty_like(analytic)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(x).data.reshape(()))
        flat[i] = orig - h
        fm = float(f(x).data.reshape(()))
        flat[i] = orig
        numeric[i] = (fp - fm) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom)) if flat.size else 0.0
