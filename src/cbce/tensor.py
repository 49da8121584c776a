"""Dense tensors with reverse-mode automatic differentiation.

The engine is deliberately small: row-major numpy buffers, one recorded
node per differentiable operation, and a single backward pass per
recording. Only the operations the segmentation network actually needs
exist; there is no broadcasting magic beyond what numpy provides and
what the backward rules undo.

Every forward result is checked for NaN/Inf and fails fast naming the
producing operation. A node holds its output only weakly, so a graph has
no reference cycle: it lives exactly as long as its loss tensor and is
freed by reference counting.
"""
from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)
DEFAULT_DTYPE = np.float64


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NumericError(RuntimeError):
    """A forward result contained NaN or Inf (fail-fast policy)."""


class GraphConsumedError(RuntimeError):
    """backward() was asked to run twice over the same recording."""


_node_seq = itertools.count()


class Node:
    """One recorded operation: kind, inputs, weak output ref, backward rule."""

    __slots__ = ("op", "inputs", "_output", "output_id", "backward_fn", "seq", "consumed")

    def __init__(self, op, inputs, output, backward_fn):
        self.op = op
        self.inputs = inputs
        self._output = weakref.ref(output)
        self.output_id = id(output)
        self.backward_fn = backward_fn
        self.seq = next(_node_seq)
        self.consumed = False

    @property
    def output(self):  # None once the tensor has been freed
        return self._output()

    def __repr__(self):
        return f"Node({self.op}, seq={self.seq})"


class Tensor:
    """n-dimensional float32/float64 value with an optional gradient.

    ``grad`` is None until a backward pass over a graph that reaches this
    tensor populates it. Data is row-major; spatial maps use H x W x C
    axis order throughout the package.
    """

    __slots__ = ("data", "requires_grad", "grad", "node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        if arr.dtype not in FLOAT_DTYPES:
            raise TypeError(f"unsupported dtype {arr.dtype}; use float32 or float64")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        if self.size != 1:
            raise ValueError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}{flag})"

    # arithmetic sugar; the named functions below do the work
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype), requires_grad=False)


def record_op(op: str, out_data: np.ndarray, inputs, backward_fn) -> Tensor:
    """Wrap a forward result in a Tensor and record its backward rule.

    ``backward_fn(grad_out)`` must return one gradient array (or None)
    per input, aligned with ``inputs``. Extension point for custom ops;
    the non-finite check applies here so no op can skip it.
    """
    if not np.all(np.isfinite(out_data)):
        raise NumericError(f"non-finite values produced by op '{op}'")
    requires = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=requires)
    if requires:
        out.node = Node(op, tuple(inputs), out, backward_fn)
    return out


@dataclass
class Graph:
    """Topologically ordered recording of the ops reachable from a loss."""

    nodes: list = field(default_factory=list)
    consumed: bool = False

    @classmethod
    def trace(cls, root: Tensor) -> "Graph":
        """Collect every node reachable from ``root``, oldest first.

        Creation order is a topological order because an op's inputs
        always exist before its output.
        """
        nodes = []
        seen = set()
        stack = [root]
        while stack:
            t = stack.pop()
            node = t.node
            if node is None or id(node) in seen:
                continue
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node.inputs)
        nodes.sort(key=lambda n: n.seq)
        return cls(nodes=nodes)


def backward(loss: Tensor, graph: Graph | None = None) -> None:
    """Populate ``grad`` on every requires_grad tensor reachable from loss.

    Gradients of tensors used multiple times are summed. A recording can
    be walked once; rerunning without re-recording the forward pass
    raises GraphConsumedError.
    """
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if graph is None:
        graph = Graph.trace(loss)
    if graph.consumed or any(n.consumed for n in graph.nodes):
        raise GraphConsumedError("backward already ran over this recording; re-run the forward pass")
    graph.consumed = True

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    holders: dict[int, Tensor] = {id(loss): loss}
    for node in reversed(graph.nodes):
        node.consumed = True
        gout = grads.get(node.output_id)
        if gout is None:
            continue
        in_grads = node.backward_fn(gout)
        for t, g in zip(node.inputs, in_grads):
            if g is None or not t.requires_grad:
                continue
            g = np.asarray(g, dtype=t.data.dtype)
            if g.shape != t.data.shape:
                g = g.reshape(t.data.shape)
            tid = id(t)
            if tid in grads:
                grads[tid] = grads[tid] + g
            else:
                grads[tid] = g
                holders[tid] = t
    for tid, g in grads.items():
        t = holders[tid]
        if t.requires_grad:
            t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise and linear-algebra operations


def add(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    out = a.data + b.data

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return record_op("add", out, (a, b), bwd)


def sub(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    out = a.data - b.data

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return record_op("sub", out, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    return record_op("neg", -a.data, (a,), lambda g: (-g,))


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    b = _as_tensor(b, a.dtype)
    out = a.data * b.data
    ad, bd = a.data, b.data

    def bwd(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return record_op("mul", out, (a, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Strict 2-D matrix product; dA = dC.Bt, dB = At.dC."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul needs (M,K) x (K,N), got {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    out = ad @ bd

    def bwd(g):
        return g @ bd.T, ad.T @ g

    return record_op("matmul", out, (a, b), bwd)


def transpose2d(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose2d needs a matrix, got shape {a.shape}")
    return record_op("transpose2d", a.data.T.copy(), (a,), lambda g: (g.T,))


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    out = a.data.reshape(shape)

    def bwd(g):
        return (g.reshape(old),)

    return record_op("reshape", out, (a,), bwd)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice along one axis; backward zero-pads."""
    if not (0 <= start and start + length <= a.shape[axis]):
        raise ShapeError(f"narrow [{start}:{start + length}) out of range for axis {axis} of {a.shape}")
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = a.data[idx].copy()
    shape = a.data.shape

    def bwd(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[idx] = g
        return (full,)

    return record_op("narrow", out, (a,), bwd)


def concat(tensors, axis: int) -> Tensor:
    """Concatenate along ``axis``; all other axes must agree exactly."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat of zero tensors")
    ref = tensors[0].shape
    for t in tensors[1:]:
        if t.ndim != len(ref) or any(
            t.shape[i] != ref[i] for i in range(t.ndim) if i != axis
        ):
            raise ShapeError(f"concat axis {axis} shape mismatch: {[t.shape for t in tensors]}")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return record_op("concat", out, tuple(tensors), bwd)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.data.shape

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        gk = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gk, shape).copy(),)

    return record_op("sum", out, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return record_op("relu", a.data * mask, (a,), lambda g: (g * mask,))


def sigmoid(a: Tensor) -> Tensor:
    """Numerically stable logistic; output strictly inside (0, 1)."""
    y = _sigmoid(a.data)
    return record_op("sigmoid", y, (a,), lambda g: (g * y * (1.0 - y),))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return record_op("tanh", y, (a,), lambda g: (g * (1.0 - y * y),))


def softmax(a: Tensor, scale: float = 1.0) -> Tensor:
    """Softmax(a / scale) over a 1-D tensor, max-subtracted before exp."""
    if a.ndim != 1:
        raise ShapeError(f"softmax expects a vector, got shape {a.shape}")
    if a.size < 1:
        raise ShapeError("softmax on empty vector")
    if scale <= 0:
        raise ValueError(f"softmax scale must be positive, got {scale}")
    z = a.data / scale
    z = z - z.max()
    e = np.exp(z)
    y = e / e.sum()

    def bwd(g):
        return ((y * (g - np.dot(g, y))) / scale,)

    return record_op("softmax", y, (a,), bwd)


L2_EPS = 1e-12


def l2_normalize(a: Tensor) -> Tensor:
    """x / sqrt(|x|^2 + eps); survives zero vectors, unit norm otherwise."""
    if a.ndim != 1:
        raise ShapeError(f"l2_normalize expects a vector, got shape {a.shape}")
    x = a.data
    inv = 1.0 / np.sqrt(np.dot(x, x) + L2_EPS)
    y = x * inv

    def bwd(g):
        return (g * inv - x * (np.dot(x, g) * inv**3),)

    return record_op("l2_normalize", y, (a,), bwd)


def elementwise_max(tensors) -> Tensor:
    """Elementwise maximum over same-shape tensors.

    Ties route the gradient to the earliest input attaining the max,
    keeping backward deterministic.
    """
    tensors = list(tensors)
    if not tensors:
        raise ValueError("elementwise_max of zero tensors")
    ref = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != ref:
            raise ShapeError(f"elementwise_max shape mismatch: {[t.shape for t in tensors]}")
    stacked = np.stack([t.data for t in tensors], axis=0)
    out = stacked.max(axis=0)
    winner = stacked.argmax(axis=0)

    def bwd(g):
        return tuple(g * (winner == i) for i in range(len(tensors)))

    return record_op("elementwise_max", out, tuple(tensors), bwd)


def gather_rows(table: Tensor, ids) -> Tensor:
    """Row lookup table[ids]; backward scatter-adds into the table."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError(f"gather_rows expects 1-D indices, got shape {ids.shape}")
    if table.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-D table, got shape {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(f"gather_rows index out of range for table with {table.shape[0]} rows")
    out = table.data[ids]
    shape = table.data.shape

    def bwd(g):
        dt = np.zeros(shape, dtype=g.dtype)
        np.add.at(dt, ids, g)
        return (dt,)

    return record_op("gather_rows", out, (table,), bwd)


def bce_with_logits_sum(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Sum-reduced binary cross entropy straight from logits.

    Uses the log-sum-exp form max(z,0) - z*t + log(1 + exp(-|z|)) so no
    probability is ever materialized near 0 or 1. Gradient wrt logits is
    sigmoid(z) - t.
    """
    t = np.asarray(targets, dtype=logits.dtype)
    if t.shape != logits.shape:
        raise ShapeError(f"bce targets shape {t.shape} != logits shape {logits.shape}")
    z = logits.data
    loss = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))

    def bwd(g):
        return (g * (_sigmoid(z) - t),)

    return record_op("bce_with_logits_sum", loss.sum(), (logits,), bwd)
