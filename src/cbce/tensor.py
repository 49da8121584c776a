"""Dense tensors with reverse-mode automatic differentiation.

The engine is deliberately small: row-major numpy buffers, one recorded
node per differentiable operation, and a single backward pass per
recording. It holds the generic ops ``linear``, ``reshape``, ``concat``
and ``relu`` and the loss; there is no broadcasting magic beyond what
numpy provides and what the backward rules undo. ``linear`` is every
dense projection (reshape, matmul, bias add, reshape back) as one node,
bit-identical to recording those ops one by one. A network module that
fuses a chain of its own ops into one node (the phrase encoder, the
bilinear fusion, the two updates of an interaction round) computes it in
its ``forward`` and records it through ``record_op`` like any op here.

``backward(loss)`` runs the rules of the nodes reachable from the loss
newest first, freeing each rule (with the arrays it saved) and its
output's gradient once it has run; only leaves receive ``grad``. A rule
that returns a gradient of the wrong shape raises ``ShapeError`` naming
its op. A second pass over the same recording raises
``GraphConsumedError``. No gradient is cast: a model runs in one
precision, and ``optim.adam_step`` refuses, by name, a parameter whose
gradient a rule has promoted.

Every forward result is checked for NaN/Inf and fails fast naming the
producing operation. A node's edges point at the nodes that produced its
inputs, or at leaves that require grad, and it records only its output's
shape: the recording holds no tensor an op made, only the arrays
backward rules saved, so an intermediate dies as soon as no later op
needs it. A graph has no reference cycle: it lives exactly as long as
its loss tensor and is freed by reference counting.

An op records a node only when one of its inputs requires grad, so a
forward pass over parameters with ``requires_grad = False`` records
nothing. A model loaded from a checkpoint is an inference model and
records no graph (``train.model_from_checkpoint`` freezes its
parameters).
"""
from __future__ import annotations

import itertools

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NumericError(RuntimeError):
    """A forward result contained NaN or Inf (fail-fast policy)."""


class GraphConsumedError(RuntimeError):
    """backward() was asked to run twice over the same recording."""


_node_seq = itertools.count()


class Node:
    """One recorded operation: kind, one input edge per input (its producing
    node, the tensor itself for a leaf that requires grad, else None),
    output shape, and backward rule (None once the walk has run it)."""

    __slots__ = ("op", "inputs", "shape", "backward_fn", "seq", "__weakref__")

    def __init__(self, op, inputs, out_data, backward_fn):
        self.op = op
        self.inputs = tuple(t.node or (t if t.requires_grad else None) for t in inputs)
        self.shape = out_data.shape
        self.backward_fn = backward_fn
        self.seq = next(_node_seq)

    def __repr__(self):
        return f"Node({self.op}, seq={self.seq})"


class Tensor:
    """n-dimensional float32/float64 value with an optional gradient.

    ``grad`` is None until a backward pass reaches this tensor, and only
    leaves (``node`` None) get one. Data is row-major and keeps the dtype it
    is given (callers pass float32 or float64); spatial maps use H x W x C
    axis order throughout the package.
    """

    __slots__ = ("data", "requires_grad", "grad", "node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
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

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}{flag})"


def _check_finite(data: np.ndarray, op: str) -> None:
    if not np.isfinite(data).all():
        raise NumericError(f"non-finite values produced by op '{op}'")


def record_op(op: str, out_data: np.ndarray, inputs, backward_fn) -> Tensor:
    """Wrap a forward result in a Tensor and record its backward rule.

    ``backward_fn(grad_out)`` must return one gradient array (or None)
    per input, aligned with ``inputs``. Extension point for custom ops;
    the non-finite check applies here so no op can skip it.
    """
    _check_finite(out_data, op)
    requires = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=requires)
    if requires:
        out.node = Node(op, inputs, out_data, backward_fn)
    return out


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad leaf reachable from loss.

    The recorded nodes run newest first: an op's inputs always exist
    before its output, so creation order is a topological order.
    Gradients of tensors used multiple times are summed in that order,
    per producing node or leaf.
    A node's rule and its output's gradient are dropped once it has run.
    A recording can be walked once; rerunning without re-recording the
    forward pass raises GraphConsumedError.
    """
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    found = {}
    stack = [loss.node]
    while stack:
        node = stack.pop()
        if type(node) is not Node or id(node) in found:
            continue
        found[id(node)] = node
        stack.extend(node.inputs)
    nodes = sorted(found.values(), key=lambda n: n.seq, reverse=True)
    if any(n.backward_fn is None for n in nodes):
        raise GraphConsumedError("backward already ran over this recording; re-run the forward pass")

    # keyed by id(node) for recorded inputs and id(leaf) for leaves: both
    # stay alive for the whole walk, so no key is the id of a freed object
    grads: dict[int, np.ndarray] = {id(loss.node or loss): np.ones_like(loss.data)}
    leaves: dict[int, Tensor] = {id(loss): loss} if loss.node is None else {}
    for node in nodes:
        gout, rule = grads.pop(id(node), None), node.backward_fn
        node.backward_fn = None  # frees the arrays the rule saved once it has run
        if gout is None:
            continue
        in_grads = rule(gout)
        for edge, g in zip(node.inputs, in_grads):
            if g is None or edge is None:
                continue
            if g.shape != edge.shape:
                raise ShapeError(
                    f"backward of '{node.op}' returned a {g.shape} gradient for a {edge.shape} input"
                )
            key = id(edge)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = g
                if type(edge) is Tensor:
                    leaves[key] = edge
    for key, t in leaves.items():
        if t.requires_grad:
            t.grad = grads[key] if t.grad is None else t.grad + grads[key]


# ---------------------------------------------------------------------------
# elementwise and linear-algebra operations


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map over the last axis, ``x @ w + b``, for any leading shape.

    One node with the arithmetic of the reshape -> matmul -> add ->
    reshape chain it replaces, so values and gradients are bit-identical
    to recording those ops. A reshape that feeds several consumers must
    stay a node of its own: folding it here would split its one summed
    gradient into several terms and reorder the sums upstream.
    """
    k, n = w.shape
    if x.ndim < 1 or x.shape[-1] != k or b.shape != (n,):
        raise ShapeError(
            f"linear needs (..., K) x (K, N) + (N,), got {x.shape} x {w.shape} + {b.shape}"
        )
    shape, x2, wd = x.shape, x.data.reshape(-1, k), w.data
    out = (x2 @ wd + b.data).reshape(*shape[:-1], n)

    def bwd(g):
        g2 = g.reshape(-1, n)
        return (g2 @ wd.T).reshape(shape), x2.T @ g2, g2.sum(axis=0)

    return record_op("linear", out, (x, w, b), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    out = a.data.reshape(shape)

    def bwd(g):
        return (g.reshape(old),)

    return record_op("reshape", out, (a,), bwd)


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


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return record_op("relu", np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


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
