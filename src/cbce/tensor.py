"""Dense tensors with reverse-mode automatic differentiation.

The engine is deliberately small: row-major numpy buffers, one recorded
node per differentiable operation, and a single backward pass per
recording. Only the operations the segmentation network actually needs
exist; there is no broadcasting magic beyond what numpy provides and
what the backward rules undo. Five fused ops stand in for chains of
small ones and are bit-identical to recording those ops one by one:
``linear`` is every dense projection (reshape, matmul, bias add,
reshape back) as one node, ``lstm_phrases`` is the phrase encoder
(lookup, LSTM and max-pool over the whole phrase set),
``bilinear_fuse`` is the low-rank bilinear pooling of one visual level
with the phrase vector (three projections, their product and a tanh),
and ``attend_pool`` and ``gate_aggregate`` are the two updates of one
interaction round (attention pooling into the language vector, and the
language-gated sum of the other levels' maps).

``backward(loss)`` runs the rules of the nodes reachable from the loss
newest first, freeing each rule (with the arrays it saved) and its
output's gradient once it has run; only leaves receive ``grad``. A
second pass over the same recording raises ``GraphConsumedError``. No
gradient is cast: a model runs in one precision, and ``optim.adam_step``
refuses, by name, a parameter whose gradient a rule has promoted.

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
    leaves (``node`` None) get one. Data is row-major; spatial maps use H x
    W x C axis order throughout the package.
    """

    __slots__ = ("data", "requires_grad", "grad", "node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
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
                g = g.reshape(edge.shape)
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
    return record_op("relu", a.data * mask, (a,), lambda g: (g * mask,))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


L2_EPS = 1e-12


def lstm_phrases(embedding: Tensor, wx, wh, b, ids, lengths) -> Tensor:
    """Pooled phrase vector: embedding lookup, one shared LSTM over every
    phrase, elementwise max of the final hidden states, as one node.

    ``wx``, ``wh`` and ``b`` hold the per-gate (C, C), (C, C) and (C,)
    tensors in the gate order i, f, g, o; ``ids`` is the padded
    (n, max_len) token matrix and ``lengths`` the true length of each row
    (>= 1). The result is bit-identical to recording the lookup, each
    gate's ``add(add(x @ Wx, h @ Wh), b)``, the activations, the cell
    update and the max as separate ops. Every product keeps the (1, C) x
    (C, C) shape of those ops: stacking phrases or steps into rows, or
    gates into columns, changes how BLAS sums for some widths. Only the
    weight-gradient outer products (inner dimension 1, so exact) are
    stacked by gate. Backward folds every gradient in the order the
    engine would. Ties in the max route the gradient to the earliest
    phrase.
    """
    c = embedding.shape[1]
    wxs, whs, bs = [w.data for w in wx], [w.data for w in wh], [t.data for t in b]
    tapes = []  # per phrase: (token ids, per-step saved values)
    finals = []
    for p in range(ids.shape[0]):
        pid = ids[p, : lengths[p]]
        xs = embedding.data[pid]
        h = np.zeros((1, c), dtype=embedding.dtype)
        cell = np.zeros((1, c), dtype=embedding.dtype)
        steps = []
        for t in range(pid.size):
            x = xs[t : t + 1]
            acts = []
            for k in range(4):
                pre = (x @ wxs[k] + h @ whs[k]) + bs[k]
                # sigmoid would squash an overflowed pre-activation to a finite value
                _check_finite(pre, "lstm_phrases")
                acts.append(np.tanh(pre) if k == 2 else _sigmoid(pre))
            i, f, g, o = acts
            cell_prev, cell = cell, f * cell + i * g
            tc = np.tanh(cell)
            steps.append((x, h, cell_prev, i, f, g, o, tc))
            h = o * tc
        tapes.append((pid, steps))
        finals.append(h.reshape(c))
    stacked = np.stack(finals, axis=0)
    out = stacked.max(axis=0)
    winner = stacked.argmax(axis=0)
    gate_slices = [slice(k * c, (k + 1) * c) for k in range(4)]

    def bwd(gout):
        # walk phrases and steps newest first, folding each shared gradient
        # left in that order; per-gate terms of dx and dh sum as o, g, f, i
        dwx = dwh = db = demb = None
        for p in reversed(range(len(tapes))):
            pid, steps = tapes[p]
            dh = (gout * (winner == p)).reshape(1, c)
            dc_carry = None
            dxs = np.empty((pid.size, c), dtype=gout.dtype)
            for t in reversed(range(pid.size)):
                x, h, cell_prev, i, f, g, o, tc = steps[t]
                d_o = dh * tc
                dcell = (dh * o) * (1.0 - tc * tc)
                if dc_carry is not None:
                    dcell = dc_carry + dcell
                dc_carry = dcell * f
                dpre = (
                    (dcell * g) * i * (1.0 - i),
                    (dcell * cell_prev) * f * (1.0 - f),
                    (dcell * i) * (1.0 - g * g),
                    d_o * o * (1.0 - o),
                )
                dpre_cat = np.concatenate(dpre, axis=1)
                tx, th, tb = x.T @ dpre_cat, h.T @ dpre_cat, dpre_cat.sum(axis=0)
                if dwx is None:
                    dwx, dwh, db = tx, th, tb
                else:
                    dwx, dwh, db = dwx + tx, dwh + th, db + tb
                dxs[t] = ((dpre[3] @ wxs[3].T + dpre[2] @ wxs[2].T)
                          + dpre[1] @ wxs[1].T) + dpre[0] @ wxs[0].T
                if t:  # the initial state is a constant
                    dh = ((dpre[3] @ whs[3].T + dpre[2] @ whs[2].T)
                          + dpre[1] @ whs[1].T) + dpre[0] @ whs[0].T
            table = np.zeros(embedding.shape, dtype=gout.dtype)
            np.add.at(table, pid, dxs)
            demb = table if demb is None else demb + table
        return (demb, *(dwx[:, s] for s in gate_slices), *(dwh[:, s] for s in gate_slices),
                *(db[s] for s in gate_slices))

    return record_op("lstm_phrases", out, (embedding, *wx, *wh, *b), bwd)


def bilinear_fuse(visual: Tensor, lang: Tensor, wv, bv, wl, bl, wo, bo) -> Tensor:
    """Rank-R Hadamard bilinear pooling as one node:
    ``tanh(((x @ wv + bv) * (lang @ wl + bl)) @ wo + bo)`` at every
    position x of the (H, W, C_i) map, returning (H, W, C_f).

    Bit-identical to recording the reshape, the three ``linear``s, the
    mul, the tanh and the reshape back as separate ops: every product
    keeps their shapes, and backward runs their rules newest first.
    ``lang`` sits once in the inputs, so the engine folds its terms
    across levels in the order it folded the language ``linear``'s.
    """
    h, w, c_i = visual.shape
    c_l, c_f = lang.shape[0], wo.shape[1]
    flat, row = visual.data.reshape(h * w, c_i), lang.data.reshape(1, c_l)
    v = flat @ wv.data + bv.data
    l = (row @ wl.data + bl.data).reshape(-1)
    m = v * l  # (HW, R) * (R,) broadcast
    pre = m @ wo.data + bo.data
    # a non-finite v, l or m leaves the sum non-finite, and tanh would squash an overflow
    _check_finite(pre, "bilinear_fuse")
    y = np.tanh(pre)

    def bwd(g):
        d_pre = g.reshape(h * w, c_f) * (1.0 - y * y)
        d_m = d_pre @ wo.data.T
        d_v, d_l = d_m * l, (d_m * v).sum(axis=0).reshape(1, -1)
        return ((d_v @ wv.data.T).reshape(h, w, c_i), (d_l @ wl.data.T).reshape(c_l),
                flat.T @ d_v, d_v.sum(axis=0), row.T @ d_l, d_l.sum(axis=0),
                m.T @ d_pre, d_pre.sum(axis=0))

    inputs = (visual, lang, wv, bv, wl, bl, wo, bo)
    return record_op("bilinear_fuse", y.reshape(h, w, c_f), inputs, bwd)


def attend_pool(lang: Tensor, fused: Tensor, w_theta, b_theta, w_phi, b_phi, w_out, b_out):
    """Vision-guided language update as one node.

    Scores each position of the (H, W, C_v) map by ``phi(x) . theta(lang)
    / sqrt(C_v)``, pools the map with the softmax of the scores, projects
    ``[lang, pooled]`` back to C_l and L2-normalizes it. Returns the new
    (C_l,) language vector and the (HW,) attention row as an array.

    Bit-identical to recording the reshapes, the three ``linear``s, the
    two matmuls, the softmax, the concat and the normalization as
    separate ops: every product keeps their shapes. The map's two
    gradient terms sum inside the node, pooling term first; ``lang``
    sits twice in the inputs, concat term first, so the engine folds
    its terms as it folded theirs.
    """
    h, w, c_v = fused.shape
    c_l, hw, scale = lang.shape[0], h * w, float(np.sqrt(c_v))
    flat, row = fused.data.reshape(hw, c_v), lang.data.reshape(1, c_l)
    phi = flat @ w_phi.data + b_phi.data
    theta = (row @ w_theta.data + b_theta.data).reshape(c_v, 1)
    scores = phi @ theta
    _check_finite(scores, "attend_pool")  # the softmax would weight a -inf score 0
    z = scores.reshape(hw) / scale
    z = z - z.max()
    e = np.exp(z)
    attn = e / e.sum()
    attn_row = attn.reshape(1, hw)
    merged = np.concatenate([row, attn_row @ flat], axis=1)
    x = (merged @ w_out.data + b_out.data).reshape(c_l)
    _check_finite(x, "attend_pool")
    inv = 1.0 / np.sqrt(np.dot(x, x) + L2_EPS)

    def bwd(g):
        g_out = (g * inv - x * (np.dot(x, g) * inv**3)).reshape(1, c_l)
        d_row, d_pooled = np.split(g_out @ w_out.data.T, [c_l], axis=1)
        d_attn = (d_pooled @ flat.T).reshape(hw)
        d_scores = ((attn * (d_attn - np.dot(d_attn, attn))) / scale).reshape(hw, 1)
        d_phi = d_scores @ theta.T
        d_theta = (phi.T @ d_scores).reshape(1, c_v)
        d_flat = attn_row.T @ d_pooled + d_phi @ w_phi.data.T
        return (d_row.reshape(c_l), d_flat.reshape(h, w, c_v),
                row.T @ d_theta, d_theta.sum(axis=0), flat.T @ d_phi, d_phi.sum(axis=0),
                merged.T @ g_out, g_out.sum(axis=0), (d_theta @ w_theta.data.T).reshape(c_l))

    inputs = (lang, fused, w_theta, b_theta, w_phi, b_phi, w_out, b_out, lang)
    return record_op("attend_pool", x * inv, inputs, bwd), attn


def gate_aggregate(lang: Tensor, target: Tensor, sources, gates) -> Tensor:
    """Language-gated residual sum as one node:
    ``target + sum_k sigmoid(lang @ w_k + b_k) * sources[k]``.

    ``gates`` holds one (w (C_l, C_v), b (C_v,)) pair per source map; each
    gate is a (C_v,) vector broadcast over the (H, W, C_v) maps. The maps
    must be distinct tensors. Bit-identical to recording each gate's
    ``linear``, sigmoid, reshape, mul and add as separate ops: every gate
    keeps its own (1, C_l) x (C_l, C_v) product, and backward folds the
    gates' ``lang`` terms last gate first, as the engine did.
    """
    c_l = lang.shape[0]
    row = lang.data.reshape(1, c_l)
    out, ys = target.data, []
    for src, (w, b) in zip(sources, gates):
        pre = row @ w.data + b.data
        _check_finite(pre, "gate_aggregate")  # the sigmoid would squash an overflow
        ys.append(_sigmoid(pre))
        out = out + ys[-1].reshape(1, 1, -1) * src.data
    terms = [(src.data, y, w.data) for src, y, (w, _) in zip(sources, ys, gates)]

    def bwd(g):
        d_row, d_maps, d_params = None, [], []
        for f, y, w in reversed(terms):
            y3 = y.reshape(1, 1, -1)
            d_maps.insert(0, g * y3)
            d_pre = _unbroadcast(g * f, y3.shape).reshape(y.shape) * y * (1.0 - y)
            d_params[:0] = (row.T @ d_pre, d_pre.sum(axis=0))
            d_term = d_pre @ w.T
            d_row = d_term if d_row is None else d_row + d_term
        return (d_row.reshape(c_l), g, *d_maps, *d_params)

    params = (t for pair in gates for t in pair)
    return record_op("gate_aggregate", out, (lang, target, *sources, *params), bwd)


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
