"""Per-op references: the recordings the fused ops replaced.

``tensor.linear`` and the fused forwards of ``PhraseEncoder``,
``BilinearFusion``, ``Vlm`` and ``Lvm`` are each proven bit-identical
(outputs, every gradient and a few training steps) to the chains of
one-node ops below. The small ops are recorded through
``tensor.record_op`` like any engine op, but the network no longer
calls them, so they live here and not in the engine. So do their
``_unbroadcast`` and the ``np.add.at`` scatter that
``bilinear_upsample``'s backward replaced.
Tests also use ``mul`` and ``tsum`` to reduce an output to a scalar loss.
"""
import numpy as np

from cbce import tensor as T
from cbce.cim import L2_EPS
from cbce.convops import _resize_axis
from cbce.tensor import ShapeError, Tensor, _sigmoid


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
# one node per op


def add(a, b):
    sa, sb = a.shape, b.shape
    return T.record_op("add", a.data + b.data, (a, b),
                       lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def mul(a, b):
    """Elementwise product with numpy broadcasting; a scalar ``b`` takes
    ``a``'s dtype."""
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.dtype))
    ad, bd = a.data, b.data
    return T.record_op("mul", ad * bd, (a, b),
                       lambda g: (_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)))


def tsum(a, axis=None):
    shape = a.shape

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    return T.record_op("sum", a.data.sum(axis=axis), (a,), bwd)


def tanh(a):
    y = np.tanh(a.data)
    return T.record_op("tanh", y, (a,), lambda g: (g * (1.0 - y * y),))


def matmul(a, b):
    """Strict 2-D matrix product; dA = dC.Bt, dB = At.dC."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul needs (M,K) x (K,N), got {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    return T.record_op("matmul", ad @ bd, (a, b), lambda g: (g @ bd.T, ad.T @ g))


def sigmoid(a):
    y = _sigmoid(a.data)
    return T.record_op("sigmoid", y, (a,), lambda g: (g * y * (1.0 - y),))


def softmax(a, scale=1.0):
    """Softmax(a / scale) over a vector, max-subtracted before exp."""
    z = a.data / scale
    z = z - z.max()
    e = np.exp(z)
    y = e / e.sum()
    return T.record_op("softmax", y, (a,), lambda g: ((y * (g - np.dot(g, y))) / scale,))


def l2_normalize(a):
    """x / sqrt(|x|^2 + eps) over a vector."""
    x = a.data
    inv = 1.0 / np.sqrt(np.dot(x, x) + L2_EPS)
    return T.record_op("l2_normalize", x * inv, (a,),
                       lambda g: (g * inv - x * (np.dot(x, g) * inv**3),))


def gather_rows(table, ids):
    def bwd(g):
        dt = np.zeros(table.shape, dtype=g.dtype)
        np.add.at(dt, ids, g)
        return (dt,)

    return T.record_op("gather_rows", table.data[ids], (table,), bwd)


def narrow_row(a, t):
    def bwd(g):
        full = np.zeros(a.shape, dtype=g.dtype)
        full[t : t + 1] = g
        return (full,)

    return T.record_op("narrow", a.data[t : t + 1].copy(), (a,), bwd)


def elementwise_max(feats):
    stacked = np.stack([f.data for f in feats], axis=0)
    winner = stacked.argmax(axis=0)
    return T.record_op("elementwise_max", stacked.max(axis=0), tuple(feats),
                       lambda g: tuple(g * (winner == i) for i in range(len(feats))))


def bilinear_upsample_grad(g, h, w):
    """``bilinear_upsample``'s input gradient for an (h, w, C) map, scattered
    by ``np.add.at``: the rule the network's round-by-round scatter replaced."""
    out_h, out_w, c = g.shape
    r0, r1, fr = _resize_axis(h, out_h)[:3]
    c0, c1, fc = _resize_axis(w, out_w)[:3]
    fr_col = fr.astype(g.dtype)[:, None, None]
    fc_col = fc.astype(g.dtype)[None, :, None]
    grows = np.zeros((out_h, w, c), dtype=g.dtype)
    gt = np.swapaxes(grows, 0, 1)  # view (W, out_h, C)
    np.add.at(gt, c0, np.swapaxes(g * (1.0 - fc_col), 0, 1))
    np.add.at(gt, c1, np.swapaxes(g * fc_col, 0, 1))
    dx = np.zeros((h, w, c), dtype=g.dtype)
    np.add.at(dx, r0, grows * (1.0 - fr_col))
    np.add.at(dx, r1, grows * fr_col)
    return dx


# ---------------------------------------------------------------------------
# the fused ops as chains of the ops above


def reference_linear(x, w, b):
    """The reshape -> matmul -> add -> reshape chain that ``linear`` fuses."""
    flat = T.reshape(x, (-1, w.shape[0]))
    return T.reshape(add(matmul(flat, w), b), (*x.shape[:-1], w.shape[1]))


def reference_lstm(enc, phrases):
    """``PhraseEncoder.forward`` as one node per lookup, gate, step and max."""

    def gate(name, x, h):
        pre = add(add(matmul(x, enc.wx[name]), matmul(h, enc.wh[name])), enc.b[name])
        return tanh(pre) if name == "g" else sigmoid(pre)

    c_l = enc.embedding.shape[1]
    feats = []
    for p in range(phrases.n):
        ids = phrases.ids[p, : phrases.lengths[p]]
        emb = gather_rows(enc.embedding, ids)
        h = Tensor(np.zeros((1, c_l), dtype=enc.embedding.dtype))
        c = Tensor(np.zeros((1, c_l), dtype=enc.embedding.dtype))
        for t in range(ids.size):
            x = narrow_row(emb, t)
            i, f, g, o = (gate(name, x, h) for name in enc.GATES)
            c = add(mul(f, c), mul(i, g))
            h = mul(o, tanh(c))
        feats.append(T.reshape(h, (c_l,)))
    return elementwise_max(feats)


def reference_fusion(fuse, visual, lang):
    """``BilinearFusion.forward`` as the 7 nodes it fuses."""
    h, w, c_i = visual.shape
    # v stays (HW, rank), so mul sums the gradient of l over one axis
    v = T.linear(T.reshape(visual, (h * w, c_i)), fuse.wv, fuse.bv)
    l = T.linear(lang, fuse.wl, fuse.bl)
    joint = tanh(T.linear(mul(v, l), fuse.wo, fuse.bo))  # (HW, rank) * (rank,) broadcast
    return T.reshape(joint, (h, w, fuse.wo.shape[1]))


def reference_vlm(vlm, lang, fused, return_attention=False):
    """``Vlm.forward`` as the 14 nodes it fuses."""
    h, w, c_v = fused.shape
    hw = h * w
    flat = T.reshape(fused, (hw, c_v))
    phi = T.linear(flat, vlm.w_phi, vlm.b_phi)
    theta = T.linear(lang, vlm.w_theta, vlm.b_theta)
    scores = matmul(phi, T.reshape(theta, (c_v, 1)))
    attn = softmax(T.reshape(scores, (hw,)), scale=float(np.sqrt(c_v)))
    pooled = matmul(T.reshape(attn, (1, hw)), flat)
    merged = T.concat([T.reshape(lang, (1, lang.size)), pooled], axis=1)
    out = T.linear(merged, vlm.w_out, vlm.b_out)
    out = l2_normalize(T.reshape(out, (out.size,)))
    return (out, attn) if return_attention else out


def reference_lvm(lvm, lang, feats):
    """``Lvm.forward`` as the 11 nodes it fuses."""
    out = feats[lvm.target]
    c_v = out.shape[2]
    row = T.reshape(lang, (1, lang.size))
    for src in lvm.sources:
        gate = sigmoid(T.linear(row, *lvm.gates[src]))
        out = add(out, mul(T.reshape(gate, (1, 1, c_v)), feats[src]))
    return out
