"""Spatial operations: convolution, pooling, bilinear resizing.

All maps are H x W x C. Convolutions are stride-1 cross-correlations with
"same" padding of dilation * (k - 1) / 2 per side (only the depthwise one
is dilated), implemented as k*k shifted matrix products so numpy's BLAS
does the heavy lifting. Padding replicates the border pixel, so
translation-invariant stacks keep spatially constant inputs exactly
constant.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .tensor import ShapeError, Tensor, record_op


def _pad_edge(x: np.ndarray, rows: tuple, cols: tuple) -> np.ndarray:
    """Replicate the border of an (H, W, C) map by (before, after) rows and
    columns; the same values as numpy's "edge" padding, built by slice copies."""
    (top, bottom), (left, right) = rows, cols
    if not (top or bottom or left or right):
        return x
    h, w = x.shape[:2]
    out = np.empty((top + h + bottom, left + w + right) + x.shape[2:], dtype=x.dtype)
    mid = out[top : top + h]
    mid[:, left : left + w] = x
    mid[:, :left] = x[:, :1]
    mid[:, left + w :] = x[:, -1:]
    out[:top] = mid[0]
    out[top + h :] = mid[-1]
    return out


def _fold_pad_gradient(dxp: np.ndarray, rows: tuple, cols: tuple) -> np.ndarray:
    """Collapse gradient mass on padding that ``_pad_edge`` replicated by
    (before, after) rows and columns back onto the edges; folds the rows
    in place on ``dxp``, which the caller gives up."""
    (top, bottom), (left, right) = rows, cols
    if not (top or bottom or left or right):
        return dxp
    h, w = dxp.shape[0] - top - bottom, dxp.shape[1] - left - right
    if top:
        dxp[top] += dxp[:top].sum(axis=0)
    if bottom:
        dxp[top + h - 1] += dxp[top + h :].sum(axis=0)
    mid = dxp[top : top + h]
    dx = mid[:, left : left + w].copy()
    if left:
        dx[:, 0] += mid[:, :left].sum(axis=1)
    if right:
        dx[:, -1] += mid[:, left + w :].sum(axis=1)
    return dx


def _check_kernel(k: int, dilation: int = 1):
    if k % 2 == 0:
        raise ValueError(f"kernel size must be odd, got {k}")
    if not isinstance(dilation, (int, np.integer)) or dilation < 1:
        raise ValueError(f"dilation must be a positive integer, got {dilation!r}")


def conv2d(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """2-D cross-correlation plus bias.

    x: (H, W, Cin), w: (k, k, Cin, Cout), bias: (Cout,).
    Output spatial size equals input ("same" padding).
    """
    if x.ndim != 3:
        raise ShapeError(f"conv2d input must be (H, W, Cin), got {x.shape}")
    if w.ndim != 4 or w.shape[0] != w.shape[1]:
        raise ShapeError(f"conv2d kernel must be (k, k, Cin, Cout), got {w.shape}")
    k = w.shape[0]
    _check_kernel(k)
    if w.shape[2] != x.shape[2]:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape} vs kernel {w.shape}")
    h, wid, cin = x.shape
    cout = w.shape[3]
    if bias.shape != (cout,):
        raise ShapeError(f"conv2d bias must be ({cout},), got {bias.shape}")
    pad = (k - 1) // 2
    xd, wd = x.data, w.data
    xp = _pad_edge(xd, (pad, pad), (pad, pad))

    acc = np.zeros((h * wid, cout), dtype=x.dtype)
    for a in range(k):
        for b in range(k):
            acc += xp[a : a + h, b : b + wid].reshape(-1, cin) @ wd[a, b]
    out = acc.reshape(h, wid, cout) + bias.data

    def bwd(g):  # re-pads x rather than keeping the padded copy alive
        xp = _pad_edge(xd, (pad, pad), (pad, pad))
        g2 = g.reshape(-1, cout)
        dw = np.empty_like(wd)
        dxp = np.zeros_like(xp)
        for a in range(k):
            for b in range(k):
                sl = (slice(a, a + h), slice(b, b + wid))
                dw[a, b] = xp[sl].reshape(-1, cin).T @ g2
                dxp[sl] += (g2 @ wd[a, b].T).reshape(h, wid, cin)
        return _fold_pad_gradient(dxp, (pad, pad), (pad, pad)), dw, g.sum(axis=(0, 1))

    return record_op("conv2d", out, (x, w, bias), bwd)


def depthwise_conv2d(x: Tensor, w: Tensor, dilation: int = 1) -> Tensor:
    """Per-channel dilated convolution; w is (k, k, Cin)."""
    if x.ndim != 3:
        raise ShapeError(f"depthwise_conv2d input must be (H, W, Cin), got {x.shape}")
    if w.ndim != 3 or w.shape[0] != w.shape[1]:
        raise ShapeError(f"depthwise kernel must be (k, k, Cin), got {w.shape}")
    k = w.shape[0]
    _check_kernel(k, dilation)
    if w.shape[2] != x.shape[2]:
        raise ShapeError(f"depthwise channel mismatch: input {x.shape} vs kernel {w.shape}")
    h, wid, cin = x.shape
    pad = dilation * (k - 1) // 2
    xd, wd = x.data, w.data
    xp = _pad_edge(xd, (pad, pad), (pad, pad))
    taps = [(a, b, (slice(a * dilation, a * dilation + h), slice(b * dilation, b * dilation + wid)))
            for a in range(k) for b in range(k)]

    out = np.zeros((h, wid, cin), dtype=x.dtype)
    for a, b, sl in taps:
        out += xp[sl] * wd[a, b]

    def bwd(g):
        # x is re-padded here, and freed before the padded gradient exists:
        # at dilation 11 on a 20x20 map the padded copy is 4.4x the map
        xp = _pad_edge(xd, (pad, pad), (pad, pad))
        dw = np.empty_like(wd)
        for a, b, sl in taps:
            dw[a, b] = (xp[sl] * g).sum(axis=(0, 1))
        del xp
        dxp = np.zeros((h + 2 * pad, wid + 2 * pad, cin), dtype=xd.dtype)
        for a, b, sl in taps:
            dxp[sl] += g * wd[a, b]
        return _fold_pad_gradient(dxp, (pad, pad), (pad, pad)), dw

    return record_op("depthwise_conv2d", out, (x, w), bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    """(H, W, C) -> (1, 1, C) spatial mean."""
    if x.ndim != 3:
        raise ShapeError(f"global_avg_pool input must be (H, W, C), got {x.shape}")
    h, w, _ = x.shape
    out = x.data.mean(axis=(0, 1), keepdims=True)
    shape = x.data.shape

    def bwd(g):
        return (np.broadcast_to(g / (h * w), shape).copy(),)

    return record_op("global_avg_pool", out, (x,), bwd)


def avg_pool2d(x: Tensor) -> Tensor:
    """Non-overlapping 2x2 mean with ceil semantics.

    An odd height or width is edge-replicated by one row or column before
    pooling, so the output always covers the full spatial extent and the
    cell-to-pixel geometry stays consistent across input sizes.
    """
    if x.ndim != 3:
        raise ShapeError(f"avg_pool2d input must be (H, W, C), got {x.shape}")
    if min(x.shape[0], x.shape[1]) < 2:
        raise ShapeError(f"avg_pool2d needs at least 2x2 input, got {x.shape}")
    h, w, c = x.shape
    ph, pw = h % 2, w % 2
    xp = _pad_edge(x.data, (0, ph), (0, pw))
    out = xp.reshape(xp.shape[0] // 2, 2, xp.shape[1] // 2, 2, c).mean(axis=(1, 3))

    def bwd(g):
        spread = np.repeat(np.repeat(g, 2, axis=0), 2, axis=1) / 4
        return (_fold_pad_gradient(spread, (0, ph), (0, pw)),)

    return record_op("avg_pool2d", out, (x,), bwd)


def _scatter_rounds(idx: np.ndarray) -> tuple:
    """Split a scatter-add over ``idx`` into rounds of distinct targets.

    Round k is (targets, positions) for the k-th occurrence of each index,
    so ``dst[targets] += src[positions]`` over the rounds in order adds
    every element in the same order as ``np.add.at(dst, idx, src)``.
    """
    rounds = []
    left = np.arange(idx.size)  # positions not yet in a round, in order
    while left.size:
        _, first = np.unique(idx[left], return_index=True)  # earliest of each index
        rounds.append((idx[left[first]], left[first]))
        left = np.delete(left, first)
    return tuple(rounds)


@lru_cache(maxsize=64)
def _resize_axis(n_in: int, n_out: int):
    """Source indices/weights for align-corners=false bilinear sampling,
    and the scatter rounds of both index arrays for the backward."""
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    i0f = np.floor(src)
    frac = src - i0f
    i0 = np.clip(i0f, 0, n_in - 1).astype(np.int64)
    i1 = np.clip(i0f + 1, 0, n_in - 1).astype(np.int64)
    rounds = (_scatter_rounds(i0), _scatter_rounds(i1))
    for arr in (i0, i1, frac, *(a for r in rounds for pair in r for a in pair)):
        arr.flags.writeable = False  # shared by every call of this size
    return i0, i1, frac, rounds


def bilinear_upsample(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear resize of an (H, W, C) map to (out_h, out_w, C).

    align-corners=false semantics: output pixel centers are mapped back
    into the input grid, edges clamped. Works for both up and down
    scaling; resizing to the same size is the identity.
    """
    if x.ndim != 3:
        raise ShapeError(f"bilinear_upsample input must be (H, W, C), got {x.shape}")
    if out_h < 1 or out_w < 1:
        raise ValueError(f"bad target size {(out_h, out_w)}")
    h, w, c = x.shape
    r0, r1, fr, row_rounds = _resize_axis(h, out_h)
    c0, c1, fc, col_rounds = _resize_axis(w, out_w)
    xd = x.data
    fr_col = fr.astype(xd.dtype)[:, None, None]  # weights in the map's dtype, so
    fc_col = fc.astype(xd.dtype)[None, :, None]  # a float32 map stays float32

    rows = xd[r0] * (1.0 - fr_col) + xd[r1] * fr_col  # (out_h, W, C)
    out = rows[:, c0] * (1.0 - fc_col) + rows[:, c1] * fc_col

    def bwd(g):
        # scatter over columns first, then rows. Clamped edges and
        # upsampling repeat an index, so each scatter runs in rounds of
        # distinct targets, which sum every element in np.add.at's order
        grows = np.zeros((out_h, w, c), dtype=g.dtype)
        for weight, rounds in zip((1.0 - fc_col, fc_col), col_rounds):
            part = g * weight
            for dst, pos in rounds:
                grows[:, dst] += part[:, pos]
        dx = np.zeros((h, w, c), dtype=g.dtype)
        for weight, rounds in zip((1.0 - fr_col, fr_col), row_rounds):
            part = grows * weight
            for dst, pos in rounds:
                dx[dst] += part[pos]
        return (dx,)

    return record_op("bilinear_upsample", out, (x,), bwd)
