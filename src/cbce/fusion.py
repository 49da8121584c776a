"""Initial multimodal fusion: low-rank bilinear pooling of each visual
level with the global language vector (one ``bilinear_fuse`` node per
level), concatenated with an 8-D spatial coordinate grid.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import init, tensor as T
from .tensor import Tensor, _check_finite, concat


@lru_cache(maxsize=32)
def _coords_cached(h: int, w: int, dtype_name: str) -> np.ndarray:
    dtype = np.dtype(dtype_name)
    rows = np.arange(h, dtype=dtype)
    cols = np.arange(w, dtype=dtype)
    x_min = -1.0 + 2.0 * cols / w
    x_max = -1.0 + 2.0 * (cols + 1.0) / w
    x_ctr = -1.0 + (2.0 * cols + 1.0) / w
    y_min = -1.0 + 2.0 * rows / h
    y_max = -1.0 + 2.0 * (rows + 1.0) / h
    y_ctr = -1.0 + (2.0 * rows + 1.0) / h
    grid = np.empty((h, w, 8), dtype=dtype)
    grid[:, :, 0] = x_min[None, :]
    grid[:, :, 1] = y_min[:, None]
    grid[:, :, 2] = x_max[None, :]
    grid[:, :, 3] = y_max[:, None]
    grid[:, :, 4] = x_ctr[None, :]
    grid[:, :, 5] = y_ctr[:, None]
    grid[:, :, 6] = 1.0 / w
    grid[:, :, 7] = 1.0 / h
    grid.setflags(write=False)
    return grid


def spatial_coords(h: int, w: int, dtype=np.float64) -> np.ndarray:
    """Per-cell [x_min, y_min, x_max, y_max, x_center, y_center, 1/W, 1/H].

    x spans columns and y spans rows, both normalized to [-1, 1]. Pure
    function of (h, w): repeated calls are bit-identical.
    """
    if h < 1 or w < 1:
        raise ValueError(f"grid size must be positive, got {(h, w)}")
    return _coords_cached(int(h), int(w), np.dtype(dtype).name)


class BilinearFusion(init.Module):
    """Rank-R Hadamard bilinear pooling of one visual level with the
    language vector, applied position-wise with shared parameters."""

    def __init__(self, c_i: int, c_l: int, c_f: int, rank: int, rng: np.random.Generator):
        self.wv = self.add("wv", init.glorot(rng, (c_i, rank), c_i, rank))
        self.bv = self.add("bv", init.zeros((rank,)))
        self.wl = self.add("wl", init.glorot(rng, (c_l, rank), c_l, rank))
        self.bl = self.add("bl", init.zeros((rank,)))
        self.wo = self.add("wo", init.glorot(rng, (rank, c_f), rank, c_f))
        self.bo = self.add("bo", init.zeros((c_f,)))

    def forward(self, visual: Tensor, lang: Tensor) -> Tensor:
        """``tanh(((x @ wv + bv) * (lang @ wl + bl)) @ wo + bo)`` at every
        position x of the (H, W, C_i) map, returning (H, W, C_f), as one
        ``bilinear_fuse`` node.

        Bit-identical to recording the reshape, the three ``linear``s, the
        mul, the tanh and the reshape back as separate ops: every product
        keeps their shapes, and backward runs their rules newest first.
        ``lang`` sits once in the inputs, so the engine folds its terms
        across levels in the order it folded the language ``linear``'s.
        """
        wv, bv, wl, bl, wo, bo = self.wv, self.bv, self.wl, self.bl, self.wo, self.bo
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
        return T.record_op("bilinear_fuse", y.reshape(h, w, c_f), inputs, bwd)


def build_initial_fused(pyramid: dict, lang: Tensor, fusers: dict) -> dict:
    """Per level: concat(bilinear_fuse(I_i, L0), coordinate grid).

    ``pyramid`` maps the levels ``TAPS`` to same-shape (H, W, C_i) maps,
    as ``VisualEncoder.forward`` builds them. Returns level -> (H, W,
    C_f + 8); the last 8 channels are the coordinate grid, identical
    across levels.
    """
    h, w, _ = next(iter(pyramid.values())).shape
    grid = Tensor(spatial_coords(h, w, dtype=lang.dtype))
    return {
        i: concat([fusers[i].forward(pyramid[i], lang), grid], axis=2)
        for i in sorted(pyramid)
    }
