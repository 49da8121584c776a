"""Initial multimodal fusion: low-rank bilinear pooling of each visual
level with the global language vector (one ``tensor.bilinear_fuse``
node per level), concatenated with an 8-D spatial coordinate grid.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import init
from .tensor import Tensor, bilinear_fuse, concat


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


class BilinearFusion:
    """Rank-R Hadamard bilinear pooling of one visual level with the
    language vector, applied position-wise with shared parameters."""

    def __init__(self, c_i: int, c_l: int, c_f: int, rank: int, rng: np.random.Generator):
        self.wv = init.glorot(rng, (c_i, rank), c_i, rank)
        self.bv = init.zeros((rank,))
        self.wl = init.glorot(rng, (c_l, rank), c_l, rank)
        self.bl = init.zeros((rank,))
        self.wo = init.glorot(rng, (rank, c_f), rank, c_f)
        self.bo = init.zeros((c_f,))

    def forward(self, visual: Tensor, lang: Tensor) -> Tensor:
        return bilinear_fuse(visual, lang, self.wv, self.bv, self.wl, self.bl, self.wo, self.bo)

    def parameters(self):
        for name in ("wv", "bv", "wl", "bl", "wo", "bo"):
            yield name, getattr(self, name)


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
