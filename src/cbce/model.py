"""The full phrase-conditioned segmentation network.

Pipeline per sample: visual pyramid + pooled phrase vector -> per-level
bilinear fusion with the coordinate grid -> cyclic bilateral interaction
-> multi-scale segmentation head at input resolution.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import init
from .cim import Cim, CimState
from .encoders import TAPS, PhraseEncoder, PhraseSet, VisualEncoder
from .fusion import BilinearFusion, build_initial_fused
from .seghead import MaskPrediction, SegHead, bce_loss
from .tensor import Tensor


@dataclass
class ModelConfig:
    feat_h: int = 10
    feat_w: int = 10
    c_i: int = 32  # projected visual channels per level
    c_l: int = 32  # language feature width
    c_f: int = 32  # fused channels before the 8 coordinate channels
    c_a: int = 64  # head channels
    rank: int = 16  # bilinear pooling rank
    n_phrases: int = 4
    rounds: int = 2
    cycles: int = 1
    backbone_channels: tuple = (8, 16, 32, 32, 32)
    dtype: str = "float64"

    def __post_init__(self):
        # any other precision would run against float64 images and gradients
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"model dtype must be 'float32' or 'float64', got {self.dtype!r}")

    @property
    def c_v(self) -> int:
        # fused width seen by the interaction rounds: bilinear output + 8 coords
        return self.c_f + 8

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)


class CbceNet(init.Module):
    """Cyclic bilateral consistency-enhancement network at desk scale."""

    def __init__(self, cfg: ModelConfig, vocab_size: int, rng):
        rng = np.random.default_rng(rng)  # a Generator passes through unchanged
        self.cfg = cfg
        self.encoder = self.add("encoder", VisualEncoder(
            stage_channels=cfg.backbone_channels,
            c_out=cfg.c_i,
            feat_h=cfg.feat_h,
            feat_w=cfg.feat_w,
            rng=rng,
        ))
        self.phrase_encoder = self.add("phrases", PhraseEncoder(vocab_size, cfg.c_l, rng=rng))
        self.fusers = {
            i: self.add(f"fuse{i}", BilinearFusion(cfg.c_i, cfg.c_l, cfg.c_f, cfg.rank, rng=rng))
            for i in TAPS
        }
        self.cim = self.add("cim", Cim(cfg.c_l, cfg.c_v, rounds=cfg.rounds, rng=rng))
        self.head = self.add("head", SegHead(len(TAPS) * cfg.c_v, cfg.c_a, rng=rng))
        # modules draw float64 weights; this is the one cast to the configured precision
        for p in self.parameters().values():
            p.data = p.data.astype(cfg.np_dtype, copy=False)

    def forward(self, image: np.ndarray, phrases: PhraseSet) -> MaskPrediction:
        """image: (H, W, 3) float array in [0, 1]."""
        image = np.asarray(image, dtype=self.cfg.np_dtype)
        if image.min() < 0.0 or image.max() > 1.0:
            raise ValueError("image values must lie in [0, 1]")
        img_t = Tensor(image)
        pyramid = self.encoder.forward(img_t)
        lang0 = self.phrase_encoder.forward(phrases)
        fused0 = build_initial_fused(pyramid, lang0, self.fusers)
        state: CimState = self.cim.forward(lang0, fused0, cycles=self.cfg.cycles)
        return self.head.forward(state.fused, image.shape[:2])

    def loss(self, image: np.ndarray, phrases: PhraseSet, mask: np.ndarray) -> Tensor:
        return bce_loss(self.forward(image, phrases), mask)

    def load_state(self, arrays: dict) -> None:
        """Copy name -> array into the parameter buffers, shape-checked.

        The buffers are written in place, never rebound, so views of them
        (the optimizer's flat buffer) stay valid.
        """
        params = self.parameters()
        missing = set(params) - set(arrays)
        extra = set(arrays) - set(params)
        if missing or extra:
            raise ValueError(f"parameter name mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, t in params.items():
            arr = np.asarray(arrays[name], dtype=t.dtype)
            if arr.shape != t.shape:
                raise ValueError(
                    f"checkpoint/config dimension mismatch for {name}: {arr.shape} vs {t.shape}"
                )
            np.copyto(t.data, arr)
