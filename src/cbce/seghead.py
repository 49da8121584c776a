"""Segmentation head: multi-level concat, atrous spatial pyramid pooling,
1x1 mask projection, full-resolution upsampling, and the training loss.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import init
from .convops import bilinear_upsample, depthwise_conv2d, global_avg_pool
from .tensor import ShapeError, Tensor, _sigmoid, bce_with_logits_sum, concat, linear, reshape

ASPP_DILATIONS = (1, 3, 7, 11)


class Aspp(init.Module):
    """Five parallel context branches fused by a 1x1 conv.

    Branch 1 pools globally, projects, and broadcasts back to the grid;
    branches 2..5 are depthwise-separable 3x3 convs at dilations
    {1, 3, 7, 11}: a per-channel dilated 3x3, then a pointwise ``linear``
    mix. Every branch emits ``c_out`` channels.
    """

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator):
        self.gap_w = self.add("gap.w", init.glorot(rng, (c_in, c_out), c_in, c_out))
        self.gap_b = self.add("gap.b", init.zeros((c_out,)))
        self.branches = {}
        for d in ASPP_DILATIONS:
            self.branches[d] = (
                self.add(f"d{d}.depthwise", init.glorot(rng, (3, 3, c_in), 9 * c_in, 9 * c_in)),
                self.add(f"d{d}.pointwise", init.glorot(rng, (c_in, c_out), c_in, c_out)),
                self.add(f"d{d}.bias", init.zeros((c_out,))),
            )
        self.fuse_w = self.add("fuse.w", init.glorot(rng, (5 * c_out, c_out), 5 * c_out, c_out))
        self.fuse_b = self.add("fuse.b", init.zeros((c_out,)))

    def forward(self, x: Tensor) -> Tensor:
        h, w, _ = x.shape
        pooled = linear(global_avg_pool(x), self.gap_w, self.gap_b)
        outs = [bilinear_upsample(pooled, h, w)]
        for d in ASPP_DILATIONS:
            dw, pw, pb = self.branches[d]
            outs.append(linear(depthwise_conv2d(x, dw, dilation=d), pw, pb))
        return linear(concat(outs, axis=2), self.fuse_w, self.fuse_b)


@dataclass
class MaskPrediction:
    """Full-resolution mask logits; ``prob_map`` is their sigmoid."""

    logits: Tensor  # (H_img, W_img)

    @property
    def prob_map(self) -> np.ndarray:
        return _sigmoid(self.logits.data)


class SegHead(init.Module):
    """concat levels -> ASPP -> 1x1 to one channel -> bilinear upsample."""

    def __init__(self, c_in: int, c_a: int, rng: np.random.Generator):
        self.aspp = self.add("aspp", Aspp(c_in, c_a, rng=rng))
        self.mask_w = self.add("mask.w", init.glorot(rng, (c_a, 1), c_a, 1))
        self.mask_b = self.add("mask.b", init.zeros((1,)))

    def predict_mask(self, aspp_out: Tensor, image_size) -> MaskPrediction:
        h_img, w_img = image_size
        logit_map = linear(aspp_out, self.mask_w, self.mask_b)
        logits = reshape(bilinear_upsample(logit_map, h_img, w_img), (h_img, w_img))
        return MaskPrediction(logits=logits)

    def forward(self, fused: dict, image_size) -> MaskPrediction:
        """Concatenates the level -> (H, W, C) maps on channels, levels ascending."""
        maps = [fused[i] for i in sorted(fused)]
        return self.predict_mask(self.aspp.forward(concat(maps, axis=2)), image_size)


def bce_loss(pred: MaskPrediction, gt: np.ndarray) -> Tensor:
    """Sum-reduced sigmoid binary cross entropy against a {0,1} mask.

    Computed from logits in the stable log-sum-exp form; equals the naive
    clamped -sum(G log p + (1-G) log(1-p)) to well under 1e-6.
    """
    gt = np.asarray(gt)
    if gt.shape != pred.logits.shape:
        raise ShapeError(f"mask shape {gt.shape} != prediction shape {pred.logits.shape}")
    if not np.isin(gt, (0, 1)).all():
        raise ValueError("ground-truth mask must be binary")
    return bce_with_logits_sum(pred.logits, gt)
