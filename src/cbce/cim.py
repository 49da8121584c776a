"""Cyclic bilateral interaction between the language vector and the
three fused visual levels.

One round per level: the vision-to-language update attends over all
positions of that level's fused map and renormalizes the language
vector; the language-to-vision update then adds sigmoid-gated copies of
the *other* levels' round-m maps onto the level's own map. Updates
within a round are synchronous: every gated aggregation reads the maps
from the previous round, never a sibling's fresh output.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import init
from .encoders import TAPS
from .tensor import Tensor, attend_pool, gate_aggregate


@dataclass
class CimState:
    """Per-level language vectors and fused maps after the last round."""

    lang: dict  # level -> Tensor (C_l,)
    fused: dict  # level -> Tensor (H, W, C_v)
    rounds_done: int


class Vlm:
    """Vision-guided language update.

    Scores every spatial position against the projected language vector
    (scaled dot-product over the shared width C_v), pools the fused map with
    the resulting attention row, and merges pooled context with the old
    language vector through a 1x1 projection plus L2 normalization.
    """

    def __init__(self, c_l: int, c_v: int, rng: np.random.Generator):
        self.w_theta = init.glorot(rng, (c_l, c_v), c_l, c_v)
        self.b_theta = init.zeros((c_v,))
        self.w_phi = init.glorot(rng, (c_v, c_v), c_v, c_v)
        self.b_phi = init.zeros((c_v,))
        self.w_out = init.glorot(rng, (c_l + c_v, c_l), c_l + c_v, c_l)
        self.b_out = init.zeros((c_l,))

    def forward(self, lang: Tensor, fused: Tensor, return_attention: bool = False):
        out, attn = attend_pool(lang, fused, self.w_theta, self.b_theta, self.w_phi,
                                self.b_phi, self.w_out, self.b_out)
        return (out, Tensor(attn)) if return_attention else out

    def parameters(self):
        for name in ("w_theta", "b_theta", "w_phi", "b_phi", "w_out", "b_out"):
            yield name, getattr(self, name)


class Lvm:
    """Language-gated residual aggregation of the other levels' maps.

    One (weight, bias) gate projection per source level; the gate is a
    per-channel sigmoid broadcast over all spatial positions.
    """

    def __init__(self, target: int, c_l: int, c_v: int, rng: np.random.Generator):
        self.target = target
        self.sources = tuple(l for l in TAPS if l != target)
        self.gates = {
            src: (init.glorot(rng, (c_l, c_v), c_l, c_v), init.zeros((c_v,)))
            for src in self.sources
        }

    def forward(self, lang: Tensor, feats: dict) -> Tensor:
        """feats maps level -> (H, W, C_v) and must cover the target and
        every source; all maps are the previous round's."""
        missing = {self.target, *self.sources} - set(feats)
        if missing:
            raise ValueError(f"missing fused maps for levels {sorted(missing)}")
        return gate_aggregate(lang, feats[self.target], [feats[s] for s in self.sources],
                              [self.gates[s] for s in self.sources])

    def parameters(self):
        for src in self.sources:
            w, b = self.gates[src]
            yield f"gate{src}.w", w
            yield f"gate{src}.b", b


class Cim:
    """The full schedule: ``rounds`` bilateral updates per cycle, with
    unshared parameters per (level, round); cycles reuse them."""

    def __init__(self, c_l: int, c_v: int, rounds: int, rng: np.random.Generator):
        if rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        self.rounds = rounds
        self.vlm = {
            i: [Vlm(c_l, c_v, rng=rng) for _ in range(rounds)]
            for i in TAPS
        }
        self.lvm = {
            i: [Lvm(i, c_l, c_v, rng=rng) for _ in range(rounds)]
            for i in TAPS
        }

    def forward(self, lang0: Tensor, fused0: dict, cycles: int = 1) -> CimState:
        """All three levels start from the same language vector and evolve
        independently; cycle n+1 consumes cycle n's outputs."""
        if cycles < 1:
            raise ValueError(f"cycles must be >= 1, got {cycles}")
        if sorted(fused0) != list(TAPS):
            raise ValueError(f"fused maps must cover levels {TAPS}, got {sorted(fused0)}")
        lang = {i: lang0 for i in TAPS}
        fused = dict(fused0)
        for _ in range(cycles):
            for m in range(self.rounds):
                new_lang = {i: self.vlm[i][m].forward(lang[i], fused[i]) for i in TAPS}
                new_fused = {i: self.lvm[i][m].forward(new_lang[i], fused) for i in TAPS}
                lang, fused = new_lang, new_fused
        return CimState(lang=lang, fused=fused, rounds_done=cycles * self.rounds)

    def parameters(self):
        for i in TAPS:
            for m in range(self.rounds):
                for name, t in self.vlm[i][m].parameters():
                    yield f"vlm{i}.r{m}.{name}", t
                for name, t in self.lvm[i][m].parameters():
                    yield f"lvm{i}.r{m}.{name}", t
