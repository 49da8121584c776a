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

from . import init, tensor as T
from .encoders import TAPS
from .tensor import Tensor, _check_finite, _sigmoid

L2_EPS = 1e-12


@dataclass
class CimState:
    """Per-level language vectors and fused maps after the last round."""

    lang: dict  # level -> Tensor (C_l,)
    fused: dict  # level -> Tensor (H, W, C_v)


class Vlm(init.Module):
    """Vision-guided language update.

    Scores every spatial position against the projected language vector
    (scaled dot-product over the shared width C_v), pools the fused map with
    the resulting attention row, and merges pooled context with the old
    language vector through a 1x1 projection plus L2 normalization.
    """

    def __init__(self, c_l: int, c_v: int, rng: np.random.Generator):
        self.w_theta = self.add("w_theta", init.glorot(rng, (c_l, c_v), c_l, c_v))
        self.b_theta = self.add("b_theta", init.zeros((c_v,)))
        self.w_phi = self.add("w_phi", init.glorot(rng, (c_v, c_v), c_v, c_v))
        self.b_phi = self.add("b_phi", init.zeros((c_v,)))
        self.w_out = self.add("w_out", init.glorot(rng, (c_l + c_v, c_l), c_l + c_v, c_l))
        self.b_out = self.add("b_out", init.zeros((c_l,)))

    def forward(self, lang: Tensor, fused: Tensor, return_attention: bool = False):
        """The new (C_l,) language vector, as one ``attend_pool`` node, and
        with ``return_attention`` also the (HW,) attention row.

        Scores each position of the (H, W, C_v) map by ``phi(x) .
        theta(lang) / sqrt(C_v)``, pools the map with the softmax of the
        scores, projects ``[lang, pooled]`` back to C_l and L2-normalizes
        it. Bit-identical to recording the reshapes, the three
        ``linear``s, the two matmuls, the softmax, the concat and the
        normalization as separate ops: every product keeps their shapes.
        The map's two gradient terms sum inside the node, pooling term
        first; ``lang`` sits twice in the inputs, concat term first, so
        the engine folds its terms as it folded theirs.
        """
        w_theta, b_theta, w_phi, b_phi, w_out, b_out = (
            self.w_theta, self.b_theta, self.w_phi, self.b_phi, self.w_out, self.b_out)
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
        out = T.record_op("attend_pool", x * inv, inputs, bwd)
        return (out, Tensor(attn)) if return_attention else out


class Lvm(init.Module):
    """Language-gated residual aggregation of the other levels' maps.

    One (weight, bias) gate projection per source level; the gate is a
    per-channel sigmoid broadcast over all spatial positions.
    """

    def __init__(self, target: int, c_l: int, c_v: int, rng: np.random.Generator):
        self.target = target
        self.sources = tuple(l for l in TAPS if l != target)
        self.gates = {
            src: (self.add(f"gate{src}.w", init.glorot(rng, (c_l, c_v), c_l, c_v)),
                  self.add(f"gate{src}.b", init.zeros((c_v,))))
            for src in self.sources
        }

    def forward(self, lang: Tensor, feats: dict) -> Tensor:
        """``feats[target] + sum_k sigmoid(lang @ w_k + b_k) * feats[k]`` over
        the sources k, as one ``gate_aggregate`` node.

        feats maps level -> (H, W, C_v) and must cover the target and
        every source, as distinct tensors; all maps are the previous
        round's. Each gate is a (C_v,) vector broadcast over the maps.
        Bit-identical to recording each gate's ``linear``, sigmoid,
        reshape, mul and add as separate ops: every gate keeps its own
        (1, C_l) x (C_l, C_v) product, and backward folds the gates'
        ``lang`` terms last gate first, as the engine did.
        """
        missing = {self.target, *self.sources} - set(feats)
        if missing:
            raise ValueError(f"missing fused maps for levels {sorted(missing)}")
        target, sources = feats[self.target], [feats[s] for s in self.sources]
        gates = [self.gates[s] for s in self.sources]
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
                d_pre = (g * f).sum(axis=0).sum(axis=0).reshape(y.shape) * y * (1.0 - y)
                d_params[:0] = (row.T @ d_pre, d_pre.sum(axis=0))
                d_term = d_pre @ w.T
                d_row = d_term if d_row is None else d_row + d_term
            return (d_row.reshape(c_l), g, *d_maps, *d_params)

        params = (t for pair in gates for t in pair)
        return T.record_op("gate_aggregate", out, (lang, target, *sources, *params), bwd)


class Cim(init.Module):
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
        # registered after construction: every Vlm draws from rng before any
        # Lvm, while the names interleave them per level and round
        for i in TAPS:
            for m in range(rounds):
                self.add(f"vlm{i}.r{m}", self.vlm[i][m])
                self.add(f"lvm{i}.r{m}", self.lvm[i][m])

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
        return CimState(lang=lang, fused=fused)
