"""Input encoders: a small strided CNN for multi-level visual features and
a shared-parameter recurrent encoder that pools phrase vectors into one
global language feature. The phrase encoder records one fused node per
phrase set (``lstm_phrases``), not one per gate and step.
"""
from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from . import init, tensor as T
from .convops import avg_pool2d, bilinear_upsample, conv2d
from .tensor import Tensor, _check_finite, _sigmoid, linear, relu

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)

TAPS = (3, 4, 5)  # backbone stages projected into the feature pyramid


class Vocabulary:
    """Token table backed by a one-token-per-line UTF-8 file.

    Line number is the id; ids 0 and 1 are reserved for padding and
    unknown tokens.
    """

    def __init__(self, tokens: list[str]):
        if tokens[:2] != [PAD_TOKEN, UNK_TOKEN]:
            raise ValueError("vocabulary must start with the reserved pad/unk tokens")
        self.tokens = list(tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}

    def __len__(self):
        return len(self.tokens)

    @staticmethod
    def tokenize(text: str) -> list[str]:
        return text.lower().translate(_PUNCT_TABLE).split()

    @classmethod
    def from_corpus(cls, texts) -> "Vocabulary":
        seen = set()
        for text in texts:
            seen.update(cls.tokenize(text))
        return cls([PAD_TOKEN, UNK_TOKEN] + sorted(seen))

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, encoding="utf-8") as fh:
            return cls([line.rstrip("\n") for line in fh if line.rstrip("\n")])

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.tokens) + "\n")

    def encode(self, text: str) -> list[int]:
        return [self.index.get(tok, UNK_ID) for tok in self.tokenize(text)]

    def unknown_tokens(self, texts) -> list[str]:
        out = []
        for text in texts:
            out.extend(t for t in self.tokenize(text) if t not in self.index)
        return out

    def encode_phrases(self, phrases) -> "PhraseSet":
        encoded = [self.encode(p) for p in phrases]
        if any(len(e) == 0 for e in encoded):
            raise ValueError("empty phrase after tokenization")
        max_len = max(len(e) for e in encoded)
        ids = np.full((len(encoded), max_len), PAD_ID, dtype=np.int64)
        lengths = np.zeros(len(encoded), dtype=np.int64)
        for i, e in enumerate(encoded):
            ids[i, : len(e)] = e
            lengths[i] = len(e)
        return PhraseSet(ids=ids, lengths=lengths, vocab_size=len(self))


@dataclass
class PhraseSet:
    """Padded token-id matrix for the n input phrases."""

    ids: np.ndarray  # (n, max_len) int64
    lengths: np.ndarray  # (n,)
    vocab_size: int

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.lengths = np.asarray(self.lengths, dtype=np.int64)
        if self.ids.ndim != 2 or self.n < 1:
            raise ValueError(f"phrase id matrix must be (n>=1, max_len), got {self.ids.shape}")
        if self.lengths.shape != (self.n,):
            raise ValueError("one length per phrase required")
        if (self.lengths < 1).any():
            raise ValueError("empty phrase (length 0)")
        if (self.lengths > self.ids.shape[1]).any():
            raise ValueError("phrase length exceeds padding width")
        if self.ids.min() < 0 or self.ids.max() >= self.vocab_size:
            raise ValueError("token id out of vocabulary range")

    @property
    def n(self) -> int:
        return self.ids.shape[0]


class VisualEncoder(init.Module):
    """Five stages of 3x3 conv + ReLU + 2x2 mean pooling, tapping stages
    3..5 through per-level 1x1 projections onto a common grid."""

    def __init__(self, stage_channels, c_out: int, feat_h: int, feat_w: int,
                 rng: np.random.Generator):
        if len(stage_channels) < max(TAPS):
            raise ValueError(f"the pyramid taps stages {TAPS}; need at least {max(TAPS)} stages")
        self.feat_h, self.feat_w = feat_h, feat_w
        self.stages = []
        prev = 3
        for i, c in enumerate(stage_channels, start=1):
            w = self.add(f"stage{i}.w", init.he(rng, (3, 3, prev, c), 9 * prev))
            # small positive bias keeps deep-stage ReLUs alive at init
            b = self.add(f"stage{i}.b", init.constant((c,), 0.1))
            self.stages.append((w, b))
            prev = c
        self.proj = {}
        for lvl in TAPS:
            c_in = stage_channels[lvl - 1]
            self.proj[lvl] = (
                self.add(f"proj{lvl}.w", init.glorot(rng, (c_in, c_out), c_in, c_out)),
                self.add(f"proj{lvl}.b", init.zeros((c_out,))),
            )

    def min_input_size(self) -> int:
        return 2 ** len(self.stages)

    def forward(self, image: Tensor) -> dict:
        """Level in ``TAPS`` -> (feat_h, feat_w, c_out) map tapped from that stage."""
        if image.ndim != 3 or image.shape[2] != 3:
            raise ValueError(f"expected an (H, W, 3) image, got {image.shape}")
        if min(image.shape[:2]) < self.min_input_size():
            raise ValueError(
                f"image {image.shape[:2]} smaller than total stride {self.min_input_size()}"
            )
        x = image
        levels = {}
        for idx, (w, b) in enumerate(self.stages, start=1):
            x = avg_pool2d(relu(conv2d(x, w, b)))
            if idx in TAPS:
                feat = linear(x, *self.proj[idx])
                levels[idx] = bilinear_upsample(feat, self.feat_h, self.feat_w)
        return levels


class PhraseEncoder(init.Module):
    """Embedding + single-layer LSTM shared across phrases; the final
    hidden states are max-pooled elementwise into the global feature.
    The whole phrase set is one fused ``lstm_phrases`` node."""

    GATES = ("i", "f", "g", "o")

    def __init__(self, vocab_size: int, c_l: int, rng: np.random.Generator):
        self.embedding = self.add("embedding", init.uniform(rng, (vocab_size, c_l), 0.08))
        self.wx, self.wh, self.b = {}, {}, {}
        for gate in self.GATES:
            self.wx[gate] = self.add(f"wx_{gate}", init.glorot(rng, (c_l, c_l), c_l, c_l))
            self.wh[gate] = self.add(f"wh_{gate}", init.glorot(rng, (c_l, c_l), c_l, c_l))
            # forget gate starts open so early gradients reach the embedding
            self.b[gate] = self.add(f"b_{gate}", init.constant((c_l,), 1.0 if gate == "f" else 0.0))

    def forward(self, phrases: PhraseSet) -> Tensor:
        """Pooled phrase vector: embedding lookup, the LSTM over every
        phrase, elementwise max of the final hidden states, as one node.

        The result is bit-identical to recording the lookup, each gate's
        ``add(add(x @ Wx, h @ Wh), b)``, the activations, the cell update
        and the max as separate ops. Every product keeps the (1, C) x
        (C, C) shape of those ops: stacking phrases or steps into rows, or
        gates into columns, changes how BLAS sums for some widths. Only
        the weight-gradient outer products (inner dimension 1, so exact)
        are stacked by gate. Backward folds every gradient in the order
        the engine would. Ties in the max route the gradient to the
        earliest phrase.
        """
        embedding = self.embedding
        if phrases.vocab_size != embedding.shape[0]:
            raise ValueError(
                f"phrase set vocab {phrases.vocab_size} != embedding rows {embedding.shape[0]}"
            )
        ids, lengths = phrases.ids, phrases.lengths
        wx, wh, b = ([d[g] for g in self.GATES] for d in (self.wx, self.wh, self.b))
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

        return T.record_op("lstm_phrases", out, (embedding, *wx, *wh, *b), bwd)
