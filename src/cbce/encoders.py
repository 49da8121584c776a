"""Input encoders: a small strided CNN for multi-level visual features and
a shared-parameter recurrent encoder that pools phrase vectors into one
global language feature. The phrase encoder records one fused node per
phrase set (``tensor.lstm_phrases``), not one per gate and step.
"""
from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from . import init
from .convops import avg_pool2d, bilinear_upsample, conv2d
from .tensor import Tensor, linear, lstm_phrases, relu

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


class VisualEncoder:
    """Five stages of 3x3 conv + ReLU + 2x2 mean pooling, tapping stages
    3..5 through per-level 1x1 projections onto a common grid."""

    def __init__(self, stage_channels, c_out: int, feat_h: int, feat_w: int,
                 rng: np.random.Generator):
        if len(stage_channels) < max(TAPS):
            raise ValueError(f"the pyramid taps stages {TAPS}; need at least {max(TAPS)} stages")
        self.feat_h, self.feat_w = feat_h, feat_w
        self.stages = []
        prev = 3
        for c in stage_channels:
            w = init.he(rng, (3, 3, prev, c), 9 * prev)
            # small positive bias keeps deep-stage ReLUs alive at init
            b = init.constant((c,), 0.1)
            self.stages.append((w, b))
            prev = c
        self.proj = {}
        for lvl in TAPS:
            c_in = stage_channels[lvl - 1]
            self.proj[lvl] = (
                init.glorot(rng, (c_in, c_out), c_in, c_out),
                init.zeros((c_out,)),
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
            x = avg_pool2d(relu(conv2d(x, w, b)), window=2)
            if idx in TAPS:
                feat = linear(x, *self.proj[idx])
                levels[idx] = bilinear_upsample(feat, self.feat_h, self.feat_w)
        return levels

    def parameters(self):
        for i, (w, b) in enumerate(self.stages, start=1):
            yield f"stage{i}.w", w
            yield f"stage{i}.b", b
        for lvl in TAPS:
            w, b = self.proj[lvl]
            yield f"proj{lvl}.w", w
            yield f"proj{lvl}.b", b


class PhraseEncoder:
    """Embedding + single-layer LSTM shared across phrases; the final
    hidden states are max-pooled elementwise into the global feature.
    The whole phrase set is one fused node (``tensor.lstm_phrases``)."""

    GATES = ("i", "f", "g", "o")

    def __init__(self, vocab_size: int, c_l: int, rng: np.random.Generator):
        self.embedding = init.uniform(rng, (vocab_size, c_l), 0.08)
        self.wx, self.wh, self.b = {}, {}, {}
        for gate in self.GATES:
            self.wx[gate] = init.glorot(rng, (c_l, c_l), c_l, c_l)
            self.wh[gate] = init.glorot(rng, (c_l, c_l), c_l, c_l)
            # forget gate starts open so early gradients reach the embedding
            self.b[gate] = init.constant((c_l,), 1.0 if gate == "f" else 0.0)

    def forward(self, phrases: PhraseSet) -> Tensor:
        if phrases.vocab_size != self.embedding.shape[0]:
            raise ValueError(
                f"phrase set vocab {phrases.vocab_size} != embedding rows {self.embedding.shape[0]}"
            )
        return lstm_phrases(
            self.embedding,
            [self.wx[g] for g in self.GATES],
            [self.wh[g] for g in self.GATES],
            [self.b[g] for g in self.GATES],
            phrases.ids,
            phrases.lengths,
        )

    def parameters(self):
        yield "embedding", self.embedding
        for gate in self.GATES:
            yield f"wx_{gate}", self.wx[gate]
            yield f"wh_{gate}", self.wh[gate]
            yield f"b_{gate}", self.b[gate]
