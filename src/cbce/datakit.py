"""Dataset plumbing: netpbm image I/O, JSONL manifests, the hand-written
phrase bank, the synthetic shape-scene generator, and training-time
augmentation.

File formats are chosen for zero-dependency portability: P6 PPM images,
P5 PGM masks (255 = foreground), JSONL manifests with the schema
{"id", "image", "mask", "affordance", "phrases"} where paths are
relative to the manifest file.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .encoders import Vocabulary

# ---------------------------------------------------------------------------
# netpbm I/O


def write_netpbm(path, pixels: np.ndarray) -> None:
    """An (H, W, 3) uint8 image as P6, an (H, W) uint8 mask as P5."""
    pixels = np.asarray(pixels)
    if pixels.dtype != np.uint8 or pixels.ndim < 2 or pixels.shape[2:] not in ((), (3,)):
        raise ValueError(f"netpbm wants (H, W) or (H, W, 3) uint8, got {pixels.shape} "
                         f"{pixels.dtype}")
    h, w = pixels.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"{'P6' if pixels.ndim == 3 else 'P5'}\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def write_mask(path, mask: np.ndarray) -> None:
    """A binary mask as a P5 file, 255 where ``mask`` is set."""
    write_netpbm(path, np.where(mask, 255, 0).astype(np.uint8))


def _read_netpbm_header(fh):
    magic = fh.read(2)
    fields = []
    while len(fields) < 3:
        line = fh.readline()
        if not line:
            raise ValueError("truncated netpbm header")
        body = line.split(b"#", 1)[0]
        fields.extend(int(tok) for tok in body.split())
    w, h, maxval = fields[:3]
    if maxval != 255:
        raise ValueError(f"only maxval 255 supported, got {maxval}")
    return magic, w, h


# pixel shape after (H, W) per binary netpbm magic
_PIXEL_SHAPE = {b"P5": (), b"P6": (3,)}


def read_netpbm(path, magic: bytes) -> np.ndarray:
    """uint8 pixels of a binary netpbm file whose magic must be ``magic``:
    (H, W, 3) for P6, (H, W) for P5."""
    with open(path, "rb") as fh:
        found, w, h = _read_netpbm_header(fh)
        if found != magic:
            raise ValueError(f"{path}: netpbm magic {found!r}, expected {magic!r}")
        shape = (h, w) + _PIXEL_SHAPE[magic]
        n = int(np.prod(shape))
        buf = fh.read(n)
    if len(buf) != n:
        raise ValueError(f"truncated netpbm payload in {path}")
    return np.frombuffer(buf, dtype=np.uint8).reshape(shape)


def load_image(path) -> np.ndarray:
    """A P6 image as float64 in [0, 1]."""
    return read_netpbm(path, b"P6").astype(np.float64) / 255.0


def netpbm_size(path) -> tuple:
    """(height, width) from the header only."""
    with open(path, "rb") as fh:
        _, w, h = _read_netpbm_header(fh)
    return h, w


# ---------------------------------------------------------------------------
# manifest records


@dataclass
class ManifestRecord:
    id: str
    image_path: str
    mask_path: str
    affordance: str
    phrases: list

    def load_image(self) -> np.ndarray:
        """Image as float64 in [0, 1]."""
        return load_image(self.image_path)

    def load_mask(self) -> np.ndarray:
        """Mask as float64 in {0, 1}."""
        return (read_netpbm(self.mask_path, b"P5") > 127).astype(np.float64)


_REQUIRED_FIELDS = ("id", "image", "mask", "affordance", "phrases")


def load_manifest(path) -> list:
    """Parse a JSONL manifest, failing on the first bad line.

    Paths resolve relative to the manifest file; each record's image and
    mask must exist and agree in size.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"manifest not found: {path}")
    root = os.path.dirname(os.path.abspath(path))
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: malformed JSON ({exc})") from None
            if not isinstance(obj, dict):
                raise ValueError(f"{path}:{lineno}: record is a JSON {type(obj).__name__}, "
                                 f"not an object")
            missing = [f for f in _REQUIRED_FIELDS if f not in obj]
            if missing:
                raise ValueError(f"{path}:{lineno}: missing fields {missing}")
            not_text = [f for f in ("image", "mask", "affordance") if not isinstance(obj[f], str)]
            if not_text:
                raise ValueError(f"{path}:{lineno}: fields {not_text} must be text")
            phrases = obj["phrases"]
            if not isinstance(phrases, list) or not phrases or not all(
                isinstance(p, str) and p.strip() for p in phrases
            ):
                raise ValueError(f"{path}:{lineno}: phrases must be a non-empty list of text")
            rec = ManifestRecord(
                id=str(obj["id"]),
                image_path=os.path.normpath(os.path.join(root, obj["image"])),
                mask_path=os.path.normpath(os.path.join(root, obj["mask"])),
                affordance=obj["affordance"],
                phrases=list(phrases),
            )
            for p in (rec.image_path, rec.mask_path):
                if not os.path.exists(p):
                    raise ValueError(f"{path}:{lineno}: missing file {p}")
            if netpbm_size(rec.image_path) != netpbm_size(rec.mask_path):
                raise ValueError(f"{path}:{lineno}: image/mask size mismatch for {rec.id}")
            records.append(rec)
    return records


def save_manifest(records, path) -> None:
    root = os.path.dirname(os.path.abspath(path))
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps({
                "id": rec.id,
                "image": os.path.relpath(rec.image_path, root),
                "mask": os.path.relpath(rec.mask_path, root),
                "affordance": rec.affordance,
                "phrases": rec.phrases,
            }) + "\n")


def split_records(records) -> tuple:
    """Deterministic 75/25 split by hashing record ids."""
    ordered = sorted(records, key=lambda r: hashlib.md5(r.id.encode("utf-8")).hexdigest())
    n_train = round(len(ordered) * 0.75)
    return ordered[:n_train], ordered[n_train:]


# ---------------------------------------------------------------------------
# phrase bank

PERSPECTIVES = ("action", "function", "appearance", "environment")


@dataclass
class PhraseBank:
    entries: dict

    def __post_init__(self):
        for aff, groups in self.entries.items():
            bad = set(groups) - set(PERSPECTIVES)
            if bad:
                raise ValueError(f"{aff}: unknown perspectives {sorted(bad)}")
            if not groups.get("action"):
                raise ValueError(f"{aff}: needs at least one action phrase")
            total = self.phrases(aff)
            if len(total) < 4:
                raise ValueError(f"{aff}: needs >= 4 phrases, has {len(total)}")
            if len(set(total)) != len(total):
                raise ValueError(f"{aff}: duplicate phrases within one affordance")

    def affordances(self) -> list:
        return sorted(self.entries)

    def phrases(self, affordance) -> list:
        groups = self.entries[affordance]
        return [p for persp in PERSPECTIVES for p in groups.get(persp, [])]

    def corpus(self) -> list:
        return [p for aff in self.affordances() for p in self.phrases(aff)]

    def vocabulary(self) -> Vocabulary:
        return Vocabulary.from_corpus(self.corpus())


# Six desk-scale affordance classes. A few phrases are deliberately shared
# across classes ("grasp the handle", "outdoor activities", kitchen) so a
# single sampled phrase can be genuinely ambiguous.
DEFAULT_BANK = PhraseBank({
    "roll": {
        "action": ["move by rotating", "roll over the ground", "can roll", "spin it around"],
        "function": ["used in games", "travels when pushed"],
        "appearance": ["spherical", "round body"],
        "environment": ["outdoor activities"],
    },
    "contain": {
        "action": ["pour water into it", "fill it up", "hold liquid inside", "store things in it"],
        "function": ["keeps contents safe", "serves as a container"],
        "appearance": ["hollow middle", "open top with a rim"],
        "environment": ["found in the kitchen"],
    },
    "cut": {
        "action": ["slice through things", "chop with the edge", "grasp the handle",
                   "sharpen before use"],
        "function": ["divides food into parts", "trims material"],
        "appearance": ["sharp edge", "narrow pointed blade"],
        "environment": ["found in the kitchen"],
    },
    "stack": {
        "action": ["pile them up", "place one on another", "build a tower"],
        "function": ["stores flat", "supports weight"],
        "appearance": ["flat sides", "square outline"],
        "environment": ["kept in the warehouse"],
    },
    "swing": {
        "action": ["swing it back and forth", "grasp the handle", "wave it through the air"],
        "function": ["hits a ball", "used in sport"],
        "appearance": ["long thin body", "straight like a stick"],
        "environment": ["outdoor activities"],
    },
    "beat": {
        "action": ["strike it in rhythm", "hit it repeatedly", "pound on it"],
        "function": ["makes a sound", "keeps the tempo"],
        "appearance": ["crossed arms shape", "marked like an x"],
        "environment": ["seen on stage"],
    },
})


def phrase_sample(bank: PhraseBank, affordance: str, n: int, rng: np.random.Generator) -> list:
    """n distinct phrases, at least one from the action perspective."""
    pool = bank.phrases(affordance)
    if n < 1 or n > len(pool):
        raise ValueError(f"cannot sample {n} phrases from {len(pool)} for {affordance!r}")
    actions = bank.entries[affordance]["action"]
    first = actions[int(rng.integers(len(actions)))]
    rest_pool = [p for p in pool if p != first]
    idx = rng.choice(len(rest_pool), size=n - 1, replace=False)
    chosen = [first] + [rest_pool[i] for i in idx]
    order = rng.permutation(n)
    return [chosen[i] for i in order]


# ---------------------------------------------------------------------------
# shapes and scene synthesis

SHAPE_FOR_CLASS = {
    "roll": "disc",
    "contain": "ring",
    "cut": "wedge",
    "stack": "square",
    "swing": "bar",
    "beat": "cross",
}

COLOR_FOR_CLASS = {
    "roll": (225, 70, 60),
    "contain": (70, 110, 230),
    "cut": (205, 205, 215),
    "stack": (170, 120, 60),
    "swing": (75, 190, 90),
    "beat": (200, 80, 210),
}


def rasterize_shape(kind: str, canvas: int, cy: float, cx: float, size: float,
                    orient: int = 0) -> np.ndarray:
    """Boolean mask of one shape on a canvas x canvas grid.

    Pure function of its arguments; pixel centers at integer coordinates.
    ``orient`` flips bars between horizontal/vertical and picks the wedge
    corner. Every shape lies within ``|dy|, |dx| <= size / 2`` of its
    center, so the per-pixel tests run only on that window (padded by one
    pixel against rounding, clipped to the canvas); the pixels outside it
    are False.
    """
    reach = abs(size) / 2.0
    r0, r1 = _window(cy, reach, canvas)
    c0, c1 = _window(cx, reach, canvas)
    rr, cc = np.mgrid[r0:r1, c0:c1].astype(np.float64)
    mask = np.zeros((canvas, canvas), dtype=bool)
    mask[r0:r1, c0:c1] = _shape_test(kind, rr - cy, cc - cx, size, orient)
    return mask


def _window(center: float, reach: float, canvas: int) -> tuple:
    """[lo, hi) of the pixels within reach + 1 of center, clipped to the canvas."""
    lo, hi = np.clip([np.floor(center - reach) - 1, np.ceil(center + reach) + 2], 0, canvas)
    return int(lo), int(hi)


def _shape_test(kind: str, dy: np.ndarray, dx: np.ndarray, size: float,
                orient: int) -> np.ndarray:
    """Per-pixel membership of one shape, from pixel offsets to its center."""
    half = size / 2.0
    if kind == "disc":
        return dy**2 + dx**2 <= half**2
    if kind == "ring":
        rad2 = dy**2 + dx**2
        inner = 0.42 * half
        return (rad2 <= half**2) & (rad2 >= inner**2)
    if kind == "square":
        s = 0.45 * size
        return (np.abs(dy) <= s) & (np.abs(dx) <= s)
    if kind == "bar":
        thick, length = 0.21 * size, half
        if orient % 2:
            dy, dx = dx, dy
        return (np.abs(dy) <= thick) & (np.abs(dx) <= length)
    if kind == "cross":
        thick, length = 0.21 * size, half
        horiz = (np.abs(dy) <= thick) & (np.abs(dx) <= length)
        vert = (np.abs(dx) <= thick) & (np.abs(dy) <= length)
        return horiz | vert
    if kind == "wedge":
        width = 0.85 * size
        inside = (np.abs(dy) <= half) & (np.abs(dx) <= width / 2.0)
        fx = (dx + width / 2.0) / width  # 0..1 across the box
        fy = (dy + half) / size
        if orient % 4 in (1, 3):
            fx = 1.0 - fx
        if orient % 4 >= 2:
            fy = 1.0 - fy
        return inside & (fx <= fy)
    raise ValueError(f"unknown shape kind {kind!r}")


class PlacementError(RuntimeError):
    """Objects could not be placed without overlap within the retry budget."""


@dataclass
class SynthConfig:
    size: int = 80
    samples: int = 800
    classes: tuple = tuple(sorted(SHAPE_FOR_CLASS))
    distractor_range: tuple = (0, 3)
    n_phrases: int = 4
    seed: int = 0
    target_scale: tuple = (30.0, 46.0)
    # the first distractor is drawn at target scale so object size never
    # identifies the target; the phrases must carry the selection signal
    confuser_scale: tuple = (28.0, 40.0)
    distractor_scale: tuple = (14.0, 24.0)
    pair_scale: tuple = (26.0, 34.0)

    def __post_init__(self):
        self.classes = tuple(self.classes)
        if len(self.classes) < 2:
            raise ValueError("need at least 2 affordance classes")
        unknown = set(self.classes) - set(SHAPE_FOR_CLASS)
        if unknown:
            raise ValueError(f"no shape generator for classes {sorted(unknown)}")


# placements tried per object, and redraws of a record whose objects do not fit
MAX_TRIES = 400
RECORD_ATTEMPTS = 4


def _place_object(cls_name, occupied, scale_range, rng, cfg) -> np.ndarray:
    """Find a non-overlapping placement and return its mask.

    The sampled size range anneals toward its lower end as retries mount,
    so crowded canvases still admit an object while empty ones keep the
    full size variety.
    """
    canvas = cfg.size
    lo, hi = scale_range
    floor = min(lo, 12.0)
    for attempt in range(MAX_TRIES):
        frac = attempt / MAX_TRIES
        hi_k = hi + (lo - hi) * min(1.0, frac / 0.5)
        lo_k = lo + (floor - lo) * max(0.0, (frac - 0.5) / 0.5)
        size = rng.uniform(lo_k, hi_k) if hi_k > lo_k else lo_k
        margin = size / 2.0 + 2.0
        if canvas - 2 * margin <= 1:
            continue
        cy = rng.uniform(margin, canvas - margin)
        cx = rng.uniform(margin, canvas - margin)
        orient = int(rng.integers(4))
        mask = rasterize_shape(SHAPE_FOR_CLASS[cls_name], canvas, cy, cx, size, orient)
        if mask.any() and not (mask & occupied).any():
            return mask
    raise PlacementError(f"could not place {cls_name!r} after {MAX_TRIES} tries")


def _render(canvas: int, layers, rng) -> np.ndarray:
    """layers: [(mask, class_name)] painted over a noisy dark background."""
    img = rng.normal(40.0, 8.0, size=(canvas, canvas, 3))
    for mask, cls_name in layers:
        base = np.array(COLOR_FOR_CLASS[cls_name], dtype=np.float64)
        jitter = rng.uniform(-20.0, 20.0, size=3)
        img[mask] = base + jitter
    img += rng.normal(0.0, 4.0, size=img.shape)
    return np.clip(img, 0, 255).astype(np.uint8)


def generate_record(cfg: SynthConfig, idx: int):
    """One deterministic sample: (image, mask, affordance, phrases).

    The per-record generator stream is split from (seed, idx) so records
    can be produced independently and in any order. A record whose objects
    cannot all be placed is redrawn whole from the stream (seed, idx, attempt).
    """
    for attempt in range(RECORD_ATTEMPTS):
        key = [cfg.seed, idx, attempt] if attempt else [cfg.seed, idx]
        try:
            return _draw_record(cfg, idx, np.random.default_rng(key))
        except PlacementError:
            if attempt == RECORD_ATTEMPTS - 1:
                raise


def _draw_record(cfg: SynthConfig, idx: int, rng):
    target_cls = cfg.classes[idx % len(cfg.classes)]
    occupied = np.zeros((cfg.size, cfg.size), dtype=bool)
    target_mask = _place_object(target_cls, occupied, cfg.target_scale, rng, cfg)
    occupied |= target_mask
    layers = [(target_mask, target_cls)]
    lo, hi = cfg.distractor_range
    for k in range(int(rng.integers(lo, hi + 1))):
        other = [c for c in cfg.classes if c != target_cls]
        cls_name = other[int(rng.integers(len(other)))]
        scale = cfg.confuser_scale if k == 0 else cfg.distractor_scale
        mask = _place_object(cls_name, occupied, scale, rng, cfg)
        occupied |= mask
        layers.append((mask, cls_name))
    image = _render(cfg.size, layers, rng)
    phrases = phrase_sample(DEFAULT_BANK, target_cls, cfg.n_phrases, rng)
    return image, target_mask, target_cls, phrases


def synth_generate(cfg: SynthConfig, out_dir) -> list:
    """Write images/, masks/, manifest.jsonl, train/test splits, vocab.txt."""
    out_dir = str(out_dir)
    os.makedirs(os.path.join(out_dir, "images"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "masks"), exist_ok=True)
    records = []
    for idx in range(cfg.samples):
        image, mask, affordance, phrases = generate_record(cfg, idx)
        rec_id = f"s{idx:05d}"
        image_path = os.path.join(out_dir, "images", f"{rec_id}.ppm")
        mask_path = os.path.join(out_dir, "masks", f"{rec_id}.pgm")
        write_netpbm(image_path, image)
        write_mask(mask_path, mask)
        records.append(ManifestRecord(rec_id, image_path, mask_path, affordance, phrases))
    save_manifest(records, os.path.join(out_dir, "manifest.jsonl"))
    train, test = split_records(records)
    save_manifest(train, os.path.join(out_dir, "train.jsonl"))
    save_manifest(test, os.path.join(out_dir, "test.jsonl"))
    DEFAULT_BANK.vocabulary().save(os.path.join(out_dir, "vocab.txt"))
    return records


def generate_pair_fixtures(cfg: SynthConfig, out_dir, count: int = 50) -> list:
    """Two-object scenes for phrase-conditioning checks.

    Each image holds objects of two different classes; two records share
    the image, one per class with its own mask and phrases.
    """
    out_dir = str(out_dir)
    os.makedirs(os.path.join(out_dir, "images"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "masks"), exist_ok=True)
    records = []
    for idx in range(count):
        rng = np.random.default_rng([cfg.seed, 7700 + idx])
        cls_a = cfg.classes[idx % len(cfg.classes)]
        others = [c for c in cfg.classes if c != cls_a]
        cls_b = others[int(rng.integers(len(others)))]
        occupied = np.zeros((cfg.size, cfg.size), dtype=bool)
        mask_a = _place_object(cls_a, occupied, cfg.pair_scale, rng, cfg)
        occupied |= mask_a
        mask_b = _place_object(cls_b, occupied, cfg.pair_scale, rng, cfg)
        image = _render(cfg.size, [(mask_a, cls_a), (mask_b, cls_b)], rng)
        image_path = os.path.join(out_dir, "images", f"p{idx:04d}.ppm")
        write_netpbm(image_path, image)
        for tag, cls_name, mask in (("a", cls_a, mask_a), ("b", cls_b, mask_b)):
            rec_id = f"p{idx:04d}{tag}"
            mask_path = os.path.join(out_dir, "masks", f"{rec_id}.pgm")
            write_mask(mask_path, mask)
            phrases = phrase_sample(DEFAULT_BANK, cls_name, cfg.n_phrases, rng)
            records.append(ManifestRecord(rec_id, image_path, mask_path, cls_name, phrases))
    save_manifest(records, os.path.join(out_dir, "pairs.jsonl"))
    return records


# ---------------------------------------------------------------------------
# augmentation


def augment(image: np.ndarray, mask: np.ndarray, rng: np.random.Generator,
            crop_size: int) -> tuple:
    """Identical random crop window and horizontal-flip decision for both."""
    h, w = image.shape[:2]
    if mask.shape[:2] != (h, w):
        raise ValueError(f"image {image.shape} and mask {mask.shape} sizes differ")
    if crop_size > h or crop_size > w:
        raise ValueError(f"crop {crop_size} larger than input {(h, w)}")
    r0 = int(rng.integers(0, h - crop_size + 1))
    c0 = int(rng.integers(0, w - crop_size + 1))
    flip = bool(rng.random() < 0.5)
    img = image[r0 : r0 + crop_size, c0 : c0 + crop_size]
    msk = mask[r0 : r0 + crop_size, c0 : c0 + crop_size]
    if flip:
        img = img[:, ::-1]
        msk = msk[:, ::-1]
    return img.copy(), msk.copy()
