"""Segmentation quality measures and dataset-level reporting.

Five per-image measures over a probability map ``pred`` in [0, 1] and a
binary ground truth ``gt``: region overlap (IoU), precision/recall blend
(F-beta), enhanced alignment (E-phi), Pearson correlation (CC), and mean
absolute error (MAE). IoU, F-beta, and E-phi binarize ``pred`` at a
threshold first; CC and MAE consume the raw map.

Empty-mask conventions: two empty masks count as a perfect match for IoU
and F-beta (1.0); E-phi of two constant maps is 1.0 when they are equal
and 0.0 otherwise. CC is undefined when either map is constant (an empty
mask, a saturated prediction): ``pearson_cc`` raises, ``score_pair``
gives None, and a dataset report averages CC over the images where it
is defined.
"""
from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field

import numpy as np

METRIC_NAMES = ("iou", "fbeta", "ephi", "cc", "mae")


def _check_pair(pred, gt):
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs gt {gt.shape}")
    return pred, gt


def check_threshold(threshold: float) -> None:
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")


def check_beta_sq(beta_sq: float) -> None:
    if not beta_sq > 0:
        raise ValueError(f"beta_sq must be positive, got {beta_sq}")


def _binarize(pred: np.ndarray, threshold: float) -> np.ndarray:
    check_threshold(threshold)
    return pred >= threshold


def iou(pred, gt, threshold: float = 0.5) -> float:
    """|P and G| / |P or G|; 1.0 when both masks are empty."""
    pred, gt = _check_pair(pred, gt)
    p = _binarize(pred, threshold)
    g = gt > 0.5
    union = np.logical_or(p, g).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(p, g).sum() / union)


def f_measure(pred, gt, threshold: float = 0.5, beta_sq: float = 0.3) -> float:
    """(1 + b2) P R / (b2 P + R) over the binarized prediction.

    Both masks empty -> 1.0; no true positives otherwise -> 0.0.
    """
    check_beta_sq(beta_sq)
    pred, gt = _check_pair(pred, gt)
    p = _binarize(pred, threshold)
    g = gt > 0.5
    if not p.any() and not g.any():
        return 1.0
    tp = np.logical_and(p, g).sum()
    if tp == 0:
        return 0.0
    precision = tp / p.sum()
    recall = tp / g.sum()
    return float((1 + beta_sq) * precision * recall / (beta_sq * precision + recall))


def e_measure(pred, gt, threshold: float = 0.5) -> float:
    """Enhanced alignment between the binarized maps.

    Mean over pixels of ((1 + xi)^2) / 4 with xi the alignment of the
    mean-centered maps; 1.0 for identical maps, 0.0 for complements.
    Two constant maps compare as equal/unequal directly.
    """
    pred, gt = _check_pair(pred, gt)
    p = _binarize(pred, threshold).astype(np.float64)
    g = (gt > 0.5).astype(np.float64)
    p_const = p.min() == p.max()
    g_const = g.min() == g.max()
    if p_const and g_const:
        return 1.0 if p.flat[0] == g.flat[0] else 0.0
    phi_p = p - p.mean()
    phi_g = g - g.mean()
    den = phi_p**2 + phi_g**2
    xi = np.where(den > 0, 2.0 * phi_p * phi_g / np.where(den > 0, den, 1.0), 0.0)
    return float((((1.0 + xi) ** 2) / 4.0).mean())


def _cc_defined(pred: np.ndarray, gt: np.ndarray) -> bool:
    return pred.min() != pred.max() and gt.min() != gt.max()


def pearson_cc(pred, gt) -> float:
    """Linear correlation of the raw maps; errors on constant input."""
    pred, gt = _check_pair(pred, gt)
    if not _cc_defined(pred, gt):
        raise ValueError("correlation undefined for a constant map")
    pc = pred - pred.mean()
    gc = gt - gt.mean()
    return float((pc * gc).sum() / np.sqrt((pc**2).sum() * (gc**2).sum()))


def mae(pred, gt) -> float:
    """Mean absolute difference of the raw maps."""
    pred, gt = _check_pair(pred, gt)
    return float(np.abs(pred - gt).mean())


def score_pair(pred, gt, threshold: float = 0.5, beta_sq: float = 0.3) -> dict:
    """All five measures; ``cc`` is None where a constant map leaves it undefined."""
    pred, gt = _check_pair(pred, gt)
    return {
        "iou": iou(pred, gt, threshold),
        "fbeta": f_measure(pred, gt, threshold, beta_sq),
        "ephi": e_measure(pred, gt, threshold),
        "cc": pearson_cc(pred, gt) if _cc_defined(pred, gt) else None,
        "mae": mae(pred, gt),
    }


@dataclass
class MetricRow:
    sample: str
    affordance: str
    iou: float
    fbeta: float
    ephi: float
    cc: float | None  # None where a constant map leaves it undefined
    mae: float


@dataclass
class MetricReport:
    per_image: list = field(default_factory=list)
    per_category: dict = field(default_factory=dict)
    overall: dict = field(default_factory=dict)
    threshold: float = 0.5
    beta_sq: float = 0.3
    # images whose cc is defined: {"per_category": {cat: n}, "overall": n}
    cc_images: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "beta_sq": self.beta_sq,
            "per_image": [asdict(r) for r in self.per_image],
            "per_category": self.per_category,
            "overall": self.overall,
            "cc_images": self.cc_images,
        }

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample", "affordance", *METRIC_NAMES])
            for r in self.per_image:
                writer.writerow(
                    [r.sample, r.affordance, repr(r.iou), repr(r.fbeta), repr(r.ephi),
                     "" if r.cc is None else repr(r.cc), repr(r.mae)]
                )

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "MetricReport":
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
        rows = [MetricRow(**r) for r in d["per_image"]]
        return cls(
            per_image=rows,
            per_category=d["per_category"],
            overall=d["overall"],
            threshold=d["threshold"],
            beta_sq=d["beta_sq"],
            cc_images=d["cc_images"],
        )


def _mean_block(rows) -> dict:
    """Per-measure means; cc over the rows where it is defined (None if none)."""
    block = {}
    for m in METRIC_NAMES:
        values = [getattr(r, m) for r in rows if getattr(r, m) is not None]
        block[m] = float(np.mean(values)) if values else None
    return block


def _by_category(rows) -> dict:
    by_cat: dict[str, list] = {}
    for row in rows:
        by_cat.setdefault(row.affordance, []).append(row)
    return dict(sorted(by_cat.items()))


def _cc_images(rows) -> dict:
    """Count of images whose cc is defined, per category and overall."""
    def count(rs):
        return sum(r.cc is not None for r in rs)
    return {"per_category": {cat: count(rs) for cat, rs in _by_category(rows).items()},
            "overall": count(rows)}


def evaluate_dataset(predict, records, threshold: float = 0.5,
                     beta_sq: float = 0.3) -> MetricReport:
    """Score ``predict(record)``, a probability map, against the record's
    mask file for each manifest record.

    ``predict`` is called as each record is scored, so that one map is
    alive at a time. Overall numbers are unweighted means over images; cc
    is averaged over the images where it is defined, counted in
    ``cc_images``.
    """
    records = list(records)
    if not records:
        raise ValueError("empty manifest: nothing to evaluate")
    report = MetricReport(threshold=threshold, beta_sq=beta_sq)
    for rec in records:
        gt = rec.load_mask()
        pred = predict(rec)
        scores = score_pair(pred, gt, threshold, beta_sq)
        del pred  # gone before the next record's map is made
        report.per_image.append(MetricRow(sample=rec.id, affordance=rec.affordance, **scores))
    report.per_category = {cat: _mean_block(rows)
                           for cat, rows in _by_category(report.per_image).items()}
    report.overall = _mean_block(report.per_image)
    report.cc_images = _cc_images(report.per_image)
    return report
