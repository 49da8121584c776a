"""Metric semantics against naive direct-summation oracles."""
import csv

import numpy as np
import pytest

from cbce.datakit import ManifestRecord, write_mask
from cbce.metrics import (
    METRIC_NAMES,
    MetricReport,
    e_measure,
    evaluate_dataset,
    f_measure,
    iou,
    mae,
    pearson_cc,
    score_pair,
)

# ---------------------------------------------------------------------------
# naive oracles: per-pixel loops, no vectorization


def _iou_naive(pred, gt, thr):
    inter = union = 0
    for p, g in zip(pred.ravel(), gt.ravel()):
        pb, gb = p >= thr, g > 0.5
        inter += pb and gb
        union += pb or gb
    return 1.0 if union == 0 else inter / union


def _f_naive(pred, gt, thr, b2):
    tp = fp = fn = 0
    for p, g in zip(pred.ravel(), gt.ravel()):
        pb, gb = p >= thr, g > 0.5
        tp += pb and gb
        fp += pb and not gb
        fn += gb and not pb
    if tp + fp + fn == 0:
        return 1.0
    if tp == 0:
        return 0.0
    prec, rec = tp / (tp + fp), tp / (tp + fn)
    return (1 + b2) * prec * rec / (b2 * prec + rec)


def _e_naive(pred, gt, thr):
    p = (pred >= thr).astype(float)
    g = (gt > 0.5).astype(float)
    if p.min() == p.max() and g.min() == g.max():
        return 1.0 if p.flat[0] == g.flat[0] else 0.0
    mp, mg = p.mean(), g.mean()
    total = 0.0
    for pp, gg in zip(p.ravel(), g.ravel()):
        fp, fg = pp - mp, gg - mg
        den = fp * fp + fg * fg
        xi = 0.0 if den == 0 else 2 * fp * fg / den
        total += (1 + xi) ** 2 / 4
    return total / p.size


def _cc_naive(pred, gt):
    n = pred.size
    mp = sum(pred.ravel()) / n
    mg = sum(gt.ravel()) / n
    cov = vp = vg = 0.0
    for p, g in zip(pred.ravel(), gt.ravel()):
        cov += (p - mp) * (g - mg)
        vp += (p - mp) ** 2
        vg += (g - mg) ** 2
    return cov / np.sqrt(vp * vg)


def _mae_naive(pred, gt):
    return sum(abs(p - g) for p, g in zip(pred.ravel(), gt.ravel())) / pred.size


def test_200_random_pairs_match_naive_oracles():
    rng = np.random.default_rng(0)
    for _ in range(200):
        pred = rng.random((8, 8))
        gt = (rng.random((8, 8)) > rng.uniform(0.2, 0.8)).astype(float)
        if gt.min() == gt.max():  # CC needs non-constant maps
            gt[0, 0] = 1.0 - gt[0, 0]
        assert abs(iou(pred, gt) - _iou_naive(pred, gt, 0.5)) < 1e-9
        assert abs(f_measure(pred, gt) - _f_naive(pred, gt, 0.5, 0.3)) < 1e-9
        assert abs(e_measure(pred, gt) - _e_naive(pred, gt, 0.5)) < 1e-9
        assert abs(pearson_cc(pred, gt) - _cc_naive(pred, gt)) < 1e-9
        assert abs(mae(pred, gt) - _mae_naive(pred, gt)) < 1e-9


def test_iou_trivial_anchors():
    gt = np.zeros((4, 4))
    gt[:2, :2] = 1.0
    assert iou(gt, gt) == 1.0
    other = np.zeros((4, 4))
    other[2:, 2:] = 1.0
    assert iou(other, gt) == 0.0
    pred = np.array([1.0, 1.0, 0.0, 0.0])
    gt1 = np.array([1.0, 0.0, 1.0, 0.0])
    assert abs(iou(pred, gt1) - 1 / 3) < 1e-12
    assert iou(np.zeros((3, 3)), np.zeros((3, 3))) == 1.0


def test_f_measure_anchors():
    # P = R -> F = P for any beta
    pred = np.array([[1, 1, 1, 0, 0], [1, 1, 0, 0, 0]], dtype=float)
    gt = np.array([[1, 1, 1, 0, 1], [0, 1, 0, 0, 0]], dtype=float)
    # P = 4/5, R = 4/5
    for b2 in (0.3, 1.0, 2.5):
        assert abs(f_measure(pred, gt, beta_sq=b2) - 0.8) < 1e-12
    assert f_measure(gt, gt) == 1.0
    # P=0.5, R=1.0, beta^2=0.3 -> 1.3*0.5/(0.15+1.0)
    pred2 = np.array([1.0, 1.0, 1.0, 1.0])
    gt2 = np.array([1.0, 0.0, 1.0, 0.0])
    assert abs(f_measure(pred2, gt2, beta_sq=0.3) - 1.3 * 0.5 / 1.15) < 1e-12
    assert f_measure(np.zeros(4), np.zeros(4)) == 1.0
    assert f_measure(np.ones(4), np.zeros(4)) == 0.0


def test_e_measure_anchors():
    gt = np.zeros((3, 3))
    gt[1, 1] = 1.0
    assert e_measure(gt, gt) == 1.0
    assert abs(e_measure(1.0 - gt, gt)) < 1e-12
    assert e_measure(np.zeros((3, 3)), np.zeros((3, 3))) == 1.0
    assert e_measure(np.ones((3, 3)), np.zeros((3, 3))) == 0.0


def test_cc_anchors_and_constant_error():
    rng = np.random.default_rng(1)
    gt = (rng.random((4, 4)) > 0.5).astype(float)
    assert abs(pearson_cc(gt, gt) - 1.0) < 1e-12
    assert abs(pearson_cc(1.0 - gt, gt) + 1.0) < 1e-12
    with pytest.raises(ValueError, match="constant"):
        pearson_cc(np.full((3, 3), 0.5), gt[:3, :3])


def test_mae_anchors():
    gt = (np.random.default_rng(2).random((5, 5)) > 0.5).astype(float)
    assert mae(gt, gt) == 0.0
    assert abs(mae(np.abs(gt - 0.1), gt) - 0.1) < 1e-12


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(3)
    pred = rng.random((6, 6))
    gt = (rng.random((6, 6)) > 0.5).astype(float)
    perm = rng.permutation(36)
    pp = pred.ravel()[perm].reshape(6, 6)
    gp = gt.ravel()[perm].reshape(6, 6)
    base = score_pair(pred, gt)
    shuffled = score_pair(pp, gp)
    for name in base:
        assert abs(base[name] - shuffled[name]) < 1e-12, name


def test_threshold_metrics_invariant_to_monotone_transform():
    rng = np.random.default_rng(4)
    pred = rng.random((6, 6))
    gt = (rng.random((6, 6)) > 0.5).astype(float)
    squashed = pred**3  # strictly increasing; threshold maps to 0.5**3
    assert iou(pred, gt, 0.5) == iou(squashed, gt, 0.5**3)
    assert f_measure(pred, gt, 0.5) == f_measure(squashed, gt, 0.5**3)
    assert e_measure(pred, gt, 0.5) == e_measure(squashed, gt, 0.5**3)


def _records(tmp_path, masks, affs=("roll", "cut", "roll")):
    """One record per mask, with the mask written to the file `cbce eval` reads."""
    recs = []
    for i, gt in enumerate(masks):
        rec = ManifestRecord(f"r{i}", str(tmp_path / f"{i}.ppm"), str(tmp_path / f"{i}.pgm"),
                             affs[i], ["a phrase"])
        write_mask(rec.mask_path, gt)
        recs.append(rec)
    return recs


def test_evaluate_dataset_perfect_prediction(tmp_path):
    rng = np.random.default_rng(5)
    gt = (rng.random((8, 8)) > 0.5).astype(float)
    recs = _records(tmp_path, [gt], ("roll",))
    report = evaluate_dataset(lambda r: gt, recs)
    row = report.per_image[0]
    assert row.iou == 1.0 and row.fbeta == 1.0 and row.ephi == 1.0
    assert abs(row.cc - 1.0) < 1e-12 and row.mae == 0.0


def test_evaluate_dataset_reads_omitted_masks(tmp_path):
    # each mask is read from its record's file, and predict runs once per record in order
    rng = np.random.default_rng(7)
    masks = [(rng.random((8, 8)) > 0.5).astype(float) for _ in range(2)]
    recs = _records(tmp_path, masks, ("roll", "cut"))
    preds = {r.id: rng.random((8, 8)) for r in recs}
    calls = []
    report = evaluate_dataset(lambda r: calls.append(r.id) or preds[r.id], recs)
    assert calls == ["r0", "r1"]
    for row, rec, gt in zip(report.per_image, recs, masks):
        assert {m: getattr(row, m) for m in METRIC_NAMES} == score_pair(preds[rec.id], gt)


def test_evaluate_dataset_per_category_means(tmp_path):
    rng = np.random.default_rng(6)
    masks = [(rng.random((8, 8)) > 0.5).astype(float) for _ in range(3)]
    preds = [np.clip(gt * 0.8 + rng.random((8, 8)) * 0.2, 0, 1) for gt in masks]
    recs = _records(tmp_path, masks)
    report = evaluate_dataset(lambda r: preds[recs.index(r)], recs)
    assert set(report.per_category) == {"roll", "cut"}
    roll_rows = [r for r in report.per_image if r.affordance == "roll"]
    hand_mean = np.mean([r.iou for r in roll_rows])
    assert abs(report.per_category["roll"]["iou"] - hand_mean) < 1e-12
    overall_hand = np.mean([r.iou for r in report.per_image])
    assert abs(report.overall["iou"] - overall_hand) < 1e-12


def test_evaluate_dataset_errors(tmp_path):
    with pytest.raises(ValueError, match="empty manifest"):
        evaluate_dataset(lambda r: None, [])
    recs = _records(tmp_path, [np.ones((2, 2))], ("roll",))
    with pytest.raises(ValueError, match="shape mismatch"):
        evaluate_dataset(lambda r: np.ones((3, 3)), recs)


def test_report_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    masks = [(rng.random((8, 8)) > 0.5).astype(float) for _ in range(3)]
    recs = _records(tmp_path, masks)
    preds = {r.id: rng.random((8, 8)) for r in recs}
    report = evaluate_dataset(lambda r: preds[r.id], recs)
    report.write_json(tmp_path / "report.json")
    report.write_csv(tmp_path / "report.csv")
    loaded = MetricReport.from_json(tmp_path / "report.json")
    assert loaded.to_dict() == report.to_dict()
    header = (tmp_path / "report.csv").read_text().splitlines()[0]
    assert header == "sample,affordance,iou,fbeta,ephi,cc,mae"


def test_evaluate_dataset_survives_constant_maps(tmp_path):
    rng = np.random.default_rng(8)
    masks = [(rng.random((8, 8)) > 0.5).astype(float) for _ in range(3)]
    preds = [rng.random((8, 8)) for _ in range(3)]
    masks[0] = np.zeros((8, 8))  # empty ground truth
    # float32 sigmoid of logits >= 20 is exactly 1.0: a saturated map
    preds[1] = 1.0 / (1.0 + np.exp(-np.full((8, 8), 20.0, dtype=np.float32)))
    assert preds[1].min() == preds[1].max() == 1.0
    recs = _records(tmp_path, masks)
    report = evaluate_dataset(lambda r: preds[recs.index(r)], recs)

    assert [r.cc for r in report.per_image][:2] == [None, None]
    cc2 = pearson_cc(preds[2], masks[2])
    assert report.per_image[2].cc == cc2
    assert report.overall["cc"] == cc2 and report.cc_images["overall"] == 1
    assert report.per_category["cut"]["cc"] is None
    assert report.per_category["roll"]["cc"] == cc2
    assert report.cc_images["per_category"] == {"cut": 0, "roll": 1}
    assert report.overall["mae"] == np.mean([r.mae for r in report.per_image])
    assert score_pair(preds[1], masks[1])["cc"] is None

    report.write_json(tmp_path / "report.json")
    assert MetricReport.from_json(tmp_path / "report.json").to_dict() == report.to_dict()
    report.write_csv(tmp_path / "report.csv")
    with open(tmp_path / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["cc"] for row in rows] == ["", "", repr(cc2)]


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        iou(np.zeros((2, 2)), np.zeros((3, 3)))
