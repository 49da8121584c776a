"""Acceptance gate: the seven exit criteria, one test each.

Each test prints a single PASS/FAIL line (run pytest with -s or -rA to
see them). The toy experiment uses the shipped configs/toy.json with its
fixed seed; thresholds were calibrated once against that seed and are
frozen here. The expensive pieces (dataset synthesis, the 3000-step toy
run, the phrase-count ablation) are shared module-scoped fixtures.
"""
import os
import time

import numpy as np
import pytest

from cbce.checkpoint import load_checkpoint
from cbce.cim import Cim, Lvm, Vlm
from cbce.datakit import (
    generate_pair_fixtures,
    load_manifest,
    save_manifest,
    synth_generate,
)
from cbce.gradcheck import run_suite, standard_op_suite
from cbce.metrics import MetricReport, evaluate_dataset
from cbce.tensor import Tensor
from cbce.train import (
    evaluate_checkpoint,
    load_config,
    model_from_checkpoint,
    smoothed,
    train,
)

CONFIG_PATH = os.path.join(os.path.dirname(__file__), "..", "configs", "toy.json")

# thresholds frozen after one calibration run of configs/toy.json (seed 7):
# smoothed loss ratio 0.157, held-out IoU 0.801, conditioning 87%,
# IoU(n=4) 0.801 vs IoU(n=1) 0.768, gradient suite 20 s.
LOSS_RATIO_LIMIT = 0.5
IOU_FLOOR = 0.70
GRAD_SUITE_SECONDS = 120.0
TOY_RUN_SECONDS = 1200.0
CONDITIONING_FRACTION = 0.8


def _criterion(num: int, name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def toy_cfg():
    return load_config(CONFIG_PATH)


@pytest.fixture(scope="module")
def toy_data(toy_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("toy_data")
    synth_generate(toy_cfg.synth, out)
    return str(out)


@pytest.fixture(scope="module")
def toy_run(toy_cfg, toy_data, tmp_path_factory):
    out = tmp_path_factory.mktemp("toy_run")
    t0 = time.time()
    result = train(toy_cfg, toy_data, out)
    return result, time.time() - t0


def test_criterion_1_gradient_suite():
    t0 = time.time()
    reports = run_suite(seeds=range(20))
    elapsed = time.time() - t0
    failed = [r.label for r in reports if not r.passed]
    covered = set(r.label for r in reports)
    expected = set(standard_op_suite()) | {"vlm_lvm_aspp_bce"}
    worst = max(reports, key=lambda r: r.max_rel_error)
    ok = not failed and covered == expected and elapsed < GRAD_SUITE_SECONDS
    _criterion(
        1, "gradient-suite", ok,
        f"{len(reports)} ops x 20 seeds, worst {worst.label}={worst.max_rel_error:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_metric_oracles():
    from test_metrics import _cc_naive, _e_naive, _f_naive, _iou_naive, _mae_naive

    from cbce.metrics import e_measure, f_measure, iou, mae, pearson_cc

    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        pred = rng.random((8, 8))
        gt = (rng.random((8, 8)) > rng.uniform(0.2, 0.8)).astype(float)
        if gt.min() == gt.max():
            gt[0, 0] = 1.0 - gt[0, 0]
        worst = max(
            worst,
            abs(iou(pred, gt) - _iou_naive(pred, gt, 0.5)),
            abs(f_measure(pred, gt) - _f_naive(pred, gt, 0.5, 0.3)),
            abs(e_measure(pred, gt) - _e_naive(pred, gt, 0.5)),
            abs(pearson_cc(pred, gt) - _cc_naive(pred, gt)),
            abs(mae(pred, gt) - _mae_naive(pred, gt)),
        )
    gt = (rng.random((6, 6)) > 0.5).astype(float)
    anchors = (
        iou(gt, gt) == 1.0
        and iou(1.0 - gt, gt) == 0.0
        and abs(f_measure(np.array([1.0, 1, 1, 1]), np.array([1.0, 0, 1, 0]), beta_sq=0.3)
                - 1.3 * 0.5 / 1.15) < 1e-12
        and abs(pearson_cc(1.0 - gt, gt) + 1.0) < 1e-12
        and e_measure(gt, gt) == 1.0
    )
    # p = 0.5 everywhere -> summed cross entropy is H*W*ln(2)
    from cbce.seghead import MaskPrediction, bce_loss

    logits = Tensor(np.zeros((6, 6)))
    bce_anchor = abs(
        bce_loss(MaskPrediction(logits), np.zeros((6, 6))).item()
        - 36 * np.log(2.0)
    ) < 1e-9
    ok = worst < 1e-9 and anchors and bce_anchor
    _criterion(2, "metric-oracles", ok, f"200 random pairs, worst |diff|={worst:.2e}")


def test_criterion_3_architecture_invariants():
    rng = np.random.default_rng(1)
    unit_ok = simplex_ok = True
    for seed in range(10):
        vlm = Vlm(c_l=5, c_v=6, rng=np.random.default_rng(10 + seed))
        fused = Tensor(rng.standard_normal((3, 3, 6)) * 2.0)
        lang = Tensor(rng.standard_normal(5))
        out, attn = vlm.forward(lang, fused, return_attention=True)
        unit_ok &= abs(np.linalg.norm(out.data) - 1.0) < 1e-6
        simplex_ok &= bool((attn.data >= 0).all() and abs(attn.data.sum() - 1.0) < 1e-6)

    lvm = Lvm(3, c_l=4, c_v=5, rng=np.random.default_rng(2))
    for src in lvm.sources:
        w, b = lvm.gates[src]
        w.data[:] = 0.0
        b.data[:] = -1e9
    feats = {i: Tensor(rng.standard_normal((3, 3, 5))) for i in (3, 4, 5)}
    identity_ok = np.array_equal(
        lvm.forward(Tensor(rng.standard_normal(4)), feats).data, feats[3].data
    )

    cim = Cim(c_l=3, c_v=4, rounds=2, rng=np.random.default_rng(3))
    fused0 = {i: Tensor(rng.standard_normal((2, 2, 4))) for i in (3, 4, 5)}
    lang0 = Tensor(rng.standard_normal(3))
    state = cim.forward(lang0, fused0, cycles=1)
    l1 = {i: cim.vlm[i][0].forward(lang0, fused0[i]) for i in (3, 4, 5)}
    f1 = {i: cim.lvm[i][0].forward(l1[i], fused0) for i in (3, 4, 5)}
    l2 = {i: cim.vlm[i][1].forward(l1[i], f1[i]) for i in (3, 4, 5)}
    f2 = {i: cim.lvm[i][1].forward(l2[i], f1) for i in (3, 4, 5)}
    unroll_ok = all(
        np.array_equal(state.fused[i].data, f2[i].data)
        and np.array_equal(state.lang[i].data, l2[i].data)
        for i in (3, 4, 5)
    )
    ok = unit_ok and simplex_ok and identity_ok and unroll_ok
    _criterion(
        3, "architecture-invariants", ok,
        f"unit-norm={unit_ok} attention-simplex={simplex_ok} "
        f"gate-identity={identity_ok} unrolled-equality={unroll_ok}",
    )


def test_criterion_4_toy_training(toy_cfg, toy_data, toy_run):
    result, elapsed = toy_run
    head, tail = smoothed(result.losses)
    ratio = tail / head
    report = evaluate_checkpoint(result.checkpoint_path, toy_data)
    iou_score = report.overall["iou"]
    ok = (
        result.steps <= 3000
        and ratio <= LOSS_RATIO_LIMIT
        and iou_score >= IOU_FLOOR
        and elapsed <= TOY_RUN_SECONDS
    )
    _criterion(
        4, "toy-training", ok,
        f"{result.steps} steps in {elapsed:.0f}s, smoothed loss {head:.0f}->{tail:.0f} "
        f"(ratio {ratio:.3f} <= {LOSS_RATIO_LIMIT}), held-out IoU {iou_score:.3f} "
        f">= {IOU_FLOOR}",
    )


def test_criterion_5_phrase_conditioning(toy_cfg, toy_run, tmp_path_factory):
    from cbce.metrics import iou as iou_fn

    result, _ = toy_run
    pair_dir = tmp_path_factory.mktemp("pairs")
    records = generate_pair_fixtures(toy_cfg.synth, pair_dir, count=50)
    model, vocab = model_from_checkpoint(load_checkpoint(result.checkpoint_path))
    by_image = {}
    for rec in records:
        by_image.setdefault(rec.image_path, []).append(rec)
    passed = 0
    for pair in by_image.values():
        a, b = pair
        image = a.load_image()
        prob_a = model.forward(image, vocab.encode_phrases(a.phrases)).prob_map
        prob_b = model.forward(image, vocab.encode_phrases(b.phrases)).prob_map
        mutual = iou_fn(prob_a, (prob_b >= 0.5).astype(float))
        own_a = iou_fn(prob_a, a.load_mask())
        own_b = iou_fn(prob_b, b.load_mask())
        if mutual < 0.2 and own_a >= 0.6 and own_b >= 0.6:
            passed += 1
    frac = passed / len(by_image)
    ok = frac >= CONDITIONING_FRACTION
    _criterion(
        5, "phrase-conditioning", ok,
        f"{passed}/{len(by_image)} two-object images pass (need >= "
        f"{CONDITIONING_FRACTION:.0%}): swapped-phrase masks disjoint and on-target",
    )


def test_criterion_6_ablation_trends(toy_cfg, toy_data, toy_run, tmp_path_factory):
    result, _ = toy_run
    iou_n4 = evaluate_checkpoint(result.checkpoint_path, toy_data).overall["iou"]

    # same budget, one phrase per sample
    cfg_n1 = load_config(CONFIG_PATH)
    cfg_n1.model.n_phrases = 1
    out_n1 = tmp_path_factory.mktemp("ablate_n1")
    res_n1 = train(cfg_n1, toy_data, out_n1)
    iou_n1 = evaluate_checkpoint(res_n1.checkpoint_path, toy_data).overall["iou"]
    phrase_ok = iou_n4 > iou_n1

    # cycle count: short runs must complete and report full metric blocks
    cycle_metrics = {1: evaluate_checkpoint(result.checkpoint_path, toy_data,
                                            limit=60).overall}
    for cycles in (2, 3):
        cfg_c = load_config(CONFIG_PATH)
        cfg_c.model.cycles = cycles
        cfg_c.max_steps = 900
        out_c = tmp_path_factory.mktemp(f"ablate_c{cycles}")
        res_c = train(cfg_c, toy_data, out_c)
        cycle_metrics[cycles] = evaluate_checkpoint(res_c.checkpoint_path, toy_data,
                                                    limit=60).overall
    cycles_ok = all(
        set(m) == {"iou", "fbeta", "ephi", "cc", "mae"} for m in cycle_metrics.values()
    )
    ok = phrase_ok and cycles_ok
    cycle_str = ", ".join(f"cycles={k}: iou={v['iou']:.3f}" for k, v in cycle_metrics.items())
    _criterion(
        6, "ablation-trends", ok,
        f"IoU(n=4)={iou_n4:.3f} > IoU(n=1)={iou_n1:.3f}; {cycle_str}",
    )


def test_criterion_7_determinism_and_persistence(toy_cfg, toy_data, tmp_path_factory):
    # identical seeds, identical loss traces
    cfg = load_config(CONFIG_PATH)
    cfg.max_steps = 40
    run_a = train(cfg, toy_data, tmp_path_factory.mktemp("det_a"))
    run_b = train(cfg, toy_data, tmp_path_factory.mktemp("det_b"))
    traces_ok = run_a.losses == run_b.losses

    # checkpoint round trip: bit-identical forward outputs
    model1, vocab1 = model_from_checkpoint(load_checkpoint(run_a.checkpoint_path))
    model2, vocab2 = model_from_checkpoint(load_checkpoint(run_a.checkpoint_path))
    rec = load_manifest(os.path.join(toy_data, "test.jsonl"))[0]
    out1 = model1.forward(rec.load_image(), vocab1.encode_phrases(rec.phrases)).prob_map
    out2 = model2.forward(rec.load_image(), vocab2.encode_phrases(rec.phrases)).prob_map
    ckpt_ok = np.array_equal(out1, out2)

    # manifest and report files round-trip
    records = load_manifest(os.path.join(toy_data, "manifest.jsonl"))
    tmp = tmp_path_factory.mktemp("roundtrip")
    save_manifest(records, os.path.join(tmp, "copy.jsonl"))
    manifest_ok = load_manifest(os.path.join(tmp, "copy.jsonl")) == records

    report = evaluate_dataset(lambda r: r.load_mask(), records[:5])
    report.write_json(os.path.join(tmp, "report.json"))
    report_ok = MetricReport.from_json(os.path.join(tmp, "report.json")).to_dict() == \
        report.to_dict()

    ok = traces_ok and ckpt_ok and manifest_ok and report_ok
    _criterion(
        7, "determinism-and-persistence", ok,
        f"loss-traces={traces_ok} checkpoint-bitwise={ckpt_ok} "
        f"manifest-roundtrip={manifest_ok} report-roundtrip={report_ok}",
    )
