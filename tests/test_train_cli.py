"""Checkpoint persistence, short training runs, and the CLI surface."""
import gc
import json
import os

import numpy as np
import pytest

from cbce.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from cbce.cli import main
from cbce.datakit import SynthConfig, synth_generate
from cbce.model import ModelConfig
from cbce.train import (
    TrainConfig,
    evaluate_checkpoint,
    infer,
    load_config,
    model_from_checkpoint,
    smoothed,
    train,
)

TINY_MODEL = dict(
    feat_h=4, feat_w=4, c_i=8, c_l=8, c_f=8, c_a=8, rank=4,
    backbone_channels=(4, 4, 4, 4, 4), dtype="float32",
)


def _tiny_config(**train_kw):
    return TrainConfig(
        seed=3,
        epochs=train_kw.pop("epochs", 1),
        base_lr=1e-3,
        crop_size=None,
        model=ModelConfig(**TINY_MODEL),
        synth=SynthConfig(size=48, samples=8, seed=3, target_scale=(18.0, 26.0),
                          distractor_range=(0, 1)),
        **train_kw,
    )


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("tinydata")
    cfg = _tiny_config()
    synth_generate(cfg.synth, root)
    return str(root)


def test_training_leaves_no_reference_cycle(tiny_data, tmp_path):
    # each step's graph must be freed by reference counting alone
    cfg = _tiny_config(max_steps=3)
    gc.collect()
    gc.disable()
    try:
        train(cfg, tiny_data, tmp_path / "run")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_checkpoint_binary_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    ck = Checkpoint(
        config={"model": {"c_i": 4}, "vocab": ["<pad>", "<unk>", "roll"]},
        params={"a.w": rng.standard_normal((3, 2)).astype(np.float32),
                "b": rng.standard_normal(5)},
        adam_m={"a.w": np.zeros((3, 2), dtype=np.float32)},
        adam_v={"a.w": np.ones((3, 2), dtype=np.float32)},
        adam_t=17,
        step=123,
        rng_state={"bit_generator": "PCG64", "state": {"state": 2**100 + 7, "inc": 3}},
    )
    path = tmp_path / "x.cbce"
    save_checkpoint(path, ck)
    back = load_checkpoint(path)
    assert back.step == 123 and back.adam_t == 17
    assert back.rng_state["state"]["state"] == 2**100 + 7
    for k in ck.params:
        np.testing.assert_array_equal(back.params[k], ck.params[k])
        assert back.params[k].dtype == ck.params[k].dtype
    with pytest.raises(ValueError, match="magic"):
        (tmp_path / "junk").write_bytes(b"NOTACKPT" + b"\x00" * 16)
        load_checkpoint(tmp_path / "junk")


def test_model_checkpoint_forward_bit_identical(tmp_path, tiny_data):
    cfg = _tiny_config(max_steps=2)
    result = train(cfg, tiny_data, tmp_path / "run")
    ckpt = load_checkpoint(result.checkpoint_path)
    model, vocab = model_from_checkpoint(ckpt)

    model2, vocab2 = model_from_checkpoint(load_checkpoint(result.checkpoint_path))
    from cbce.datakit import load_manifest

    rec = load_manifest(os.path.join(tiny_data, "test.jsonl"))[0]
    ps = vocab.encode_phrases(rec.phrases)
    a = model.forward(rec.load_image(), ps).prob_map
    b = model2.forward(rec.load_image(), vocab2.encode_phrases(rec.phrases)).prob_map
    np.testing.assert_array_equal(a, b)


def test_training_is_seed_deterministic(tmp_path, tiny_data):
    cfg = _tiny_config(max_steps=6)
    r1 = train(cfg, tiny_data, tmp_path / "a")
    r2 = train(cfg, tiny_data, tmp_path / "b")
    assert r1.losses == r2.losses
    log1 = [json.loads(l) for l in open(r1.log_path)]
    log2 = [json.loads(l) for l in open(r2.log_path)]
    assert [l.get("loss") for l in log1] == [l.get("loss") for l in log2]


def test_training_writes_expected_log_lines(tmp_path, tiny_data):
    cfg = _tiny_config(max_steps=2)
    result = train(cfg, tiny_data, tmp_path / "run")
    lines = [json.loads(l) for l in open(result.log_path)]
    step_lines = [l for l in lines if "loss" in l]
    assert len(step_lines) == 2
    assert {"step", "lr", "loss"} <= set(step_lines[0])
    assert result.steps == 2
    assert os.path.exists(result.checkpoint_path)


def test_evaluate_ground_truth_is_perfect(tmp_path, tiny_data):
    # metric path sanity: feeding the ground truth as predictions
    from cbce.datakit import load_manifest
    from cbce.metrics import evaluate_dataset

    records = load_manifest(os.path.join(tiny_data, "test.jsonl"))
    masks = {r.id: r.load_mask() for r in records}
    report = evaluate_dataset(masks, records, masks=masks)
    assert report.overall["iou"] == 1.0
    assert report.overall["mae"] == 0.0


def test_evaluate_checkpoint_smoke(tmp_path, tiny_data):
    cfg = _tiny_config(max_steps=2)
    result = train(cfg, tiny_data, tmp_path / "run")
    report = evaluate_checkpoint(result.checkpoint_path, tiny_data,
                                 report_prefix=str(tmp_path / "rep"))
    assert 0.0 <= report.overall["iou"] <= 1.0
    assert (tmp_path / "rep.csv").exists() and (tmp_path / "rep.json").exists()


def test_infer_deterministic_and_validates(tmp_path, tiny_data):
    from cbce.datakit import load_manifest

    cfg = _tiny_config(max_steps=2)
    result = train(cfg, tiny_data, tmp_path / "run")
    rec = load_manifest(os.path.join(tiny_data, "test.jsonl"))[0]
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    infer(result.checkpoint_path, rec.image_path, rec.phrases, out1)
    infer(result.checkpoint_path, rec.image_path, rec.phrases, out2)
    assert (tmp_path / "o1_mask.pgm").read_bytes() == (tmp_path / "o2_mask.pgm").read_bytes()
    assert (tmp_path / "o1_probs.npy").read_bytes() == (tmp_path / "o2_probs.npy").read_bytes()
    with pytest.raises(ValueError, match="phrase"):
        infer(result.checkpoint_path, rec.image_path, [], tmp_path / "o3")


def _write_cli_config(tmp_path):
    cfg = {
        "seed": 3,
        "synth": {"size": 48, "samples": 8, "target_scale": [18.0, 26.0],
                  "pair_scale": [14.0, 18.0], "distractor_range": [0, 1]},
        "model": dict(TINY_MODEL, backbone_channels=[4, 4, 4, 4, 4], n_phrases=4),
        "train": {"epochs": 1, "base_lr": 0.001, "crop_size": None, "max_steps": 2},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_end_to_end(tmp_path, capsys):
    cfg_path = _write_cli_config(tmp_path)
    data = str(tmp_path / "data")
    run = str(tmp_path / "run")

    assert main(["synth", "--config", cfg_path, "--out", data, "--pairs", "2"]) == 0
    assert os.path.exists(os.path.join(data, "vocab.txt"))
    assert os.path.exists(os.path.join(data, "pairs", "pairs.jsonl"))

    assert main(["train", "--config", cfg_path, "--data", data, "--out", run,
                 "--quiet"]) == 0
    ckpt = os.path.join(run, "model.cbce")
    assert os.path.exists(ckpt)

    assert main(["eval", "--ckpt", ckpt, "--data", data, "--threshold", "0.5",
                 "--beta-sq", "0.3", "--report", str(tmp_path / "rep")]) == 0
    assert os.path.exists(str(tmp_path / "rep") + ".json")

    from cbce.datakit import load_manifest

    rec = load_manifest(os.path.join(data, "test.jsonl"))[0]
    assert main(["infer", "--ckpt", ckpt, "--image", rec.image_path,
                 "--phrase", rec.phrases[0], "--out", str(tmp_path / "inf")]) == 0
    assert os.path.exists(str(tmp_path / "inf") + "_mask.pgm")
    capsys.readouterr()


def test_cli_exit_codes(tmp_path, capsys):
    # usage error: unknown command
    assert main(["bogus"]) == 1
    # validation error: missing files
    assert main(["train", "--config", str(tmp_path / "nope.json"),
                 "--data", "x", "--out", "y"]) == 1
    # infer without phrases is a usage error
    assert main(["infer", "--ckpt", "x", "--image", "y"]) == 1
    capsys.readouterr()


def test_cli_gradcheck_smoke(capsys):
    assert main(["gradcheck", "--op", "matmul", "--op", "softmax", "--seeds", "3"]) == 0
    out = capsys.readouterr().out
    assert "matmul" in out and "softmax" in out


def test_cbce_dtype_env_override(tmp_path, monkeypatch):
    cfg_path = _write_cli_config(tmp_path)
    monkeypatch.setenv("CBCE_DTYPE", "float64")
    cfg = load_config(cfg_path)
    assert cfg.model.dtype == "float64"
    monkeypatch.setenv("CBCE_DTYPE", "bogus")
    with pytest.raises(ValueError, match="CBCE_DTYPE"):
        load_config(cfg_path)


def test_toy_300_steps_halves_smoothed_loss(tmp_path):
    # short run on the shipped toy config: trailing smoothed loss must fall
    # to half its starting level within 300 steps
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "toy.json"))
    cfg.max_steps = 300
    cfg.checkpoint_every_epoch = False
    synth_generate(cfg.synth, tmp_path / "data")
    result = train(cfg, tmp_path / "data", tmp_path / "run")
    head, tail = smoothed(result.losses)
    assert tail <= 0.5 * head, (head, tail)


def test_freeze_backbone_keeps_stage_weights(tmp_path, tiny_data):
    from cbce.model import CbceNet

    cfg = _tiny_config(max_steps=3, freeze_backbone=True)
    result = train(cfg, tiny_data, tmp_path / "run")
    trained = load_checkpoint(result.checkpoint_path).params
    vocab_size = trained["phrases.embedding"].shape[0]
    reference = CbceNet(cfg.model, vocab_size, rng=np.random.default_rng([cfg.seed, 0]))
    ref_params = {k: t.data for k, t in reference.parameters().items()}
    for name in trained:
        if name.startswith("encoder.stage"):
            np.testing.assert_array_equal(trained[name], ref_params[name])
    assert not np.array_equal(trained["head.mask.w"], ref_params["head.mask.w"])


def test_checkpoint_dimension_mismatch_rejected(tmp_path, tiny_data):
    cfg = _tiny_config(max_steps=1)
    result = train(cfg, tiny_data, tmp_path / "run")
    ckpt = load_checkpoint(result.checkpoint_path)
    ckpt.params["head.mask.w"] = np.zeros((3, 3), dtype=np.float32)
    with pytest.raises(ValueError, match="dimension mismatch"):
        model_from_checkpoint(ckpt)


def test_cli_numeric_failure_exits_2(monkeypatch, capsys):
    from cbce.gradcheck import GradCheckReport

    def fake_suite(**kwargs):
        return [GradCheckReport(label="matmul", max_rel_error=1.0, tol=1e-4, checked=5)]

    monkeypatch.setattr("cbce.gradcheck.run_suite", fake_suite)
    assert main(["gradcheck", "--op", "matmul", "--seeds", "1"]) == 2
    capsys.readouterr()


def test_smoothed_loss_helper():
    head, tail = smoothed([4.0, 4.0, 2.0, 1.0], window=2)
    assert head == 4.0 and tail == 1.5
    with pytest.raises(ValueError):
        smoothed([])


def test_batch_size_validation():
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=2)
