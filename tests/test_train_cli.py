"""Checkpoint persistence, short training runs, and the CLI surface."""
import gc
import json
import os
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbce import checkpoint as checkpoint_mod
from cbce import train as train_mod
from cbce.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from cbce.cli import main
from cbce.datakit import (
    SHAPE_FOR_CLASS,
    ManifestRecord,
    SynthConfig,
    load_manifest,
    save_manifest,
    synth_generate,
    write_mask,
)
from cbce.model import CbceNet, ModelConfig
from cbce.tensor import NumericError
from cbce.train import (
    TrainConfig,
    config_from_dict,
    config_to_dict,
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


@pytest.fixture(scope="module")
def tiny_ckpt(tmp_path_factory, tiny_data):
    result = train(_tiny_config(max_steps=2), tiny_data, tmp_path_factory.mktemp("tinyrun"))
    return result.checkpoint_path


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


def test_truncated_checkpoint_rejected(tmp_path, tiny_ckpt):
    with open(tiny_ckpt, "rb") as fh:
        blob = fh.read()
    for cut in (3, len(blob) - 30):  # into the tensor payload, into the header
        path = tmp_path / f"cut{cut}.cbce"
        path.write_bytes(blob[:-cut])
        with pytest.raises(ValueError, match="truncated") as ei:
            load_checkpoint(path)
        assert str(path) in str(ei.value)


@pytest.mark.parametrize("extra", [1, 4096])
def test_trailing_bytes_rejected(tmp_path, tiny_data, tiny_ckpt, capsys, extra):
    # bytes past the last tensor's offset + nbytes used to load silently
    with open(tiny_ckpt, "rb") as fh:
        blob = fh.read()
    path = tmp_path / "long.cbce"
    path.write_bytes(blob + b"\0" * extra)
    with pytest.raises(ValueError, match=f"has {extra} bytes after its last tensor") as ei:
        load_checkpoint(path)
    assert str(path) in str(ei.value)
    assert main(["eval", "--ckpt", str(path), "--data", tiny_data]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and f"{extra} bytes" in err


def test_load_holds_no_copy_of_the_whole_payload(tmp_path):
    # 12 tensors of 1 MB: loading needs the arrays plus about one tensor's
    # bytes at a time, not a second copy of the 12-MB payload
    rng = np.random.default_rng(0)
    arrays = {f"w{i}": rng.standard_normal(2**17) for i in range(4)}
    ckpt = Checkpoint(config={}, params=arrays, adam_m=dict(arrays), adam_v=dict(arrays))
    path = tmp_path / "big.cbce"
    save_checkpoint(path, ckpt)
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    total = 3 * sum(a.nbytes for a in arrays.values())
    assert peak < total * 1.3
    for name, arr in arrays.items():
        np.testing.assert_array_equal(loaded.adam_v[name], arr)


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "model.cbce"
    first = Checkpoint(config={"vocab": []}, params={"w": np.zeros(64)})
    save_checkpoint(path, first)
    before = path.read_bytes()

    real_open = open

    class HalfWritten:
        """File that accepts the first write and fails on the next."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            if self.fh.tell():
                raise OSError("no space left on device")
            self.fh.write(data)

    monkeypatch.setattr(checkpoint_mod, "open",
                        lambda *a, **kw: HalfWritten(real_open(*a, **kw)), raising=False)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(path, Checkpoint(config={"vocab": []}, params={"w": np.ones(64)}))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.cbce"]
    np.testing.assert_array_equal(load_checkpoint(path).params["w"], np.zeros(64))


def test_checkpoint_model_is_frozen_and_records_no_graph(tiny_data, tiny_ckpt):
    model, vocab = model_from_checkpoint(load_checkpoint(tiny_ckpt))
    assert not any(p.requires_grad for p in model.parameters().values())
    rec = load_manifest(os.path.join(tiny_data, "test.jsonl"))[0]
    phrases = vocab.encode_phrases(rec.phrases)
    frozen = model.forward(rec.load_image(), phrases)
    assert frozen.logits.node is None

    # the same model with grads re-enabled records a graph and the same map
    for p in model.parameters().values():
        p.requires_grad = True
    recorded = model.forward(rec.load_image(), phrases)
    assert recorded.logits.node is not None
    np.testing.assert_array_equal(frozen.prob_map, recorded.prob_map)


def test_frozen_forward_still_fails_fast(tiny_data, tiny_ckpt):
    ckpt = load_checkpoint(tiny_ckpt)
    ckpt.params["encoder.stage1.w"][0] = np.inf
    model, vocab = model_from_checkpoint(ckpt)
    assert not model.encoder.stages[0][0].requires_grad  # the check runs unrecorded
    rec = load_manifest(os.path.join(tiny_data, "test.jsonl"))[0]
    with np.errstate(invalid="ignore", over="ignore"), \
            pytest.raises(NumericError, match="conv2d"):
        model.forward(rec.load_image(), vocab.encode_phrases(rec.phrases))


def _overflow_input_gate(params: dict) -> None:
    # every x @ Wx_i sums c_l products of max magnitude: +inf, which sigmoid
    # would squash to 1 if the pre-activation went unchecked
    params["phrases.embedding"][:] = 1.0
    params["phrases.wx_i"][:] = np.finfo(params["phrases.wx_i"].dtype).max


def test_phrase_lstm_overflow_fails_fast(tiny_data, tiny_ckpt):
    rec = load_manifest(os.path.join(tiny_data, "test.jsonl"))[0]
    ckpt = load_checkpoint(tiny_ckpt)
    _overflow_input_gate(ckpt.params)
    frozen, vocab = model_from_checkpoint(ckpt)
    training = CbceNet(ModelConfig(**TINY_MODEL), len(vocab), rng=0)
    _overflow_input_gate({k: t.data for k, t in training.parameters().items()})
    phrases = vocab.encode_phrases(rec.phrases)
    for model in (frozen, training):
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="'lstm_phrases'"):
            model.forward(rec.load_image(), phrases)


def test_cli_eval_survives_constant_maps(tmp_path, tiny_data, tiny_ckpt, capsys):
    # one record with an empty ground-truth mask, one with its own mask
    recs = load_manifest(os.path.join(tiny_data, "test.jsonl"))[:2]
    empty = tmp_path / "empty.pgm"
    write_mask(empty, np.zeros(recs[0].load_mask().shape))
    recs[0].mask_path = str(empty)
    manifest = tmp_path / "edge.jsonl"
    save_manifest(recs, manifest)

    assert main(["eval", "--ckpt", tiny_ckpt, "--data", str(manifest),
                 "--report", str(tmp_path / "rep")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["images"] == 2 and out["cc_images"] == 1
    assert out["overall"]["cc"] is not None

    # a head bias this large saturates the float32 sigmoid: every map is 1.0
    ckpt = load_checkpoint(tiny_ckpt)
    ckpt.params["head.mask.b"][...] = 1e3
    saturated = tmp_path / "saturated.cbce"
    save_checkpoint(saturated, ckpt)
    assert main(["eval", "--ckpt", str(saturated), "--data", str(manifest)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cc_images"] == 0 and out["overall"]["cc"] is None
    assert out["overall"]["mae"] > 0


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


def test_training_reads_each_scene_at_its_step(tmp_path, tiny_data, monkeypatch):
    # 6 training records and 4 steps: a resident cache would read all 6 up front
    calls = []
    for name in ("load_image", "load_mask"):
        def counted(self, read=getattr(ManifestRecord, name), name=name):
            calls.append(name)
            return read(self)
        monkeypatch.setattr(ManifestRecord, name, counted)
    held = []
    make = train_mod._samples

    def keep(*args):
        held.append(make(*args))
        return held[-1]

    monkeypatch.setattr(train_mod, "_samples", keep)
    assert train(_tiny_config(max_steps=4), tiny_data, tmp_path / "run").steps == 4
    assert calls == ["load_image", "load_mask"] * 4
    (samples,) = held
    assert len(samples) == 6
    assert not any(isinstance(x, np.ndarray) for sample in samples for x in sample)


def test_training_is_seed_deterministic(tmp_path, tiny_data):
    cfg = _tiny_config(max_steps=6)
    r1 = train(cfg, tiny_data, tmp_path / "a")
    r2 = train(cfg, tiny_data, tmp_path / "b")
    assert r1.losses == r2.losses
    log1 = [json.loads(l) for l in open(r1.log_path)]
    log2 = [json.loads(l) for l in open(r2.log_path)]
    assert [l.get("loss") for l in log1] == [l.get("loss") for l in log2]


def test_checkpoints_only_for_completed_epochs(tmp_path, tiny_data):
    # 6 training records: epoch 0 completes; max_steps=8 cuts epoch 1 short,
    # and without it epoch 1 completes the run, whose state model.cbce holds
    for max_steps, steps in ((8, 8), (None, 12)):
        run = tmp_path / f"run{steps}"
        result = train(_tiny_config(epochs=2, max_steps=max_steps), tiny_data, run)
        assert result.steps == steps
        files = sorted(os.listdir(run))
        assert files == ["ckpt_epoch000.cbce", "model.cbce", "train_log.jsonl"]
        assert result.epoch_checkpoints == [str(run / "ckpt_epoch000.cbce")]
        contents = [(run / name).read_bytes() for name in files]
        assert len(set(contents)) == len(files)
        assert load_checkpoint(result.checkpoint_path).step == steps
        assert load_checkpoint(result.epoch_checkpoints[0]).step == 6


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
    report = evaluate_dataset(lambda r: r.load_mask(), records)
    assert report.overall["iou"] == 1.0
    assert report.overall["mae"] == 0.0


def test_evaluate_checkpoint_smoke(tmp_path, tiny_data):
    cfg = _tiny_config(max_steps=2)
    result = train(cfg, tiny_data, tmp_path / "run")
    report = evaluate_checkpoint(result.checkpoint_path, tiny_data,
                                 report_prefix=str(tmp_path / "rep"))
    assert 0.0 <= report.overall["iou"] <= 1.0
    assert (tmp_path / "rep.csv").exists() and (tmp_path / "rep.json").exists()


def test_evaluate_checkpoint_scores_each_record_as_it_is_predicted(tmp_path, tiny_data,
                                                                  tiny_ckpt, monkeypatch):
    from cbce import seghead
    from cbce.metrics import evaluate_dataset

    # the path it replaced: every probability map held, then scored
    model, vocab = model_from_checkpoint(load_checkpoint(tiny_ckpt))
    records = load_manifest(os.path.join(tiny_data, "test.jsonl"))
    n = model.cfg.n_phrases
    preds = {r.id: model.forward(r.load_image(), vocab.encode_phrases(r.phrases[:n])).prob_map
             for r in records}
    evaluate_dataset(lambda r: preds[r.id], records).write_json(tmp_path / "held.json")
    del preds

    maps, sigmoid = [], seghead._sigmoid  # MaskPrediction.prob_map's only producer

    def one_alive(x):
        assert all(ref() is None for ref in maps), "an earlier prediction is still alive"
        out = sigmoid(x)
        maps.append(weakref.ref(out))
        return out

    monkeypatch.setattr(seghead, "_sigmoid", one_alive)
    evaluate_checkpoint(tiny_ckpt, tiny_data, report_prefix=str(tmp_path / "streamed"))
    assert len(maps) == len(records) > 1
    assert (tmp_path / "streamed.json").read_text() == (tmp_path / "held.json").read_text()


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


def test_cli_checkpoint_path_that_is_a_directory(tmp_path, capsys):
    # reading a directory raises IsADirectoryError, an OSError but not a
    # FileNotFoundError; it used to escape main as a traceback
    assert main(["eval", "--ckpt", str(tmp_path), "--data", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_cli_infer_rejects_threshold_outside_unit_interval(tmp_path, tiny_data, tiny_ckpt,
                                                           capsys):
    # infer binarizes like eval: 1.5 used to write an all-background mask
    rec = load_manifest(os.path.join(tiny_data, "test.jsonl"))[0]
    out = tmp_path / "inf"
    assert main(["infer", "--ckpt", tiny_ckpt, "--image", rec.image_path,
                 "--phrase", rec.phrases[0], "--out", str(out), "--threshold", "1.5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "threshold must lie in (0, 1)" in err
    assert not os.path.exists(f"{out}_mask.pgm")
    # the value is checked before the checkpoint is read
    assert main(["infer", "--ckpt", str(tmp_path / "missing.cbce"), "--image", rec.image_path,
                 "--phrase", rec.phrases[0], "--out", str(out), "--threshold", "1.5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "threshold must lie in (0, 1)" in err


@pytest.mark.parametrize("flag, value, message", [
    ("--threshold", "1.5", "threshold must lie in (0, 1)"),
    ("--beta-sq", "0", "beta_sq must be positive"),
])
def test_cli_eval_rejects_out_of_range_values_before_reading_checkpoint(
        tmp_path, tiny_data, flag, value, message, capsys):
    assert main(["eval", "--ckpt", str(tmp_path / "missing.cbce"), "--data", tiny_data,
                 flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("path", ["configs/toy.json", "configs/full_scale.json",
                                  "bench/configs/mid.json"])
def test_shipped_configs_load(path):
    # a removed config field that a shipped config still sets fails here
    # first, not in the benchmark
    full = os.path.join(os.path.dirname(__file__), "..", path)
    with open(full, encoding="utf-8") as fh:
        raw = json.load(fh)
    cfg = load_config(full)
    assert cfg.model.dtype == raw["model"]["dtype"]
    for key, value in raw["train"].items():
        assert getattr(cfg, key) == value
    assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


@pytest.mark.parametrize("section,key", [("model", "c_vv"), ("train", "epoch"),
                                         ("train", "seed"), ("synth", "sizes"),
                                         ("top-level", "modle"),
                                         ("model", 5), ("synth", [3]), ("top-level", [1, 2])])
def test_cli_unknown_config_key_is_a_validation_error(tmp_path, capsys, section, key):
    path = tmp_path / "cfg.json"
    if not isinstance(key, str):
        # a section that is not an object used to escape as a TypeError
        raw = key if section == "top-level" else {section: key}
        key = "must be a JSON object"
    elif section == "top-level":
        # misspelled sections used to load silently with the default settings
        raw = {key: {"c_l": 8}, "trian": {"epochs": 1}}
    else:
        raw = {section: {key: 3}}
    path.write_text(json.dumps(raw))
    assert main(["synth", "--config", str(path), "--out", str(tmp_path / "data")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and section in err and key in err
    assert not (tmp_path / "data").exists()


# any finite float survives a JSON round trip exactly
_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    base_lr=_finite,
    crop_size=st.none() | st.integers(1, 512),
    max_steps=st.none() | st.integers(1, 10**6),
    backbone=st.lists(st.integers(1, 64), min_size=5, max_size=5).map(tuple),
    dtype=st.sampled_from(["float32", "float64"]),
    cycles=st.integers(1, 3),
    classes=st.lists(st.sampled_from(sorted(SHAPE_FOR_CLASS)), min_size=2,
                     unique=True).map(tuple),
    target_scale=st.tuples(_finite, _finite),
    synth_seed=st.integers(0, 2**32 - 1),
)
def test_config_round_trips_through_json(seed, base_lr, crop_size, max_steps, backbone, dtype,
                                         cycles, classes, target_scale, synth_seed):
    cfg = TrainConfig(
        seed=seed, base_lr=base_lr, crop_size=crop_size, max_steps=max_steps,
        model=ModelConfig(backbone_channels=backbone, dtype=dtype, cycles=cycles),
        synth=SynthConfig(classes=classes, target_scale=target_scale, seed=synth_seed),
    )
    raw = json.loads(json.dumps(config_to_dict(cfg)))
    assert isinstance(raw["model"]["backbone_channels"], list)
    assert config_from_dict(raw) == cfg


def test_checkpoint_config_parses_back_to_the_run_config(tiny_ckpt):
    config = load_checkpoint(tiny_ckpt).config
    assert config["vocab"][:2] == ["<pad>", "<unk>"]
    cfg = config_from_dict({k: v for k, v in config.items() if k != "vocab"})
    assert cfg == _tiny_config(max_steps=2)
    assert cfg.max_steps == 2 and cfg.synth.size == 48  # neither was recorded before


def test_old_layout_checkpoint_still_evaluates(tmp_path, tiny_data, tiny_ckpt, capsys):
    # checkpoints written before the header held the whole config: the run
    # seed sat inside "train", and max_steps and "synth" were missing
    ckpt = load_checkpoint(tiny_ckpt)
    ckpt.config = {
        "model": ckpt.config["model"],
        "train": {"seed": 3, "epochs": 1, "base_lr": 1e-3, "weight_decay": 5e-4,
                  "poly_power": 0.9, "batch_size": 1, "crop_size": None},
        "vocab": ckpt.config["vocab"],
    }
    path = tmp_path / "old.cbce"
    save_checkpoint(path, ckpt)
    model, _ = model_from_checkpoint(load_checkpoint(path))
    assert model.cfg == _tiny_config().model
    assert main(["eval", "--ckpt", str(path), "--data", tiny_data, "--limit", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["images"] == 2


def test_tensor_in_unknown_group_is_a_validation_error(tmp_path, tiny_data, tiny_ckpt,
                                                       monkeypatch, capsys):
    # such an entry used to escape `cbce eval` as a KeyError
    ckpt, path = load_checkpoint(tiny_ckpt), tmp_path / "odd.cbce"
    with monkeypatch.context() as m:
        m.setattr(checkpoint_mod, "GROUPS", checkpoint_mod.GROUPS + (("adam_w", "adam_m"),))
        save_checkpoint(path, ckpt)
    with pytest.raises(ValueError, match="unknown group 'adam_w'"):
        load_checkpoint(path)
    assert main(["eval", "--ckpt", str(path), "--data", tiny_data]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "adam_w" in err


def _rewrite_header(src, dst, edit):
    """Copy the checkpoint at src to dst with its JSON header replaced by
    ``edit(header)``; returns the new header."""
    with open(src, "rb") as fh:
        blob = fh.read()
    (hlen,) = struct.unpack("<Q", blob[12:20])  # after the magic and the version
    header = edit(json.loads(blob[20 : 20 + hlen]))
    new = json.dumps(header).encode()
    dst.write_bytes(blob[:12] + struct.pack("<Q", len(new)) + new + blob[20 + hlen :])
    return header


def test_tensor_with_unknown_dtype_is_a_validation_error(tmp_path, tiny_data, tiny_ckpt, capsys):
    # such an entry used to escape `cbce eval` as a KeyError
    def edit(header):
        header["tensors"][3]["dtype"] = "float16"
        return header

    path = tmp_path / "odd.cbce"
    entry = _rewrite_header(tiny_ckpt, path, edit)["tensors"][3]
    with pytest.raises(ValueError, match=f"tensor '{entry['name']}' has unsupported dtype "
                                         "'float16'"):
        load_checkpoint(path)
    assert main(["eval", "--ckpt", str(path), "--data", tiny_data]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "float16" in err


def _drop(record: dict, key: str) -> dict:
    return {k: v for k, v in record.items() if k != key}


@pytest.mark.parametrize("edit, message, names_path", [
    (list, "header is a JSON list, not an object", True),
    (lambda h: _drop(h, "tensors"), "header has no 'tensors'", True),
    (lambda h: _drop(h, "adam_t"), "header has no 'adam_t'", True),
    (lambda h: {**h, "tensors": 5}, "header 'tensors' is not a list", True),
    (lambda h: {**h, "tensors": [_drop(e, "offset") for e in h["tensors"]]},
     "tensor entry has no 'offset'", True),
    (lambda h: {**h, "config": _drop(h["config"], "vocab")},
     "checkpoint config has no 'vocab' section", False),
], ids=["list", "no-tensors", "no-adam_t", "tensors-number", "entry-no-offset", "no-vocab"])
def test_malformed_checkpoint_header_is_a_validation_error(tmp_path, tiny_data, tiny_ckpt,
                                                           capsys, edit, message, names_path):
    # each used to escape `cbce eval` as a TypeError or a KeyError
    path = tmp_path / "odd.cbce"
    _rewrite_header(tiny_ckpt, path, edit)
    assert main(["eval", "--ckpt", str(path), "--data", tiny_data]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert (str(path) in err) == names_path


_RECORD = {"id": "x", "image": "i.ppm", "mask": "m.pgm", "affordance": "roll",
           "phrases": ["can roll"]}


@pytest.mark.parametrize("line, message", [
    ("5", "record is a JSON int, not an object"),
    # `"id" in text` tests for a substring, so this passed the fields check
    (json.dumps(" ".join(_RECORD)), "record is a JSON str, not an object"),
    (json.dumps({**_RECORD, "image": 3}), r"fields \['image'\] must be text"),
], ids=["number", "string", "image-number"])
def test_manifest_line_that_is_not_a_record(tmp_path, tiny_ckpt, capsys, line, message):
    # each used to escape `cbce eval` as a TypeError
    path = tmp_path / "m.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(ValueError, match=f"m.jsonl:1: {message}"):
        load_manifest(path)
    assert main(["eval", "--ckpt", tiny_ckpt, "--data", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:1: ")


@pytest.mark.parametrize("dtype", ["float16", "int32", "bfloat"])
def test_unsupported_model_dtype_rejected_when_the_config_loads(tmp_path, capsys, dtype):
    # float16 used to run until the first Adam step refused a float64
    # gradient, and "bfloat" escaped the CLI as a TypeError
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"dtype": dtype}}))
    with pytest.raises(ValueError, match=f"dtype.*'{dtype}'"):
        load_config(path)
    out = tmp_path / "run"
    argv = ["train", "--config", str(path), "--data", str(tmp_path / "data"), "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "dtype" in captured.err
    assert not out.exists()


def test_cli_gradcheck_smoke(capsys):
    argv = ["gradcheck", "--op", "bilinear_fuse", "--op", "attend_pool", "--op", "gate_aggregate",
            "--seeds", "3"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "bilinear_fuse" in out and "attend_pool" in out and "gate_aggregate" in out


@pytest.mark.parametrize("argv", [
    ["gradcheck", "--seeds", "0"],
    ["gradcheck", "--seeds", "-2"],
    ["eval", "--ckpt", "x.cbce", "--data", "d", "--limit", "0"],
    ["eval", "--ckpt", "x.cbce", "--data", "d", "--limit", "-1"],
    ["synth", "--config", "c.json", "--out", "d", "--pairs", "-1"],
])
def test_cli_rejects_counts_below_one(argv, capsys):
    # --seeds 0 used to pass every op after checking nothing; --limit -1
    # used to score all records but the last; --pairs -1 wrote an empty
    # pairs.jsonl
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "at least 1" in captured.err


def test_toy_300_steps_halves_smoothed_loss(tmp_path):
    # short run on the shipped toy config: trailing smoothed loss must fall
    # to half its starting level within 300 steps
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "toy.json"))
    cfg.max_steps = 300
    synth_generate(cfg.synth, tmp_path / "data")
    result = train(cfg, tmp_path / "data", tmp_path / "run")
    head, tail = smoothed(result.losses)
    assert tail <= 0.5 * head, (head, tail)


def test_load_state_copies_into_existing_buffers(tiny_ckpt):
    from cbce.optim import AdamState, adam_step

    ckpt = load_checkpoint(tiny_ckpt)
    model = CbceNet(config_from_dict({"model": ckpt.config["model"]}).model,
                    len(ckpt.config["vocab"]), rng=1)
    params = model.parameters()
    state = AdamState.for_params(params)
    model.load_state(ckpt.params)
    for name, p in params.items():
        assert p.data is state.views[name]  # still the optimizer's view
        np.testing.assert_array_equal(p.data, ckpt.params[name])
        p.grad = np.zeros_like(p.data)
    adam_step(params, state, lr=1e-3)
    params["head.mask.w"].data = params["head.mask.w"].data.copy()
    with pytest.raises(ValueError, match="'head.mask.w'"):
        adam_step(params, state, lr=1e-3)


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
        return [GradCheckReport(label="linear", max_rel_error=1.0, tol=1e-4, checked=5)]

    monkeypatch.setattr("cbce.gradcheck.run_suite", fake_suite)
    assert main(["gradcheck", "--op", "linear", "--seeds", "1"]) == 2
    capsys.readouterr()


def test_smoothed_loss_helper():
    head, tail = smoothed([4.0, 4.0, 2.0, 1.0], window=2)
    assert head == 4.0 and tail == 1.5
    with pytest.raises(ValueError):
        smoothed([])


def test_batch_size_validation():
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=2)
