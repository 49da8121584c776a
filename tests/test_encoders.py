"""Visual pyramid and phrase encoder behavior."""
import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from per_op import mul, reference_lstm, tsum

from cbce.checkpoint import load_checkpoint
from cbce.datakit import synth_generate
from cbce.encoders import PhraseEncoder, PhraseSet, VisualEncoder, Vocabulary
from cbce.gradcheck import grad_check
from cbce.model import CbceNet, ModelConfig
from cbce.tensor import Tensor, backward
from cbce.train import load_config, train

PHRASES = ["move by rotating", "spherical", "can roll", "outdoor activities"]
TOY_STAGES = (8, 16, 32, 32, 32)  # configs/toy.json backbone_channels


def _vocab():
    return Vocabulary.from_corpus(PHRASES + ["hold water", "sharp edge", "grasp the handle"])


def test_pyramid_shape_contract_toy_config():
    enc = VisualEncoder(TOY_STAGES, c_out=32, feat_h=10, feat_w=10, rng=np.random.default_rng(0))
    img = Tensor(np.random.default_rng(1).random((80, 80, 3)))
    pyr = enc.forward(img)
    assert sorted(pyr) == [3, 4, 5]
    for lvl in (3, 4, 5):
        assert pyr[lvl].shape == (10, 10, 32)


def test_pyramid_differs_for_different_images():
    enc = VisualEncoder(TOY_STAGES, c_out=32, feat_h=10, feat_w=10, rng=np.random.default_rng(2))
    rng = np.random.default_rng(3)
    a = enc.forward(Tensor(rng.random((80, 80, 3))))
    b = enc.forward(Tensor(rng.random((80, 80, 3))))
    assert not np.allclose(a[5].data, b[5].data)


def test_image_below_total_stride_rejected():
    enc = VisualEncoder(TOY_STAGES, c_out=32, feat_h=10, feat_w=10, rng=np.random.default_rng(4))
    with pytest.raises(ValueError, match="stride"):
        enc.forward(Tensor(np.zeros((16, 16, 3))))


def test_gradient_reaches_first_stage_from_level5_loss():
    enc = VisualEncoder(
        stage_channels=(4, 4, 4, 4, 4), c_out=2, feat_h=2, feat_w=2,
        rng=np.random.default_rng(5),
    )
    img = Tensor(np.random.default_rng(6).random((32, 32, 3)), requires_grad=True)
    params = enc.parameters()
    rep = grad_check(
        lambda *_: tsum(enc.forward(img)[5]),
        [img, params["stage1.w"], params["stage1.b"]],
        max_coords_per_tensor=6,
        rng=np.random.default_rng(7),
    )
    assert rep.passed, rep
    backward(tsum(enc.forward(img)[5]))
    assert np.any(params["stage1.w"].grad)


def test_phrase_order_invariance_exact():
    vocab = _vocab()
    enc = PhraseEncoder(len(vocab), c_l=16, rng=np.random.default_rng(8))
    fwd = enc.forward(vocab.encode_phrases(PHRASES)).data
    rev = enc.forward(vocab.encode_phrases(PHRASES[::-1])).data
    np.testing.assert_array_equal(fwd, rev)


def test_identical_phrases_equal_single_phrase():
    vocab = _vocab()
    enc = PhraseEncoder(len(vocab), c_l=16, rng=np.random.default_rng(9))
    one = enc.forward(vocab.encode_phrases(["can roll"])).data
    four = enc.forward(vocab.encode_phrases(["can roll"] * 4)).data
    np.testing.assert_array_equal(one, four)


def test_pooled_feature_dominates_each_phrase():
    vocab = _vocab()
    enc = PhraseEncoder(len(vocab), c_l=16, rng=np.random.default_rng(10))
    pooled = enc.forward(vocab.encode_phrases(PHRASES)).data
    for p in PHRASES:
        single = enc.forward(vocab.encode_phrases([p])).data
        assert (pooled >= single - 1e-12).all()


def test_empty_phrase_rejected():
    vocab = _vocab()
    with pytest.raises(ValueError, match="empty phrase"):
        vocab.encode_phrases(["can roll", "  ...  "])
    with pytest.raises(ValueError, match="empty phrase"):
        PhraseSet(ids=np.zeros((1, 3), dtype=np.int64), lengths=np.array([0]), vocab_size=5)
    with pytest.raises(ValueError, match="empty phrase"):
        PhraseSet(ids=np.ones((2, 3), dtype=np.int64), lengths=np.array([2, 0]), vocab_size=5)


def test_vocabulary_round_trip_and_unk(tmp_path):
    vocab = _vocab()
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.tokens == vocab.tokens
    ids = loaded.encode("Spherical, UNSEEN-word!")
    assert ids[0] == loaded.index["spherical"]
    assert ids[1] == 1  # UNK
    assert loaded.unknown_tokens(["unseenword spherical"]) == ["unseenword"]


def test_vocab_file_format(tmp_path):
    vocab = _vocab()
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "<pad>" and lines[1] == "<unk>"
    assert len(lines) == len(vocab)


def test_all_parameters_receive_gradient_end_to_end():
    vocab = _vocab()
    cfg = ModelConfig(feat_h=4, feat_w=4, c_i=8, c_l=8, c_f=8, c_a=8, rank=4,
                      backbone_channels=(4, 4, 4, 4, 4))
    net = CbceNet(cfg, len(vocab), rng=12)
    rng = np.random.default_rng(13)
    img = rng.random((40, 40, 3))
    mask = (rng.random((40, 40)) > 0.7).astype(float)
    ps = vocab.encode_phrases(PHRASES)
    backward(net.loss(img, ps, mask))
    dead = [k for k, t in net.parameters().items() if t.grad is None or not np.any(t.grad)]
    # the pad row of the embedding is legitimately unused; nothing else may be
    assert dead == [], f"dead branches: {dead}"


# ---------------------------------------------------------------------------
# the fused phrase LSTM against the per-op recording it replaced


def _phrase_set(rows, vocab_size):
    ids = np.zeros((len(rows), max(len(r) for r in rows)), dtype=np.int64)
    for p, r in enumerate(rows):
        ids[p, : len(r)] = r
    return PhraseSet(ids=ids, lengths=[len(r) for r in rows], vocab_size=vocab_size)


def _assert_fused_equals_reference(rows, vocab_size, c_l, dtype, seed):
    rng = np.random.default_rng(seed)
    enc = PhraseEncoder(vocab_size, c_l=c_l, rng=rng)
    params = list(enc.parameters().values())
    for t in params:  # spread the values so gates leave their linear range
        t.data = rng.standard_normal(t.shape).astype(dtype)
    phrases = _phrase_set(rows, vocab_size)
    proj = Tensor(rng.standard_normal(c_l).astype(dtype))
    results = []
    for forward in (reference_lstm, PhraseEncoder.forward):
        out = forward(enc, phrases)
        backward(tsum(mul(out, proj)))
        results.append((out.data, [t.grad for t in params]))
        for t in params:
            t.grad = None
    (ref_out, ref_grads), (out, grads) = results
    assert out.dtype == dtype
    np.testing.assert_array_equal(out, ref_out)
    assert len(grads) == 13
    for name, g, ref in zip(enc.parameters(), grads, ref_grads):
        assert g.dtype == dtype, name
        np.testing.assert_array_equal(g, ref, err_msg=name)


PHRASE_SETS = {
    "one_phrase": [[2, 3, 4]],
    "single_token": [[3]],
    "repeated_in_phrase": [[2, 4, 2, 2]],
    "shared_across_phrases": [[2, 5], [5, 3], [4, 5]],
    "unequal_lengths": [[2, 3, 4, 5, 6], [7], [3, 6, 2]],
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(PHRASE_SETS))
def test_fused_lstm_bit_identical_to_per_op_recording(case, dtype):
    _assert_fused_equals_reference(PHRASE_SETS[case], 8, 16, dtype, seed=17)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=5), min_size=1, max_size=4),
    c_l=st.sampled_from([1, 3, 8, 32]),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**16),
)
def test_fused_lstm_bit_identical_on_random_sets(rows, c_l, dtype, seed):
    _assert_fused_equals_reference(rows, 6, c_l, dtype, seed)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_fused_lstm_training_bit_identical(dtype, tmp_path, monkeypatch):
    # three toy-scale steps: loss, parameters and Adam moments all bit-equal
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "toy.json"))
    cfg = dataclasses.replace(
        cfg, max_steps=3, model=dataclasses.replace(cfg.model, dtype=dtype),
        synth=dataclasses.replace(cfg.synth, samples=8),
    )
    synth_generate(cfg.synth, tmp_path / "data")
    fused = train(cfg, tmp_path / "data", tmp_path / "fused")
    monkeypatch.setattr(PhraseEncoder, "forward", reference_lstm)
    ref = train(cfg, tmp_path / "data", tmp_path / "ref")
    assert fused.losses == ref.losses and len(ref.losses) == 3
    a, b = load_checkpoint(fused.checkpoint_path), load_checkpoint(ref.checkpoint_path)
    for field in ("params", "adam_m", "adam_v"):
        got, want = getattr(a, field), getattr(b, field)
        assert sorted(got) == sorted(want)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=f"{field} {name}")
