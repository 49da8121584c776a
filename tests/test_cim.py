"""Cyclic interaction: attention update, gated aggregation, schedule."""
import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from per_op import mul, reference_lvm, reference_vlm, tsum

from cbce.checkpoint import load_checkpoint
from cbce.cim import Cim, Lvm, Vlm
from cbce.datakit import synth_generate
from cbce.encoders import TAPS
from cbce.gradcheck import grad_check
from cbce.tensor import NumericError, Tensor, backward, concat, reshape
from cbce.train import load_config, train


def _rng(seed):
    return np.random.default_rng(seed)


def _vlm_reference(lang, fused, mod):
    """Per-element reimplementation of the attention update."""
    h, w, c_v = fused.shape
    flat = fused.reshape(h * w, c_v)
    phi = flat @ mod.w_phi.data + mod.b_phi.data
    theta = lang @ mod.w_theta.data + mod.b_theta.data
    scores = np.array([float(np.dot(phi[p], theta)) for p in range(h * w)])
    z = scores / np.sqrt(c_v)
    z = z - z.max()
    attn = np.exp(z) / np.exp(z).sum()
    pooled = np.zeros(c_v)
    for p in range(h * w):
        pooled += attn[p] * flat[p]
    merged = np.concatenate([lang, pooled]) @ mod.w_out.data + mod.b_out.data
    out = merged / np.sqrt(np.dot(merged, merged) + 1e-12)
    return attn, pooled, out


def test_vlm_constant_map_gives_uniform_attention():
    mod = Vlm(c_l=4, c_v=3, rng=_rng(0))
    fused = Tensor(np.tile(np.array([0.3, -1.2, 0.8]), (3, 3, 1)))
    lang = Tensor(_rng(1).standard_normal(4))
    out, attn = mod.forward(lang, fused, return_attention=True)
    np.testing.assert_allclose(attn.data, np.full(9, 1 / 9), atol=1e-12)
    # pooled context equals the per-position feature row, so the update
    # matches pooling any single position
    _, pooled, ref_out = _vlm_reference(lang.data, fused.data, mod)
    np.testing.assert_allclose(pooled, [0.3, -1.2, 0.8], atol=1e-12)
    np.testing.assert_allclose(out.data, ref_out, atol=1e-12)


def test_vlm_dominant_position_saturates_attention():
    mod = Vlm(c_l=3, c_v=3, rng=_rng(2))
    fused = np.zeros((2, 2, 3))
    lang = np.full(3, 0.5)
    # make position (0, 0) score far above the rest: project lang, then
    # align that position's features with the projection direction
    theta = lang @ mod.w_theta.data + mod.b_theta.data
    direction = np.linalg.pinv(mod.w_phi.data.T) @ theta
    fused[0, 0] = 200.0 * direction / np.linalg.norm(direction)
    out, attn = mod.forward(Tensor(lang), Tensor(fused), return_attention=True)
    assert attn.data[0] > 1 - 1e-3
    flat = fused.reshape(4, 3)
    pooled = attn.data @ flat
    np.testing.assert_allclose(pooled, flat[0], atol=1e-3 * np.linalg.norm(flat[0]))


def test_vlm_matches_bruteforce_reference():
    mod = Vlm(c_l=5, c_v=3, rng=_rng(3))
    rng = _rng(4)
    fused = rng.standard_normal((2, 2, 3))
    lang = rng.standard_normal(5)
    out, attn = mod.forward(Tensor(lang), Tensor(fused), return_attention=True)
    ref_attn, _, ref_out = _vlm_reference(lang, fused, mod)
    np.testing.assert_allclose(attn.data, ref_attn, atol=1e-12)
    np.testing.assert_allclose(out.data, ref_out, atol=1e-12)


def test_vlm_output_unit_norm_and_attention_simplex():
    rng = _rng(5)
    for seed in range(20):
        mod = Vlm(c_l=4, c_v=6, rng=_rng(100 + seed))
        fused = Tensor(rng.standard_normal((3, 4, 6)) * 3.0)
        lang = Tensor(rng.standard_normal(4))
        out, attn = mod.forward(lang, fused, return_attention=True)
        assert abs(np.linalg.norm(out.data) - 1.0) < 1e-6
        assert (attn.data >= 0).all()
        assert abs(attn.data.sum() - 1.0) < 1e-6


def test_lvm_closed_gates_exact_identity():
    mod = Lvm(3, c_l=4, c_v=5, rng=_rng(6))
    for src in mod.sources:
        w, b = mod.gates[src]
        w.data[:] = 0.0
        b.data[:] = -1e9  # sigmoid underflows to exactly 0
    rng = _rng(7)
    feats = {i: Tensor(rng.standard_normal((3, 3, 5))) for i in (3, 4, 5)}
    out = mod.forward(Tensor(rng.standard_normal(4)), feats)
    np.testing.assert_array_equal(out.data, feats[3].data)


def test_lvm_zero_gates_give_half_sum():
    mod = Lvm(4, c_l=3, c_v=4, rng=_rng(8))
    for src in mod.sources:
        w, b = mod.gates[src]
        w.data[:] = 0.0
        b.data[:] = 0.0
    rng = _rng(9)
    feats = {i: Tensor(rng.standard_normal((2, 2, 4))) for i in (3, 4, 5)}
    out = mod.forward(Tensor(rng.standard_normal(3)), feats)
    expect = feats[4].data + 0.5 * (feats[3].data + feats[5].data)
    np.testing.assert_allclose(out.data, expect, atol=1e-12)


def test_lvm_matches_loop_oracle_and_gradients():
    mod = Lvm(5, c_l=3, c_v=4, rng=_rng(10))
    rng = _rng(11)
    feats = {i: Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True) for i in (3, 4, 5)}
    lang = Tensor(rng.standard_normal(3), requires_grad=True)
    out = mod.forward(lang, feats)

    expect = feats[5].data.copy()
    for src in (3, 4):
        w, b = mod.gates[src]
        gate = 1.0 / (1.0 + np.exp(-(lang.data @ w.data + b.data)))
        for r in range(2):
            for c in range(3):
                for ch in range(4):
                    expect[r, c, ch] += gate[ch] * feats[src].data[r, c, ch]
    np.testing.assert_allclose(out.data, expect, atol=1e-12)

    params = list(mod.parameters().values())
    rep = grad_check(lambda *_: mod.forward(lang, feats), [lang, *feats.values(), *params])
    assert rep.passed, rep


def _micro_cim(seed=13, rounds=2):
    cim = Cim(c_l=3, c_v=4, rounds=rounds, rng=_rng(seed))
    rng = _rng(seed + 1)
    fused0 = {i: Tensor(rng.standard_normal((2, 2, 4))) for i in (3, 4, 5)}
    lang0 = Tensor(rng.standard_normal(3))
    return cim, lang0, fused0


def test_cim_shapes_and_norms_toy():
    cim, lang0, fused0 = _micro_cim()
    state = cim.forward(lang0, fused0, cycles=1)
    for i in (3, 4, 5):
        assert state.fused[i].shape == (2, 2, 4)
        assert abs(np.linalg.norm(state.lang[i].data) - 1.0) < 1e-6


def test_cim_two_rounds_equal_hand_unrolled_schedule():
    cim, lang0, fused0 = _micro_cim(14)
    state = cim.forward(lang0, fused0, cycles=1)

    l1 = {i: cim.vlm[i][0].forward(lang0, fused0[i]) for i in (3, 4, 5)}
    f1 = {i: cim.lvm[i][0].forward(l1[i], fused0) for i in (3, 4, 5)}
    l2 = {i: cim.vlm[i][1].forward(l1[i], f1[i]) for i in (3, 4, 5)}
    f2 = {i: cim.lvm[i][1].forward(l2[i], f1) for i in (3, 4, 5)}

    for i in (3, 4, 5):
        np.testing.assert_array_equal(state.lang[i].data, l2[i].data)
        np.testing.assert_array_equal(state.fused[i].data, f2[i].data)


def test_cim_updates_are_synchronous_not_sequential():
    cim, lang0, fused0 = _micro_cim(15)
    state = cim.forward(lang0, fused0, cycles=1)

    # sequential variant: each aggregation sees siblings already updated
    lang = {i: lang0 for i in (3, 4, 5)}
    fused = dict(fused0)
    for m in range(2):
        lang = {i: cim.vlm[i][m].forward(lang[i], fused[i]) for i in (3, 4, 5)}
        for i in (3, 4, 5):
            fused[i] = cim.lvm[i][m].forward(lang[i], fused)
    # level 3 agrees (first to update either way); later levels must differ
    assert not np.array_equal(state.fused[4].data, fused[4].data)
    assert not np.array_equal(state.fused[5].data, fused[5].data)


def test_cim_cycles_compose():
    cim, lang0, fused0 = _micro_cim(16)
    twice = cim.forward(lang0, fused0, cycles=2)

    lang = {i: lang0 for i in (3, 4, 5)}
    fused = dict(fused0)
    for _ in range(2):
        for m in range(2):
            lang = {i: cim.vlm[i][m].forward(lang[i], fused[i]) for i in (3, 4, 5)}
            fused = {i: cim.lvm[i][m].forward(lang[i], fused) for i in (3, 4, 5)}
    for i in (3, 4, 5):
        np.testing.assert_array_equal(twice.fused[i].data, fused[i].data)
        np.testing.assert_array_equal(twice.lang[i].data, lang[i].data)


def test_cim_full_gradient_check_micro():
    cim, lang0, fused0 = _micro_cim(17)
    lang0.requires_grad = True
    for t in fused0.values():
        t.requires_grad = True
    params = list(cim.parameters().values())

    def fn(*_):
        state = cim.forward(lang0, fused0, cycles=1)
        stacked = [state.fused[i] for i in (3, 4, 5)] + [
            state.lang[i] for i in (3, 4, 5)
        ]
        return tsum(concat([reshape(t, (t.size,)) for t in stacked], axis=0))

    rep = grad_check(fn, [lang0, *fused0.values(), *params],
                     max_coords_per_tensor=4, rng=_rng(18))
    assert rep.passed, rep


def test_cim_validates_rounds_cycles_levels():
    with pytest.raises(ValueError):
        Cim(c_l=3, c_v=4, rounds=0, rng=_rng(19))
    cim, lang0, fused0 = _micro_cim(19)
    with pytest.raises(ValueError):
        cim.forward(lang0, fused0, cycles=0)
    with pytest.raises(ValueError):
        cim.forward(lang0, {3: fused0[3]}, cycles=1)


# ---------------------------------------------------------------------------
# the fused Vlm and Lvm against the per-op recording they replaced


@settings(max_examples=30, deadline=None)
@given(
    h=st.integers(1, 4),
    w=st.integers(1, 4),
    c_l=st.integers(1, 9),
    c_v=st.integers(1, 9),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**16),
)
def test_fused_cim_bit_identical_to_per_op_recording(h, w, c_l, c_v, dtype, seed):
    # two rounds and two cycles: lang0 feeds three Vlms, later language
    # vectors feed a Vlm and an Lvm each, and cycles reuse the parameters
    rng = _rng(seed)
    cim = Cim(c_l=c_l, c_v=c_v, rounds=2, rng=rng)
    params = list(cim.parameters().values())
    for t in params:  # spread the values so gates leave their linear range
        t.data = rng.standard_normal(t.shape).astype(dtype)
    lang0 = Tensor(rng.standard_normal(c_l).astype(dtype), requires_grad=True)
    fused0 = {i: Tensor(rng.standard_normal((h, w, c_v)).astype(dtype), requires_grad=True)
              for i in TAPS}
    inputs = [lang0, *fused0.values(), *params]
    projs = [Tensor(rng.standard_normal(s).astype(dtype)) for s in [(c_l,)] * 3 + [(h, w, c_v)] * 3]
    results = []
    for vlm_forward, lvm_forward in ((reference_vlm, reference_lvm), (Vlm.forward, Lvm.forward)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Vlm, "forward", vlm_forward)
            mp.setattr(Lvm, "forward", lvm_forward)
            state = cim.forward(lang0, fused0, cycles=2)
        outs = [state.lang[i] for i in TAPS] + [state.fused[i] for i in TAPS]
        backward(tsum(concat([reshape(mul(o, p), (-1,)) for o, p in zip(outs, projs)], axis=0)))
        results.append(([o.data for o in outs], [t.grad for t in inputs]))
        for t in inputs:
            t.grad = None
    (ref_outs, ref_grads), (outs, grads) = results
    for out, ref in zip(outs, ref_outs):
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, ref)
    for k, (g, ref) in enumerate(zip(grads, ref_grads)):
        assert g.dtype == dtype, k
        np.testing.assert_array_equal(g, ref, err_msg=str(k))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_fused_cim_training_bit_identical(dtype, tmp_path, monkeypatch):
    # three toy-scale steps: loss, parameters and Adam moments all bit-equal
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "toy.json"))
    cfg = dataclasses.replace(
        cfg, max_steps=3, model=dataclasses.replace(cfg.model, dtype=dtype),
        synth=dataclasses.replace(cfg.synth, samples=8),
    )
    synth_generate(cfg.synth, tmp_path / "data")
    fused = train(cfg, tmp_path / "data", tmp_path / "fused")
    monkeypatch.setattr(Vlm, "forward", reference_vlm)
    monkeypatch.setattr(Lvm, "forward", reference_lvm)
    ref = train(cfg, tmp_path / "data", tmp_path / "ref")
    assert fused.losses == ref.losses and len(ref.losses) == 3
    a, b = load_checkpoint(fused.checkpoint_path), load_checkpoint(ref.checkpoint_path)
    for field in ("params", "adam_m", "adam_v"):
        got, want = getattr(a, field), getattr(b, field)
        assert sorted(got) == sorted(want)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=f"{field} {name}")


def test_fused_ops_raise_where_the_per_op_recording_raised():
    # a -inf score would get attention weight 0 and an overflowed gate
    # pre-activation would squash to 1, leaving each output finite; the
    # per-op recording raised on them, and so does the fused op
    scored = Vlm(c_l=2, c_v=2, rng=_rng(20))
    scored.w_theta.data[:] = -1e200 * np.eye(2)
    scored.w_phi.data[:] = np.eye(2)
    fused = np.zeros((2, 1, 2))
    fused[0, 0] = 1e200  # scores -inf here and 0 at the other position
    projected = Vlm(c_l=2, c_v=2, rng=_rng(21))
    projected.w_out.data[:] = 1e308
    gated = Lvm(3, c_l=2, c_v=2, rng=_rng(22))
    gated.gates[4][0].data[:] = 1e200
    feats = {i: Tensor(np.ones((2, 2, 2))) for i in TAPS}
    cases = [  # (fused forward, per-op forward, arguments, op each names)
        (Vlm.forward, reference_vlm, (scored, Tensor(np.ones(2)), Tensor(fused)),
         "attend_pool", "matmul"),
        (Vlm.forward, reference_vlm, (projected, Tensor(np.ones(2)), Tensor(np.ones((2, 2, 2)))),
         "attend_pool", "linear"),
        (Lvm.forward, reference_lvm, (gated, Tensor(np.full(2, 1e200)), feats),
         "gate_aggregate", "linear"),
    ]
    for fused_forward, per_op_forward, args, fused_op, per_op in cases:
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match=f"'{per_op}'"):
                per_op_forward(*args)
            with pytest.raises(NumericError, match=f"'{fused_op}'"):
                fused_forward(*args)
