"""Segmentation head: ASPP, mask projection, loss."""
import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from per_op import mul, tsum

from cbce import convops, seghead
from cbce import tensor as T
from cbce.checkpoint import load_checkpoint
from cbce.datakit import synth_generate
from cbce.gradcheck import grad_check
from cbce.seghead import ASPP_DILATIONS, Aspp, MaskPrediction, SegHead, bce_loss
from cbce.tensor import ShapeError, Tensor, backward
from cbce.train import load_config, train


def test_aspp_constant_input_stays_constant():
    aspp = Aspp(c_in=6, c_out=4, rng=np.random.default_rng(0))
    row = np.array([0.5, -1.0, 2.0, 0.1, 0.0, -0.3])
    out = aspp.forward(Tensor(np.tile(row, (6, 6, 1)))).data
    for c in range(4):
        vals = out[:, :, c]
        np.testing.assert_allclose(vals, vals[0, 0], atol=1e-12)


def test_aspp_output_shape():
    aspp = Aspp(c_in=9, c_out=5, rng=np.random.default_rng(1))
    out = aspp.forward(Tensor(np.random.default_rng(2).standard_normal((8, 7, 9))))
    assert out.shape == (8, 7, 5)


def test_aspp_matches_composition_of_primitives():
    aspp = Aspp(c_in=4, c_out=3, rng=np.random.default_rng(3))
    x = Tensor(np.random.default_rng(4).standard_normal((5, 5, 4)))
    got = aspp.forward(x).data

    # same primitives, composed by hand with the module's tensors
    from cbce.tensor import concat, linear

    h, w, _ = x.shape
    pooled = linear(convops.global_avg_pool(x), aspp.gap_w, aspp.gap_b)
    branches = [convops.bilinear_upsample(pooled, h, w)]
    for d in (1, 3, 7, 11):
        dw, pw, pb = aspp.branches[d]
        branches.append(linear(convops.depthwise_conv2d(x, dw, dilation=d), pw, pb))
    expect = linear(concat(branches, axis=2), aspp.fuse_w, aspp.fuse_b).data
    np.testing.assert_array_equal(got, expect)


def test_seghead_concats_levels_in_order_3_4_5():
    head = SegHead(c_in=6, c_a=4, rng=np.random.default_rng(4))
    rng = np.random.default_rng(5)
    f3, f4, f5 = (Tensor(rng.standard_normal((3, 3, 2))) for _ in range(3))
    seen = []
    aspp_forward = head.aspp.forward

    def spy(x):
        seen.append(x.data)
        return aspp_forward(x)

    head.aspp.forward = spy
    head.forward({5: f5, 3: f3, 4: f4}, (6, 6))  # key order does not matter
    (cat,) = seen
    assert cat.shape == (3, 3, 6)
    np.testing.assert_array_equal(cat[:, :, 0:2], f3.data)
    np.testing.assert_array_equal(cat[:, :, 2:4], f4.data)
    np.testing.assert_array_equal(cat[:, :, 4:6], f5.data)
    with pytest.raises(ShapeError):
        head.forward({3: f3, 4: f4, 5: Tensor(rng.standard_normal((2, 3, 2)))}, (6, 6))


def test_predict_mask_constant_and_shape():
    head = SegHead(c_in=6, c_a=4, rng=np.random.default_rng(6))
    const = Tensor(np.tile(np.array([1.0, -0.5, 0.25, 2.0]), (4, 4, 1)))
    pred = head.predict_mask(const, (12, 10))
    assert pred.logits.shape == (12, 10)
    assert pred.prob_map.shape == (12, 10)
    np.testing.assert_allclose(pred.prob_map, pred.prob_map[0, 0], atol=1e-12)
    assert (pred.prob_map > 0).all() and (pred.prob_map < 1).all()
    np.testing.assert_allclose(
        pred.prob_map, 1.0 / (1.0 + np.exp(-pred.logits.data)), atol=1e-12
    )


def test_predict_mask_gradients():
    head = SegHead(c_in=6, c_a=3, rng=np.random.default_rng(7))
    rng = np.random.default_rng(8)
    feats = [Tensor(rng.standard_normal((3, 3, 2)), requires_grad=True) for _ in range(3)]
    params = list(head.parameters().values())
    rep = grad_check(
        lambda *_: head.forward(dict(zip((3, 4, 5), feats)), (6, 6)).logits,
        [*feats, *params],
        max_coords_per_tensor=8,
        rng=np.random.default_rng(9),
    )
    assert rep.passed, rep


def _pred_from_logits(z):
    return MaskPrediction(logits=Tensor(np.asarray(z, dtype=np.float64), requires_grad=True))


def test_bce_half_probability_closed_form():
    pred = _pred_from_logits(np.zeros((4, 5)))
    loss = bce_loss(pred, np.zeros((4, 5)))
    np.testing.assert_allclose(loss.item(), 4 * 5 * np.log(2.0), atol=1e-12)


def test_bce_perfect_prediction_near_zero():
    gt = (np.random.default_rng(10).random((6, 6)) > 0.5).astype(float)
    pred = _pred_from_logits(np.where(gt > 0, 25.0, -25.0))
    loss = bce_loss(pred, gt)
    assert 0.0 <= loss.item() <= 6 * 6 * 2e-7


def _naive_bce(probs, gt, eps=1e-7):
    p = np.clip(probs, eps, 1 - eps)
    total = 0.0
    for r in range(gt.shape[0]):
        for c in range(gt.shape[1]):
            total -= gt[r, c] * np.log(p[r, c]) + (1 - gt[r, c]) * np.log(1 - p[r, c])
    return total


def test_bce_matches_naive_oracle_and_gradient():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((3, 3)) * 2.0
    gt = (rng.random((3, 3)) > 0.5).astype(float)
    pred = _pred_from_logits(z)
    loss = bce_loss(pred, gt)
    np.testing.assert_allclose(loss.item(), _naive_bce(pred.prob_map, gt), atol=1e-9)

    logits = Tensor(z, requires_grad=True)
    rep = grad_check(lambda t: bce_loss(MaskPrediction(logits=t), gt), [logits])
    assert rep.passed, rep


def test_bce_stable_equals_naive_clamped_on_random_inputs():
    rng = np.random.default_rng(12)
    for _ in range(25):
        z = rng.standard_normal((5, 4)) * 4.0
        gt = (rng.random((5, 4)) > 0.5).astype(float)
        loss = bce_loss(_pred_from_logits(z), gt)
        assert abs(loss.item() - _naive_bce(1 / (1 + np.exp(-z)), gt)) < 1e-6


def test_bce_rejects_nonbinary_mask():
    pred = _pred_from_logits(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="binary"):
        bce_loss(pred, np.full((2, 2), 0.5))


def test_loss_decreases_under_small_gradient_step():
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        head = SegHead(c_in=6, c_a=4, rng=rng)
        feats = [Tensor(rng.standard_normal((4, 4, 2))) for _ in range(3)]
        gt = (rng.random((8, 8)) > 0.5).astype(float)

        def loss_value():
            return bce_loss(head.forward(dict(zip((3, 4, 5), feats)), (8, 8)), gt)

        before = loss_value()
        backward(before)
        params = head.parameters()
        gmax = max(np.abs(p.grad).max() for p in params.values() if p.grad is not None)
        step = 1e-4 / max(1.0, gmax)
        for p in params.values():
            if p.grad is not None:
                p.data -= step * p.grad
                p.grad = None
        assert loss_value().item() < before.item()


# ---------------------------------------------------------------------------
# the ASPP pointwise mix against the 1x1 conv2d recording it replaced


def reference_pointwise(x, w, bias):
    """The 1x1 ``conv2d`` recording the ASPP branches ran before their
    pointwise mix became ``linear``; ``w`` is viewed as (1, 1, Cin, Cout)
    and its gradient viewed back as (Cin, Cout)."""
    h, wid, cin = x.shape
    wd = w.data.reshape(1, 1, cin, -1)
    cout = wd.shape[3]
    xd = x.data
    acc = np.zeros((h * wid, cout), dtype=x.dtype)
    acc += xd.reshape(-1, cin) @ wd[0, 0]
    out = acc.reshape(h, wid, cout) + bias.data

    def bwd(g):
        g2 = g.reshape(-1, cout)
        dw = np.empty_like(wd)
        dx = np.zeros_like(xd)
        dw[0, 0] = xd.reshape(-1, cin).T @ g2
        dx += (g2 @ wd[0, 0].T).reshape(h, wid, cin)
        return dx, dw.reshape(w.shape), g.sum(axis=(0, 1))

    return T.record_op("conv2d", out, (x, w, bias), bwd)


def reference_aspp_forward(self, x):
    """``Aspp.forward`` with every branch's mix recorded as the 1x1 conv."""
    h, w, _ = x.shape
    pooled = T.linear(convops.global_avg_pool(x), self.gap_w, self.gap_b)
    outs = [convops.bilinear_upsample(pooled, h, w)]
    for d in ASPP_DILATIONS:
        dw, pw, pb = self.branches[d]
        outs.append(reference_pointwise(convops.depthwise_conv2d(x, dw, dilation=d), pw, pb))
    return T.linear(T.concat(outs, axis=2), self.fuse_w, self.fuse_b)


# (map dtype, weight dtype): a model runs in its one configured precision
BRANCH_DTYPES = [(np.float32, np.float32), (np.float64, np.float64)]


@settings(max_examples=40, deadline=None)
@given(
    h=st.integers(1, 9),
    w=st.integers(1, 9),
    c_in=st.integers(1, 12),
    c_out=st.integers(1, 12),
    dilation=st.sampled_from(ASPP_DILATIONS),
    dtypes=st.sampled_from(BRANCH_DTYPES),
    seed=st.integers(0, 2**16),
)
def test_aspp_branch_bit_identical_to_pointwise_conv(h, w, c_in, c_out, dilation, dtypes, seed):
    x_dtype, w_dtype = dtypes
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((h, w, c_in)).astype(x_dtype), requires_grad=True)
    dw = Tensor(rng.standard_normal((3, 3, c_in)).astype(w_dtype), requires_grad=True)
    pw = Tensor(rng.standard_normal((c_in, c_out)).astype(w_dtype), requires_grad=True)
    pb = Tensor(rng.standard_normal(c_out).astype(w_dtype), requires_grad=True)
    proj = Tensor(rng.standard_normal((h, w, c_out)).astype(x_dtype))
    results = []
    for mix in (reference_pointwise, T.linear):
        out = mix(convops.depthwise_conv2d(x, dw, dilation=dilation), pw, pb)
        backward(tsum(mul(out, proj)))
        results.append((out.data, [t.grad for t in (x, dw, pw, pb)]))
        for t in (x, dw, pw, pb):
            t.grad = None
    (ref_out, ref_grads), (out, grads) = results
    assert out.dtype == ref_out.dtype
    np.testing.assert_array_equal(out, ref_out)
    for name, g, ref in zip(("x", "dw", "pw", "pb"), grads, ref_grads):
        assert g.dtype == ref.dtype, name
        np.testing.assert_array_equal(g, ref, err_msg=name)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_aspp_linear_mix_training_bit_identical(dtype, tmp_path, monkeypatch):
    # three toy-scale steps: loss, parameters and Adam moments all bit-equal
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "toy.json"))
    cfg = dataclasses.replace(
        cfg, max_steps=3, model=dataclasses.replace(cfg.model, dtype=dtype),
        synth=dataclasses.replace(cfg.synth, samples=8),
    )
    synth_generate(cfg.synth, tmp_path / "data")
    got = train(cfg, tmp_path / "data", tmp_path / "linear")
    monkeypatch.setattr(seghead.Aspp, "forward", reference_aspp_forward)
    ref = train(cfg, tmp_path / "data", tmp_path / "conv")
    assert got.losses == ref.losses and len(ref.losses) == 3
    a, b = load_checkpoint(got.checkpoint_path), load_checkpoint(ref.checkpoint_path)
    for field in ("params", "adam_m", "adam_v"):
        have, want = getattr(a, field), getattr(b, field)
        assert sorted(have) == sorted(want)
        for name in want:
            np.testing.assert_array_equal(have[name], want[name], err_msg=f"{field} {name}")
