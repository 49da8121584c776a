"""Segmentation head: ASPP, mask projection, loss."""
import numpy as np
import pytest

from cbce import convops
from cbce.gradcheck import grad_check
from cbce.seghead import Aspp, SegHead, bce_loss, concat_levels
from cbce.tensor import ShapeError, Tensor, backward


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
        branches.append(convops.depthwise_separable_conv(x, dw, pw, dilation=d, bias=pb))
    expect = linear(concat(branches, axis=2), aspp.fuse_w, aspp.fuse_b).data
    np.testing.assert_array_equal(got, expect)


def test_concat_levels_order_and_slice_back():
    rng = np.random.default_rng(5)
    f3, f4, f5 = (Tensor(rng.standard_normal((3, 3, 2))) for _ in range(3))
    cat = concat_levels(f3, f4, f5)
    assert cat.shape == (3, 3, 6)
    np.testing.assert_array_equal(cat.data[:, :, 0:2], f3.data)
    np.testing.assert_array_equal(cat.data[:, :, 2:4], f4.data)
    np.testing.assert_array_equal(cat.data[:, :, 4:6], f5.data)
    with pytest.raises(ShapeError):
        concat_levels(f3, f4, Tensor(rng.standard_normal((2, 3, 2))))


def test_predict_mask_constant_and_shape():
    head = SegHead(c_in=6, c_a=4, rng=np.random.default_rng(6))
    const = Tensor(np.tile(np.array([1.0, -0.5, 0.25, 2.0]), (4, 4, 1)))
    pred = head.predict_mask(const, (12, 10))
    assert pred.logits.shape == (12, 10)
    assert pred.probs.shape == (12, 10)
    np.testing.assert_allclose(pred.prob_map, pred.prob_map[0, 0], atol=1e-12)
    assert (pred.prob_map > 0).all() and (pred.prob_map < 1).all()
    np.testing.assert_allclose(
        pred.prob_map, 1.0 / (1.0 + np.exp(-pred.logits.data)), atol=1e-12
    )


def test_predict_mask_gradients():
    head = SegHead(c_in=6, c_a=3, rng=np.random.default_rng(7))
    rng = np.random.default_rng(8)
    feats = [Tensor(rng.standard_normal((3, 3, 2)), requires_grad=True) for _ in range(3)]
    params = [t for _, t in head.parameters()]
    rep = grad_check(
        lambda *_: head.forward(*feats, (6, 6)).logits,
        [*feats, *params],
        max_coords_per_tensor=8,
        rng=np.random.default_rng(9),
    )
    assert rep.passed, rep


def _pred_from_logits(z):
    from cbce.seghead import MaskPrediction
    from cbce.tensor import sigmoid

    t = Tensor(np.asarray(z, dtype=np.float64), requires_grad=True)
    return MaskPrediction(logits=t, probs=sigmoid(t))


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
    rep = grad_check(lambda t: bce_loss(_pred_from_logits_t(t), gt), [logits])
    assert rep.passed, rep


def _pred_from_logits_t(t):
    from cbce.seghead import MaskPrediction
    from cbce.tensor import sigmoid

    return MaskPrediction(logits=t, probs=sigmoid(t))


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
            return bce_loss(head.forward(*feats, (8, 8)), gt)

        before = loss_value()
        backward(before)
        params = dict(head.parameters())
        gmax = max(np.abs(p.grad).max() for p in params.values() if p.grad is not None)
        step = 1e-4 / max(1.0, gmax)
        for p in params.values():
            if p.grad is not None:
                p.data -= step * p.grad
                p.grad = None
        assert loss_value().item() < before.item()
