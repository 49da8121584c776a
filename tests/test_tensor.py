"""Engine-level tests: forward semantics, backward rules, error policy."""
import dataclasses
import gc
import os
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from per_op import (
    bilinear_upsample_grad,
    l2_normalize,
    matmul,
    mul,
    reference_linear,
    sigmoid,
    softmax,
    tanh,
    tsum,
)

from cbce import cim, convops, encoders, seghead
from cbce import tensor as T
from cbce.checkpoint import load_checkpoint
from cbce.datakit import synth_generate
from cbce.encoders import Vocabulary
from cbce.gradcheck import micro_pipeline_entry, standard_op_suite
from cbce.model import CbceNet, ModelConfig
from cbce.tensor import (
    GraphConsumedError,
    NumericError,
    ShapeError,
    Tensor,
    backward,
    record_op,
)
from cbce.train import load_config, train

TOY_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "toy.json")
SEEDS = st.integers(0, 2**32 - 1)
# the adjoint identity holds to the rounding of the dtype, relative to
# the same sums taken over absolute values
ADJOINT_TOL = {np.float32: 1e-4, np.float64: 1e-12}


def _pullback(out: Tensor, x: Tensor, g: np.ndarray) -> np.ndarray:
    """x's gradient of <out, g>: the op's transpose applied to g, exactly."""
    backward(tsum(mul(out, Tensor(g))))
    return x.grad


def _dot(a, b) -> float:
    return float(np.vdot(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)))


# the per-op references in tests/per_op.py, which the fused ops are
# proven bit-identical to, against closed forms


def test_matmul_identity():
    x = Tensor(np.arange(12, dtype=np.float64).reshape(3, 4))
    eye = Tensor(np.eye(3))
    np.testing.assert_array_equal(matmul(eye, x).data, x.data)


def test_matmul_zeros():
    z = Tensor(np.zeros((2, 3)))
    x = Tensor(np.random.default_rng(0).standard_normal((3, 4)))
    np.testing.assert_array_equal(matmul(z, x).data, np.zeros((2, 4)))


def test_matmul_2x2_value_and_gradient():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    b = Tensor([[5.0, 6.0], [7.0, 8.0]], requires_grad=True)
    out = matmul(a, b)
    np.testing.assert_allclose(out.data, [[19.0, 22.0], [43.0, 50.0]])

    # central differences, h=1e-4, float64
    from cbce.gradcheck import grad_check

    rep = grad_check(lambda a, b: matmul(a, b), [a, b], h=1e-4, tol=1e-5)
    assert rep.passed, rep


def test_matmul_shape_error_mentions_both_shapes():
    with pytest.raises(ShapeError) as ei:
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(ei.value) and "(4, 2)" in str(ei.value)


def _naive_conv(x, w, bias, dilation):
    """Direct nested-loop dilated cross-correlation, border-replicated."""
    h, wid, cin = x.shape
    k = w.shape[0]
    cout = w.shape[3]
    pad = dilation * (k - 1) // 2
    out = np.zeros((h, wid, cout))
    for r in range(h):
        for c in range(wid):
            for co in range(cout):
                acc = 0.0
                for a in range(k):
                    for b in range(k):
                        rr = min(max(r + a * dilation - pad, 0), h - 1)
                        cc = min(max(c + b * dilation - pad, 0), wid - 1)
                        for ci in range(cin):
                            acc += x[rr, cc, ci] * w[a, b, ci, co]
                out[r, c, co] = acc + (bias[co] if bias is not None else 0.0)
    return out


def test_conv2d_1x1_identity():
    x = Tensor(np.random.default_rng(1).standard_normal((4, 5, 3)))
    w = Tensor(np.eye(3).reshape(1, 1, 3, 3))
    out = convops.conv2d(x, w, Tensor(np.zeros(3)))
    np.testing.assert_allclose(out.data, x.data)


def test_conv2d_zero_weights_bias_constant():
    x = Tensor(np.random.default_rng(2).standard_normal((4, 4, 2)))
    w = Tensor(np.zeros((3, 3, 2, 3)))
    b = Tensor([1.5, -2.0, 0.25])
    out = convops.conv2d(x, w, b)
    expect = np.broadcast_to(b.data, (4, 4, 3))
    np.testing.assert_allclose(out.data, expect)


def test_conv2d_and_dilated_depthwise_match_naive_loop():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 5, 2))
    w = rng.standard_normal((3, 3, 2, 4))
    b = rng.standard_normal(4)
    got = convops.conv2d(Tensor(x), Tensor(w), Tensor(b))
    np.testing.assert_allclose(got.data, _naive_conv(x, w, b, 1), atol=1e-12)
    # a depthwise kernel is a full kernel that is diagonal in the channels
    dw = rng.standard_normal((3, 3, 2))
    got = convops.depthwise_conv2d(Tensor(x), Tensor(dw), dilation=3)
    full = dw[:, :, :, None] * np.eye(2)
    np.testing.assert_allclose(got.data, _naive_conv(x, full, None, 3), atol=1e-12)


def test_convs_reject_even_kernel_and_bad_dilation():
    x = Tensor(np.zeros((4, 4, 1)))
    with pytest.raises(ValueError):
        convops.conv2d(x, Tensor(np.zeros((2, 2, 1, 1))), Tensor(np.zeros(1)))
    with pytest.raises(ShapeError):
        convops.conv2d(x, Tensor(np.zeros((3, 3, 1, 1))), Tensor(np.zeros(2)))
    with pytest.raises(ValueError):
        convops.depthwise_conv2d(x, Tensor(np.zeros((2, 2, 1))))
    with pytest.raises(ValueError):
        convops.depthwise_conv2d(x, Tensor(np.zeros((3, 3, 1))), dilation=0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(max_examples=30, deadline=None)
@given(h=st.integers(1, 6), w=st.integers(1, 6), cin=st.integers(1, 3), cout=st.integers(1, 3),
       k=st.sampled_from([1, 3, 5]), seed=SEEDS)
def test_conv2d_input_gradient_is_adjoint_of_forward(h, w, cin, cout, k, dtype, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((h, w, cin)).astype(dtype), requires_grad=True)
    wt, b = (rng.standard_normal(shape).astype(dtype) for shape in ((k, k, cin, cout), (cout,)))
    out = convops.conv2d(x, Tensor(wt), Tensor(b))
    g = rng.standard_normal(out.shape).astype(dtype)
    dx = _pullback(out, x, g)
    assert out.shape == (h, w, cout) and out.dtype == dx.dtype == dtype
    # <conv(x), g> - <b, sum g> == <x, conv^T g>
    lhs = _dot(out.data, g) - _dot(b, g.astype(np.float64).sum(axis=(0, 1)))
    scale = _dot(convops.conv2d(*(Tensor(np.abs(a)) for a in (x.data, wt, b))).data, np.abs(g))
    assert abs(lhs - _dot(x.data, dx)) <= ADJOINT_TOL[dtype] * scale


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(max_examples=30, deadline=None)
@given(h=st.integers(1, 8), w=st.integers(1, 8), c=st.integers(1, 3),
       k=st.sampled_from([1, 3, 5]), dilation=st.integers(1, 11), seed=SEEDS)
def test_depthwise_conv2d_input_gradient_is_adjoint_of_forward(h, w, c, k, dilation, dtype,
                                                               seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((h, w, c)).astype(dtype), requires_grad=True)
    wt = rng.standard_normal((k, k, c)).astype(dtype)
    out = convops.depthwise_conv2d(x, Tensor(wt), dilation=dilation)
    g = rng.standard_normal(out.shape).astype(dtype)
    dx = _pullback(out, x, g)
    assert out.shape == (h, w, c) and out.dtype == dx.dtype == dtype
    scale = _dot(convops.depthwise_conv2d(Tensor(np.abs(x.data)), Tensor(np.abs(wt)),
                                          dilation=dilation).data, np.abs(g))
    assert abs(_dot(out.data, g) - _dot(x.data, dx)) <= ADJOINT_TOL[dtype] * scale


# a depthwise-separable conv (the ASPP branch) is a per-channel 3x3, then
# a pointwise linear mix
def test_depthwise_separable_delta_identity():
    x = Tensor(np.random.default_rng(4).standard_normal((4, 4, 2)))
    delta = np.zeros((3, 3, 2))
    delta[1, 1, :] = 1.0
    mixed = convops.depthwise_conv2d(x, Tensor(delta))
    out = T.linear(mixed, Tensor(np.eye(2)), Tensor(np.zeros(2)))
    np.testing.assert_allclose(out.data, x.data)


def test_depthwise_separable_equals_materialized_kernel():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 4, 2))
    dw = rng.standard_normal((3, 3, 2))
    pw = rng.standard_normal((2, 3))
    mixed = convops.depthwise_conv2d(Tensor(x), Tensor(dw), dilation=1)
    got = T.linear(mixed, Tensor(pw), Tensor(np.zeros(3)))
    # pointwise-of-depthwise == one conv with K[a,b,ci,co] = dw[a,b,ci]*pw[ci,co]
    full = dw[:, :, :, None] * pw[None, None]
    np.testing.assert_allclose(got.data, _naive_conv(x, full, None, 1), atol=1e-12)


def test_depthwise_separable_gradients():
    from cbce.gradcheck import grad_check

    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((4, 4, 2)), requires_grad=True)
    dw = Tensor(rng.standard_normal((3, 3, 2)), requires_grad=True)
    pw = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal(2), requires_grad=True)
    rep = grad_check(
        lambda x, dw, pw, b: T.linear(convops.depthwise_conv2d(x, dw, dilation=2), pw, b),
        [x, dw, pw, b],
    )
    assert rep.passed, rep


def test_softmax_uniform_and_shift_invariance():
    y = softmax(Tensor(np.zeros(7)), scale=3.0)
    np.testing.assert_allclose(y.data, np.full(7, 1 / 7), atol=1e-15)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.standard_normal(9)
        a = softmax(Tensor(x), scale=2.0).data
        b = softmax(Tensor(x + 13.7), scale=2.0).data
        np.testing.assert_allclose(a, b, atol=1e-12)
        assert abs(a.sum() - 1.0) < 1e-6 and (a > 0).all()


def test_softmax_direct_formula():
    x = np.array([1.0, 2.0, 3.0])
    scale = np.sqrt(3.0)
    z = (x - x.max()) / scale
    expect = np.exp(z) / np.exp(z).sum()
    got = softmax(Tensor(x), scale=float(scale))
    np.testing.assert_allclose(got.data, expect, atol=1e-15)


def test_sigmoid_zero_and_l2_normalize_345():
    np.testing.assert_allclose(sigmoid(Tensor(np.zeros((2, 2)))).data, np.full((2, 2), 0.5))
    y = l2_normalize(Tensor([3.0, 4.0]))
    np.testing.assert_allclose(y.data, [0.6, 0.8], atol=1e-9)
    assert abs(np.linalg.norm(y.data) - 1.0) < 1e-6


def test_l2_normalize_zero_vector_survives():
    # attend_pool's closing L2 step on an all-zero projection
    rng = np.random.default_rng(9)
    vlm = cim.Vlm(c_l=4, c_v=3, rng=rng)
    vlm.w_out.data[:] = 0.0
    vlm.b_out.data[:] = 0.0
    params = list(vlm.parameters().values())
    for t in params:
        t.requires_grad = True
    lang = Tensor(rng.standard_normal(4), requires_grad=True)
    fused = Tensor(rng.standard_normal((2, 3, 3)), requires_grad=True)
    y = vlm.forward(lang, fused)
    np.testing.assert_array_equal(y.data, np.zeros(4))
    backward(tsum(mul(y, Tensor(rng.standard_normal(4)))))
    for t in (lang, fused, *params):
        assert np.all(np.isfinite(t.grad))


def _naive_bilinear(x, out_h, out_w):
    """Per-pixel align-corners=false bilinear interpolation."""
    h, w, c = x.shape
    out = np.zeros((out_h, out_w, c))
    for i in range(out_h):
        for j in range(out_w):
            sy = (i + 0.5) * h / out_h - 0.5
            sx = (j + 0.5) * w / out_w - 0.5
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            fy, fx = sy - y0, sx - x0
            y0c, y1c = min(max(y0, 0), h - 1), min(max(y0 + 1, 0), h - 1)
            x0c, x1c = min(max(x0, 0), w - 1), min(max(x0 + 1, 0), w - 1)
            out[i, j] = (
                x[y0c, x0c] * (1 - fy) * (1 - fx)
                + x[y0c, x1c] * (1 - fy) * fx
                + x[y1c, x0c] * fy * (1 - fx)
                + x[y1c, x1c] * fy * fx
            )
    return out


def test_bilinear_upsample_checkerboard_oracle():
    board = np.zeros((2, 2, 1))
    board[0, 0, 0] = board[1, 1, 0] = 1.0
    got = convops.bilinear_upsample(Tensor(board), 4, 4)
    np.testing.assert_allclose(got.data, _naive_bilinear(board, 4, 4), atol=1e-12)


def test_bilinear_upsample_constant_and_identity():
    const = np.full((3, 5, 2), 0.7)
    up = convops.bilinear_upsample(Tensor(const), 9, 11)
    np.testing.assert_allclose(up.data, np.full((9, 11, 2), 0.7), atol=1e-12)
    x = np.random.default_rng(8).standard_normal((4, 6, 3))
    same = convops.bilinear_upsample(Tensor(x), 4, 6)
    np.testing.assert_array_equal(same.data, x)


@pytest.mark.parametrize("resize", ["up", "down", "equal", "from_1x1"])
@settings(max_examples=25, deadline=None)
@given(h=st.integers(1, 9), w=st.integers(1, 9), dh=st.integers(1, 30), dw=st.integers(1, 30),
       c=st.integers(1, 3), dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2**32 - 1))
def test_bilinear_upsample_keeps_shape_and_dtype_and_is_adjoint(resize, h, w, dh, dw, c, dtype,
                                                                seed):
    small, big = (h, w), (h + dh, w + dw)
    size_in, size_out = {"up": (small, big), "down": (big, small), "equal": (small, small),
                         "from_1x1": ((1, 1), big)}[resize]
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal(size_in + (c,)).astype(dtype), requires_grad=True)
    out = convops.bilinear_upsample(x, *size_out)
    assert out.shape == size_out + (c,) and out.dtype == dtype
    g = rng.standard_normal(out.shape).astype(dtype)
    backward(tsum(mul(out, Tensor(g))))
    assert x.grad.dtype == dtype
    # the scatter in rounds sums in np.add.at's order, so bit for bit
    np.testing.assert_array_equal(x.grad, bilinear_upsample_grad(g, *size_in))
    if dtype == np.float64:  # <up(x), g> == <x, up^T g>
        np.testing.assert_allclose(np.vdot(out.data, g), np.vdot(x.data, x.grad),
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("size_in, size_out, c", [
    ((18, 18), (20, 20), 128), ((9, 9), (20, 20), 128), ((5, 5), (20, 20), 128),
    ((1, 1), (20, 20), 128), ((20, 20), (144, 144), 1),
], ids=["18-20", "9-20", "5-20", "1-20", "20-144"])
def test_bilinear_upsample_grad_equals_add_at_scatter_at_mid_shapes(size_in, size_out, c, dtype):
    # the five resizes of a step at mid scale: three visual levels and the
    # pooled ASPP branch to the 20x20 grid, and the mask logits to the crop
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal(size_in + (c,)).astype(dtype), requires_grad=True)
    g = rng.standard_normal(size_out + (c,)).astype(dtype)
    backward(tsum(mul(convops.bilinear_upsample(x, *size_out), Tensor(g))))
    assert x.grad.dtype == dtype
    np.testing.assert_array_equal(x.grad, bilinear_upsample_grad(g, *size_in))


def test_global_avg_pool_shape_and_value():
    x = np.random.default_rng(10).standard_normal((4, 6, 3))
    out = convops.global_avg_pool(Tensor(x))
    assert out.shape == (1, 1, 3)
    np.testing.assert_allclose(out.data[0, 0], x.mean(axis=(0, 1)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(max_examples=30, deadline=None)
@given(h=st.integers(1, 9), w=st.integers(1, 9), c=st.integers(1, 4), seed=SEEDS)
def test_global_avg_pool_keeps_dtype_and_is_adjoint(h, w, c, dtype, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((h, w, c)).astype(dtype), requires_grad=True)
    out = convops.global_avg_pool(x)
    assert out.shape == (1, 1, c) and out.dtype == dtype
    g = rng.standard_normal(out.shape).astype(dtype)
    dx = _pullback(out, x, g)
    assert dx.dtype == dtype
    scale = _dot(convops.global_avg_pool(Tensor(np.abs(x.data))).data, np.abs(g))
    assert abs(_dot(out.data, g) - _dot(x.data, dx)) <= ADJOINT_TOL[dtype] * scale


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(max_examples=40, deadline=None)
@given(shape=st.lists(st.integers(1, 5), min_size=1, max_size=3), seed=SEEDS)
def test_relu_value_and_gradient(shape, dtype, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape).astype(dtype)
    pick = rng.random(shape)
    data[pick < 0.2] = 0.0
    data[pick > 0.8] = -0.0
    x = Tensor(data, requires_grad=True)
    out = T.relu(x)
    assert out.dtype == dtype
    assert not np.any(np.signbit(out.data)), "relu emitted a -0.0"
    np.testing.assert_array_equal(out.data, np.maximum(data, 0.0))
    g = rng.standard_normal(shape).astype(dtype)
    dx = _pullback(out, x, g)
    assert dx.dtype == dtype
    np.testing.assert_array_equal(dx, np.where(data > 0, g, 0.0))


def test_backward_sum_gives_ones():
    x = Tensor(np.random.default_rng(11).standard_normal((3, 3)), requires_grad=True)
    backward(tsum(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 3)))


def test_backward_half_square_gives_x():
    x = Tensor(np.random.default_rng(12).standard_normal(6), requires_grad=True)
    loss = mul(tsum(mul(x, x)), 0.5)
    backward(loss)
    np.testing.assert_allclose(x.grad, x.data, atol=1e-12)


def test_backward_accumulates_shared_use():
    x = Tensor([2.0], requires_grad=True)
    y = T.concat([mul(x, 3.0), mul(x, 4.0)], axis=0)  # 3x and 4x
    backward(tsum(y))
    np.testing.assert_allclose(x.grad, [7.0])


def test_backward_rejects_nonscalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        backward(mul(x, 2.0))


def test_second_backward_on_consumed_graph_errors():
    x = Tensor(np.ones(3), requires_grad=True)
    sq = mul(x, x)
    loss = tsum(sq)
    backward(loss)
    assert sq.node.backward_fn is None  # freed by the walk, still refused below
    with pytest.raises(GraphConsumedError):
        backward(loss)
    # a loss recorded on top of part of a consumed recording is refused too
    with pytest.raises(GraphConsumedError):
        backward(tsum(mul(sq, 2.0)))
    # re-recording the forward pass works again
    loss2 = tsum(mul(x, x))
    x.grad = None
    backward(loss2)
    np.testing.assert_allclose(x.grad, 2 * x.data)


def test_backward_runs_rules_newest_first_after_their_consumers():
    x = Tensor(np.ones(2), requires_grad=True)
    y = mul(x, 2.0)  # y feeds z and w, x feeds y and z
    z = mul(y, x)
    w = mul(z, y)
    loss = tsum(w)
    nodes = [t.node for t in (y, z, w, loss)]
    ran = []

    def logged(node):
        rule = node.backward_fn

        def run(g):
            ran.append(node)
            return rule(g)

        return run

    for n in nodes:
        n.backward_fn = logged(n)
    backward(loss)
    assert ran == sorted(nodes, key=lambda n: n.seq, reverse=True)
    pos = {id(n): i for i, n in enumerate(ran)}
    for n in ran:
        for edge in n.inputs:
            if isinstance(edge, T.Node):
                assert pos[id(edge)] > pos[id(n)]
    np.testing.assert_array_equal(x.grad, [12.0, 12.0])  # d/dx sum(4 x^3)


def cyclic_garbage(fn) -> int:
    """Objects only the cyclic collector could free after ``fn()`` returns."""
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        gc.enable()


def test_no_op_creates_a_reference_cycle():
    suite = {**standard_op_suite(), "vlm_lvm_aspp_bce": micro_pipeline_entry}

    def forward_backward(build):
        fn, inputs = build(np.random.default_rng(0))
        backward(tsum(fn(*inputs)))

    leaks = {name: cyclic_garbage(lambda: forward_backward(build))
             for name, build in suite.items()}
    assert {name: n for name, n in leaks.items() if n} == {}


def test_graph_is_freed_with_its_loss():
    x = Tensor(np.ones(3), requires_grad=True)
    gc.collect()
    gc.disable()
    try:
        mid = mul(x, 2.0)
        loss = tsum(tanh(mid))
        ref, mid_ref = weakref.ref(mid.node), weakref.ref(mid)
        del mid
        assert ref() is not None  # the loss keeps its graph alive
        assert mid_ref() is None  # but not the tensors inside it
        backward(loss)
        with pytest.raises(GraphConsumedError):
            backward(loss)
        del loss
        assert ref() is None
    finally:
        gc.enable()
    np.testing.assert_allclose(x.grad, 2.0 * (1.0 - np.tanh(2.0) ** 2))


def test_nonfinite_forward_fails_fast_with_op_name():
    big = Tensor(np.array([1e308]), requires_grad=True)
    with np.errstate(over="ignore"), pytest.raises(NumericError) as ei:
        mul(big, big)
    assert "mul" in str(ei.value)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("requires_grad", [False, True])
def test_nonfinite_check_names_the_op(dtype, bad, requires_grad):
    x = Tensor(np.array([[1.0, bad], [0.5, 2.0]], dtype=dtype), requires_grad=requires_grad)
    with pytest.raises(NumericError, match="'probe'"):
        record_op("probe", x.data * 1, (x,), lambda g: (g,))
    # a full reduction hands record_op a 0-d numpy scalar
    with pytest.raises(NumericError, match="'sum'"):
        tsum(x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_finite_outputs_pass_the_check(dtype):
    x = Tensor(np.array([[1.0, -3.0], [0.0, np.finfo(dtype).max]], dtype=dtype))
    assert record_op("probe", x.data * 1, (x,), lambda g: (g,)).dtype == dtype
    assert tsum(Tensor(np.ones(3, dtype=dtype))).item() == 3.0
    empty = Tensor(np.empty((0, 3), dtype=dtype))
    assert record_op("probe", empty.data, (empty,), lambda g: (g,)).shape == (0, 3)
    assert tsum(empty).item() == 0.0


def test_concat_then_slice_is_identity():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a = Tensor(rng.standard_normal((3, 2)))
        b = Tensor(rng.standard_normal((3, 4)))
        cat = T.concat([a, b], axis=1)
        np.testing.assert_array_equal(cat.data[:, 0:2], a.data)
        np.testing.assert_array_equal(cat.data[:, 2:6], b.data)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(max_examples=40, deadline=None)
@given(ndim=st.integers(1, 3), data=st.data(), seed=SEEDS)
def test_concat_shape_and_exact_gradient_split(ndim, data, dtype, seed):
    axis = data.draw(st.integers(0, ndim - 1), label="axis")
    base = data.draw(st.lists(st.integers(1, 4), min_size=ndim, max_size=ndim), label="shape")
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4), label="sizes")
    rng = np.random.default_rng(seed)
    parts = [Tensor(rng.standard_normal(base[:axis] + [n] + base[axis + 1:]).astype(dtype),
                    requires_grad=True) for n in sizes]
    out = T.concat(parts, axis=axis)
    assert out.shape == tuple(base[:axis] + [sum(sizes)] + base[axis + 1:])
    assert out.dtype == dtype
    np.testing.assert_array_equal(out.data, np.concatenate([p.data for p in parts], axis=axis))
    g = rng.standard_normal(out.shape).astype(dtype)
    backward(tsum(mul(out, Tensor(g))))
    for part, piece in zip(parts, np.split(g, np.cumsum(sizes)[:-1], axis=axis)):
        assert part.grad.dtype == dtype
        np.testing.assert_array_equal(part.grad, piece)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(max_examples=40, deadline=None)
@given(shape=st.lists(st.integers(1, 4), min_size=1, max_size=4), data=st.data(), seed=SEEDS)
def test_reshape_keeps_row_major_order_and_reshapes_gradient_back(shape, data, dtype, seed):
    target = tuple(data.draw(st.permutations(shape), label="target"))
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
    out = T.reshape(x, target)
    assert out.shape == target and out.dtype == dtype
    np.testing.assert_array_equal(out.data.ravel(), x.data.ravel())
    g = rng.standard_normal(target).astype(dtype)
    np.testing.assert_array_equal(_pullback(out, x, g), g.reshape(shape))


def test_concat_axis_mismatch():
    with pytest.raises(ShapeError):
        T.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))], axis=1)


def test_forward_bit_identical_across_runs():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((6, 6, 3))
    w = rng.standard_normal((3, 3, 3, 4))
    b = rng.standard_normal(4)

    def run():
        out = convops.conv2d(Tensor(x.copy()), Tensor(w.copy()), Tensor(b.copy()))
        return tanh(T.reshape(tsum(out, axis=2), (-1,))).data

    np.testing.assert_array_equal(run(), run())


def test_avg_pool2d_odd_input_replicates_edge():
    x = np.arange(5 * 5 * 1, dtype=np.float64).reshape(5, 5, 1)
    out = convops.avg_pool2d(Tensor(x))
    assert out.shape == (3, 3, 1)
    np.testing.assert_allclose(out.data[0, 0, 0], x[:2, :2, 0].mean())
    # last output cell averages the replicated corner pixel's window
    np.testing.assert_allclose(out.data[2, 2, 0], (x[4, 4, 0] * 2 + x[4, 4, 0] * 2) / 4)
    np.testing.assert_allclose(out.data[2, 0, 0], (x[4, 0, 0] + x[4, 1, 0]) / 2)
    with pytest.raises(ShapeError, match="2x2"):
        convops.avg_pool2d(Tensor(x[:1]))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pad_edge_matches_numpy_edge_padding(dtype):
    rng = np.random.default_rng(5)
    for h, w, c in [(1, 1, 1), (1, 3, 2), (2, 1, 3), (3, 4, 1), (5, 5, 4), (7, 2, 2)]:
        x = rng.standard_normal((h, w, c)).astype(dtype)
        for pad in range(13):
            got = convops._pad_edge(x, (pad, pad), (pad, pad))
            want = np.pad(x, ((pad, pad), (pad, pad), (0, 0)), mode="edge")
            assert got.dtype == want.dtype and got.flags.c_contiguous
            np.testing.assert_array_equal(got, want)
        for rows, cols in [((0, 1), (0, 1)), ((0, 1), (0, 0)), ((0, 0), (0, 3)),
                           ((2, 0), (0, 5)), ((4, 1), (3, 2))]:
            np.testing.assert_array_equal(convops._pad_edge(x, rows, cols),
                                          np.pad(x, (rows, cols, (0, 0)), mode="edge"))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(max_examples=40, deadline=None)
@given(h=st.integers(2, 15), w=st.integers(2, 15), c=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_avg_pool2d_odd_sizes_match_edge_padded_mean(dtype, h, w, c, seed):
    x = np.random.default_rng(seed).standard_normal((h, w, c)).astype(dtype)
    xp = np.pad(x, ((0, h % 2), (0, w % 2), (0, 0)), mode="edge")
    want = xp.reshape(xp.shape[0] // 2, 2, xp.shape[1] // 2, 2, c).mean(axis=(1, 3))
    got = convops.avg_pool2d(Tensor(x)).data
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, want)


def test_record_op_custom_extension():
    # doubling with a correct hand-written rule round-trips through backward
    x = Tensor(np.arange(4.0), requires_grad=True)
    y = record_op("double", x.data * 2, (x,), lambda g: (2 * g,))
    backward(tsum(y))
    np.testing.assert_array_equal(x.grad, np.full(4, 2.0))


def test_backward_refuses_a_wrong_shaped_gradient():
    # a rule whose gradient does not match its input's shape is wrong; the
    # walk names the op and both shapes rather than reshaping the gradient
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    y = record_op("flat_rule", x.data * 2, (x,), lambda g: (2 * g.reshape(-1),))
    with pytest.raises(ShapeError, match=r"'flat_rule'.*\(6,\).*\(2, 3\)"):
        backward(tsum(y))


# ---------------------------------------------------------------------------
# linear against the per-op recording it replaced


@settings(max_examples=60, deadline=None)
@given(
    lead=st.one_of(st.just(()), st.tuples(st.integers(1, 6)),
                   st.tuples(st.integers(1, 5), st.integers(1, 5))),
    k=st.integers(1, 33),
    n=st.integers(1, 33),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**16),
)
def test_linear_bit_identical_to_per_op_recording(lead, k, n, dtype, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((*lead, k)).astype(dtype), requires_grad=True)
    w = Tensor(rng.standard_normal((k, n)).astype(dtype), requires_grad=True)
    b = Tensor(rng.standard_normal(n).astype(dtype), requires_grad=True)
    proj = Tensor(rng.standard_normal((*lead, n)).astype(dtype))
    results = []
    for op in (reference_linear, T.linear):
        out = op(x, w, b)
        backward(tsum(mul(out, proj)))
        results.append((out.data, [t.grad for t in (x, w, b)]))
        for t in (x, w, b):
            t.grad = None
    (ref_out, ref_grads), (out, grads) = results
    assert out.shape == (*lead, n) and out.dtype == ref_out.dtype
    np.testing.assert_array_equal(out, ref_out)
    for name, g, ref in zip("xwb", grads, ref_grads):
        assert g.dtype == ref.dtype, name
        np.testing.assert_array_equal(g, ref, err_msg=name)


def test_linear_shape_mismatch_rejected():
    x = Tensor(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        T.linear(x, Tensor(np.ones((4, 2))), Tensor(np.ones(2)))
    with pytest.raises(ShapeError):
        T.linear(x, Tensor(np.ones((3, 2))), Tensor(np.ones(3)))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_linear_training_bit_identical(dtype, tmp_path, monkeypatch):
    # three toy-scale steps: loss, parameters and Adam moments all bit-equal
    cfg = load_config(TOY_CONFIG)
    cfg = dataclasses.replace(
        cfg, max_steps=3, model=dataclasses.replace(cfg.model, dtype=dtype),
        synth=dataclasses.replace(cfg.synth, samples=8),
    )
    synth_generate(cfg.synth, tmp_path / "data")
    fused = train(cfg, tmp_path / "data", tmp_path / "fused")
    for module in (encoders, seghead):
        monkeypatch.setattr(module, "linear", reference_linear)
    ref = train(cfg, tmp_path / "data", tmp_path / "ref")
    assert fused.losses == ref.losses and len(ref.losses) == 3
    a, b = load_checkpoint(fused.checkpoint_path), load_checkpoint(ref.checkpoint_path)
    for field in ("params", "adam_m", "adam_v"):
        got, want = getattr(a, field), getattr(b, field)
        assert sorted(got) == sorted(want)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=f"{field} {name}")


# ---------------------------------------------------------------------------
# the backward walk that frees state as it goes, against the one it replaced


def reference_backward(loss):
    """The walk before it freed anything: every rule and every gradient
    stays alive until the end of the walk."""
    found = {}
    stack = [loss.node]
    while stack:
        node = stack.pop()
        if not isinstance(node, T.Node) or id(node) in found:
            continue
        found[id(node)] = node
        stack.extend(node.inputs)
    nodes = sorted(found.values(), key=lambda n: n.seq, reverse=True)
    grads = {id(loss.node): np.ones_like(loss.data)}
    leaves = {}
    for node in nodes:
        gout = grads.get(id(node))
        if gout is None:
            continue
        for edge, g in zip(node.inputs, node.backward_fn(gout)):
            if g is None or edge is None:
                continue
            if g.shape != edge.shape:
                raise ShapeError(f"backward of '{node.op}' returned a {g.shape} gradient "
                                 f"for a {edge.shape} input")
            key = id(edge)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = g
                if isinstance(edge, Tensor):
                    leaves[key] = edge
    for key, t in leaves.items():
        t.grad = grads[key] if t.grad is None else t.grad + grads[key]


def toy_step(dtype):
    """(model, loss_fn): one ``configs/toy.json`` training step on a 71-px crop."""
    cfg = dataclasses.replace(load_config(TOY_CONFIG).model, dtype=dtype)
    vocab = Vocabulary(["<pad>", "<unk>", "cut", "edge", "grasp", "handle", "pour", "spout"])
    model = CbceNet(cfg, len(vocab), rng=0)
    rng = np.random.default_rng(1)
    image = rng.random((71, 71, 3))
    mask = (rng.random((71, 71)) < 0.3).astype(np.float64)
    phrases = vocab.encode_phrases(["grasp handle", "cut edge", "pour spout", "grasp"])
    return model, lambda: model.loss(image, phrases, mask)


def graph_nodes(loss):
    """Every node reachable from ``loss``, its own included."""
    seen, stack = {}, [loss.node]
    while stack:
        node = stack.pop()
        if isinstance(node, T.Node) and id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.inputs)
    return list(seen.values())


def recorded_outputs(monkeypatch) -> list:
    """Collects (and so keeps alive) every tensor an op records from now on."""
    outs = []

    def keeping(op, out_data, inputs, backward_fn):
        out = record_op(op, out_data, inputs, backward_fn)
        outs.append(out)
        return out

    monkeypatch.setattr(T, "record_op", keeping)
    monkeypatch.setattr(convops, "record_op", keeping)
    return outs


def test_backward_frees_node_state_and_grads_only_leaves(monkeypatch):
    model, loss_fn = toy_step("float32")
    outs = recorded_outputs(monkeypatch)
    loss = loss_fn()
    nodes = graph_nodes(loss)
    inner = [t for t in outs if t.node is not None]
    assert len(inner) == len(nodes) == 58 and {id(t.node) for t in inner} == {id(n) for n in nodes}
    assert all(n.backward_fn is not None for n in nodes)
    backward(loss)
    assert all(t.grad is None and t.node.backward_fn is None for t in inner)
    assert all(p.grad is not None for p in model.parameters().values())


def test_float32_training_step_runs_in_float32(monkeypatch):
    # the configured precision is the one that runs: every recorded output
    # and every parameter gradient of a float32 step is float32
    model, loss_fn = toy_step("float32")
    recorded = []

    def recording(original):
        def record(op, out_data, *args):
            recorded.append((op, out_data.dtype))
            return original(op, out_data, *args)

        return record

    monkeypatch.setattr(T, "record_op", recording(T.record_op))
    monkeypatch.setattr(convops, "record_op", recording(convops.record_op))
    backward(loss_fn())
    assert len(recorded) == 58
    assert {op for op, dtype in recorded if dtype != np.float32} == set()
    for name, p in model.parameters().items():
        assert p.grad.dtype == np.float32, name


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_backward_leaf_grads_bit_identical_to_reference_walk(dtype):
    model, loss_fn = toy_step(dtype)
    params = model.parameters()
    results = []
    for walk in (reference_backward, backward):
        loss = loss_fn()
        walk(loss)
        results.append((loss.item(), {k: p.grad for k, p in params.items()}))
        for p in params.values():
            p.grad = None
    (ref_loss, ref), (got_loss, got) = results
    assert got_loss == ref_loss
    for name in ref:
        assert got[name].dtype == ref[name].dtype == np.dtype(dtype), name
        np.testing.assert_array_equal(got[name], ref[name], err_msg=name)


def test_array_held_only_by_a_backward_rule_dies_with_the_walk():
    x = Tensor(np.arange(1.0, 4.0), requires_grad=True)

    def scaled(a):
        s = np.cos(a.data)  # the only reference is the rule's closure
        return record_op("scale", a.data * s, (a,), lambda g: (g * s,)), weakref.ref(s)

    y, saved = scaled(x)
    loss = tsum(y)
    assert saved() is not None
    backward(loss)
    assert saved() is None
    np.testing.assert_array_equal(x.grad, np.cos(x.data))
    assert loss.node is not None  # the recording itself lives on with its loss


def test_backward_on_a_leaf_scalar_sets_its_grad_to_one():
    x = Tensor(np.array([2.5]), requires_grad=True)
    backward(x)
    np.testing.assert_array_equal(x.grad, [1.0])


def backward_peak_bytes(walk, loss_fn) -> int:
    """Peak bytes allocated while ``walk`` runs over a fresh recording."""
    loss = loss_fn()
    tracemalloc.start()
    try:
        walk(loss)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_backward_peak_memory_below_three_quarters_of_reference_walk():
    # a change that holds graph state across the walk again fails here
    _, loss_fn = toy_step("float32")
    lean = backward_peak_bytes(backward, loss_fn)
    held = backward_peak_bytes(reference_backward, loss_fn)
    assert lean < 0.75 * held, (lean, held)


# ---------------------------------------------------------------------------
# the recording holds only what backward rules read


def test_recording_edges_are_nodes_grad_leaves_or_none():
    model, loss_fn = toy_step("float32")
    params = {id(p) for p in model.parameters().values()}
    for node in graph_nodes(loss_fn()):
        for edge in node.inputs:
            if isinstance(edge, Tensor):
                assert edge.node is None and edge.requires_grad and id(edge) in params
            else:
                assert edge is None or isinstance(edge, T.Node), (node, edge)


def test_gated_copies_die_before_the_loss():
    # gate_aggregate sums a gated copy of each source map; no rule reads a
    # copy, so past the forward pass only the output map is held
    rng = np.random.default_rng(0)
    lvm = cim.Lvm(3, c_l=8, c_v=32, rng=rng)
    feats = {i: Tensor(rng.standard_normal((16, 16, 32)), requires_grad=True)
             for i in encoders.TAPS}
    lang = Tensor(rng.standard_normal(8), requires_grad=True)
    tracemalloc.start()
    try:
        out = lvm.forward(lang, feats)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1.5 * out.data.nbytes, (held, out.data.nbytes)
    backward(tsum(out))
    assert all(t.grad.shape == t.shape for t in (lang, *feats.values()))


def test_dilated_depthwise_keeps_no_padded_copy():
    # at dilation 11 a 10x10 map pads to 32x32: 10x its bytes if kept
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((10, 10, 16)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 3, 16)), requires_grad=True)
    tracemalloc.start()
    try:
        out = convops.depthwise_conv2d(x, w, dilation=11)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 3 * x.data.nbytes, (held, x.data.nbytes)
    backward(tsum(out))
    assert x.grad.shape == x.shape and w.grad.shape == w.shape


# tracemalloc peak of one forward + backward at bench/configs/mid.json's
# widths (144-px image, 20x20 grid, 128 channels, float32), measured
# before the recording stopped holding intermediate tensors and padded
# convolution inputs
MID_STEP_PEAK_BYTES_BEFORE = 66_849_098


def test_mid_width_step_peak_memory_guard():
    cfg = ModelConfig(feat_h=20, feat_w=20, c_i=128, c_l=128, c_f=128, c_a=128, rank=32,
                      backbone_channels=(16, 32, 64, 128, 128), dtype="float32")
    vocab = Vocabulary(["<pad>", "<unk>", "cut", "edge", "grasp", "handle", "pour", "spout"])
    model = CbceNet(cfg, len(vocab), rng=0)
    rng = np.random.default_rng(1)
    image = rng.random((144, 144, 3))
    mask = (rng.random((144, 144)) < 0.3).astype(np.float64)
    phrases = vocab.encode_phrases(["grasp handle", "cut edge", "pour spout", "grasp"])
    tracemalloc.start()
    try:
        backward(model.loss(image, phrases, mask))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.6 * MID_STEP_PEAK_BYTES_BEFORE, peak
