"""Engine-level tests: forward semantics, backward rules, error policy."""
import gc
import weakref

import numpy as np
import pytest

from cbce import convops
from cbce import tensor as T
from cbce.gradcheck import micro_pipeline_entry, standard_op_suite
from cbce.tensor import (
    Graph,
    GraphConsumedError,
    NumericError,
    ShapeError,
    Tensor,
    backward,
    record_op,
)


def test_matmul_identity():
    x = Tensor(np.arange(12, dtype=np.float64).reshape(3, 4))
    eye = Tensor(np.eye(3))
    np.testing.assert_array_equal(T.matmul(eye, x).data, x.data)


def test_matmul_zeros():
    z = Tensor(np.zeros((2, 3)))
    x = Tensor(np.random.default_rng(0).standard_normal((3, 4)))
    np.testing.assert_array_equal(T.matmul(z, x).data, np.zeros((2, 4)))


def test_matmul_2x2_value_and_gradient():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    b = Tensor([[5.0, 6.0], [7.0, 8.0]], requires_grad=True)
    out = T.matmul(a, b)
    np.testing.assert_allclose(out.data, [[19.0, 22.0], [43.0, 50.0]])

    # central differences, h=1e-4, float64
    from cbce.gradcheck import grad_check

    rep = grad_check(lambda a, b: T.matmul(a, b), [a, b], h=1e-4, tol=1e-5)
    assert rep.passed, rep


def test_matmul_shape_error_mentions_both_shapes():
    with pytest.raises(ShapeError) as ei:
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
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
    out = convops.conv2d(x, w)
    np.testing.assert_allclose(out.data, x.data)


def test_conv2d_zero_weights_bias_constant():
    x = Tensor(np.random.default_rng(2).standard_normal((4, 4, 2)))
    w = Tensor(np.zeros((3, 3, 2, 3)))
    b = Tensor([1.5, -2.0, 0.25])
    out = convops.conv2d(x, w, b)
    expect = np.broadcast_to(b.data, (4, 4, 3))
    np.testing.assert_allclose(out.data, expect)


def test_conv2d_dilation3_matches_naive_loop():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 5, 2))
    w = rng.standard_normal((3, 3, 2, 4))
    b = rng.standard_normal(4)
    got = convops.conv2d(Tensor(x), Tensor(w), Tensor(b), dilation=3)
    np.testing.assert_allclose(got.data, _naive_conv(x, w, b, 3), atol=1e-12)


def test_conv2d_rejects_even_kernel_and_bad_dilation():
    x = Tensor(np.zeros((4, 4, 1)))
    with pytest.raises(ValueError):
        convops.conv2d(x, Tensor(np.zeros((2, 2, 1, 1))))
    with pytest.raises(ValueError):
        convops.conv2d(x, Tensor(np.zeros((3, 3, 1, 1))), dilation=0)


def test_depthwise_separable_delta_identity():
    x = Tensor(np.random.default_rng(4).standard_normal((4, 4, 2)))
    delta = np.zeros((3, 3, 2))
    delta[1, 1, :] = 1.0
    pw = Tensor(np.eye(2).reshape(1, 1, 2, 2))
    out = convops.depthwise_separable_conv(x, Tensor(delta), pw)
    np.testing.assert_allclose(out.data, x.data)


def test_depthwise_separable_equals_materialized_kernel():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 4, 2))
    dw = rng.standard_normal((3, 3, 2))
    pw = rng.standard_normal((1, 1, 2, 3))
    got = convops.depthwise_separable_conv(Tensor(x), Tensor(dw), Tensor(pw), dilation=1)
    # pointwise-of-depthwise == one conv with K[a,b,ci,co] = dw[a,b,ci]*pw[0,0,ci,co]
    full = dw[:, :, :, None] * pw[0, 0][None, None]
    np.testing.assert_allclose(got.data, _naive_conv(x, full, None, 1), atol=1e-12)


def test_depthwise_separable_gradients():
    from cbce.gradcheck import grad_check

    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((3, 3, 2)), requires_grad=True)
    dw = Tensor(rng.standard_normal((3, 3, 2)), requires_grad=True)
    pw = Tensor(rng.standard_normal((1, 1, 2, 2)), requires_grad=True)
    rep = grad_check(
        lambda x, dw, pw: convops.depthwise_separable_conv(x, dw, pw, dilation=1),
        [x, dw, pw],
    )
    assert rep.passed, rep


def test_softmax_uniform_and_shift_invariance():
    y = T.softmax(Tensor(np.zeros(7)), scale=3.0)
    np.testing.assert_allclose(y.data, np.full(7, 1 / 7), atol=1e-15)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.standard_normal(9)
        a = T.softmax(Tensor(x), scale=2.0).data
        b = T.softmax(Tensor(x + 13.7), scale=2.0).data
        np.testing.assert_allclose(a, b, atol=1e-12)
        assert abs(a.sum() - 1.0) < 1e-6 and (a > 0).all()


def test_softmax_direct_formula():
    x = np.array([1.0, 2.0, 3.0])
    scale = np.sqrt(3.0)
    z = (x - x.max()) / scale
    expect = np.exp(z) / np.exp(z).sum()
    got = T.softmax(Tensor(x), scale=float(scale))
    np.testing.assert_allclose(got.data, expect, atol=1e-15)


def test_sigmoid_zero_and_l2_normalize_345():
    np.testing.assert_allclose(T.sigmoid(Tensor(np.zeros((2, 2)))).data, np.full((2, 2), 0.5))
    y = T.l2_normalize(Tensor([3.0, 4.0]))
    np.testing.assert_allclose(y.data, [0.6, 0.8], atol=1e-9)
    assert abs(np.linalg.norm(y.data) - 1.0) < 1e-6


def test_l2_normalize_zero_vector_survives():
    y = T.l2_normalize(Tensor(np.zeros(4)))
    assert np.all(np.isfinite(y.data))
    np.testing.assert_array_equal(y.data, np.zeros(4))


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


def test_elementwise_max_identical_inputs():
    x = np.random.default_rng(9).standard_normal((3, 4))
    out = T.elementwise_max([Tensor(x), Tensor(x.copy()), Tensor(x.copy())])
    np.testing.assert_array_equal(out.data, x)


def test_global_avg_pool_shape_and_value():
    x = np.random.default_rng(10).standard_normal((4, 6, 3))
    out = convops.global_avg_pool(Tensor(x))
    assert out.shape == (1, 1, 3)
    np.testing.assert_allclose(out.data[0, 0], x.mean(axis=(0, 1)))


def test_backward_sum_gives_ones():
    x = Tensor(np.random.default_rng(11).standard_normal((3, 3)), requires_grad=True)
    backward(T.tsum(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 3)))


def test_backward_half_square_gives_x():
    x = Tensor(np.random.default_rng(12).standard_normal(6), requires_grad=True)
    loss = T.mul(T.tsum(T.mul(x, x)), 0.5)
    backward(loss)
    np.testing.assert_allclose(x.grad, x.data, atol=1e-12)


def test_backward_accumulates_shared_use():
    x = Tensor([2.0], requires_grad=True)
    y = T.add(T.mul(x, 3.0), T.mul(x, 4.0))  # 7x
    backward(T.tsum(y))
    np.testing.assert_allclose(x.grad, [7.0])


def test_backward_rejects_nonscalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        backward(T.mul(x, 2.0))


def test_second_backward_on_consumed_graph_errors():
    x = Tensor(np.ones(3), requires_grad=True)
    loss = T.tsum(T.mul(x, x))
    g = Graph.trace(loss)
    backward(loss, g)
    with pytest.raises(GraphConsumedError):
        backward(loss)
    # re-recording the forward pass works again
    loss2 = T.tsum(T.mul(x, x))
    x.grad = None
    backward(loss2)
    np.testing.assert_allclose(x.grad, 2 * x.data)


def test_graph_trace_is_topological():
    x = Tensor(np.ones(2), requires_grad=True)
    y = T.mul(x, 2.0)
    z = T.add(y, x)
    loss = T.tsum(z)
    g = Graph.trace(loss)
    seqs = [n.seq for n in g.nodes]
    assert seqs == sorted(seqs)
    pos = {id(n.output): i for i, n in enumerate(g.nodes)}
    for i, n in enumerate(g.nodes):
        for inp in n.inputs:
            if inp.node is not None:
                assert pos[id(inp)] < i


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
    suite = {**standard_op_suite(), "vlm_lvm_aspp_bce": micro_pipeline_entry()}

    def forward_backward(build):
        fn, inputs = build(np.random.default_rng(0))
        backward(T.tsum(fn(*inputs)))

    leaks = {name: cyclic_garbage(lambda: forward_backward(build))
             for name, build in suite.items()}
    assert {name: n for name, n in leaks.items() if n} == {}


def test_graph_is_freed_with_its_loss():
    x = Tensor(np.ones(3), requires_grad=True)
    gc.collect()
    gc.disable()
    try:
        mid = T.mul(x, 2.0)
        loss = T.tsum(T.tanh(mid))
        ref, node = weakref.ref(mid), mid.node
        del mid
        assert node.output is ref() is not None  # the loss keeps its graph alive
        backward(loss)
        with pytest.raises(GraphConsumedError):
            backward(loss)
        del loss
        assert ref() is None and node.output is None
    finally:
        gc.enable()
    np.testing.assert_allclose(x.grad, 2.0 * (1.0 - np.tanh(2.0) ** 2))


def test_nonfinite_forward_fails_fast_with_op_name():
    big = Tensor(np.array([1e308]), requires_grad=True)
    with np.errstate(over="ignore"), pytest.raises(NumericError) as ei:
        T.mul(big, big)
    assert "mul" in str(ei.value)


def test_concat_then_slice_is_identity():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a = Tensor(rng.standard_normal((3, 2)))
        b = Tensor(rng.standard_normal((3, 4)))
        cat = T.concat([a, b], axis=1)
        np.testing.assert_array_equal(T.narrow(cat, 1, 0, 2).data, a.data)
        np.testing.assert_array_equal(T.narrow(cat, 1, 2, 4).data, b.data)


def test_concat_axis_mismatch():
    with pytest.raises(ShapeError):
        T.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))], axis=1)


def test_forward_bit_identical_across_runs():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((6, 6, 3))
    w = rng.standard_normal((3, 3, 3, 4))

    def run():
        out = convops.conv2d(Tensor(x.copy()), Tensor(w.copy()), dilation=2)
        return T.softmax(T.reshape(T.tsum(out, axis=2), (-1,)), scale=2.0).data

    np.testing.assert_array_equal(run(), run())


def test_avg_pool2d_odd_input_replicates_edge():
    x = np.arange(5 * 5 * 1, dtype=np.float64).reshape(5, 5, 1)
    out = convops.avg_pool2d(Tensor(x), window=2)
    assert out.shape == (3, 3, 1)
    np.testing.assert_allclose(out.data[0, 0, 0], x[:2, :2, 0].mean())
    # last output cell averages the replicated corner pixel's window
    np.testing.assert_allclose(out.data[2, 2, 0], (x[4, 4, 0] * 2 + x[4, 4, 0] * 2) / 4)
    np.testing.assert_allclose(out.data[2, 0, 0], (x[4, 0, 0] + x[4, 1, 0]) / 2)


def test_record_op_custom_extension():
    # doubling with a correct hand-written rule round-trips through backward
    x = Tensor(np.arange(4.0), requires_grad=True)
    y = record_op("double", x.data * 2, (x,), lambda g: (2 * g,))
    backward(T.tsum(y))
    np.testing.assert_array_equal(x.grad, np.full(4, 2.0))
