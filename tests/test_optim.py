"""Adam and the polynomial schedule."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from per_op import tsum

import cbce.train as train_mod
from cbce.checkpoint import load_checkpoint
from cbce.datakit import SynthConfig, synth_generate
from cbce.model import ModelConfig
from cbce.optim import ADAM_BLOCK, AdamState, adam_step, poly_lr
from cbce.tensor import Tensor, backward, concat, record_op
from cbce.train import TrainConfig, train


def per_tensor_adam_step(params, state, lr, weight_decay=0.0,
                         beta1=0.9, beta2=0.999, eps=1e-8):
    """The update as a loop over tensors, the reference the flat step must equal."""
    state.t += 1
    t = state.t
    for name, p in params.items():
        g = p.grad
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * (g * g)
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        p.data -= lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * p.data)


def _param(values):
    t = Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)
    return t


def test_zero_grad_zero_decay_leaves_params():
    p = _param([1.0, -2.0, 3.0])
    p.grad = np.zeros(3)
    params = {"p": p}
    state = AdamState.for_params(params)
    adam_step(params, state, lr=0.1, weight_decay=0.0)
    np.testing.assert_array_equal(p.data, [1.0, -2.0, 3.0])


def test_first_step_is_lr_times_sign():
    for g in (0.3, -4.0, 1e-3):
        p = _param([0.0])
        p.grad = np.array([g])
        params = {"p": p}
        state = AdamState.for_params(params)
        adam_step(params, state, lr=0.01, weight_decay=0.0)
        # bias correction makes m_hat = g, v_hat = g^2 at t = 1
        expect = -0.01 * g / (abs(g) + 1e-8)
        np.testing.assert_allclose(p.data, [expect], atol=1e-12)
        assert abs(p.data[0] + 0.01 * np.sign(g)) < 1e-5


def test_constant_gradient_step_approaches_lr_sign():
    p = _param([5.0])
    params = {"p": p}
    state = AdamState.for_params(params)
    g = np.array([0.37])
    deltas = []
    prev = p.data.copy()
    for _ in range(1000):
        p.grad = g.copy()
        adam_step(params, state, lr=0.01, weight_decay=0.0)
        deltas.append(float(prev[0] - p.data[0]))
        prev = p.data.copy()
    assert abs(deltas[-1] - 0.01) < 1e-3  # lr * sign(g)


def test_decoupled_weight_decay_term():
    p = _param([2.0])
    p.grad = np.array([0.0])
    params = {"p": p}
    state = AdamState.for_params(params)
    adam_step(params, state, lr=0.1, weight_decay=0.5)
    # zero gradient: only the decay term lr * wd * p applies
    np.testing.assert_allclose(p.data, [2.0 - 0.1 * 0.5 * 2.0], atol=1e-12)


def test_missing_grad_and_shape_mismatch():
    p = _param([1.0, 2.0])
    params = {"p": p}
    state = AdamState.for_params(params)
    with pytest.raises(ValueError, match="no gradient"):
        adam_step(params, state, lr=0.1)
    p.grad = np.zeros(3)
    with pytest.raises(ValueError, match="shape"):
        adam_step(params, state, lr=0.1)


def test_poly_lr_anchors():
    assert poly_lr(0, 100, 0.25) == 0.25
    assert poly_lr(100, 100, 0.25) == 0.0
    np.testing.assert_allclose(poly_lr(50, 100, 0.25, 0.9), 0.25 * 0.5**0.9, atol=1e-15)


def test_poly_lr_strictly_decreasing():
    values = [poly_lr(s, 200, 1e-3, 0.9) for s in range(201)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_poly_lr_range_errors():
    with pytest.raises(ValueError):
        poly_lr(101, 100, 0.1)
    with pytest.raises(ValueError):
        poly_lr(-1, 100, 0.1)


def _params_of(shapes, dtype, seed):
    rng = np.random.default_rng(seed)
    return {f"p{i}": Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
            for i, shape in enumerate(shapes)}


@settings(max_examples=40, deadline=None)
@given(
    shapes=st.lists(st.lists(st.integers(1, 5), min_size=0, max_size=3).map(tuple),
                    min_size=1, max_size=6),
    dtype=st.sampled_from(["float32", "float64"]),
    lr=st.floats(1e-5, 0.5),
    weight_decay=st.sampled_from([0.0, 5e-4, 0.1]),
    steps=st.integers(20, 30),
    seed=st.integers(0, 2**16),
)
def test_flat_adam_equals_per_tensor_loop(shapes, dtype, lr, weight_decay, steps, seed):
    _assert_flat_adam_equals_per_tensor_loop(shapes, dtype, lr, weight_decay, steps, seed)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_flat_adam_equals_per_tensor_loop_across_blocks(dtype):
    # tensors sized from the block so that they straddle block edges, the
    # buffer spans more than three blocks and the last block is partial
    b = ADAM_BLOCK
    shapes = [(b // 2 + 3,), (b, 1), (3, b // 3 + 5), (7,), (b + 11,), (b // 4, 2)]
    sizes = np.cumsum([np.prod(s) for s in shapes])
    assert sizes[-1] > 3 * b and sizes[-1] % b
    assert any(lo // b != (hi - 1) // b for lo, hi in zip(np.r_[0, sizes[:-1]], sizes))
    _assert_flat_adam_equals_per_tensor_loop(shapes, dtype, 3e-3, 5e-4, 4, 11)


def _assert_flat_adam_equals_per_tensor_loop(shapes, dtype, lr, weight_decay, steps, seed):
    flat, loop = _params_of(shapes, dtype, seed), _params_of(shapes, dtype, seed)
    flat_state, loop_state = AdamState.for_params(flat), AdamState.for_params(loop)
    rng = np.random.default_rng(seed + 1)
    for _ in range(steps):
        for name, p in flat.items():
            g = rng.standard_normal(p.shape).astype(dtype)
            p.grad, loop[name].grad = g, g.copy()
        adam_step(flat, flat_state, lr, weight_decay)
        per_tensor_adam_step(loop, loop_state, lr, weight_decay)
    assert flat_state.t == loop_state.t == steps
    for name, p in flat.items():
        np.testing.assert_array_equal(p.data, loop[name].data)
        np.testing.assert_array_equal(flat_state.m[name], loop_state.m[name])
        np.testing.assert_array_equal(flat_state.v[name], loop_state.v[name])


def test_for_params_lays_parameters_end_to_end():
    params = _params_of([(2, 3), (4,), (1, 2, 2)], "float32", 0)
    before = {k: p.data.copy() for k, p in params.items()}
    state = AdamState.for_params(params)
    assert state.flat.shape == (14,) and state.flat.dtype == np.float32
    offset = 0
    for name, p in params.items():
        assert np.shares_memory(p.data, state.flat)
        np.testing.assert_array_equal(p.data, before[name])
        np.testing.assert_array_equal(state.flat[offset:offset + p.size], p.data.ravel())
        assert state.m[name].shape == state.v[name].shape == p.shape
        assert np.shares_memory(state.m[name], state.flat_m)
        offset += p.size


def test_mixed_dtypes_rejected():
    params = {"a": Tensor(np.zeros(2, np.float32)), "b": Tensor(np.zeros(2, np.float64))}
    with pytest.raises(ValueError, match="one dtype"):
        AdamState.for_params(params)


def test_gradient_dtype_mismatch_names_parameter():
    params = _params_of([(3,), (2,)], "float32", 0)
    state = AdamState.for_params(params)
    params["p0"].grad = np.zeros(3, np.float32)
    params["p1"].grad = np.zeros(2, np.float64)
    with pytest.raises(ValueError, match="'p1'.*float32"):
        adam_step(params, state, lr=0.1)
    assert state.t == 0  # nothing was updated


def test_promoting_rule_is_refused_by_name():
    # backward casts no gradient, so a rule that returns float64 for a
    # float32 parameter reaches the optimizer, which names the parameter
    params = _params_of([(3,), (2,)], "float32", 0)
    state = AdamState.for_params(params)
    p0, p1 = params.values()
    promoted = record_op("promote", p1.data * 2, (p1,), lambda g: (g.astype(np.float64) * 2,))
    backward(tsum(concat([p0, promoted], axis=0)))
    assert p0.grad.dtype == np.float32 and p1.grad.dtype == np.float64
    with pytest.raises(ValueError, match="float64 differs from parameter 'p1' dtype float32"):
        adam_step(params, state, lr=0.1)
    assert state.t == 0


def test_rebound_parameter_names_parameter():
    params = _params_of([(3,), (2,)], "float64", 0)
    state = AdamState.for_params(params)
    params["p1"].data = params["p1"].data.copy()
    for p in params.values():
        p.grad = np.ones_like(p.data)
    with pytest.raises(ValueError, match="'p1'.*np.copyto"):
        adam_step(params, state, lr=0.1)


def _training_config(dtype):
    return TrainConfig(
        seed=3, epochs=1, base_lr=2e-3, crop_size=None, max_steps=3,
        model=ModelConfig(feat_h=4, feat_w=4, c_i=8, c_l=8, c_f=8, c_a=8, rank=4,
                          backbone_channels=(4, 4, 4, 4, 4), dtype=dtype),
        synth=SynthConfig(size=48, samples=8, seed=3, target_scale=(18.0, 26.0),
                          distractor_range=(0, 1)),
    )


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_flat_adam_training_bit_identical(tmp_path, monkeypatch, dtype):
    cfg = _training_config(dtype)
    synth_generate(cfg.synth, tmp_path / "data")
    flat = train(cfg, tmp_path / "data", tmp_path / "flat")
    monkeypatch.setattr(train_mod, "adam_step", per_tensor_adam_step)
    loop = train(cfg, tmp_path / "data", tmp_path / "loop")
    assert flat.steps == loop.steps == 3
    assert flat.losses == loop.losses
    a, b = load_checkpoint(flat.checkpoint_path), load_checkpoint(loop.checkpoint_path)
    assert a.adam_t == b.adam_t == 3
    for group in ("params", "adam_m", "adam_v"):
        assert getattr(a, group).keys() == getattr(b, group).keys()
        for name, arr in getattr(a, group).items():
            np.testing.assert_array_equal(arr, getattr(b, group)[name])
    with open(flat.checkpoint_path, "rb") as fa, open(loop.checkpoint_path, "rb") as fb:
        assert fa.read() == fb.read()
