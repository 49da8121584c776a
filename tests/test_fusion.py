"""Coordinate grid and bilinear fusion behavior."""
import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from per_op import mul, reference_fusion, tsum

from cbce.checkpoint import load_checkpoint
from cbce.datakit import synth_generate
from cbce.encoders import TAPS
from cbce.fusion import BilinearFusion, build_initial_fused, spatial_coords
from cbce.gradcheck import grad_check
from cbce.tensor import NumericError, Tensor, backward, concat, reshape
from cbce.train import load_config, train


def test_coords_top_left_cell_at_minus_one():
    for h, w in [(2, 3), (5, 5), (1, 4)]:
        grid = spatial_coords(h, w)
        assert grid[0, 0, 0] == -1.0  # x_min
        assert grid[0, 0, 1] == -1.0  # y_min


def test_coords_degenerate_1x1():
    np.testing.assert_array_equal(
        spatial_coords(1, 1)[0, 0], [-1.0, -1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0]
    )


def test_coords_4x4_cell_1_2_closed_form():
    # row 1, col 2 of a 4x4 grid, layout [x_min, y_min, x_max, y_max, x_c, y_c, 1/W, 1/H]
    got = spatial_coords(4, 4)[1, 2]
    np.testing.assert_allclose(got, [0.0, -0.5, 0.5, 0.0, 0.25, -0.25, 0.25, 0.25])


def test_coords_pure_function():
    a = spatial_coords(7, 3)
    b = spatial_coords(7, 3)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (7, 3, 8)
    assert (np.abs(a) <= 1.0).all()


def test_fusion_zero_language_gives_zero_map():
    fuse = BilinearFusion(c_i=4, c_l=3, c_f=4, rank=2, rng=np.random.default_rng(0))
    vis = Tensor(np.random.default_rng(1).standard_normal((3, 3, 4)))
    out = fuse.forward(vis, Tensor(np.zeros(3)))
    np.testing.assert_array_equal(out.data, np.zeros((3, 3, 4)))


def _linear_part(fuse, vis, lang):
    """The fusion map before its tanh, computed from the module's weights."""
    h, w, c_i = vis.shape
    v = vis.reshape(h * w, c_i) @ fuse.wv.data + fuse.bv.data
    l = lang @ fuse.wl.data + fuse.bl.data
    return ((v * l) @ fuse.wo.data + fuse.bo.data).reshape(h, w, -1)


def test_fusion_scales_linearly_in_language_without_tanh():
    fuse = BilinearFusion(c_i=4, c_l=3, c_f=5, rank=2, rng=np.random.default_rng(2))
    rng = np.random.default_rng(3)
    vis = rng.standard_normal((2, 2, 4))
    lang = rng.standard_normal(3)
    base = _linear_part(fuse, vis, lang)
    np.testing.assert_allclose(fuse.forward(Tensor(vis), Tensor(lang)).data, np.tanh(base),
                               atol=1e-12)
    scaled = _linear_part(fuse, vis, 2.5 * lang)
    np.testing.assert_allclose(fuse.forward(Tensor(vis), Tensor(2.5 * lang)).data,
                               np.tanh(scaled), atol=1e-12)
    np.testing.assert_allclose(scaled, 2.5 * base, atol=1e-12)


def test_fusion_bilinear_in_each_argument_without_tanh():
    fuse = BilinearFusion(c_i=3, c_l=4, c_f=3, rank=2, rng=np.random.default_rng(4))
    rng = np.random.default_rng(5)
    vis = rng.standard_normal((2, 3, 3))
    l1, l2 = rng.standard_normal(4), rng.standard_normal(4)
    a, b = 0.7, -1.3
    combo = _linear_part(fuse, vis, a * l1 + b * l2)
    np.testing.assert_allclose(fuse.forward(Tensor(vis), Tensor(a * l1 + b * l2)).data,
                               np.tanh(combo), atol=1e-12)
    parts = a * _linear_part(fuse, vis, l1) + b * _linear_part(fuse, vis, l2)
    np.testing.assert_allclose(combo, parts, atol=1e-10)
    # and linear in the visual argument for a fixed language vector
    v1, v2 = rng.standard_normal((2, 3, 3)), rng.standard_normal((2, 3, 3))
    lang = rng.standard_normal(4)
    combo_v = _linear_part(fuse, a * v1 + b * v2, lang)
    parts_v = a * _linear_part(fuse, v1, lang) + b * _linear_part(fuse, v2, lang)
    np.testing.assert_allclose(combo_v, parts_v, atol=1e-10)


def test_fusion_gradients_micro():
    fuse = BilinearFusion(c_i=3, c_l=2, c_f=3, rank=2, rng=np.random.default_rng(6))
    rng = np.random.default_rng(7)
    vis = Tensor(rng.standard_normal((2, 2, 3)), requires_grad=True)
    lang = Tensor(rng.standard_normal(2), requires_grad=True)
    params = list(fuse.parameters().values())
    rep = grad_check(lambda *_: fuse.forward(vis, lang), [vis, lang, *params])
    assert rep.passed, rep


def _toy_setup(seed=8):
    rng = np.random.default_rng(seed)
    pyr = {i: Tensor(rng.standard_normal((10, 10, 32))) for i in (3, 4, 5)}
    fusers = {
        i: BilinearFusion(c_i=32, c_l=16, c_f=32, rank=4, rng=rng) for i in (3, 4, 5)
    }
    return rng, pyr, fusers


def test_build_initial_fused_shapes_and_coord_channels():
    rng, pyr, fusers = _toy_setup()
    lang = Tensor(rng.standard_normal(16))
    fused = build_initial_fused(pyr, lang, fusers)
    grid = spatial_coords(10, 10)
    for i in (3, 4, 5):
        assert fused[i].shape == (10, 10, 40)
        np.testing.assert_array_equal(fused[i].data[:, :, 32:], grid)


def test_language_never_touches_coordinate_channels():
    rng, pyr, fusers = _toy_setup(9)
    l1 = Tensor(rng.standard_normal(16))
    l2 = Tensor(rng.standard_normal(16))
    f1 = build_initial_fused(pyr, l1, fusers)
    f2 = build_initial_fused(pyr, l2, fusers)
    for i in (3, 4, 5):
        assert not np.allclose(f1[i].data[:, :, :32], f2[i].data[:, :, :32])
        np.testing.assert_array_equal(f1[i].data[:, :, 32:], f2[i].data[:, :, 32:])


def test_coords_reject_bad_sizes():
    with pytest.raises(ValueError):
        spatial_coords(0, 4)


# ---------------------------------------------------------------------------
# the fused bilinear pooling against the per-op recording it replaced


@settings(max_examples=30, deadline=None)
@given(
    h=st.integers(1, 4),
    w=st.integers(1, 4),
    c_i=st.integers(1, 9),
    c_l=st.integers(1, 9),
    rank=st.integers(1, 9),
    c_f=st.integers(1, 9),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**16),
)
def test_fused_fusion_bit_identical_to_per_op_recording(h, w, c_i, c_l, rank, c_f, dtype, seed):
    # one language vector feeds every level, as in the network
    rng = np.random.default_rng(seed)
    fusers = {i: BilinearFusion(c_i, c_l, c_f, rank, rng=rng) for i in TAPS}
    params = [t for i in TAPS for t in fusers[i].parameters().values()]
    for t in params:  # spread the values so the tanh leaves its linear range
        t.data = rng.standard_normal(t.shape).astype(dtype)
    lang = Tensor(rng.standard_normal(c_l).astype(dtype), requires_grad=True)
    pyramid = {i: Tensor(rng.standard_normal((h, w, c_i)).astype(dtype), requires_grad=True)
               for i in TAPS}
    inputs = [lang, *pyramid.values(), *params]
    projs = [Tensor(rng.standard_normal((h, w, c_f + 8)).astype(dtype)) for _ in TAPS]
    results = []
    for forward in (reference_fusion, BilinearFusion.forward):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(BilinearFusion, "forward", forward)
            fused = build_initial_fused(pyramid, lang, fusers)
        outs = [fused[i] for i in TAPS]
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
def test_fused_fusion_training_bit_identical(dtype, tmp_path, monkeypatch):
    # three toy-scale steps: loss, parameters and Adam moments all bit-equal
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "toy.json"))
    cfg = dataclasses.replace(
        cfg, max_steps=3, model=dataclasses.replace(cfg.model, dtype=dtype),
        synth=dataclasses.replace(cfg.synth, samples=8),
    )
    synth_generate(cfg.synth, tmp_path / "data")
    fused = train(cfg, tmp_path / "data", tmp_path / "fused")
    monkeypatch.setattr(BilinearFusion, "forward", reference_fusion)
    ref = train(cfg, tmp_path / "data", tmp_path / "ref")
    assert fused.losses == ref.losses and len(ref.losses) == 3
    a, b = load_checkpoint(fused.checkpoint_path), load_checkpoint(ref.checkpoint_path)
    for field in ("params", "adam_m", "adam_v"):
        got, want = getattr(a, field), getattr(b, field)
        assert sorted(got) == sorted(want)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=f"{field} {name}")


def test_fused_fusion_raises_where_the_per_op_recording_raised():
    # an overflowed pre-activation would squash to +-1 under the tanh,
    # leaving the output finite; the per-op recording raised on it, and on
    # a non-finite visual map, v, l or v * l, and so does the fused op
    def fuser(**scaled):
        fuse = BilinearFusion(c_i=2, c_l=2, c_f=2, rank=2, rng=np.random.default_rng(23))
        for name, value in scaled.items():
            getattr(fuse, name).data[:] = value
        return fuse

    ones, lang = Tensor(np.ones((2, 2, 2))), Tensor(np.ones(2))
    cases = [  # (module, visual map, op the per-op recording names)
        (fuser(wv=1.0, wl=1.0, wo=1e308), ones, "linear"),
        (fuser(), Tensor(np.full((2, 2, 2), np.inf)), "reshape"),
        (fuser(wv=1e200), Tensor(np.full((2, 2, 2), 1e200)), "linear"),
        (fuser(wv=1e160, wl=1e160), ones, "mul"),
    ]
    for fuse, visual, per_op in cases:
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match=f"'{per_op}'"):
                reference_fusion(fuse, visual, lang)
            with pytest.raises(NumericError, match="'bilinear_fuse'"):
                fuse.forward(visual, lang)
