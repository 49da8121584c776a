"""Central-difference gradient checking for the autodiff engine.

``grad_check`` compares analytic gradients against (f(x+h) - f(x-h)) / 2h
coordinate by coordinate. Non-scalar outputs are reduced with a fixed
random projection (a ``linear`` of the flattened output) so one scalar
drives both sides of the comparison.

``standard_op_suite`` enumerates every differentiable operation with
randomized small shapes; ``micro_pipeline_entry`` wires the attention ->
gated-aggregation -> multi-scale-head -> cross-entropy chain into one
checkable graph. ``run_suite`` checks both, and ``cbce gradcheck`` runs it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import convops, tensor as T
from .cim import Cim, Lvm, Vlm
from .encoders import TAPS, PhraseEncoder, PhraseSet
from .fusion import BilinearFusion
from .seghead import SegHead
from .tensor import Tensor, backward, linear, reshape


@dataclass
class GradCheckReport:
    label: str
    max_rel_error: float
    tol: float
    checked: int

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tol


def grad_check(
    f,
    inputs,
    h: float = 1e-4,
    tol: float = 1e-4,
    rng: np.random.Generator | int = 0,
    max_coords_per_tensor: int | None = None,
    label: str = "",
) -> GradCheckReport:
    """Check analytic gradients of ``f(*inputs)`` against central differences.

    ``f`` must be deterministic (verified by re-evaluation) and may close
    over ``inputs``: coordinates are perturbed in place and ``f`` is
    re-executed, so passing the same Tensor objects it reads is enough.
    ``max_coords_per_tensor`` subsamples coordinates of large inputs; the
    relative error reported is the max over everything checked.
    """
    inputs = list(inputs)
    rng = np.random.default_rng(rng)

    first = f(*inputs)
    second = f(*inputs)
    if not np.array_equal(first.data, second.data):
        raise RuntimeError("grad_check: function is non-deterministic (re-evaluation mismatch)")
    proj = zero = None
    if first.size != 1:
        proj = Tensor(rng.standard_normal(first.shape).astype(first.dtype).reshape(-1, 1))
        zero = Tensor(np.zeros(1, dtype=first.dtype))

    def scalar_eval() -> Tensor:
        out = f(*inputs)
        if proj is not None:
            out = linear(reshape(out, (1, -1)), proj, zero)
        return out

    for inp in inputs:
        inp.grad = None
    backward(scalar_eval())
    analytic = [
        inp.grad.copy() if inp.grad is not None else np.zeros_like(inp.data) for inp in inputs
    ]
    for inp in inputs:
        inp.grad = None

    max_rel = 0.0
    checked = 0
    for ti, inp in enumerate(inputs):
        if not inp.requires_grad:
            continue
        n = inp.size
        if max_coords_per_tensor is not None and n > max_coords_per_tensor:
            coords = rng.choice(n, size=max_coords_per_tensor, replace=False)
        else:
            coords = range(n)
        ana_flat = analytic[ti].reshape(-1)
        for ci in coords:
            orig = inp.data.flat[ci]
            inp.data.flat[ci] = orig + h
            fp = scalar_eval().item()
            inp.data.flat[ci] = orig - h
            fm = scalar_eval().item()
            inp.data.flat[ci] = orig
            numeric = (fp - fm) / (2.0 * h)
            rel = abs(ana_flat[ci] - numeric) / max(1.0, abs(ana_flat[ci]), abs(numeric))
            checked += 1
            max_rel = max(max_rel, rel)
    return GradCheckReport(label=label, max_rel_error=max_rel, tol=tol, checked=checked)


# ---------------------------------------------------------------------------
# randomized suite covering every differentiable op


def _rt(rng, *shape, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


def _redrawn(module, rng, scale=1.0):
    """A module's parameters as checked inputs, redrawn from a scaled
    standard normal so activations leave their linear range."""
    params = list(module.parameters().values())
    for t in params:
        t.data = rng.standard_normal(t.shape) * scale
    return params


def standard_op_suite() -> dict:
    """name -> builder(rng) returning (fn, inputs) for grad_check."""

    def linear_entry(rng):
        x, w, b = _rt(rng, 2, 3, 4), _rt(rng, 4, 5), _rt(rng, 5)
        return (lambda x, w, b: T.linear(x, w, b)), [x, w, b]

    def reshape_entry(rng):
        a = _rt(rng, 2, 6)
        return (lambda a: T.reshape(a, (3, 4))), [a]

    def concat_entry(rng):
        a, b, c = _rt(rng, 2, 2), _rt(rng, 2, 3), _rt(rng, 2, 1)
        return (lambda a, b, c: T.concat([a, b, c], axis=1)), [a, b, c]

    def relu_entry(rng):
        a = _rt(rng, 4, 4)
        # keep pre-activations away from the kink so central differences hold
        a.data += 0.25 * np.sign(a.data)
        return (lambda a: T.relu(a)), [a]

    def bilinear_fuse_entry(rng):
        visual, lang = _rt(rng, 2, 3, 3), _rt(rng, 2)
        fuse = BilinearFusion(c_i=3, c_l=2, c_f=3, rank=4, rng=rng)
        # half-scale weights keep third derivatives, the central difference's error, small
        params = _redrawn(fuse, rng, scale=0.5)
        return (lambda *_: fuse.forward(visual, lang)), [visual, lang, *params]

    def attend_pool_entry(rng):
        lang, fused = _rt(rng, 3), _rt(rng, 2, 3, 4)
        vlm = Vlm(c_l=3, c_v=4, rng=rng)
        return (lambda *_: vlm.forward(lang, fused)), [lang, fused, *_redrawn(vlm, rng)]

    def gate_aggregate_entry(rng):
        lang, feats = _rt(rng, 3), {i: _rt(rng, 2, 3, 4) for i in TAPS}
        lvm = Lvm(TAPS[0], c_l=3, c_v=4, rng=rng)
        return (lambda *_: lvm.forward(lang, feats)), [lang, *feats.values(), *_redrawn(lvm, rng)]

    def lstm_entry(rng):
        enc = PhraseEncoder(vocab_size=5, c_l=3, rng=rng)
        # lengths 3/1/2 with padding; token 2 repeats within and across phrases
        phrases = PhraseSet(ids=[[2, 4, 2], [1, 0, 0], [3, 2, 0]], lengths=[3, 1, 2], vocab_size=5)
        return (lambda *_: enc.forward(phrases)), _redrawn(enc, rng)

    def bce_entry(rng):
        logits = _rt(rng, 3, 3, scale=2.0)
        target = (rng.random((3, 3)) > 0.5).astype(np.float64)
        return (lambda z: T.bce_with_logits_sum(z, target)), [logits]

    def conv_entry(rng):
        x = _rt(rng, 4, 4, 2)
        w = _rt(rng, 3, 3, 2, 2, scale=0.5)
        b = _rt(rng, 2)
        return (lambda x, w, b: convops.conv2d(x, w, b)), [x, w, b]

    def depthwise_entry(rng):
        x = _rt(rng, 5, 5, 3)
        w = _rt(rng, 3, 3, 3, scale=0.5)
        # dilated like the ASPP branches; pad 2 replicates two border rings
        return (lambda x, w: convops.depthwise_conv2d(x, w, dilation=2)), [x, w]

    def gap_entry(rng):
        x = _rt(rng, 3, 4, 2)
        return (lambda x: convops.global_avg_pool(x)), [x]

    def avgpool_entry(rng):
        x = _rt(rng, 5, 5, 2)  # odd size exercises the replicated edge
        return (lambda x: convops.avg_pool2d(x)), [x]

    def upsample_entry(rng):
        x = _rt(rng, 3, 3, 2)
        return (lambda x: convops.bilinear_upsample(x, 7, 5)), [x]

    def downsample_entry(rng):
        x = _rt(rng, 6, 8, 2)
        return (lambda x: convops.bilinear_upsample(x, 3, 3)), [x]

    return {
        "linear": linear_entry,
        "reshape": reshape_entry,
        "concat": concat_entry,
        "relu": relu_entry,
        "bilinear_fuse": bilinear_fuse_entry,
        "attend_pool": attend_pool_entry,
        "gate_aggregate": gate_aggregate_entry,
        "lstm_phrases": lstm_entry,
        "bce_with_logits_sum": bce_entry,
        "conv2d": conv_entry,
        "depthwise_conv2d": depthwise_entry,
        "global_avg_pool": gap_entry,
        "avg_pool2d": avgpool_entry,
        "bilinear_upsample": upsample_entry,
        "bilinear_downsample": downsample_entry,
    }


def micro_pipeline_entry(rng):
    """(fn, inputs) of the composed attention/gating/head/loss micro-graph.

    Three 2x2 fused maps and a language vector flow through one round of
    the interaction schedule (a vision-to-language update and a gated
    aggregation per level), the multi-scale head, and the summed cross
    entropy. Every parameter is a checked input.
    """
    h = w = 2
    c_v, c_l, c_a = 3, 3, 2
    feats = {i: _rt(rng, h, w, c_v, scale=0.5) for i in TAPS}
    lang = _rt(rng, c_l, scale=0.5)
    cim = Cim(c_l, c_v, rounds=1, rng=rng)
    head = SegHead(len(TAPS) * c_v, c_a, rng=rng)
    target = (rng.random((2 * h, 2 * w)) > 0.5).astype(np.float64)
    params = [t for mod in (cim, head) for t in mod.parameters().values()]

    def fn(*_):
        pred = head.forward(cim.forward(lang, feats).fused, (2 * h, 2 * w))
        return T.bce_with_logits_sum(pred.logits, target)

    return fn, [lang, *feats.values(), *params]


def run_suite(seeds=range(20), ops=None, tol: float = 1e-4) -> list[GradCheckReport]:
    """Run the randomized gradient suite and the micro-graph, or the entries
    named in ``ops``; one report per (entry, worst seed)."""
    suite = {**standard_op_suite(), "vlm_lvm_aspp_bce": micro_pipeline_entry}
    if ops:
        missing = set(ops) - set(suite)
        if missing:
            raise ValueError(f"unknown ops for gradcheck: {sorted(missing)}")
        suite = {k: v for k, v in suite.items() if k in ops}
    reports = []
    for name, builder in suite.items():
        worst = GradCheckReport(label=name, max_rel_error=0.0, tol=tol, checked=0)
        for seed in seeds:
            rng = np.random.default_rng([seed, 1234])
            fn, inputs = builder(rng)
            coords = 6 if name == "vlm_lvm_aspp_bce" else None  # per input tensor
            rep = grad_check(
                fn, inputs, tol=tol, rng=rng, max_coords_per_tensor=coords, label=name
            )
            worst.checked += rep.checked
            worst.max_rel_error = max(worst.max_rel_error, rep.max_rel_error)
        reports.append(worst)
    return reports
