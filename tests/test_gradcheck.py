"""Gradient-checker behavior: suite coverage, negative control, determinism."""
import os

import numpy as np
import pytest
from per_op import matmul, mul, softmax, tsum

from cbce import convops
from cbce import tensor as T
from cbce.encoders import PhraseSet
from cbce.gradcheck import grad_check, run_suite, standard_op_suite
from cbce.model import CbceNet
from cbce.tensor import Tensor, backward, record_op
from cbce.train import load_config


def test_every_op_passes_fd_check_across_seeds():
    # engine ops only here; the composed pipeline runs in the acceptance suite
    reports = run_suite(seeds=range(20), ops=list(standard_op_suite()))
    failed = [r for r in reports if not r.passed]
    assert not failed, failed
    assert len(reports) == len(standard_op_suite())


def test_every_checked_op_has_a_network_caller(monkeypatch):
    # an op keeps its gradcheck entry only while the network calls it, and
    # every op the network records is checked
    kinds = set()

    def recording(original):
        def record(op, *args):
            kinds.add(op)
            return original(op, *args)

        return record

    monkeypatch.setattr(T, "record_op", recording(T.record_op))
    monkeypatch.setattr(convops, "record_op", recording(convops.record_op))
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "toy.json"))
    rng = np.random.default_rng(0)
    net = CbceNet(cfg.model, vocab_size=12, rng=rng)
    phrases = PhraseSet(ids=[[2, 3, 4], [5, 6, 0]], lengths=[3, 2], vocab_size=12)
    mask = (rng.random((40, 40)) > 0.5).astype(np.float64)
    backward(net.loss(rng.random((40, 40, 3)), phrases, mask))
    network = set(kinds)

    checked = {}
    for name, build in standard_op_suite().items():
        kinds.clear()
        fn, inputs = build(np.random.default_rng(0))
        fn(*inputs)
        checked[name] = set(kinds)
    assert [name for name, ks in checked.items() if not ks] == []
    uncalled = {name: ks - network for name, ks in checked.items() if ks - network}
    assert uncalled == {}
    assert network <= set().union(*checked.values())


@pytest.mark.parametrize("name", sorted(standard_op_suite()))
def test_every_op_keeps_float32(name):
    # each rule's own dtype: backward hands gradients on as the rules return them
    fn, inputs = standard_op_suite()[name](np.random.default_rng(0))
    for t in inputs:
        t.data = t.data.astype(np.float32)
    out = fn(*inputs)
    assert out.dtype == np.float32
    backward(tsum(out))
    for i, t in enumerate(inputs):
        assert t.grad.dtype == np.float32, (name, i)


# the per-op references the fused ops are proven bit-identical to


def test_matmul_passes_tight_tolerance():
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    rep = grad_check(lambda a, b: matmul(a, b), [a, b], tol=1e-5)
    assert rep.passed


def test_softmax_of_matmul_composition():
    rng = np.random.default_rng(1)
    a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal((3, 1)), requires_grad=True)
    fn = lambda a, b: softmax(T.reshape(matmul(a, b), (-1,)), scale=1.5)
    rep = grad_check(fn, [a, b], tol=1e-4)
    assert rep.passed


def test_wrong_backward_rule_is_caught():
    # negative control: analytic rule off by 2x must fail the check
    x = Tensor(np.random.default_rng(2).standard_normal(5), requires_grad=True)

    def broken(x):
        return record_op("broken_double", x.data * 2.0, (x,), lambda g: (4.0 * g,))

    rep = grad_check(broken, [x], tol=1e-4)
    assert not rep.passed
    assert rep.max_rel_error > 0.1


def test_nondeterministic_function_detected():
    x = Tensor(np.ones(3), requires_grad=True)
    state = {"calls": 0}

    def noisy(x):
        state["calls"] += 1
        return mul(x, float(state["calls"]))

    with pytest.raises(RuntimeError, match="non-deterministic"):
        grad_check(noisy, [x])


def test_coordinate_subsampling_counts():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((10, 10)), requires_grad=True)
    rep = grad_check(lambda x: tsum(mul(x, x)), [x], max_coords_per_tensor=7)
    assert rep.checked == 7
    assert rep.passed
