"""Tour of the tensor engine: recording, backward, gradient checking.

Run from the repository root:  python3 demos/01_autodiff_basics.py
"""
import numpy as np

from cbce import Tensor, backward, grad_check
from cbce.tensor import GraphConsumedError, linear, mul, record_op, tanh, tsum

print("== building a small graph ==")
x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
w = Tensor([[0.5], [-1.0]], requires_grad=True)
b = Tensor([0.25], requires_grad=True)
scores = linear(x, w, b)                   # (2, 1): x @ w + b as one node
act = tanh(scores)
loss = tsum(mul(act, Tensor([[1.0], [0.0]])))
print(f"scores {scores.data.ravel()}, tanh {act.data.ravel()}, loss {loss.item():.4f}")

backward(loss)
print("d loss / d x =\n", x.grad)
print("d loss / d w =\n", w.grad)
print("d loss / d b =", b.grad)

print("\n== one backward pass per recording ==")
x = Tensor(np.ones(3), requires_grad=True)
y = tsum(mul(x, x))
backward(y)
try:
    backward(y)
except GraphConsumedError as exc:
    print("second backward correctly refused:", exc)

print("\n== central-difference gradient checking ==")
r = np.random.default_rng(0)
m = Tensor(r.standard_normal((3, 4)), requires_grad=True)
n = Tensor(r.standard_normal((4, 2)), requires_grad=True)
c = Tensor(r.standard_normal(2), requires_grad=True)
report = grad_check(lambda m, n, c: tanh(linear(m, n, c)), [m, n, c], tol=1e-5)
print(f"tanh(linear): max relative error {report.max_rel_error:.2e} over "
      f"{report.checked} coordinates -> {'pass' if report.passed else 'FAIL'}")

print("\n== a deliberately wrong backward rule is caught ==")
z = Tensor(r.standard_normal(5), requires_grad=True)


def broken_double(t):
    # forward doubles, but the hand-written rule claims the gradient is 4x
    return record_op("broken_double", t.data * 2.0, (t,), lambda g: (4.0 * g,))


report = grad_check(broken_double, [z])
print(f"broken rule: max relative error {report.max_rel_error:.2e} -> "
      f"{'pass' if report.passed else 'FAIL (as expected)'}")
