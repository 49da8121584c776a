"""Tour of the tensor engine: recording, backward, gradient checking.

Run from the repository root:  python3 demos/01_autodiff_basics.py
"""
import numpy as np

from cbce import Tensor, backward, grad_check
from cbce.tensor import GraphConsumedError, linear, record_op, relu, reshape

print("== building a small graph ==")
x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
w = Tensor([[0.5], [-1.0]], requires_grad=True)
b = Tensor([2.0], requires_grad=True)
scores = linear(x, w, b)                   # (2, 1): x @ w + b as one node
act = relu(scores)                         # the second row is negative and gets cut
loss = linear(reshape(act, (1, 2)), Tensor(np.ones((2, 1))), Tensor([0.0]))  # sum of act
print(f"scores {scores.data.ravel()}, relu {act.data.ravel()}, loss {loss.item():.4f}")

backward(loss)
print("d loss / d x =\n", x.grad)
print("d loss / d w =\n", w.grad)
print("d loss / d b =", b.grad)

print("\n== central-difference gradient checking ==")
r = np.random.default_rng(0)
m = Tensor(r.standard_normal((3, 4)), requires_grad=True)
n = Tensor(r.standard_normal((4, 2)), requires_grad=True)
c = Tensor(r.standard_normal(2), requires_grad=True)
report = grad_check(lambda m, n, c: relu(linear(m, n, c)), [m, n, c], tol=1e-5)
print(f"relu(linear): max relative error {report.max_rel_error:.2e} over "
      f"{report.checked} coordinates -> {'pass' if report.passed else 'FAIL'}")

print("\n== custom ops through record_op ==")
z = Tensor(r.standard_normal(5), requires_grad=True)


def square_sum(t):
    # sum(t * t) with its rule d/dt = 2 t
    d = t.data
    return record_op("square_sum", np.sum(d * d), (t,), lambda g: (2.0 * d * g,))


def broken_double(t):
    # forward doubles, but the hand-written rule claims the gradient is 4x
    return record_op("broken_double", t.data * 2.0, (t,), lambda g: (4.0 * g,))


report = grad_check(square_sum, [z])
print(f"square_sum: max relative error {report.max_rel_error:.2e} -> "
      f"{'pass' if report.passed else 'FAIL'}")
report = grad_check(broken_double, [z])
print(f"broken rule: max relative error {report.max_rel_error:.2e} -> "
      f"{'pass' if report.passed else 'FAIL (as expected)'}")

print("\n== one backward pass per recording ==")
x = Tensor(np.ones(3), requires_grad=True)
y = square_sum(x)
backward(y)
print("d sum(x * x) / d x =", x.grad)
try:
    backward(y)
except GraphConsumedError as exc:
    print("second backward correctly refused:", exc)
