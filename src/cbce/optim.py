"""Adam with decoupled weight decay, and the polynomial LR schedule.

The optimizer owns its parameters' storage. ``AdamState.for_params``
lays the trainable parameters end to end, in dict order, in one
contiguous buffer of their single dtype and rebinds each ``Tensor.data``
to a reshaped view of it; the first and second moments are flat buffers
of the same layout, and ``state.m`` / ``state.v`` are name-keyed dicts
of views into them, so checkpoints see one array per parameter. One
``adam_step`` gathers the gradients with a single ``np.concatenate`` and
walks the buffer in blocks of ``ADAM_BLOCK`` elements, running the same
sixteen in-place ufunc calls on each block with one block of scratch.
Every element sees the same operations on the same operands as in a
per-tensor loop, so the results are bit-identical.

Nothing may rebind a trained parameter's ``.data`` once its state is
built: a rebound tensor no longer views the buffer and its updates would
be lost. Load new values with ``np.copyto`` (as ``CbceNet.load_state``
does); ``adam_step`` raises, naming the parameter, if it finds a tensor
that no longer views the buffer.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# elements per block of the update: its operands stay in cache between the
# ufunc calls, where whole-buffer passes stream every operand from memory
ADAM_BLOCK = 1 << 16


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0
    views: dict = field(default_factory=dict)  # name -> the parameter's view of `flat`
    flat: np.ndarray | None = None
    flat_m: np.ndarray | None = None
    flat_v: np.ndarray | None = None

    @classmethod
    def for_params(cls, params: dict) -> "AdamState":
        dtypes = sorted({p.data.dtype.name for p in params.values()})
        if len(dtypes) != 1:
            raise ValueError(f"parameters must share one dtype, got {dtypes}")
        total = sum(p.data.size for p in params.values())
        flat = np.empty(total, dtype=dtypes[0])
        state = cls(flat=flat, flat_m=np.zeros_like(flat), flat_v=np.zeros_like(flat))
        offset = 0
        for name, p in params.items():
            shape, end = p.data.shape, offset + p.data.size
            view = flat[offset:end].reshape(shape)
            view[...] = p.data
            p.data = view
            state.views[name] = view
            state.m[name] = state.flat_m[offset:end].reshape(shape)
            state.v[name] = state.flat_v[offset:end].reshape(shape)
            offset = end
        return state


def adam_step(params: dict, state: AdamState, lr: float, weight_decay: float = 0.0,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One in-place update over ``params`` (name -> Tensor with .grad).

    ``params`` must be the dict the state was built from. Weight decay is
    decoupled: lr * wd * param is subtracted alongside the moment update
    rather than folded into the gradient.
    """
    if len(params) != len(state.views):
        raise ValueError(f"{len(params)} parameters for an optimizer state of "
                         f"{len(state.views)}")
    grads = []
    for (name, p), view in zip(params.items(), state.views.values()):
        g = p.grad
        if g is None:
            raise ValueError(f"no gradient for parameter {name!r}")
        if g.shape != p.data.shape:
            raise ValueError(f"shape mismatch updating {name!r}")
        if g.dtype != p.data.dtype:
            raise ValueError(f"gradient dtype {g.dtype} differs from parameter "
                             f"{name!r} dtype {p.data.dtype}")
        if p.data is not view:
            raise ValueError(f"parameter {name!r} does not view its slot of the optimizer's "
                             "buffer; copy new values in with np.copyto, do not rebind .data")
        grads.append(g.reshape(-1))
    state.t += 1
    t = state.t
    G = np.concatenate(grads)
    S = np.empty(min(ADAM_BLOCK, G.size), dtype=G.dtype)
    for lo in range(0, G.size, ADAM_BLOCK):
        p, m, v, g = (a[lo : lo + ADAM_BLOCK] for a in (state.flat, state.flat_m, state.flat_v, G))
        s = S[: g.size]
        v *= beta2
        np.multiply(g, g, out=s)
        s *= 1 - beta2
        v += s
        m *= beta1
        g *= 1 - beta1
        m += g
        np.divide(m, 1 - beta1**t, out=g)  # m_hat
        np.divide(v, 1 - beta2**t, out=s)  # v_hat
        np.sqrt(s, out=s)
        s += eps
        g /= s
        np.multiply(p, weight_decay, out=s)
        g += s
        g *= lr
        p -= g


def poly_lr(step: int, max_steps: int, base_lr: float, power: float = 0.9) -> float:
    """base_lr * (1 - step / max_steps) ** power."""
    if not 0 <= step <= max_steps:
        raise ValueError(f"step {step} outside [0, {max_steps}]")
    return float(base_lr * (1.0 - step / max_steps) ** power)
