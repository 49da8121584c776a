"""Parameter initializers, which return trainable float64 tensors, and
the ``Module`` registry that names them.

Weights are always drawn in float64; ``CbceNet`` casts every parameter
once to the configured precision, so no module takes a dtype. Each module
names a parameter or child module once, where it creates it, with
``Module.add``; those names are the checkpoint keys and the layout order
of the optimizer's flat buffer.
"""
from __future__ import annotations

import numpy as np

from .tensor import Tensor


def glorot(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> Tensor:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


def he(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    """Fan-in scaled init; keeps activation variance through ReLU stacks."""
    limit = np.sqrt(6.0 / fan_in)
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True)


def uniform(rng: np.random.Generator, shape, bound: float) -> Tensor:
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def constant(shape, value: float) -> Tensor:
    return Tensor(np.full(shape, value), requires_grad=True)


class Module:
    """A parameter registry: ``add`` records each parameter and child module
    under its name, and ``parameters`` walks them in the order added."""

    def add(self, name: str, item):
        """Record a parameter Tensor or a child Module under ``name``; return it."""
        self.__dict__.setdefault("_registry", {})[name] = item
        return item

    def parameters(self) -> dict:
        """name -> Tensor, a child's names dotted under its own name."""
        out = {}
        for name, item in self.__dict__.get("_registry", {}).items():
            if isinstance(item, Module):
                out.update((f"{name}.{sub}", t) for sub, t in item.parameters().items())
            else:
                out[name] = item
        return out
