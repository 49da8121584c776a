"""Parameter initializers. All return trainable float64 tensors.

Weights are always drawn in float64; ``CbceNet`` casts every parameter
once to the configured precision, so no module takes a dtype.
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
