"""Where the network's construction decisions live: precision, seeding and
the parameter registry."""
import dataclasses
import hashlib
import inspect
import os

import numpy as np
import pytest

from cbce import init
from cbce.cim import Cim, Lvm, Vlm
from cbce.encoders import PhraseEncoder, VisualEncoder
from cbce.fusion import BilinearFusion
from cbce.model import CbceNet
from cbce.seghead import Aspp, SegHead
from cbce.tensor import Tensor
from cbce.train import load_config

TOY_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "toy.json")

# sha256 over (name, dtype name, bytes) of every toy-config parameter in
# parameters() order, vocab 20, rng default_rng([7, 0]); recorded when each
# module still cast its own weights, so the single cast in CbceNet must
# reproduce them bit for bit
INITIAL_WEIGHTS_SHA256 = {
    "float32": "99f3d3590bcf182f73f42ca427ff5fec2686f16f905b77696854f123d0c01210",
    "float64": "a6d326b423d184e98caa972ec09aa26f8efecae4c1774b7bdc8d62f9e1d26a72",
}

MODULES = (VisualEncoder, PhraseEncoder, BilinearFusion, Vlm, Lvm, Cim, Aspp, SegHead)
INITIALIZERS = (init.glorot, init.he, init.uniform, init.zeros, init.constant)


@pytest.mark.parametrize("dtype", sorted(INITIAL_WEIGHTS_SHA256))
def test_initial_weights_pinned_in_configured_dtype(dtype):
    cfg = dataclasses.replace(load_config(TOY_CONFIG).model, dtype=dtype)
    net = CbceNet(cfg, 20, rng=np.random.default_rng([7, 0]))
    digest = hashlib.sha256()
    for name, t in net.parameters().items():
        assert t.dtype == np.dtype(dtype), name
        digest.update(name.encode())
        digest.update(t.dtype.name.encode())
        digest.update(np.ascontiguousarray(t.data).tobytes())
    assert digest.hexdigest() == INITIAL_WEIGHTS_SHA256[dtype]


def _trainable_tensors(root) -> list:
    """Every requires_grad Tensor held by root's attributes, through dicts,
    lists, tuples and child modules; the registry itself is not walked."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Tensor) and obj.requires_grad:
            found.append(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, init.Module):
            stack.extend(v for k, v in vars(obj).items() if k != "_registry")
    return found


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_every_trainable_tensor_is_registered_once(dtype):
    # a tensor created without Module.add would never be trained or saved
    cfg = dataclasses.replace(load_config(TOY_CONFIG).model, dtype=dtype)
    net = CbceNet(cfg, 20, rng=0)
    params = list(net.parameters().values())
    assert len({id(t) for t in params}) == len(params) == 125
    assert {id(t) for t in _trainable_tensors(net)} == {id(t) for t in params}


@pytest.mark.parametrize(
    "fn", [m.__init__ for m in MODULES] + [CbceNet.__init__, *INITIALIZERS],
    ids=lambda fn: fn.__qualname__,
)
def test_precision_and_seeding_are_decided_by_cbcenet_alone(fn):
    # modules draw float64 weights and CbceNet casts them once, so no
    # constructor or initializer takes a dtype or falls back to its own seed
    params = inspect.signature(fn).parameters
    assert "dtype" not in params
    if "rng" in params:
        assert params["rng"].default is inspect.Parameter.empty
