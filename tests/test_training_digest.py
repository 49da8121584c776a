"""Bit-identity of training, pinned: a change that only saves time or memory
must leave the loss trace, the parameters and the Adam moments unchanged."""
import dataclasses
import hashlib
import os

import numpy as np
import pytest

from cbce.checkpoint import load_checkpoint
from cbce.datakit import synth_generate
from cbce.train import load_config, train

TOY_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "toy.json")

# sha256 over the float64 bytes of the loss trace, then (field, name, dtype
# name, bytes) of every params/adam_m/adam_v array in sorted name order,
# after 3 steps of configs/toy.json on 8 synthesized scenes. The float64
# constant was recorded before the autograd graph stopped holding
# intermediate tensors; the float32 one when the bilinear resize stopped
# promoting float32 maps to float64, so that every op of a float32 step
# runs in float32 (that change left the float64 constant as it was)
TRAINING_SHA256 = {
    "float32": "7e961d158e7b3a96c093ffcfcb5b95a5432c104b687ffa2ccfdd78a0601e65b9",
    "float64": "7eae5ac732a319dad8e073d40e3727057d04639f3b894202881040275ecf87b5",
}


@pytest.mark.parametrize("dtype", sorted(TRAINING_SHA256))
def test_three_toy_steps_pinned(dtype, tmp_path):
    cfg = load_config(TOY_CONFIG)
    cfg = dataclasses.replace(
        cfg, max_steps=3, model=dataclasses.replace(cfg.model, dtype=dtype),
        synth=dataclasses.replace(cfg.synth, samples=8),
    )
    synth_generate(cfg.synth, tmp_path / "data")
    result = train(cfg, tmp_path / "data", tmp_path / "run")
    assert len(result.losses) == 3
    ckpt = load_checkpoint(result.checkpoint_path)
    digest = hashlib.sha256(np.asarray(result.losses, dtype=np.float64).tobytes())
    for field in ("params", "adam_m", "adam_v"):
        arrays = getattr(ckpt, field)
        for name in sorted(arrays):
            digest.update(f"{field}.{name}.{arrays[name].dtype.name}".encode())
            digest.update(np.ascontiguousarray(arrays[name]).tobytes())
    assert digest.hexdigest() == TRAINING_SHA256[dtype]
