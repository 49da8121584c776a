"""Bit-identity of training, pinned: a change that only saves time or memory
must leave the loss trace, the parameters and the Adam moments unchanged."""
import dataclasses
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from cbce.checkpoint import load_checkpoint
from cbce.datakit import synth_generate
from cbce.train import load_config, train

HERE = os.path.dirname(os.path.abspath(__file__))
TOY_CONFIG = os.path.join(HERE, "..", "configs", "toy.json")

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


# The same digest after 3 float32 steps at mid model shapes (144-px crops
# of 160-px scenes, a 20x20 grid, 128 channels, rank 32, the toy object
# scales doubled), where the resize backward runs many rounds per axis and
# Adam spans many blocks. OpenBLAS splits GEMMs of this size across threads
# in a way that changes their sums, so the steps run in a child process
# with one BLAS thread. Recorded before the resize backward stopped calling
# np.add.at and before Adam ran in blocks
MID_SHA256 = "b4655220cae00a381e26b97b2a44df5464471ef3310df6ca635a0fdc4aa55bec"


def _three_step_digest(cfg, tmp_path):
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
    return digest.hexdigest()


@pytest.mark.parametrize("dtype", sorted(TRAINING_SHA256))
def test_three_toy_steps_pinned(dtype, tmp_path):
    cfg = load_config(TOY_CONFIG)
    cfg = dataclasses.replace(
        cfg, max_steps=3, model=dataclasses.replace(cfg.model, dtype=dtype),
        synth=dataclasses.replace(cfg.synth, samples=8),
    )
    assert _three_step_digest(cfg, tmp_path) == TRAINING_SHA256[dtype]


def mid_digest(tmp_path):
    cfg = load_config(TOY_CONFIG)
    cfg = dataclasses.replace(
        cfg, max_steps=3, crop_size=144,
        model=dataclasses.replace(cfg.model, feat_h=20, feat_w=20, c_i=128, c_l=128,
                                  c_f=128, c_a=128, rank=32,
                                  backbone_channels=(16, 32, 64, 128, 128),
                                  dtype="float32"),
        synth=dataclasses.replace(cfg.synth, size=160, samples=4,
                                  target_scale=(60.0, 92.0), confuser_scale=(56.0, 80.0),
                                  distractor_scale=(28.0, 48.0), pair_scale=(52.0, 68.0)),
    )
    return _three_step_digest(cfg, tmp_path)


def test_three_mid_steps_pinned(tmp_path):
    src = os.path.join(HERE, "..", "src")
    child = ("import pathlib, sys; from test_training_digest import mid_digest; "
             "print(mid_digest(pathlib.Path(sys.argv[1])))")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([HERE, src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", child, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[-1] == MID_SHA256
