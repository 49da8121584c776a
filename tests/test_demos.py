"""The quick demos run end to end as plain scripts and write only what they say."""
import os
import subprocess
import sys

import pytest

from cbce.datakit import synth_generate
from cbce.train import load_config, train

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def _run_demo(name, cwd, *args):
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, os.path.join(ROOT, "demos", name), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize(
    "name", ["01_autodiff_basics.py", "03_network_walkthrough.py", "05_metric_gallery.py"]
)
def test_demo_runs(name, tmp_path):
    proc = _run_demo(name, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert os.listdir(tmp_path) == []


def test_scene_demo_writes_only_demo_out(tmp_path):
    proc = _run_demo("02_synthetic_scenes.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert os.listdir(tmp_path) == ["demo_out"]
    assert os.listdir(tmp_path / "demo_out") == ["scenes"]


@pytest.fixture(scope="module")
def toy_ckpt(tmp_path_factory):
    """A checkpoint of two configs/toy.json steps on eight scenes."""
    cfg = load_config(os.path.join(ROOT, "configs", "toy.json"))
    cfg.max_steps = 2
    cfg.synth.samples = 8
    data = tmp_path_factory.mktemp("toy_data")
    synth_generate(cfg.synth, data)
    return train(cfg, data, tmp_path_factory.mktemp("toy_run")).checkpoint_path


def test_phrase_swap_demo_runs_on_a_checkpoint(tmp_path, toy_ckpt):
    proc = _run_demo("06_phrase_swap.py", tmp_path, "--ckpt", toy_ckpt)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("mutual IoU") == 3
    assert os.listdir(tmp_path) == ["demo_out"]
    assert os.listdir(tmp_path / "demo_out") == ["pairs"]
