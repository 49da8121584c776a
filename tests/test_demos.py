"""The quick demos run end to end as plain scripts and write no files."""
import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


@pytest.mark.parametrize(
    "name", ["01_autodiff_basics.py", "03_network_walkthrough.py", "05_metric_gallery.py"]
)
def test_demo_runs(name, tmp_path):
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert os.listdir(tmp_path) == []
