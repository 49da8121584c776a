"""Train on the synthetic dataset and score the held-out split.

Run from the repository root:
  python3 demos/04_train_and_evaluate.py           # quick 600-step taste
  python3 demos/04_train_and_evaluate.py --full    # the full 3000-step run

Writes to ./demo_out/train (dataset, checkpoints, logs, reports).
"""
import os
import sys
import time

from cbce.datakit import synth_generate
from cbce.train import evaluate_checkpoint, load_config, smoothed, train

full = "--full" in sys.argv
cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "toy.json"))
if not full:
    cfg.max_steps = 600

data_dir = "demo_out/train/data"
run_dir = "demo_out/train/run"
if not os.path.exists(os.path.join(data_dir, "manifest.jsonl")):
    print("generating the synthetic dataset (800 scenes)...")
    synth_generate(cfg.synth, data_dir)

print(f"training for {'3000' if full else '600'} steps...")
t0 = time.time()
result = train(cfg, data_dir, run_dir)
head, tail = smoothed(result.losses)
print(f"\n{result.steps} steps in {time.time() - t0:.0f}s")
print(f"smoothed loss: {head:.0f} -> {tail:.0f} (x{tail / head:.2f})")

print("\nscoring the 200 held-out scenes...")
report = evaluate_checkpoint(result.checkpoint_path, data_dir,
                             report_prefix=os.path.join(run_dir, "report"))
print("overall:", {k: v if v is None else round(v, 3) for k, v in report.overall.items()})
print("per affordance IoU:")
for cat, vals in report.per_category.items():
    print(f"  {cat:8s} {vals['iou']:.3f}")
print(f"\nreports written to {run_dir}/report.csv and .json")
