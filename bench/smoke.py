"""Quick-size smoke test of the benchmark.

    python3 bench/smoke.py

Runs every workload in-process, untraced and traced, shrunk to 8 scenes
and 4-step training runs, and checks that each run reports exactly the
metrics BENCHMARK.json declares, with their units, and that a traced run
charged nodes to every module, conv ops to ``convops``, and restored the
original functions afterwards. Exits 1 on the first mismatch.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (pins OPENBLAS_NUM_THREADS before numpy loads)

QUICK = {"samples": 8, "steps": 4}
TRACED_NONZERO = ("encoders.visual.nodes", "encoders.phrase.nodes", "fusion.nodes",
                  "cim.nodes", "seghead.nodes", "tensor.op.conv2d.count",
                  "convops.gflop_per_step")
# at quick size each run's prologue (data load, model build) is a large
# share of a 4-step run, so the per-layer sum cannot reach 90% of the step
COVERAGE = "per-layer sum"


def originals_restored() -> list:
    mod = {n: importlib.import_module(f"cbce.{n}") for n in (
        "tensor", "convops", "model", "seghead", "fusion", "train", "optim")}
    pairs = [
        ("convops.record_op", mod["convops"].record_op, mod["tensor"].record_op),
        ("model.bce_loss", mod["model"].bce_loss, mod["seghead"].bce_loss),
        ("model.build_initial_fused", mod["model"].build_initial_fused,
         mod["fusion"].build_initial_fused),
        ("train.backward", mod["train"].backward, mod["tensor"].backward),
        ("train.adam_step", mod["train"].adam_step, mod["optim"].adam_step),
    ]
    return [f"{name} still patched" for name, seen, original in pairs if seen is not original]


def check(name: str, trace: int, res: dict, declared: dict) -> list:
    errors = [f"check failed: {p}" for p in res["problems"] if not p.startswith(COVERAGE)]
    got = {k: v["unit"] for k, v in res["metrics"].items() if k not in run.UNGATED}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        wrong = sorted(k for k in set(got) & set(declared) if got[k] != declared[k])
        errors.append(f"metrics differ: missing {missing}, extra {extra}, wrong unit {wrong}")
    if res["attempted"] < 1 or res["failed"]:
        errors.append(f"attempted {res['attempted']}, failed {res['failed']}")
    errors += [f"{k} is not finite" for k, v in res["metrics"].items()
               if not math.isfinite(v["value"])]
    if trace:
        errors += [f"{k} is 0" for k in TRACED_NONZERO if not res["metrics"][k]["value"]]
        if name.startswith("train") and not res["metrics"]["seghead.loss_ms"]["value"]:
            errors.append("seghead.loss_ms is 0")
        errors += originals_restored()
    return [f"{name} --trace {trace}: {e}" for e in errors]


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {t: {m["name"]: m["unit"] for m in spec[key]}
                for t, key in ((0, "end_to_end"), (1, "per_layer"))}
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(run.WORKLOADS):
        print(f"BENCHMARK.json workloads {names} != run.py {sorted(run.WORKLOADS)}")
        return 1
    for name, workload in run.WORKLOADS.items():
        run.WORKLOADS[name] = replace(workload, **QUICK, runs=min(workload.runs, 2))
    for name in names:
        for trace in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                res = run.main(["--workload", name, "--seed", "0", "--seconds", "0.5",
                                "--trace", str(trace)])
            errors = check(name, trace, res, declared[trace])
            if errors:
                print(out.getvalue() + "\n".join(errors))
                return 1
    print(f"smoke ok: {len(names)} workloads, untraced and traced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
