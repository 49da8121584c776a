"""cbce benchmark: training and scoring speed, end to end and per layer.

    python3 bench/run.py --workload train_toy --seed 0 --seconds 30 --trace 0

Workloads (each one process, a closed loop with one caller):

* ``train_toy``: ``configs/toy.json`` as shipped (64 generated scenes).
  Per-node Python overhead dominates a step.
* ``train_mid``: ``bench/configs/mid.json``. BLAS kernels and memory
  traffic dominate a step.
* ``eval_toy``: held-out 80-px toy scenes scored through
  ``CbceNet.forward`` and ``metrics.score_pair`` against a checkpoint
  that set-up trains. Forward only, on full-size images.

``--trace 0`` measures the end-to-end metrics with nothing patched. The
per-step times come from the lines ``train()`` writes to ``log_stream``.
``--trace 1`` alternates untraced and traced runs of the same work (see
``tracer.py``), checks that the two agree bit for bit, and reports the
per-layer metrics and the tracing overhead. The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import os

# pinned before numpy loads: with more BLAS threads mid scale is no faster
# and reductions reorder, which moves the loss trace in the 7th digit
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ.pop("CBCE_DTYPE", None)  # the config's dtype is the one measured

import argparse
import gc
import hashlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

# `cbce.train` as an attribute is the function train(); fetch the modules
train_mod = importlib.import_module("cbce.train")
checkpoint_mod = importlib.import_module("cbce.checkpoint")
datakit_mod = importlib.import_module("cbce.datakit")
metrics_mod = importlib.import_module("cbce.metrics")

from tracer import (  # noqa: E402
    BWD_FLOPS, BWD_S, F64_NODES, FWD_FLOPS, FWD_S, MODULE_SPANS, NODES, OP_KINDS,
    RECORD_S, Tracer)

SETUP_REPS = 3  # set-up runs per benchmark run; setup_s is their median
WARMUP_STEPS = 3  # steps (or images) run before the timed window
TAIL = 50  # loss_tail averages the last TAIL losses of each fixed-length run


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "eval"
    config: str  # relative to the repository root
    samples: int  # synthetic scenes generated by set-up (75% train, 25% test)
    steps: int  # length of one fixed-length train() run
    runs: int  # distinct fixed-length runs whose loss tails make loss_tail


WORKLOADS = {
    # runs of 50 steps: at toy scale the loss of a longer run falls steeply
    # at a seed-dependent step, so its tail would measure the seed; the
    # tails of several runs are averaged for the same reason
    "train_toy": Workload("train_toy", "train", "configs/toy.json", samples=64, steps=50, runs=6),
    "train_mid": Workload("train_mid", "train", "bench/configs/mid.json", samples=32, steps=50,
                          runs=2),
    "eval_toy": Workload("eval_toy", "eval", "configs/toy.json", samples=64, steps=50, runs=1),
}

END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "loss_tail": "nat",
}
# printed, but left out of the JSON result and so of BENCHMARK.json: on a
# shared 2-core box step times fall into a fast and a slow mode whose mix
# drifts over minutes, so the median jumps between modes from run to run
# (0.20 and 0.26 of the median across ten runs of train_toy), beyond the
# largest bound a metric may have; the mean-based throughput and the p90 move
# less
UNGATED = ("latency_ms_p50",)


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """HEAD of the repository holding the benchmark, read without git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# set-up


def configure(spec: Workload, seed: int):
    cfg = train_mod.load_config(ROOT / spec.config)
    cfg.seed = cfg.synth.seed = seed
    cfg.synth.samples = spec.samples
    cfg.max_steps = spec.steps
    return cfg


@dataclass
class Setup:
    cfg: object
    data: Path
    seconds: list = field(default_factory=list)
    synth_seconds: list = field(default_factory=list)
    ckpt_path: str | None = None
    model: object = None
    vocab: object = None
    records: list = field(default_factory=list)
    loss_traces: list = field(default_factory=list)


def set_up(spec: Workload, seed: int, work: Path) -> Setup:
    """Run set-up SETUP_REPS times from scratch; keep the last products."""
    seconds, synth_seconds, loss_traces = [], [], []
    for _ in range(SETUP_REPS):
        shutil.rmtree(work, ignore_errors=True)
        t0 = perf_counter()
        setup = Setup(configure(spec, seed), work / "data")
        datakit_mod.synth_generate(setup.cfg.synth, setup.data)
        synth_seconds.append(perf_counter() - t0)
        if spec.kind == "eval":
            result = train_mod.train(setup.cfg, setup.data, work / "ckpt")
            ckpt = checkpoint_mod.load_checkpoint(result.checkpoint_path)
            setup.model, setup.vocab = train_mod.model_from_checkpoint(ckpt)
            setup.records = datakit_mod.load_manifest(str(setup.data / "test.jsonl"))
            setup.ckpt_path = result.checkpoint_path
            loss_traces.append(result.losses)
        seconds.append(perf_counter() - t0)
    setup.seconds, setup.synth_seconds, setup.loss_traces = seconds, synth_seconds, loss_traces
    return setup


# ---------------------------------------------------------------------------
# training


class StepClock:
    """log_stream for train(): timestamps each per-step line as written."""

    def __init__(self, tracer: Tracer | None = None):
        self.times: list = []
        self.tracer = tracer
        self._prev = perf_counter()

    def write(self, text: str) -> int:
        if '"loss"' in text:
            now = perf_counter()
            self.times.append(now)
            if self.tracer is not None:
                self.tracer.add_span("train.step", self._prev, now)
                self.tracer.step += 1
            self._prev = now
        return len(text)


@dataclass
class Call:
    run: int
    start: float
    end: float
    step_times: list
    losses: list | None
    error: str | None


def train_call(setup: Setup, seed: int, run: int, out: Path, tracer=None) -> Call:
    """One fixed-length train() run; run r uses config seed 1000 * seed + r."""
    cfg = replace(setup.cfg, seed=1000 * seed + run)
    clock = StepClock(tracer)
    start = perf_counter()
    try:
        losses, error = train_mod.train(cfg, setup.data, out, log_stream=clock).losses, None
    except Exception as exc:  # counted in `failed` and reported by type
        losses, error = None, type(exc).__name__
    return Call(run, start, perf_counter(), clock.times, losses, error)


def repeat_until(seconds: float, minimum: int, job) -> None:
    """Run ``job(i)`` for i = 0, 1, ... at least ``minimum`` times, then
    while another run would end closer to ``seconds`` than stopping now.
    ``job`` returns (duration, failed)."""
    t0 = perf_counter()
    last = 0.0
    i = 0
    while i < minimum or perf_counter() - t0 + 0.5 * last < seconds:
        last, failed = job(i)
        i += 1
        if failed:
            break


def check_calls(calls: list, spec: Workload) -> list:
    """Problems with the loss traces: length, finiteness, reproducibility."""
    problems = []
    first: dict = {}
    for call in calls:
        if call.losses is None:
            problems.append(f"run {call.run} raised {call.error}")
            continue
        if len(call.losses) != spec.steps:
            problems.append(f"run {call.run} made {len(call.losses)} of {spec.steps} steps")
        if not all(np.isfinite(call.losses)):
            problems.append(f"run {call.run} has a non-finite loss")
        if call.losses != first.setdefault(call.run, call.losses):
            problems.append(f"run {call.run} did not repeat its loss trace bit for bit")
    return problems


def loss_tail(traces: list) -> float:
    return float(np.mean([np.mean(t[-TAIL:]) for t in traces]))


def run_train(spec: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    setup = set_up(spec, seed, work)
    out = work / "out"
    train_mod.train(replace(setup.cfg, max_steps=WARMUP_STEPS), setup.data, out)
    gc.collect()
    plain, traced = [], []
    if not trace:
        def job(i):
            plain.append(train_call(setup, seed, i % spec.runs, out))
            return plain[-1].end - plain[-1].start, plain[-1].error

        repeat_until(seconds, spec.runs, job)
    else:
        # untraced and traced calls of run 0 alternate, so drift in machine
        # speed hits both sides alike
        tracer = Tracer()

        def job(i):
            plain.append(train_call(setup, seed, 0, out))
            with tracer.installed():
                traced.append(train_call(setup, seed, 0, out, tracer))
            return (plain[-1].end - plain[-1].start + traced[-1].end - traced[-1].start,
                    plain[-1].error or traced[-1].error)

        repeat_until(seconds, 1, job)
    calls = plain + traced
    problems = check_calls(calls, spec)
    attempted = sum(len(c.step_times) + (1 if c.error else 0) for c in calls)
    errors = [c.error for c in calls if c.error]
    ok = [c for c in plain if c.error is None]
    steps = sum(len(c.step_times) for c in ok)
    wall = sum(c.end - c.start for c in ok)
    if not trace:
        lat = np.concatenate([np.diff(c.step_times) for c in ok]) if ok else np.zeros(1)
        tails = {c.run: c.losses for c in ok}
        metrics = end_to_end(steps / wall if wall else 0.0, lat, setup,
                             loss_tail(list(tails.values())) if tails else 0.0)
        return result(attempted, len(errors), problems, metrics,
                      f"{len(lat)} step intervals over {len(calls)} runs of {spec.steps} steps",
                      errors)
    traced_steps = sum(len(c.step_times) for c in traced)
    traced_wall = sum(c.end - c.start for c in traced)
    metrics, found = layer_metrics(tracer, max(1, traced_steps), wall / max(1, steps),
                                   traced_wall / max(1, traced_steps), setup, "train.train")
    write_trace(tracer, spec, seed, metrics)
    return result(attempted, len(errors), problems + found, metrics,
                  f"{traced_steps} traced steps", errors)


# ---------------------------------------------------------------------------
# scoring


@dataclass
class Scored:
    seconds: float
    digest: str | None
    error: str | None
    problem: str | None


def score_one(model, vocab, rec, n_phrases: int, tracer=None) -> Scored:
    """Score one held-out image the way ``cbce eval`` does, and check that
    its probability map is finite, lies in [0, 1] and has the image's shape."""
    if tracer:
        tracer.enter("eval.image")
    t = perf_counter()
    try:
        image = rec.load_image()
        probs = model.forward(image, vocab.encode_phrases(rec.phrases[:n_phrases])).prob_map
        scores = metrics_mod.score_pair(probs, rec.load_mask())
    except Exception as exc:  # counted in `failed` and reported by type
        return Scored(perf_counter() - t, None, type(exc).__name__, None)
    finally:
        if tracer:
            tracer.exit()
            tracer.step += 1
    elapsed = perf_counter() - t
    problem = None
    if probs.shape != image.shape[:2]:
        problem = f"{rec.id}: map shape {probs.shape} != image {image.shape[:2]}"
    elif not (np.isfinite(probs).all() and probs.min() >= 0.0 and probs.max() <= 1.0):
        problem = f"{rec.id}: probability map not finite or outside [0, 1]"
    digest = hashlib.blake2b(probs.tobytes() + repr(sorted(scores.items())).encode(),
                             digest_size=16).hexdigest()
    return Scored(elapsed, digest, None, problem)


def run_eval(spec: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    setup = set_up(spec, seed, work)
    n_phrases = setup.cfg.model.n_phrases
    records = setup.records
    problems = [] if all(t == setup.loss_traces[0] for t in setup.loss_traces) else [
        "set-up training runs differ"]
    for rec in records[:WARMUP_STEPS]:
        score_one(setup.model, setup.vocab, rec, n_phrases)
    gc.collect()
    plain, traced = [], []
    t0 = perf_counter()
    # whole passes over the held-out images, so per-image counts repeat exactly
    if not trace:
        def job(i):
            t = perf_counter()
            plain.extend(score_one(setup.model, setup.vocab, rec, n_phrases) for rec in records)
            return perf_counter() - t, False

        repeat_until(seconds, 1, job)
    else:
        tracer = Tracer(time_backward=False)
        with tracer.installed():
            ckpt = checkpoint_mod.load_checkpoint(setup.ckpt_path)
            model, vocab = train_mod.model_from_checkpoint(ckpt)

        # untraced and traced scoring of each image alternate
        def job(i):
            t = perf_counter()
            for rec in records:
                plain.append(score_one(setup.model, setup.vocab, rec, n_phrases))
                with tracer.installed():
                    traced.append(score_one(model, vocab, rec, n_phrases, tracer))
            return perf_counter() - t, False

        repeat_until(seconds, 1, job)
    wall = perf_counter() - t0
    rows = plain + traced
    problems += [r.problem for r in rows if r.problem]
    errors = [r.error for r in rows if r.error]
    if not trace:
        lat = np.array([r.seconds for r in plain])
        metrics = end_to_end((len(plain) - len(errors)) / wall, lat, setup,
                             loss_tail(setup.loss_traces[:1]))
        return result(len(rows), len(errors), problems, metrics, f"{len(plain)} images",
                      errors)
    if [r.digest for r in plain] != [r.digest for r in traced]:
        problems.append("traced and untraced probability maps or scores differ")
    metrics, found = layer_metrics(tracer, len(traced),
                                   sum(r.seconds for r in plain) / len(plain),
                                   sum(r.seconds for r in traced) / len(traced),
                                   setup, "eval.image")
    write_trace(tracer, spec, seed, metrics)
    return result(len(rows), len(errors), problems + found, metrics,
                  f"{len(traced)} traced images", errors)


# ---------------------------------------------------------------------------
# metrics


def end_to_end(throughput: float, lat, setup: Setup, tail: float) -> dict:
    p50, p90 = np.percentile(np.asarray(lat) * 1e3, [50, 90])
    values = {
        "throughput_per_s": throughput,
        "latency_ms_p50": float(p50),
        "latency_ms_p90": float(p90),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setup.seconds),
        "loss_tail": tail,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def layer_metrics(tr: Tracer, n: int, plain_step: float, traced_step: float, setup: Setup,
                  loop_span: str) -> tuple:
    """Per-step (or per-image) layer metrics from one traced window, and
    the problem list of the coverage check against the untraced step."""
    ms = 1e3 / n
    by_kind = [tr.totals(field, 1) for field in range(7)]

    def total(field, kinds=None):
        return sum(v for k, v in by_kind[field].items() if kinds is None or k in kinds)

    nodes = total(NODES)
    backward = tr.span_total("tensor.backward")
    conv_fwd, conv_bwd = total(FWD_S, tr.convops_kinds), total(BWD_S, tr.convops_kinds)
    flops = total(FWD_FLOPS, tr.convops_kinds) + total(BWD_FLOPS, tr.convops_kinds)
    loads = sum(1 for s in tr.spans if s[1] == "checkpoint.load")
    m = {
        "tensor.nodes_per_step": (nodes / n, "count"),
        "tensor.float64_node_frac": (total(F64_NODES) / nodes if nodes else 0.0, "frac"),
        "tensor.record_op_ms": (total(RECORD_S) * ms, "ms"),
        "tensor.backward_ms": (backward * ms, "ms"),
        "tensor.backward_self_ms": ((backward - total(BWD_S)) * ms, "ms"),
    }
    for kind in OP_KINDS:
        m[f"tensor.op.{kind}.count"] = (by_kind[NODES][kind] / n, "count")
        m[f"tensor.op.{kind}.fwd_ms"] = (by_kind[FWD_S][kind] * ms, "ms")
        m[f"tensor.op.{kind}.bwd_ms"] = (by_kind[BWD_S][kind] * ms, "ms")
    module_nodes, bwd_s = tr.totals(NODES, 0), tr.totals(BWD_S, 0)
    for mod in MODULE_SPANS:
        if mod == "seghead.loss":  # reported as seghead.loss_ms below
            continue
        m[f"{mod}.fwd_ms"] = (tr.fwd_s[mod] * ms, "ms")
        m[f"{mod}.bwd_ms"] = (bwd_s[mod] * ms, "ms")
        m[f"{mod}.nodes"] = (module_nodes[mod] / n, "count")
    m.update({
        "seghead.loss_ms": ((tr.fwd_s["seghead.loss"] + bwd_s["seghead.loss"]) * ms, "ms"),
        "convops.fwd_ms": (conv_fwd * ms, "ms"),
        "convops.bwd_ms": (conv_bwd * ms, "ms"),
        "convops.gflop_per_step": (flops / n / 1e9, "GFLOP_computed"),
        "convops.gflop_per_s": (
            flops / (conv_fwd + conv_bwd) / 1e9 if conv_fwd + conv_bwd else 0.0, "GFLOP/s"),
        "optim.adam_ms": (tr.span_total("optim.adam") * ms, "ms"),
        "optim.tensors": (tr.adam_tensors, "count"),
        "optim.bytes_per_step": (tr.adam_bytes, "B_computed"),
        "datakit.augment_ms": (tr.span_total("datakit.augment") * ms, "ms"),
        "datakit.read_ms": (tr.span_total("datakit.read") * ms, "ms"),
        "datakit.synth_s": (statistics.median(setup.synth_seconds), "s"),
        "metrics.score_ms": (tr.span_total("metrics.score") * ms, "ms"),
        "checkpoint.save_ms": (tr.span_total("checkpoint.save") * ms, "ms"),
        "checkpoint.load_ms": (tr.span_total("checkpoint.load") * 1e3 / loads if loads else 0.0,
                               "ms"),
        "checkpoint.bytes": (tr.ckpt_bytes, "B"),
        "train.loop_self_ms": (tr.self_time(loop_span) * ms, "ms"),
        "gc.pause_ms_per_step": (tr.gc_pause_s * ms, "ms"),
        "gc.gen2_collections": (tr.gen2_collections, "count"),
        "gc.max_pause_ms": (tr.gc_max_pause_s * 1e3, "ms"),
    })
    # what the layers account for, against the untraced step
    covered = (sum(tr.fwd_s[mod] for mod in MODULE_SPANS) + backward
               + sum(tr.span_total(name) for name in (
                   "optim.adam", "datakit.augment", "datakit.read", "checkpoint.save",
                   "metrics.score"))) / n
    m.update({
        "trace.step_ms_untraced": (plain_step * 1e3, "ms"),
        "trace.step_ms_traced": (traced_step * 1e3, "ms"),
        "trace.overhead_frac": (traced_step / plain_step - 1.0, "frac"),
        "trace.module_sum_frac": (covered / plain_step, "frac"),
    })
    problems = []
    if not 0.9 <= covered / plain_step <= 1.1:
        problems.append(f"per-layer sum is {covered / plain_step:.3f} of the untraced step")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}, problems


def write_trace(tracer: Tracer, spec: Workload, seed: int, metrics: dict) -> None:
    tracer.write(WORK / f"trace-{spec.name}-seed{seed}.json", {
        "workload": spec.name, "seed": seed, "env": environment(), "metrics": metrics})


def result(attempted: int, failed: int, problems: list, metrics: dict, samples: str,
           errors=()) -> dict:
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "problems": problems, "samples": samples,
            "errors": sorted(set(errors))}


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    spec = WORKLOADS[args.workload]
    work = WORK / args.workload
    run = run_train if spec.kind == "train" else run_eval
    try:
        res = run(spec, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    print(f"# cbce benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} ({res['samples']})")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, metric in res["metrics"].items():
        note = " (not gated)" if name in UNGATED else ""
        print(f"{name} {metric['value']!r} {metric['unit']}{note}")
    print(f"fail_frac {res['failed'] / res['attempted']!r} frac "
          f"({res['failed']} of {res['attempted']}; errors: {res['errors'] or 'none'})")
    for problem in res["problems"]:
        print(f"# check failed: {problem}")
    gated = {k: v for k, v in res["metrics"].items() if k not in UNGATED}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": gated}))
    return res


if __name__ == "__main__":
    main()
