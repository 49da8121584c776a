"""In-memory span tracer for the cbce benchmark's traced run.

The tracer patches the program from outside: it replaces public
functions and methods with wrappers while ``installed()`` is active and
puts the originals back afterwards, so no file under ``src/`` changes.
Two traps decide where a wrapper must go:

* a name imported with ``from .x import f`` is looked up in the
  importing module, so ``record_op`` is wrapped in both ``cbce.tensor``
  and ``cbce.convops``, and ``build_initial_fused`` and ``bce_loss`` in
  ``cbce.model``; ``backward``, ``adam_step``, ``augment`` and
  ``save_checkpoint`` are wrapped in ``cbce.train``;
* the attribute ``cbce.train`` is the function ``train``, not the
  module, so modules are fetched with ``importlib.import_module``.

Spans (name, start, end, parent, step) cover module boundaries and are
kept in a list until ``write`` dumps them. Per-op numbers are counters:
an op's forward time is the gap since the previous op or span boundary,
and its backward time is timed around its backward function, which the
``record_op`` wrapper swaps in on the recorded node.
"""
from __future__ import annotations

import gc
import importlib
import json
import os
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

# spans whose nodes (and their backward time) are charged to that module
MODULE_SPANS = ("encoders.visual", "encoders.phrase", "fusion", "cim", "seghead",
                "seghead.loss")
OP_KINDS = ("add", "matmul", "reshape", "mul", "sigmoid", "tanh", "narrow", "concat",
            "conv2d", "depthwise_conv2d", "bilinear_upsample", "avg_pool2d")


def conv_flops(kind: str, out, inputs) -> tuple:
    """(forward, backward) floating-point operations of one convops node,
    computed from shapes: multiply and add count as two."""
    x = inputs[0].shape
    if kind == "conv2d":
        k, _, cin, cout = inputs[1].shape
        fwd = 2 * x[0] * x[1] * k * k * cin * cout
        return fwd, 2 * fwd
    if kind == "depthwise_conv2d":
        k = inputs[1].shape[0]
        fwd = 2 * x[0] * x[1] * k * k * x[2]
        return fwd, 2 * fwd
    if kind == "bilinear_upsample":
        oh, ow, c = out.shape
        fwd = 3 * oh * x[1] * c + 3 * oh * ow * c
        return fwd, fwd
    # avg_pool2d, global_avg_pool: one add per input element each way
    n = x[0] * x[1] * x[2]
    return n, n


# fields of the accumulator kept per (module, op kind)
NODES, FWD_S, RECORD_S, F64_NODES, FWD_FLOPS, BWD_S, BWD_FLOPS = range(7)


class _TimedBackward:
    """A node's backward function, timed into its (module, kind) accumulator.

    One slotted object per node: every object the tracer adds per node
    adds cyclic-GC work (a closure with its cells would add seven).
    """

    __slots__ = ("fn", "acc", "flops")

    def __init__(self, fn, acc, flops):
        self.fn, self.acc, self.flops = fn, acc, flops

    def __call__(self, g):
        t = perf_counter()
        grads = self.fn(g)
        acc = self.acc
        acc[BWD_S] += perf_counter() - t
        acc[BWD_FLOPS] += self.flops
        return grads


class Tracer:
    """Spans and per-node counters of the traced calls.

    ``time_backward=False`` leaves backward functions unwrapped, for
    forward-only work where they would never run.
    """

    def __init__(self, time_backward: bool = True):
        self.time_backward = time_backward
        self.t0 = perf_counter()
        # finished spans as (id, name, start, end, parent id, step); tuples
        # of atomic values are untracked by the GC, unlike lists
        self.spans: list = []
        self._open: list = []  # (id, name, start, parent, step), innermost last
        self._next_id = 0
        self._owners: list = ["model"]  # module charged for new nodes
        self._mark = self.t0
        self.step = 0
        self.fwd_s = defaultdict(float)  # span time by module
        self.acc: dict = {}  # (module, op kind) -> the 7 fields above
        self.convops_kinds: set = set()
        self.adam_tensors = 0
        self.adam_bytes = 0
        self.ckpt_bytes = 0
        self.gc_pause_s = 0.0
        self.gc_max_pause_s = 0.0
        self.gen2_collections = 0
        self._gc_start = None
        self._targets = self._build_targets()

    # -- spans -----------------------------------------------------------

    def _parent(self):
        return self._open[-1][0] if self._open else None

    def enter(self, name: str) -> None:
        now = perf_counter()
        self._open.append((self._next_id, name, now, self._parent(), self.step))
        self._next_id += 1
        if name in MODULE_SPANS:
            self._owners.append(name)
        self._mark = now

    def exit(self) -> None:
        now = perf_counter()
        sid, name, start, parent, step = self._open.pop()
        self.spans.append((sid, name, start, now, parent, step))
        if name in MODULE_SPANS:
            self._owners.pop()
            self.fwd_s[name] += now - start
        self._mark = now

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a finished span of the current step under the innermost
        open span."""
        self.spans.append((self._next_id, name, start, end, self._parent(), self.step))
        self._next_id += 1

    def wrap(self, fn, name: str, after=None):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- nodes -----------------------------------------------------------

    def wrap_record_op(self, record_op, from_convops: bool):
        tracer = self
        accs, owners = self.acc, self._owners

        def traced_record_op(op, out_data, inputs, backward_fn, clock=perf_counter):
            t_in = clock()
            out = record_op(op, out_data, inputs, backward_fn)
            t_out = clock()
            key = (owners[-1], op)
            acc = accs.get(key)
            if acc is None:
                acc = accs[key] = [0, 0.0, 0.0, 0, 0, 0.0, 0]
                if from_convops:
                    tracer.convops_kinds.add(op)
            acc[FWD_S] += t_out - tracer._mark
            acc[RECORD_S] += t_out - t_in
            node = out.node
            if node is not None:
                acc[NODES] += 1
                if out_data.dtype.itemsize == 8:
                    acc[F64_NODES] += 1
                bwd_flops = 0
                if from_convops:
                    fwd_flops, bwd_flops = conv_flops(op, out_data, inputs)
                    acc[FWD_FLOPS] += fwd_flops
                if tracer.time_backward:
                    node.backward_fn = _TimedBackward(backward_fn, acc, bwd_flops)
            tracer._mark = clock()
            return out

        return traced_record_op

    def totals(self, field: int, by: int) -> defaultdict:
        """One accumulator field summed by module (``by=0``) or op kind (1)."""
        out = defaultdict(float)
        for key, acc in self.acc.items():
            out[key[by]] += acc[field]
        return out

    # -- garbage collector -------------------------------------------------

    def _on_gc(self, phase, info):
        now = perf_counter()
        if phase == "start":
            self._gc_start = now
        elif self._gc_start is not None:
            pause = now - self._gc_start
            self._gc_start = None
            self.gc_pause_s += pause
            self.gc_max_pause_s = max(self.gc_max_pause_s, pause)
            if info.get("generation") == 2:
                self.gen2_collections += 1

    # -- installation ------------------------------------------------------

    def _adam_after(self, args, _result):
        params = args[0]
        self.adam_tensors = len(params)
        # Adam reads param, grad, m and v and writes m, v and param
        self.adam_bytes = 7 * sum(p.data.nbytes for p in params.values())

    def _ckpt_after(self, args, _result):
        self.ckpt_bytes = os.path.getsize(args[0])

    def _build_targets(self) -> list:
        """(owner, attribute, wrapper) for every patched name."""
        mod = {name: importlib.import_module(f"cbce.{name}") for name in (
            "tensor", "convops", "encoders", "cim", "seghead", "model", "train",
            "datakit", "checkpoint", "metrics")}
        targets = [
            (mod["tensor"], "record_op", self.wrap_record_op(mod["tensor"].record_op, False)),
            (mod["convops"], "record_op", self.wrap_record_op(mod["convops"].record_op, True)),
        ]
        spans = [
            (mod["model"].CbceNet, "forward", "model.forward", None),
            (mod["model"].CbceNet, "loss", "model.loss", None),
            (mod["encoders"].VisualEncoder, "forward", "encoders.visual", None),
            (mod["encoders"].PhraseEncoder, "forward", "encoders.phrase", None),
            (mod["model"], "build_initial_fused", "fusion", None),
            (mod["cim"].Cim, "forward", "cim", None),
            (mod["seghead"].SegHead, "forward", "seghead", None),
            (mod["model"], "bce_loss", "seghead.loss", None),
            (mod["train"], "train", "train.train", None),
            (mod["train"], "backward", "tensor.backward", None),
            (mod["train"], "adam_step", "optim.adam", self._adam_after),
            (mod["train"], "augment", "datakit.augment", None),
            (mod["train"], "save_checkpoint", "checkpoint.save", self._ckpt_after),
            (mod["train"], "model_from_checkpoint", "train.model_from_checkpoint", None),
            (mod["datakit"].ManifestRecord, "load_image", "datakit.read", None),
            (mod["datakit"].ManifestRecord, "load_mask", "datakit.read", None),
            (mod["checkpoint"], "load_checkpoint", "checkpoint.load", self._ckpt_after),
            (mod["metrics"], "score_pair", "metrics.score", None),
        ]
        return targets + [(owner, attr, self.wrap(owner.__dict__[attr], name, after))
                          for owner, attr, name, after in spans]

    @contextmanager
    def installed(self):
        """Patch the program's public functions for the duration."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in self._targets]
        for owner, attr, wrapper in self._targets:
            setattr(owner, attr, wrapper)
        gc.callbacks.append(self._on_gc)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._on_gc)
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def span_total(self, name: str) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[1] == name)

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus their direct children."""
        ids = {s[0] for s in self.spans if s[1] == name}
        children = sum(s[3] - s[2] for s in self.spans if s[4] in ids and s[1] != "train.step")
        return self.span_total(name) - children

    def write(self, path, extra: dict) -> None:
        spans = [{"id": i, "name": n, "start": s - self.t0, "end": e - self.t0, "parent": p,
                  "step": st} for i, n, s, e, p, st in sorted(self.spans)]
        ops = [{"module": owner, "kind": kind, "nodes": a[NODES], "fwd_s": a[FWD_S],
                "bwd_s": a[BWD_S], "float64_nodes": a[F64_NODES]}
               for (owner, kind), a in sorted(self.acc.items())]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "ops": ops, "spans": spans}, fh)
