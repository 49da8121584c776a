"""Self-contained binary checkpoints.

Layout: 8-byte magic, u32 version, u64 header length, JSON header, raw
little-endian tensor payload. The header carries the config snapshot
(the config file's sections plus the vocabulary), the tensor manifest with
offsets, optimizer moments, the step counter, and the generator state,
so a checkpoint alone can rebuild the model for evaluation.

A checkpoint is written to a temporary file beside its destination and
moved into place with ``os.replace``, so a reader sees either the
previous file or the complete new one. Loading rejects a file shorter
or longer than its header and its tensor manifest declare.
"""
from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"CBCESNAP"
VERSION = 1

_DTYPE_TAGS = {"float32": "<f4", "float64": "<f8"}


@dataclass
class Checkpoint:
    config: dict
    params: dict
    adam_m: dict = field(default_factory=dict)
    adam_v: dict = field(default_factory=dict)
    adam_t: int = 0
    step: int = 0
    rng_state: dict | None = None


# (manifest group, Checkpoint attribute), in payload order
GROUPS = (("param", "params"), ("adam_m", "adam_m"), ("adam_v", "adam_v"))
_HEADER_KEYS = ("config", "step", "adam_t", "rng_state", "tensors")
_ENTRY_KEYS = ("group", "name", "shape", "dtype", "offset", "nbytes")


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    blobs: list = []
    entries: list = []
    offset = 0
    for group, attr in GROUPS:
        for name, arr in getattr(ckpt, attr).items():
            arr = np.asarray(arr)
            tag = _DTYPE_TAGS[arr.dtype.name]
            blob = np.ascontiguousarray(arr).astype(tag, copy=False).tobytes()
            entries.append({
                "group": group,
                "name": name,
                "shape": list(arr.shape),
                "dtype": arr.dtype.name,
                "offset": offset,
                "nbytes": len(blob),
            })
            blobs.append(blob)
            offset += len(blob)
    header = json.dumps({
        "config": ckpt.config,
        "step": ckpt.step,
        "adam_t": ckpt.adam_t,
        "rng_state": ckpt.rng_state,
        "tensors": entries,
    }).encode("utf-8")
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<Q", len(header)))
            fh.write(header)
            for blob in blobs:
                fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _read_exact(fh, n: int, path, what: str) -> bytes:
    data = fh.read(n)
    if len(data) < n:
        raise ValueError(f"checkpoint {path} is truncated: {what} needs {n} bytes, "
                         f"found {len(data)}")
    return data


def _object_with_keys(obj, keys, path, what: str) -> None:
    """Refuse obj, naming the path, unless it is a JSON object holding ``keys``."""
    if not isinstance(obj, dict):
        raise ValueError(f"checkpoint {path}: {what} is a JSON {type(obj).__name__}, "
                         f"not an object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ValueError(f"checkpoint {path}: {what} has no {', '.join(map(repr, missing))}")


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise ValueError(f"not a checkpoint file (magic {magic!r})")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, path, "version"))
        if version != VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        (hlen,) = struct.unpack("<Q", _read_exact(fh, 8, path, "header length"))
        header = json.loads(_read_exact(fh, hlen, path, "header").decode("utf-8"))
        _object_with_keys(header, _HEADER_KEYS, path, "header")
        if not isinstance(header["tensors"], list):
            raise ValueError(f"checkpoint {path}: header 'tensors' is not a list")
        for ent in header["tensors"]:
            _object_with_keys(ent, _ENTRY_KEYS, path, "tensor entry")
        # each tensor is read on its own, so no copy of the whole payload
        # is alive next to the arrays built from it
        start = fh.tell()
        size = os.fstat(fh.fileno()).st_size - start
        need = max((e["offset"] + e["nbytes"] for e in header["tensors"]), default=0)
        if size < need:
            raise ValueError(f"checkpoint {path} is truncated: tensor payload needs {need} "
                             f"bytes, found {size}")
        if size > need:
            raise ValueError(f"checkpoint {path} has {size - need} bytes after its last "
                             f"tensor, which ends at payload byte {need}")
        groups = {group: {} for group, _ in GROUPS}
        for ent in header["tensors"]:
            if ent["group"] not in groups:
                raise ValueError(f"checkpoint {path}: tensor {ent['name']!r} is in unknown "
                                 f"group {ent['group']!r}")
            if ent["dtype"] not in _DTYPE_TAGS:
                raise ValueError(f"checkpoint {path}: tensor {ent['name']!r} has unsupported "
                                 f"dtype {ent['dtype']!r}")
            fh.seek(start + ent["offset"])
            raw = fh.read(ent["nbytes"])
            arr = np.frombuffer(raw, dtype=_DTYPE_TAGS[ent["dtype"]]).astype(ent["dtype"])
            groups[ent["group"]][ent["name"]] = arr.reshape(ent["shape"])
    return Checkpoint(
        config=header["config"],
        **{attr: groups[group] for group, attr in GROUPS},
        adam_t=header["adam_t"],
        step=header["step"],
        rng_state=header["rng_state"],
    )
