"""Training loop, evaluation, and single-image inference.

One sample per step: draw a record in seeded shuffled order, read its
scene (none stays resident), crop/flip, run the network, backpropagate
the summed cross entropy, and apply Adam under the polynomial schedule.
Every random stream is keyed off the config seed plus a purpose tag, so
identical configs give identical loss traces. A checkpoint is written
for the final state and for every completed epoch that does not end the
run (the final one holds that state); each is self-contained.
"""
from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .datakit import SynthConfig, augment, load_image, load_manifest, write_mask
from .encoders import Vocabulary
from .metrics import MetricReport, check_beta_sq, check_threshold, evaluate_dataset
from .model import CbceNet, ModelConfig
from .optim import AdamState, adam_step, poly_lr
from .tensor import NumericError, backward


@dataclass
class TrainConfig:
    seed: int = 7
    epochs: int = 5
    base_lr: float = 1e-3
    weight_decay: float = 5e-4
    poly_power: float = 0.9
    batch_size: int = 1
    crop_size: int | None = 71
    max_steps: int | None = None
    model: ModelConfig = field(default_factory=ModelConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)

    def __post_init__(self):
        if self.batch_size != 1:
            raise ValueError("only batch_size 1 is supported")


def _object(raw, name: str) -> dict:
    """raw, refused by section name unless it is a JSON object."""
    if not isinstance(raw, dict):
        raise ValueError(f"{name} config must be a JSON object, got {type(raw).__name__}")
    return raw


def _section(cls, raw: dict, name: str, **given):
    """cls built from one config section; ``given`` holds the fields that
    other sections set. A JSON list becomes a tuple wherever the field's
    default is a tuple."""
    known = {f.name: f for f in fields(cls) if f.name not in given}
    unknown = sorted(set(_object(raw, name)) - set(known))
    if unknown:
        raise ValueError(f"unknown {name} config key(s): {', '.join(unknown)}")
    values = {k: tuple(v) if isinstance(known[k].default, tuple) else v for k, v in raw.items()}
    return cls(**values, **given)


def config_from_dict(raw: dict) -> TrainConfig:
    """TrainConfig from the sectioned layout {seed, model, train, synth};
    the synth seed and phrase count default to the run's."""
    _object(raw, "top-level")
    unknown = sorted(set(raw) - {"seed", "model", "train", "synth", "_comment"})
    if unknown:
        raise ValueError(f"unknown top-level config key(s): {', '.join(unknown)}")
    seed = raw.get("seed", TrainConfig.seed)
    model = _section(ModelConfig, raw.get("model", {}), "model")
    synth = _section(SynthConfig, {"seed": seed, "n_phrases": model.n_phrases,
                                   **_object(raw.get("synth", {}), "synth")}, "synth")
    return _section(TrainConfig, raw.get("train", {}), "train", seed=seed, model=model, synth=synth)


def config_to_dict(cfg: TrainConfig) -> dict:
    """The inverse of config_from_dict, in the same sectioned layout."""
    train = asdict(cfg)
    return {"seed": train.pop("seed"), "model": train.pop("model"),
            "synth": train.pop("synth"), "train": train}


def load_config(path) -> TrainConfig:
    """Read the sectioned JSON config ({seed, train, model, synth})."""
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


@dataclass
class TrainResult:
    checkpoint_path: str
    log_path: str
    losses: list
    steps: int
    epoch_checkpoints: list = field(default_factory=list)


def _samples(records, vocab: Vocabulary, n_phrases: int) -> list:
    """(record, encoded phrases) per record; each scene is read at its step."""
    return [(rec, vocab.encode_phrases(rec.phrases[:n_phrases])) for rec in records]


def _checkpoint_from(model: CbceNet, cfg: TrainConfig, vocab: Vocabulary,
                     state: AdamState, step: int) -> Checkpoint:
    # every stream is counter-keyed off (seed, purpose, step), so the seed
    # plus the step counter is the complete generator state
    rng_state = {"scheme": "counter-keyed", "seed": cfg.seed, "next_step": step}
    return Checkpoint(
        config={**config_to_dict(cfg), "vocab": vocab.tokens},
        params={k: t.data for k, t in model.parameters().items()},
        adam_m=state.m,
        adam_v=state.v,
        adam_t=state.t,
        step=step,
        rng_state=rng_state,
    )


def model_from_checkpoint(ckpt: Checkpoint):
    """(model, vocab) rebuilt from a checkpoint's config snapshot.

    Only the snapshot's ``model`` section is parsed; its layout never
    changed, so checkpoints written before the snapshot held the whole
    config still load. The model is an inference model: its parameters are frozen
    (``requires_grad = False``), so a forward pass records no graph and
    keeps no activations for a backward pass. Resuming training from a
    checkpoint must not build its model through this function.
    """
    for key in ("model", "vocab"):
        if not isinstance(ckpt.config, dict) or key not in ckpt.config:
            raise ValueError(f"checkpoint config has no {key!r} section")
    tokens = ckpt.config["vocab"]
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ValueError("checkpoint config 'vocab' is not a list of strings")
    vocab = Vocabulary(tokens)
    model = CbceNet(_section(ModelConfig, ckpt.config["model"], "model"), len(vocab), rng=0)
    model.load_state(ckpt.params)
    for p in model.parameters().values():
        p.requires_grad = False
    return model, vocab


def train(cfg: TrainConfig, data_dir, out_dir, log_stream=None) -> TrainResult:
    """Run the loop over data_dir/{train.jsonl,vocab.txt}; write logs, a
    checkpoint per completed epoch before the last step and the final
    ``model.cbce`` under out_dir. Aborts on a non-finite loss with the offending step in the
    message. Scenes are read at their step: a truncated payload fails there."""
    data_dir, out_dir = str(data_dir), str(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    records = load_manifest(os.path.join(data_dir, "train.jsonl"))
    if not records:
        raise ValueError("empty training manifest")
    vocab = Vocabulary.load(os.path.join(data_dir, "vocab.txt"))
    samples = _samples(records, vocab, cfg.model.n_phrases)

    model = CbceNet(cfg.model, len(vocab), rng=np.random.default_rng([cfg.seed, 0]))
    params = model.parameters()
    state = AdamState.for_params(params)
    max_steps = cfg.epochs * len(samples)
    if cfg.max_steps is not None:
        max_steps = min(max_steps, cfg.max_steps)

    log_path = os.path.join(out_dir, "train_log.jsonl")
    losses: list = []
    epoch_ckpts: list = []
    step = 0
    t0 = time.time()
    with open(log_path, "w", encoding="utf-8") as log:
        def emit(payload):
            log.write(json.dumps(payload) + "\n")
            if log_stream is not None:
                log_stream.write(json.dumps(payload) + "\n")

        for epoch in range(cfg.epochs):
            if step >= max_steps:
                break
            order = np.random.default_rng([cfg.seed, 100 + epoch]).permutation(len(samples))
            order = order[: max_steps - step]
            for idx in order:
                rec, phrases = samples[idx]
                image, mask = rec.load_image(), rec.load_mask()
                if cfg.crop_size:
                    image, mask = augment(
                        image, mask, np.random.default_rng([cfg.seed, 200, step]),
                        cfg.crop_size,
                    )
                lr = poly_lr(step, max_steps, cfg.base_lr, cfg.poly_power)
                try:
                    loss = model.loss(image, phrases, mask)
                    backward(loss)
                except NumericError as exc:
                    emit({"step": step, "event": "nan_abort", "error": str(exc)})
                    raise NumericError(f"non-finite loss at step {step}: {exc}") from exc
                value = float(loss.item())
                del loss  # frees this step's graph before Adam allocates its scratch
                adam_step(params, state, lr, cfg.weight_decay)
                for p in params.values():
                    p.grad = None
                losses.append(value)
                emit({"step": step, "lr": lr, "loss": value})
                step += 1
            # an epoch that ends the run is saved once, as model.cbce
            if step < max_steps:
                path = os.path.join(out_dir, f"ckpt_epoch{epoch:03d}.cbce")
                save_checkpoint(path, _checkpoint_from(model, cfg, vocab, state, step))
                epoch_ckpts.append(path)
        emit({"event": "done", "steps": step, "seconds": round(time.time() - t0, 3)})

    final_path = os.path.join(out_dir, "model.cbce")
    save_checkpoint(final_path, _checkpoint_from(model, cfg, vocab, state, step))
    return TrainResult(final_path, log_path, losses, step, epoch_ckpts)


def smoothed(losses, window: int = 50) -> tuple:
    """(head mean, tail mean) over the first/last ``window`` losses."""
    if not losses:
        raise ValueError("no losses recorded")
    w = min(window, len(losses))
    return float(np.mean(losses[:w])), float(np.mean(losses[-w:]))


def _resolve_manifest(data) -> str:
    data = str(data)
    if os.path.isdir(data):
        return os.path.join(data, "test.jsonl")
    return data


def evaluate_checkpoint(ckpt_path, data, threshold: float = 0.5, beta_sq: float = 0.3,
                        report_prefix=None, limit: int | None = None) -> MetricReport:
    """Forward every record of the manifest (no augmentation) and score it
    right away, so one prediction is alive at a time and each mask is read
    as its record is scored."""
    check_threshold(threshold)
    check_beta_sq(beta_sq)
    ckpt = load_checkpoint(ckpt_path)
    model, vocab = model_from_checkpoint(ckpt)
    records = load_manifest(_resolve_manifest(data))
    if limit is not None:
        records = records[:limit]
    n_phrases = model.cfg.n_phrases

    def predict(rec):
        return model.forward(rec.load_image(), vocab.encode_phrases(rec.phrases[:n_phrases])).prob_map

    report = evaluate_dataset(predict, records, threshold=threshold, beta_sq=beta_sq)
    if report_prefix:
        report.write_csv(f"{report_prefix}.csv")
        report.write_json(f"{report_prefix}.json")
    return report


def infer(ckpt_path, image_path, phrases, out_prefix, threshold: float = 0.5):
    """Segment one image with the given phrases.

    Writes {out_prefix}_mask.pgm (binarized) and {out_prefix}_probs.npy
    (raw float map); returns (mask, probability map, stats). Unknown
    words fall back to the UNK token with a warning on stderr.
    """
    if not phrases:
        raise ValueError("at least one phrase is required")
    check_threshold(threshold)
    ckpt = load_checkpoint(ckpt_path)
    model, vocab = model_from_checkpoint(ckpt)
    unknown = vocab.unknown_tokens(phrases)
    if unknown:
        print(f"warning: unknown tokens mapped to UNK: {sorted(set(unknown))}",
              file=sys.stderr)
    probs = model.forward(load_image(image_path), vocab.encode_phrases(phrases)).prob_map
    mask = probs >= threshold
    write_mask(f"{out_prefix}_mask.pgm", mask)
    np.save(f"{out_prefix}_probs.npy", probs)
    stats = {
        "foreground_fraction": float(mask.mean()),
        "mean_prob": float(probs.mean()),
        "max_prob": float(probs.max()),
    }
    return mask, probs, stats
