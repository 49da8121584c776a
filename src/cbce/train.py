"""Training loop, evaluation, and single-image inference.

One sample per step: draw a record in seeded shuffled order, crop/flip,
run the network, backpropagate the summed cross entropy, and apply Adam
under the polynomial schedule. Every random stream is keyed off the
config seed plus a purpose tag, so identical configs give identical loss
traces. Checkpoints are written per epoch and are self-contained.
"""
from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .datakit import SynthConfig, augment, load_manifest, read_ppm, write_pgm
from .encoders import Vocabulary
from .metrics import MetricReport, evaluate_dataset
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
    freeze_backbone: bool = False
    checkpoint_every_epoch: bool = True
    model: ModelConfig = field(default_factory=ModelConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)

    def __post_init__(self):
        if self.batch_size != 1:
            raise ValueError("only batch_size 1 is supported")


def load_config(path, dtype_override: str | None = None) -> TrainConfig:
    """Read the sectioned JSON config ({seed, train, model, synth})."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    seed = raw.get("seed", 7)
    model = ModelConfig.from_dict(raw.get("model", {}))
    synth_section = dict(raw.get("synth", {}))
    synth_section.setdefault("seed", seed)
    synth_section.setdefault("n_phrases", model.n_phrases)
    synth = SynthConfig.from_dict(synth_section)
    cfg = TrainConfig(seed=seed, model=model, synth=synth, **raw.get("train", {}))
    override = dtype_override or os.environ.get("CBCE_DTYPE")
    if override:
        if override not in ("float32", "float64"):
            raise ValueError(f"CBCE_DTYPE must be float32 or float64, got {override!r}")
        cfg.model.dtype = override
    return cfg


@dataclass
class TrainResult:
    checkpoint_path: str
    log_path: str
    losses: list
    steps: int
    epoch_checkpoints: list = field(default_factory=list)


def _load_samples(records, vocab: Vocabulary, n_phrases: int):
    out = []
    for rec in records:
        image = rec.load_image()
        mask = rec.load_mask()
        phrases = vocab.encode_phrases(rec.phrases[:n_phrases])
        out.append((rec, image, mask, phrases))
    return out


def _checkpoint_from(model: CbceNet, cfg: TrainConfig, vocab: Vocabulary,
                     state: AdamState, step: int) -> Checkpoint:
    # every stream is counter-keyed off (seed, purpose, step), so the seed
    # plus the step counter is the complete generator state
    rng_state = {"scheme": "counter-keyed", "seed": cfg.seed, "next_step": step}
    return Checkpoint(
        config={
            "model": cfg.model.to_dict(),
            "fused_width": cfg.model.c_v,
            "train": {
                "seed": cfg.seed,
                "epochs": cfg.epochs,
                "base_lr": cfg.base_lr,
                "weight_decay": cfg.weight_decay,
                "poly_power": cfg.poly_power,
                "batch_size": cfg.batch_size,
                "crop_size": cfg.crop_size,
            },
            "vocab": vocab.tokens,
        },
        params={k: t.data for k, t in model.parameters().items()},
        adam_m=state.m,
        adam_v=state.v,
        adam_t=state.t,
        step=step,
        rng_state=rng_state,
    )


def model_from_checkpoint(ckpt: Checkpoint):
    """(model, vocab) rebuilt from a checkpoint's config snapshot."""
    vocab = Vocabulary(list(ckpt.config["vocab"]))
    model = CbceNet(ModelConfig.from_dict(ckpt.config["model"]), len(vocab), rng=0)
    model.load_state(ckpt.params)
    return model, vocab


def train(cfg: TrainConfig, data_dir, out_dir, log_stream=None) -> TrainResult:
    """Run the loop over data_dir/{train.jsonl,vocab.txt}; write logs and
    per-epoch checkpoints under out_dir. Aborts on a non-finite loss with
    the offending step in the message."""
    data_dir, out_dir = str(data_dir), str(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    records = load_manifest(os.path.join(data_dir, "train.jsonl"))
    if not records:
        raise ValueError("empty training manifest")
    vocab = Vocabulary.load(os.path.join(data_dir, "vocab.txt"))
    samples = _load_samples(records, vocab, cfg.model.n_phrases)

    model = CbceNet(cfg.model, len(vocab), rng=np.random.default_rng([cfg.seed, 0]))
    params = model.trainable_parameters(cfg.freeze_backbone)
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
            order = np.random.default_rng([cfg.seed, 100 + epoch]).permutation(len(samples))
            for idx in order:
                if step >= max_steps:
                    break
                rec, image, mask, phrases = samples[idx]
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
                adam_step(params, state, lr, cfg.weight_decay)
                for p in params.values():
                    p.grad = None
                value = float(loss.item())
                del loss  # frees this step's graph before the next forward pass
                losses.append(value)
                emit({"step": step, "lr": lr, "loss": value})
                step += 1
            if cfg.checkpoint_every_epoch:
                path = os.path.join(out_dir, f"ckpt_epoch{epoch:03d}.cbce")
                save_checkpoint(path, _checkpoint_from(model, cfg, vocab, state, step))
                epoch_ckpts.append(path)
            if step >= max_steps:
                break
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


def predict_records(model: CbceNet, vocab: Vocabulary, records, n_phrases: int) -> dict:
    preds = {}
    for rec in records:
        phrases = vocab.encode_phrases(rec.phrases[:n_phrases])
        preds[rec.id] = model.forward(rec.load_image(), phrases).prob_map
    return preds


def evaluate_checkpoint(ckpt_path, data, threshold: float = 0.5, beta_sq: float = 0.3,
                        report_prefix=None, limit: int | None = None) -> MetricReport:
    """Forward every record of the manifest (no augmentation) and score it."""
    ckpt = load_checkpoint(ckpt_path)
    model, vocab = model_from_checkpoint(ckpt)
    records = load_manifest(_resolve_manifest(data))
    if limit is not None:
        records = records[:limit]
    preds = predict_records(model, vocab, records, model.cfg.n_phrases)
    masks = {rec.id: rec.load_mask() for rec in records}
    report = evaluate_dataset(preds, records, threshold=threshold, beta_sq=beta_sq,
                              masks=masks)
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
    ckpt = load_checkpoint(ckpt_path)
    model, vocab = model_from_checkpoint(ckpt)
    unknown = vocab.unknown_tokens(phrases)
    if unknown:
        print(f"warning: unknown tokens mapped to UNK: {sorted(set(unknown))}",
              file=sys.stderr)
    image = read_ppm(image_path).astype(np.float64) / 255.0
    pred = model.forward(image, vocab.encode_phrases(phrases))
    probs = pred.prob_map
    mask = probs >= threshold
    write_pgm(f"{out_prefix}_mask.pgm", np.where(mask, 255, 0).astype(np.uint8))
    np.save(f"{out_prefix}_probs.npy", probs)
    stats = {
        "foreground_fraction": float(mask.mean()),
        "mean_prob": float(probs.mean()),
        "max_prob": float(probs.max()),
    }
    return mask, probs, stats
