"""Shapes and signals through the network, stage by stage.

Run from the repository root:  python3 demos/03_network_walkthrough.py
"""
import numpy as np

from cbce.datakit import DEFAULT_BANK, SynthConfig, generate_record
from cbce.fusion import build_initial_fused
from cbce.model import CbceNet, ModelConfig
from cbce.seghead import bce_loss
from cbce.tensor import Tensor, backward

cfg = ModelConfig()  # toy defaults: 10x10 features, 32 channels
vocab = DEFAULT_BANK.vocabulary()
net = CbceNet(cfg, len(vocab), rng=0)
image, mask, affordance, phrases = generate_record(SynthConfig(seed=1), 0)
image = image.astype(np.float64) / 255.0

print(f"input image {image.shape}, target '{affordance}'")
print(f"phrases: {phrases}")

pyramid = net.encoder.forward(Tensor(image))
print("\nvisual pyramid (three backbone taps projected onto one grid):")
for lvl, feat in sorted(pyramid.items()):
    print(f"  level {lvl}: {feat.shape}")

phrase_set = vocab.encode_phrases(phrases)
lang = net.phrase_encoder.forward(phrase_set)
print(f"\npooled language vector: {lang.shape}, norm {np.linalg.norm(lang.data):.3f}")

fused = build_initial_fused(pyramid, lang, net.fusers)
print(f"fused maps: {[t.shape for t in fused.values()]} "
      f"(last 8 channels are the coordinate grid)")

state = net.cim.forward(lang, fused, cycles=cfg.cycles)
print(f"\nafter {net.cim.rounds * cfg.cycles} interaction rounds:")
for lvl in sorted(state.lang):
    print(f"  level {lvl}: language norm {np.linalg.norm(state.lang[lvl].data):.6f} "
          f"(unit by construction), fused {state.fused[lvl].shape}")

out, attn = net.cim.vlm[3][0].forward(lang, fused[3], return_attention=True)
print(f"\nround-1 attention over level 3: {attn.shape[0]} positions, "
      f"sum {attn.data.sum():.6f}, max {attn.data.max():.4f}")

pred = net.head.forward(state.fused, image.shape[:2])
loss = bce_loss(pred, mask.astype(np.float64))
print(f"\nmask prediction {pred.prob_map.shape}, untrained loss {loss.item():.1f} "
      f"(uniform-guess level is {mask.size * np.log(2):.1f})")

backward(loss)
grads = {k: float(np.abs(t.grad).max()) for k, t in net.parameters().items()}
print(f"backward reached all {len(grads)} parameter tensors; "
      f"largest |grad| = {max(grads.values()):.3f}")
