#!/usr/bin/env python3
"""The frozen two-tower encoder: patchify, per-frame blocks, text tower.

Shows the feature shapes at every stage, the CLS/patch token layout, and
the two properties adapters rely on: frozen determinism and per-frame
independence of the vanilla path.
"""

import numpy as np

from tvadapt.backbone import encode_text, encode_video, init_backbone, patchify
from tvadapt.config import toy_config
from tvadapt.tensor import ParamStore, rng_for

cfg = toy_config()  # every tower size is a field of the one experiment config
print(f"visual tower: {cfg.layers} layers, dim {cfg.dim_v}, "
      f"{cfg.patches} patches/frame, {cfg.frames} frames")

store = ParamStore()
init_backbone(store, cfg)  # registers every tensor frozen, seeded by cfg.seed
print(f"backbone parameters: {store.num_elements(prefix='backbone/'):,} "
      f"({len(store)} tensors, {store.trainable_count} trainable)")

video = rng_for(0, "demo-video").normal(size=(cfg.frames, cfg.frame_h, cfg.frame_w, cfg.channels))
tokens = np.array([3, 17, 42])

print("\n=== video path ===")
x0 = patchify(video, store, cfg)
print("patchify output:", x0.shape, " (frames, CLS+patches, dim)")
# the tower returns only the frame CLS rows; a modulate(layer, x) hook that
# passes its input on unchanged sees every block's output
features = []
record = lambda layer, x: features.append(x) or x
f_last = encode_video(video, store, cfg, modulate=record)
print(f"{len(features)} per-layer features; final frame CLS sequence {f_last.shape}")
x = features[-2]
print(f"layer {cfg.layers - 1}: CLS token:", x[..., 0, :].shape,
      " patch tokens:", x[..., 1:, :].shape)
print(f"layer {cfg.layers}: CLS rows only:", features[-1].shape,
      " (the last block computes no patch token after attention)")

print("\nfrozen purity: two encodes are bitwise equal:",
      (encode_video(video, store, cfg).data == f_last.data).all())

perm = np.array([5, 4, 3, 2, 1, 0])
f_perm = encode_video(video[perm], store, cfg)
print("frame permutation equivariance (no cross-frame mixing):",
      (f_perm.data == f_last.data[perm]).all())

print("\n=== text path ===")
# the same hook contract: the text tower hands it every row of each block
text_feats = []
record = lambda layer, x: text_feats.append(x) or x
z = encode_text(tokens, store, cfg, modulate=record)
print("per-layer block outputs (words + EOS):", [tuple(x.shape) for x in text_feats])
print("final sentence feature:", z.shape, " (read at the EOS position)")
z_empty = encode_text(np.array([], dtype=int), store, cfg)
print("empty caption still encodes (EOS only):", z_empty.shape)
