#!/usr/bin/env python3
"""The frozen two-tower encoder: patchify, per-frame blocks, text tower.

Shows the feature shapes at every stage, the CLS/patch token layout, and
the two properties adapters rely on: frozen determinism and per-frame
independence of the vanilla path.
"""

import numpy as np

from tvadapt.backbone import (
    TextConfig,
    VisualConfig,
    encode_text,
    encode_video,
    init_backbone,
    patchify,
)
from tvadapt.tensor import ParamStore, rng_for

vcfg = VisualConfig(layers=4, dim=32, heads=4, patch=4, frame_h=8, frame_w=8,
                    frames=6, channels=3)
tcfg = TextConfig(layers=3, dim=24, vocab=64, max_words=8, heads=4)
print(f"visual tower: {vcfg.layers} layers, dim {vcfg.dim}, "
      f"{vcfg.patches} patches/frame, {vcfg.frames} frames")

store = ParamStore()
init_backbone(store, vcfg, tcfg, seed=0)  # registers every tensor frozen
print(f"backbone parameters: {store.num_elements(prefix='backbone/'):,} "
      f"({len(store)} tensors, {store.trainable_count} trainable)")

video = rng_for(0, "demo-video").normal(size=(vcfg.frames, 8, 8, 3))
tokens = np.array([3, 17, 42])

print("\n=== video path ===")
x0 = patchify(video, store, vcfg)
print("patchify output:", x0.shape, " (frames, CLS+patches, dim)")
# the tower returns only the frame CLS rows; a modulate(layer, x) hook that
# passes its input on unchanged sees every block's output
features = []
record = lambda layer, x: features.append(x) or x
f_last = encode_video(video, store, vcfg, modulate=record)
print(f"{len(features)} per-layer features; final frame CLS sequence {f_last.shape}")
x = features[-2]
print(f"layer {vcfg.layers - 1}: CLS token:", x[..., 0, :].shape,
      " patch tokens:", x[..., 1:, :].shape)
print(f"layer {vcfg.layers}: CLS rows only:", features[-1].shape,
      " (the last block computes no patch token after attention)")

print("\nfrozen purity: two encodes are bitwise equal:",
      (encode_video(video, store, vcfg).data == f_last.data).all())

perm = np.array([5, 4, 3, 2, 1, 0])
f_perm = encode_video(video[perm], store, vcfg)
print("frame permutation equivariance (no cross-frame mixing):",
      (f_perm.data == f_last.data[perm]).all())

print("\n=== text path ===")
# the same hook contract: the text tower hands it every row of each block
text_feats = []
record = lambda layer, x: text_feats.append(x) or x
z = encode_text(tokens, store, tcfg, modulate=record)
print("per-layer block outputs (words + EOS):", [tuple(x.shape) for x in text_feats])
print("final sentence feature:", z.shape, " (read at the EOS position)")
z_empty = encode_text(np.array([], dtype=int), store, tcfg)
print("empty caption still encodes (EOS only):", z_empty.shape)
