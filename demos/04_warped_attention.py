#!/usr/bin/env python3
"""Offset-warped attention: selection, fractional resampling, gradients.

Key/value rows of the K most text-relevant patches are resampled at
learnable real-valued (frame, patch) offsets before attention. This
script shows the hard selection, exact integer-offset indexing, bilinear
blending, the bitwise zero-offset identity, and offset gradients.
"""

import numpy as np

from tvadapt import tensor as T
from tvadapt.attention import (
    OffsetParams,
    asa_kv,
    selection_masks,
    warp,
)
from tvadapt.backbone import attention_core
from tvadapt.tensor import ParamStore, Tensor, rng_for

FRAMES, PATCHES, DIM = 6, 4, 8
rng = rng_for(0, "demo")

print("=== text-conditioned patch selection ===")
u = np.zeros((1, PATCHES, DIM))  # one frame
u[0, :, 0] = [3.0, 1.0, 4.0, 2.0]  # relevance scores live on channel 0
proj = np.zeros((DIM, 3))
proj[0, 0] = 1.0
w_star = np.array([1.0, 0.0, 0.0])
sel = selection_masks("text_top_k", 2, u, w_star=w_star, proj_w=proj, proj_b=np.zeros(3))
print("scores [3,1,4,2], K=2 -> selected patches:", np.flatnonzero(sel[0]).tolist())
sel = selection_masks("text_bottom_k", 2, u, w_star=w_star, proj_w=proj, proj_b=np.zeros(3))
print("bottom-K instead ->", np.flatnonzero(sel[0]).tolist())

print("\n=== warping ===")
store = ParamStore()
offsets = OffsetParams(store, PATCHES, FRAMES)
k = Tensor(rng.normal(size=(FRAMES, PATCHES, DIM)))
mask = np.ones((FRAMES, PATCHES), dtype=bool)

offsets.delta.data[:] = 1.0  # integer frame offset: pure indexing
k_hat = warp(k, offsets, mask)
print("integer offset +1 frame: row t equals original row t+1:",
      (k_hat.data[:-1] == k.data[1:]).all())
print("last frame clamps to the boundary:", (k_hat.data[-1] == k.data[-1]).all())

offsets.delta.data[:] = 0.5  # halfway between frames: bilinear blend
k_hat = warp(k, offsets, mask)
blend = 0.5 * (k.data[0] + k.data[1])
print("fractional offset 0.5 blends neighbors:", np.allclose(k_hat.data[0], blend))

offsets.delta.data[:] = 0.0
partial = rng.random((FRAMES, PATCHES)) < 0.5
offsets.gamma.data[:] = 0.7
k_hat = warp(k, offsets, partial)
print("unselected patches pass through bitwise:",
      (k_hat.data[~partial] == k.data[~partial]).all())

print("\n=== zero offsets reproduce vanilla attention bitwise ===")
offsets.gamma.data[:] = 0.0
offsets.delta.data[:] = 0.0
q = Tensor(rng.normal(size=(FRAMES, PATCHES + 1, DIM)))
kv = Tensor(rng.normal(size=(FRAMES, PATCHES + 1, DIM)))
warped = attention_core(q, *asa_kv(kv, kv, offsets, mask), 2)
plain = attention_core(q, kv, kv, 2)
print("bitwise equal:", (warped.data == plain.data).all())

print("\n=== offsets are trainable ===")
offsets.gamma.data[:] = 0.3  # strictly inside a grid cell
offsets.delta.data[:] = 0.3
k_hat = warp(k, offsets, mask)
T.tsum(k_hat * k_hat).backward()
print("d loss / d gamma:", np.array2string(offsets.gamma.grad.ravel(), precision=3))
print("d loss / d delta:", np.array2string(offsets.delta.grad.ravel(), precision=3))
print("(the last slot clamps at the grid edge, so its gradient is zero)")
