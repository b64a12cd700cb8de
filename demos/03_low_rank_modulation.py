#!/usr/bin/env python3
"""Low-rank scale/shift modulation of frozen features.

The temporal factorization c = c_a . c_b (T x R times R x D) keeps the
per-frame calibration on a rank-R budget; this script shows the exact
identity initialization, the rank structure of trained-looking factors,
and the alternative decomposition modes. Every mode composes a (rows, D)
matrix: rows are the T frames in temporal mode and the T*(N+1)
(frame, token) pairs in the per-token modes.
"""

import numpy as np

from tvadapt.modulation import VideoModulation, identity_init
from tvadapt.tensor import ParamStore, Tensor, rng_for

FRAMES, TOKENS, DIM, RANK = 6, 5, 32, 3

print("=== identity initialization ===")
store = ParamStore()
mod = VideoModulation(store, "temporal", [1, 2], RANK, FRAMES, TOKENS, DIM, seed=0)
c, s = mod.compose(1)
print("composed scale at init: all ones ->", (c.data == 1.0).all())
print("composed shift at init: all zeros ->", (s.data == 0.0).all())
x = Tensor(rng_for(0, "demo").normal(size=(FRAMES, TOKENS, DIM)))
print("so modulation is exactly the identity:", (mod.apply(1, x).data == x.data).all())
print(f"trainable factor elements: {store.num_elements(trainable=True):,} "
      f"(= layers * 2 * (T*R + R*D) = {2 * 2 * (FRAMES * RANK + RANK * DIM)})")

print("\n=== rank structure ===")
rng = rng_for(1, "demo")
for key in ("c_a", "c_b", "s_a", "s_b"):
    mod.params[1][key].data[:] = rng.normal(size=mod.params[1][key].shape)
c, s = mod.compose(1)
sv = np.linalg.svd(c.data, compute_uv=False)
print("singular values of a random composed scale:")
print(np.array2string(sv, precision=3, suppress_small=True))
print(f"values beyond rank {RANK} are numerically zero: {(sv[RANK:] < 1e-12).all()}")

print("\n=== frame-level broadcast ===")
u = mod.apply(1, x)
print("one modulation row per frame is shared by all tokens of that frame:")
print("frame 0 scale row applied to every token:",
      np.allclose(u.data[0], c.data[0] * x.data[0] + s.data[0]))

print("\n=== decomposition variants ===")
print(f"composed shape (rows, D): rows = T = {FRAMES} per frame, "
      f"or T*(N+1) = {FRAMES * TOKENS} per (frame, token) pair")
for mode in ("temporal", "spatial_temporal", "spatial_temporal_layer", "none"):
    st = ParamStore()
    m = VideoModulation(st, mode, [1, 2], RANK, FRAMES, TOKENS, DIM, seed=0)
    n = st.num_elements(trainable=True)
    shape = tuple(m.compose(1)[0].shape) if m.layers else "-"  # "none" holds no layers
    print(f"{mode:<24} params {n:>6,}   composed shape {shape}")

print("\nidentity_init restores the identity after any parameter drift:")
identity_init(mod)
print("post-reset modulation is the identity again:", (mod.apply(1, x).data == x.data).all())
