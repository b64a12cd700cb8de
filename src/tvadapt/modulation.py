"""Low-rank feature modulation for the frozen towers.

Per adapted layer the video tower gets a learnable scale/shift pair,
each factorized as a rank-R product c = c_a . c_b (c_a: rows x R,
c_b: R x D), applied multiplicatively and additively to the block
output: u = c * x + s. In the default temporal mode the rows are the T
frames, so one modulation row per frame is shared by all N+1 tokens of
that frame. The text tower gets a full-rank sentence-level pair
(1 x D_t) per layer, applied to the sentence (EOS) row only; word
features are never modulated, except by the word-level low-rank
ablation.

Both classes are the towers' modulation hooks: ``apply(layer, x)``
takes a block's whole output and returns it modulated, or ``x`` itself
at a layer without an adapter.

Alternative decompositions are provided as ablation modes: per-token
factors, whose rows are the T*(N+1) (frame, token) pairs, frame-major;
the same per-token rows from one factorization shared across layers;
and an off mode that holds no layers. Initialization is exact-identity:
the composed scale is bitwise ones and the composed shift bitwise zeros,
so a freshly attached adapter preserves the frozen model's function.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import tensor as T
from .exceptions import ConfigError
from .tensor import Tensor, rng_for


class DecomposeMode(str, Enum):
    TEMPORAL = "temporal"
    SPATIAL_TEMPORAL = "spatial_temporal"
    SPATIAL_TEMPORAL_LAYER = "spatial_temporal_layer"
    NONE = "none"


class VideoModulation:
    """Scale/shift modulation of video features at a set of layers."""

    def __init__(self, store, mode, layers, rank, frames, tokens, dim, seed):
        self.mode = DecomposeMode(mode)
        self.layers = [] if self.mode is DecomposeMode.NONE else sorted(layers)
        self.rank = rank
        self.frames = frames
        self.dim = dim
        self.params = {}
        if self.mode is DecomposeMode.NONE:
            return
        if not 1 <= rank <= min(frames, dim):
            raise ConfigError(f"rank {rank} outside [1, min(T={frames}, D={dim})]")

        # trailing factors start as small noise so every factor receives a
        # gradient; identity_init then cancels their effect exactly
        if self.mode is DecomposeMode.SPATIAL_TEMPORAL_LAYER:
            for tag in ("c", "s"):
                rng = rng_for(seed, "lorm/stl", tag)
                factors = {
                    "a": np.zeros((len(self.layers), rank)),
                    "b": rng.normal(size=(rank, frames, tokens, rank)) * 1e-3,
                    "c": rng.normal(size=(rank, dim)) * 1e-3,
                }
                for suffix, arr in factors.items():
                    name = f"adapter/lorm/shared/{tag}_{suffix}"
                    self.params[f"{tag}_{suffix}"] = store.add(name, Tensor(arr))
        else:
            rows = frames if self.mode is DecomposeMode.TEMPORAL else frames * tokens
            for layer in self.layers:
                entry = self.params[layer] = {}
                for tag in ("c", "s"):
                    rng = rng_for(seed, "lorm", layer, tag)
                    entry.update(_factor_pair(store, f"adapter/lorm/layer{layer}", tag, rows, rank, dim, rng))
        identity_init(self)

    def compose(self, layer):
        """Composed rank-R (scale, shift) for one layer: ``lead @ trail``, (rows, D) each.

        Rows are the T frames (temporal) or the T*(N+1) (frame, token) pairs,
        frame-major (per-token modes). Layer-shared, ``lead`` is row m of ``a``
        applied to the shared ``b`` and ``trail`` is ``c``: no other layer is built.
        """
        if layer not in self.layers:
            raise ConfigError(f"layer {layer} has no modulation attached")
        m = self.layers.index(layer)
        out = []
        for tag in ("c", "s"):
            if self.mode is DecomposeMode.SPATIAL_TEMPORAL_LAYER:
                a, b, trail = (self.params[f"{tag}_{suffix}"] for suffix in "abc")
                lead = T.reshape(T.matmul(a[m:m + 1], T.reshape(b, (self.rank, -1))), (-1, self.rank))
            else:
                lead, trail = (self.params[layer][f"{tag}_{suffix}"] for suffix in "ab")
            out.append(T.matmul(lead, trail))
        return tuple(out)

    def apply(self, layer, x):
        """Affine calibration of block output x: u = scale * x + shift.

        x is (..., T, N+1, D), or (..., T, 1, D) at the video tower's last
        layer, which computes only the CLS rows; per-token factors then
        apply their token-0 row. A per-frame row is shared by every token.
        """
        if layer not in self.layers:
            return x
        c, s = (T.reshape(m, (self.frames, -1, self.dim)) for m in self.compose(layer))
        if c.shape[1] > x.shape[-2]:
            c, s = c[:, :1, :], s[:, :1, :]
        return c * x + s


class TextModulation:
    """Sentence-level scale/shift per text layer (full rank, 1 x D_t)."""

    def __init__(self, store, layers, dim, seed, lowrank=False, rank=3, positions=0):
        self.layers = sorted(layers)
        self.lowrank = lowrank
        self.params = {}
        for layer in self.layers:
            prefix = f"adapter/textmod/layer{layer}"
            entry = {
                "c_t": store.add(f"{prefix}/c_t", Tensor(np.zeros((1, dim)))),
                "s_t": store.add(f"{prefix}/s_t", Tensor(np.zeros((1, dim)))),
            }
            if lowrank:
                # appendix ablation: word-level low-rank modulation over token positions
                rng = rng_for(seed, "textmod/lowrank", layer)
                for tag in ("w", "v"):
                    entry.update(_factor_pair(store, prefix, tag, positions, rank, dim, rng))
            self.params[layer] = entry
        identity_init(self)

    def apply(self, layer, x):
        """Modulate text block output x (..., S, D), EOS row last.

        The sentence row w becomes c_t * w + s_t; the word rows pass
        through, unless ``lowrank`` first scales and shifts every row
        by its position (the word-level ablation).
        """
        if layer not in self.params:
            return x
        entry = self.params[layer]
        if self.lowrank:
            n = x.shape[-2]
            cw = T.matmul(entry["w_a"], entry["w_b"])[:n]
            sw = T.matmul(entry["v_a"], entry["v_b"])[:n]
            x = cw * x + sw
        w = entry["c_t"] * x[..., -1:, :] + entry["s_t"]
        return T.concat([x[..., :-1, :], w], axis=-2)


def _factor_pair(store, prefix, tag, rows, rank, dim, rng):
    """Register a zero (rows, R) leading factor and a (R, D) trailing factor
    of 1e-3 noise as ``{prefix}/{tag}_a`` and ``{prefix}/{tag}_b``."""
    return {
        f"{tag}_a": store.add(f"{prefix}/{tag}_a", Tensor(np.zeros((rows, rank)))),
        f"{tag}_b": store.add(f"{prefix}/{tag}_b", Tensor(rng.normal(size=(rank, dim)) * 1e-3)),
    }


def identity_init(mod):
    """Set a modulation object to exactly the identity map.

    Every scale's leading factor becomes an indicator on rank slot 0
    (matched by ones in slot 0 of the trailing factors) and every shift's
    leading factor becomes zeros, so the remaining noisy rows are
    annihilated: the composed scale is bitwise ones, the shift bitwise
    zeros. The constructors build their identity through this function.
    """
    if isinstance(mod, TextModulation):
        for entry in mod.params.values():
            entry["c_t"].data[:] = 1.0
            entry["s_t"].data[:] = 0.0
            if "w_a" in entry:
                _indicator(entry, "w")
                entry["v_a"].data[:] = 0.0
        return
    if mod.mode is DecomposeMode.SPATIAL_TEMPORAL_LAYER:
        a, b, c = (mod.params[f"c_{suffix}"].data for suffix in "abc")
        a[:] = 0.0
        a[:, 0] = 1.0
        b[0] = 0.0
        b[0, :, :, 0] = 1.0
        c[0] = 1.0
        mod.params["s_a"].data[:] = 0.0
        return
    for entry in mod.params.values():
        _indicator(entry, "c")
        entry["s_a"].data[:] = 0.0


def _indicator(entry, tag):
    """Scale factor pair whose product is exactly ones."""
    a = entry[f"{tag}_a"].data
    a[:] = 0.0
    a[..., 0] = 1.0
    entry[f"{tag}_b"].data[0] = 1.0
