"""CSV exports of modulation weights and patch attention-similarity maps.

Two bundles back the usual qualitative figures: (a) per-layer composed
scale/shift matrices, the rank-R (rows, D) pair ``compose`` returns, plus
the scale's singular values, which show the rank structure; (b) for one
query patch of one video, its per-frame attention distribution over all
patches of every frame under the current (possibly warped) keys. The
map reads the model's own forward through an attention-hook probe, and
warps the keys with the plans and the mask that the forward's ASA pass
(``model.ASAPass``) recorded for that layer.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import tensor as T
from .attention import warp
from .backbone import vanilla_attention
from .exceptions import ConfigError
from .model import ASAPass
from .tensor import no_grad


def attention_similarity_map(model, video, candidates=None, layer=None, frame=0, patch=0):
    """(T, N) per-frame attention of one query patch over all patches.

    Runs the model's own video tower pass (``model.video_tower``) with a
    probe at ``layer`` (default: the final adapted layer; the tower
    rejects one outside it). The probe calls that layer's attention hook
    once and reads the block's projected queries and keys, the pass's
    warp plans and the patch mask the hook recorded for that layer
    (``ASAPass.masks``), in random mode the pass's draw. Row t is
    softmax_n of q[frame, patch] . k_hat[t, n] / sqrt(D) (single head,
    full-dimension scale), where k_hat warps the keys with that mask
    (unwarped at a layer without ASA). With zero offsets row ``frame`` equals the
    vanilla patch-attention row of that frame.
    """
    cfg = model.config
    layer = layer if layer is not None else cfg.visual_adapter_layers()[-1]
    if not 0 <= frame < cfg.frames or not 0 <= patch < cfg.patches:
        raise ConfigError(f"query patch ({frame}, {patch}) outside the grid")

    with no_grad():
        asa = ASAPass(model, video[None], candidates, ("diag",)) if cfg.asa else None
        attention = asa.hooks(slice(None)) if asa else {}  # one video: one inline block
        hook = attention.get(layer, vanilla_attention)
        seen = {}

        def probe(x_in, q, k, v, heads):
            out = hook(x_in, q, k, v, heads)  # an ASA hook records this layer's mask
            k_hat = k.data[0, :, 1:, :]
            if layer in attention:
                k_hat = warp(k_hat, asa.plans, asa.masks[layer][0]).data
            seen["scores"] = np.einsum("d,tnd->tn", q.data[0, frame, 1 + patch], k_hat)
            return out

        model.video_tower(video[None], lambda rows: {**attention, layer: probe})
    return T.softmax(seen["scores"] / np.sqrt(cfg.dim_v), axis=1).data


def export_diagnostics(model, dataset, out_dir, item=0, frame=0, patch=0):
    """Write the modulation and similarity-map CSV bundle.

    Returns the written file names (relative to ``out_dir``). The query
    is checked before any file is written.
    """
    if not 0 <= item < len(dataset):
        raise ConfigError(f"item {item} outside [0, {len(dataset)})")
    candidates = None
    if model.config.asa:
        with no_grad():
            candidates = model.encode_texts(dataset.tokens).data
    sim_map = attention_similarity_map(
        model, dataset.videos[item], candidates=candidates, frame=frame, patch=patch
    )
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def save(name, array):
        path = os.path.join(out_dir, name)
        np.savetxt(path, np.asarray(array), delimiter=",")
        written.append(name)

    for layer in model.video_mod.layers:
        with no_grad():
            scale, shift = model.video_mod.compose(layer)
        save(f"modulation_scale_layer{layer}.csv", scale.data)
        save(f"modulation_shift_layer{layer}.csv", shift.data)
        save(
            f"modulation_scale_layer{layer}_singular_values.csv",
            np.linalg.svd(scale.data, compute_uv=False)[None, :],
        )

    save(f"patch_similarity_item{item}_frame{frame}_patch{patch}.csv", sim_map)

    manifest = {
        "files": written,
        "item": item,
        "frame": frame,
        "patch": patch,
        "decompose": model.config.decompose,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    written.append("manifest.json")
    return written
