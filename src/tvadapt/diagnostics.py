"""CSV exports of modulation weights and patch attention-similarity maps.

Two bundles back the usual qualitative figures: (a) per-layer composed
scale/shift matrices plus their singular values, which show how much of
the temporal variation the rank-R factorization carries; (b) for one
query patch of one video, its per-frame attention distribution over all
patches of every frame under the current (possibly warped) keys.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import tensor as T
from .attention import warp_kv
from .backbone import patchify
from .exceptions import ConfigError
from .modulation import DecomposeMode
from .tensor import no_grad


def attention_similarity_map(model, video, candidates=None, layer=None, frame=0, patch=0):
    """(T, N) per-frame attention of one query patch over all patches.

    Uses the projected queries/keys of ``layer`` (default: the final
    adapted layer; single-head, full-dimension scale): row t is
    softmax_n of q[frame, patch] . k_hat[t, n] / sqrt(D), where k_hat
    warps the keys with the patch mask the forward pass drew at
    ``layer`` (unwarped at a layer without ASA). With zero offsets row
    ``frame`` equals the vanilla patch-attention row of that frame.
    """
    cfg = model.config
    vcfg = model.vcfg
    layer = layer if layer is not None else cfg.visual_adapter_layers()[-1]
    if not 1 <= layer <= vcfg.layers:
        raise ConfigError(f"layer {layer} outside [1, {vcfg.layers}]")
    if not 0 <= frame < vcfg.frames or not 0 <= patch < vcfg.patches:
        raise ConfigError(f"query patch ({frame}, {patch}) outside the grid")

    with no_grad():
        drawn = []  # the mask of each ASA layer, in layer order

        def select(x_in):
            drawn.append(plan(x_in))
            return drawn[-1]

        if cfg.asa:
            plan = model.selection_plan(video[None], candidates, sel_key=("diag",))
        features, _ = model.encode_video_features(video[None], select)
        x = features[layer - 2][0] if layer > 1 else patchify(video, model.store, vcfg)

        p = lambda name: model.store[f"backbone/visual/block{layer}/{name}"]
        h = T.layer_norm(x, p("ln1_g"), p("ln1_b"))
        q = T.linear(h, p("wq"), p("bq")).data[:, 1:, :]
        k = T.linear(h, p("wk"), p("bk"))

        k_patches = k[:, 1:, :]
        masks = dict(zip(cfg.visual_adapter_layers(), drawn))
        if layer in masks:
            k_patches, _ = warp_kv(k_patches, k_patches, model.offsets, masks[layer][0],
                                   axes=cfg.warp_axes, interp=cfg.warp_interp)

    scores = np.einsum("d,tnd->tn", q[frame, patch], k_patches.data) / np.sqrt(vcfg.dim)
    return T.softmax(scores, axis=1).data


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

    if model.video_mod.mode is not DecomposeMode.NONE:
        for layer in model.video_mod.layers:
            with no_grad():
                scale, shift = model.video_mod.compose(layer)
            scale = scale.data.reshape(model.vcfg.frames, -1)
            shift = shift.data.reshape(model.vcfg.frames, -1)
            save(f"modulation_scale_layer{layer}.csv", scale)
            save(f"modulation_shift_layer{layer}.csv", shift)
            save(
                f"modulation_scale_layer{layer}_singular_values.csv",
                np.linalg.svd(scale, compute_uv=False)[None, :],
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
