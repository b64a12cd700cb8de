"""Trainable-parameter accounting with closed-form cross-checks.

Adapter tensors are instantiated (cheap at any scale) and enumerated
per group; each group count is verified against the closed form implied
by the factor shapes. The frozen backbone size is computed from the
same shape table the tower construction uses, without materializing
weights, so full-scale configurations can be audited instantly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .attention import WarpAxes
from .backbone import _BLOCK_SHAPES
from .exceptions import ConsistencyError
from .model import ADAPTER_GROUPS, build_adapters
from .modulation import DecomposeMode
from .tensor import ParamStore


def _block_elements(dim):
    dims = {"D": dim, "4D": 4 * dim}
    return sum(math.prod(dims[s] for s in shape) for _, _, shape in _BLOCK_SHAPES)


def backbone_elements(config):
    """Closed-form frozen parameter count for both towers."""
    d_v, d_t = config.dim_v, config.dim_t
    pdim = config.patch * config.patch * config.channels
    visual = (
        pdim * d_v + d_v  # patch projection
        + d_v  # CLS
        + (config.patches + 1) * d_v  # positions
        + config.layers * _block_elements(d_v)
    )
    text = (
        config.vocab * d_t
        + (config.max_words + 1) * d_t
        + config.text_layers * _block_elements(d_t)
    )
    return visual + text


def backbone_tensors(config):
    """Closed-form count of the frozen towers' named tensors, from the config's integers."""
    stems = 4 + 2  # patch_w, patch_b, cls, pos; embed, pos
    return stems + (config.layers + config.text_layers) * len(_BLOCK_SHAPES)


def closed_forms(config):
    """Per-group trainable counts implied by the adapter factor shapes."""
    t, s, d, r = config.frames, config.patches + 1, config.dim_v, config.rank
    n_layers = len(config.visual_adapter_layers())
    mode = DecomposeMode(config.decompose)
    if mode is DecomposeMode.TEMPORAL:
        lorm_visual = n_layers * 2 * (t * r + r * d)
    elif mode is DecomposeMode.SPATIAL_TEMPORAL:
        lorm_visual = n_layers * 2 * (t * s * r + r * d)
    elif mode is DecomposeMode.SPATIAL_TEMPORAL_LAYER:
        lorm_visual = 2 * (n_layers * r + r * t * s * r + r * d)
    else:
        lorm_visual = 0

    lorm_text = 0
    if config.text_modulation:
        text_layers = len(config.text_adapter_layers())
        lorm_text = text_layers * 2 * config.dim_t
        if config.text_lowrank:
            lorm_text += text_layers * 2 * (
                (config.max_words + 1) * config.rank + config.rank * config.dim_t
            )

    offsets = 0
    if config.asa:
        axes = WarpAxes(config.warp_axes)
        if axes is not WarpAxes.TEMPORAL_ONLY:
            offsets += config.patches
        if axes is not WarpAxes.SPATIAL_ONLY:
            offsets += config.frames

    return {
        "lorm_visual": lorm_visual,
        "lorm_text": lorm_text,
        "asa_offsets": offsets,
        "proj": d * config.dim_t + config.dim_t,
        "temperature": 1,
    }


@dataclass
class CountReport:
    groups: dict
    trainable_total: int
    backbone_total: int

    @property
    def trainable_fraction(self):
        return self.trainable_total / (self.trainable_total + self.backbone_total)

    def table(self):
        lines = [f"{'group':<14}{'params':>12}"]
        for name, count in self.groups.items():
            lines.append(f"{name:<14}{count:>12,}")
        lines.append(f"{'trainable':<14}{self.trainable_total:>12,}")
        lines.append(f"{'backbone':<14}{self.backbone_total:>12,}")
        lines.append(f"{'fraction':<14}{self.trainable_fraction:>12.4%}")
        return "\n".join(lines)


def count_params(config):
    """Enumerate adapter tensors per group and cross-check closed forms."""
    store = ParamStore()
    build_adapters(config, store)
    enumerated = {
        name: store.num_elements(trainable=True, prefix=prefix)
        for name, prefix in ADAPTER_GROUPS.items()
    }
    expected = closed_forms(config)
    for name in expected:
        if enumerated[name] != expected[name]:
            raise ConsistencyError(
                f"{name}: enumerated {enumerated[name]} != closed form {expected[name]}"
            )
    return CountReport(
        groups=enumerated,
        trainable_total=sum(enumerated.values()),
        backbone_total=backbone_elements(config),
    )
