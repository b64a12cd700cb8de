"""Trainable-parameter accounting with closed-form cross-checks.

Adapter tensors are instantiated (cheap at any scale) and enumerated
per group; each group count is verified against the closed form implied
by the factor shapes. The frozen towers are sized from the stem and
block tables in ``backbone`` (``_STEM_SHAPES``, ``_BLOCK_SHAPES``) that
``init_backbone`` builds them from: closed forms in the layer count, so
a full-scale or a million-layer configuration is audited without a weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .attention import WarpAxes
from .backbone import _BLOCK_SHAPES, _STEM_SHAPES, tower_sizes
from .exceptions import ConsistencyError
from .model import ADAPTER_GROUPS, build_adapters
from .modulation import DecomposeMode
from .tensor import ParamStore


def backbone_elements(config):
    """Closed-form frozen parameter count for both towers."""
    total = 0
    for tower, stem in _STEM_SHAPES.items():
        layers, sizes = tower_sizes(config, tower)
        size = lambda rows: sum(math.prod(sizes[s] for s in spec) for _, _, spec in rows)
        total += size(stem) + layers * size(_BLOCK_SHAPES)
    return total


def backbone_tensors(config):
    """Closed-form count of the frozen towers' named tensors, from the config's integers."""
    return sum(len(stem) + tower_sizes(config, tower)[0] * len(_BLOCK_SHAPES)
               for tower, stem in _STEM_SHAPES.items())


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
