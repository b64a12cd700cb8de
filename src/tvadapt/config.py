"""Experiment configuration: typed fields, flat key=value files, presets."""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields

from .attention import SelectionMode, WarpAxes
from .counting import backbone_elements, backbone_tensors, closed_forms
from .exceptions import ConfigError
from .modulation import DecomposeMode

# The most float64 elements (8 bytes each) ``validate`` lets a model hold in
# its parameters, and separately in the activations of one batch: 2**30 is
# 8 GiB, the memory of a desk machine. The ViT-B/32 shape
# (``vit_b32_shaped_config``) holds 1.5e8 parameter elements (1.2 GB).
_MAX_ELEMENTS = 2**30
# The most named tensors ``validate`` lets the frozen towers hold. Each is a
# Python object with its own Philox stream, about 35 us to build on a 2-core
# x86 host, so 2**16 (4,096 layers) take about 2 s. CLIP ViT-L/14's 24 + 12
# layers would hold 582, the ViT-B/32 shape holds 390, and the adapters add a
# few per layer.
_MAX_TENSORS = 2**16

# The values each field annotation takes: numpy numbers pass, a bool is no number here.
_TYPES = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str}

# The sizes of each tower that must be at least 1; ``vocab`` must be at least 2.
_TOWER_SIZES = {
    "visual": ("layers", "dim_v", "heads_v", "patch", "frame_h", "frame_w", "frames", "channels"),
    "text": ("text_layers", "dim_t", "heads_t", "max_words"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    # visual tower
    layers: int = 4
    dim_v: int = 32
    heads_v: int = 4
    patch: int = 4
    frame_h: int = 8
    frame_w: int = 8
    frames: int = 6
    channels: int = 3
    # text tower
    text_layers: int = 3
    dim_t: int = 24
    heads_t: int = 4
    vocab: int = 64
    max_words: int = 8
    # adapters
    rank: int = 3
    top_k: int = 3
    selection: str = "text_top_k"
    warp_axes: str = "both"
    decompose: str = "temporal"
    adapter_layers: str = "all"
    asa: bool = True
    text_modulation: bool = True
    text_lowrank: bool = False
    # optimizer
    lr: float = 1e-4
    warmup: float = 0.1
    epochs: int = 5
    batch_size: int = 8
    # synthetic data
    pairs: int = 16
    data_seed: int = -1

    def __post_init__(self):
        self.validate()

    # -- derived values ----------------------------------------------------

    @property
    def patches(self):
        """Patches per frame: N = H * W / P**2."""
        return (self.frame_h // self.patch) * (self.frame_w // self.patch)

    def visual_adapter_layers(self):
        return _layer_set(self.adapter_layers, self.layers)

    def text_adapter_layers(self):
        # explicit lists are validated against the visual tower; the text
        # tower takes whatever part of the selection it has layers for
        return _layer_set(self.adapter_layers, self.text_layers, clip=True)

    @property
    def effective_data_seed(self):
        return self.seed if self.data_seed < 0 else self.data_seed

    def validate(self):
        for field in fields(self):  # every type before any value check compares one
            value, kind = getattr(self, field.name), _TYPES[field.type]
            if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
                raise ConfigError(f"config field {field.name} must be {field.type}, got {value!r}")
        # every size before any divisibility, so that no check divides by zero
        for tower, sizes in _TOWER_SIZES.items():
            for field in sizes:
                if getattr(self, field) < 1:
                    raise ConfigError(f"{tower} config field {field} must be positive")
        if self.vocab < 2:
            raise ConfigError(f"vocab {self.vocab} must be at least 2: a word and the EOS id")
        if self.frame_h % self.patch or self.frame_w % self.patch:
            raise ConfigError(
                f"frame {self.frame_h}x{self.frame_w} not divisible by patch {self.patch}"
            )
        if self.dim_v % self.heads_v:
            raise ConfigError(f"dim {self.dim_v} not divisible by heads {self.heads_v}")
        if self.dim_t % self.heads_t:
            raise ConfigError(f"text dim {self.dim_t} not divisible by heads {self.heads_t}")
        try:
            SelectionMode(self.selection)
            WarpAxes(self.warp_axes)
            decompose = DecomposeMode(self.decompose)
        except ValueError as err:
            raise ConfigError(str(err))
        if decompose is not DecomposeMode.NONE and not 1 <= self.rank <= min(self.frames, self.dim_v):
            raise ConfigError(
                f"rank {self.rank} outside [1, min(T={self.frames}, D_v={self.dim_v})]"
            )
        if not 0 <= self.top_k <= self.patches:
            raise ConfigError(f"top_k {self.top_k} outside [0, N={self.patches}]")
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not 0.0 <= self.warmup <= 1.0:
            raise ConfigError("warmup fraction must lie in [0, 1]")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")
        if self.pairs < 2:
            raise ConfigError("need at least 2 synthetic pairs")
        if self.text_lowrank and not self.text_modulation:
            raise ConfigError("text_lowrank requires text_modulation")
        if self.text_lowrank and not 1 <= self.rank <= min(self.max_words + 1, self.dim_t):
            raise ConfigError(f"rank {self.rank} outside [1, min(words+1, D_t)] for text_lowrank")
        self._check_size()

    def _check_size(self):
        """Reject a model too large to build, from element counts alone.

        The parameters are the frozen towers plus the adapters. The widest
        activation is the MLP hidden layer (4 D per token row), and the
        largest batch is evaluation's, which holds every pair at once. The
        towers are checked first, because they bound the layer counts that
        the adapter count enumerates. A thin tower can pass the element caps
        with millions of layers, so the towers' named tensors are capped too.
        """
        rows = self.pairs * (self.frames * (self.patches + 1) + self.max_words + 1)
        _cap("frozen tower", backbone_elements(self))
        tensors = backbone_tensors(self)
        if tensors > _MAX_TENSORS:
            raise ConfigError(f"frozen tower of {tensors:,} named tensors exceeds the cap of "
                              f"{_MAX_TENSORS:,}")
        _cap("one batch's activation", rows * 4 * max(self.dim_v, self.dim_t))
        _cap("adapter", sum(closed_forms(self).values()))


def _cap(what, elements):
    if elements > _MAX_ELEMENTS:
        raise ConfigError(f"{what} size of {elements:,} elements exceeds the cap of "
                          f"{_MAX_ELEMENTS:,} (8 GiB of float64)")


def _layer_set(spec, total, clip=False):
    """Parse an adapter layer selector: all | last4 | comma list (1-based)."""
    if spec == "all":
        return list(range(1, total + 1))
    if spec == "last4":
        return list(range(max(1, total - 3), total + 1))
    try:
        layers = sorted({int(tok) for tok in spec.split(",") if tok.strip()})
    except ValueError:
        raise ConfigError(f"cannot parse adapter_layers {spec!r}")
    if not layers:
        raise ConfigError("adapter_layers selected no layers")
    if clip:
        return [l for l in layers if 1 <= l <= total]
    if layers[0] < 1 or layers[-1] > total:
        raise ConfigError(f"adapter_layers {layers} outside [1, {total}]")
    return layers


_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


def _parse_value(field, raw):
    raw = raw.strip()
    if field.type == "bool":
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"cannot parse boolean {field.name} = {raw!r}")
    if field.type == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"cannot parse integer {field.name} = {raw!r}")
    if field.type == "float":
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"cannot parse float {field.name} = {raw!r}")
    return raw


def loads(text):
    """Parse the flat ``key = value`` config format; unknown keys error."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        values[key] = _parse_value(_FIELDS[key], raw)
    return ExperimentConfig(**values)


def load(path):
    """Read a config file; every ``ConfigError`` names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads(fh.read())
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text: byte {err.start} cannot be decoded") from None
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from None


def dumps(config):
    lines = [f"{name} = {value}" for name, value in asdict(config).items()]
    return "\n".join(lines) + "\n"


def toy_config(**overrides):
    """Desk-scale defaults small enough for whole-model gradient checks."""
    return ExperimentConfig(**overrides)


def vit_b32_shaped_config(**overrides):
    """Adapter shapes matching a CLIP ViT-B/32 backbone (count checks only)."""
    base = dict(
        layers=12, dim_v=768, heads_v=12, patch=32, frame_h=224, frame_w=224,
        frames=12, channels=3,
        text_layers=12, dim_t=512, heads_t=8, vocab=49408, max_words=76,
    )
    base.update(overrides)
    return ExperimentConfig(**base)
