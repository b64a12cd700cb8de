"""Versioned binary checkpoints: the config and the bit-exact adapter set.

Layout (little-endian): magic ``RAPC``, u32 format version, u32 config
length + flat-text config, u64 completed-step counter (the RNG state:
every stream is derived from the config seed plus counters), the 16-byte
digest ``store.hash_bytes("backbone/")``, u32 entry count, then per
trainable tensor (all under ``adapter/``): u16 name length + name, u8
ndim, u32 dims, raw float64 payload; last, the 64-byte blake2b digest of
every preceding byte, so a flipped bit fails to load. The frozen backbone
is a pure function of the config: ``restore_model`` regenerates it and
checks its digest. Older versions are rejected: 1 and 2 also stored the
backbone, 3 a frozen flag per entry.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import config as config_mod
from .exceptions import ConfigError, ContractError, VersionError
from .model import AdapterModel

MAGIC = b"RAPC"
VERSION = 4
DIGEST_SIZE = 64


@dataclass
class Checkpoint:
    config: object
    params: dict  # name -> ndarray
    steps: int
    backbone: str  # hex digest of the frozen towers the adapters belong to


def save_checkpoint(path, model, steps=0):
    """Write a checkpoint of ``model``'s adapter set, config and step count.

    A model whose trainable set is not its ``adapter/`` set (a caller froze
    an adapter tensor, or unfroze a backbone one) raises ``ContractError``
    and writes nothing: ``restore_model`` could not load it.
    """
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", VERSION)
    cfg_text = config_mod.dumps(model.config).encode("utf-8")
    blob += struct.pack("<I", len(cfg_text))
    blob += cfg_text
    entries = list(model.store.trainable_items())
    adapter = [name for name in model.store.names() if name.startswith("adapter/")]
    if [name for name, _ in entries] != adapter:
        trainable = {name for name, _ in entries}
        raise ContractError(
            f"cannot save a model whose trainable set is not its adapter set "
            f"(frozen {sorted(set(adapter) - trainable)[:3]}, "
            f"trainable outside adapter/ {sorted(trainable - set(adapter))[:3]})"
        )
    backbone = bytes.fromhex(model.store.hash_bytes("backbone/"))
    blob += struct.pack("<Q16sI", steps, backbone, len(entries))
    for name, t in entries:
        encoded = name.encode("utf-8")
        blob += struct.pack("<H", len(encoded)) + encoded
        blob += struct.pack(f"<B{t.data.ndim}I", t.data.ndim, *t.data.shape)
        blob += np.ascontiguousarray(t.data, dtype="<f8").tobytes()
    blob += hashlib.blake2b(blob, digest_size=DIGEST_SIZE).digest()
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


def load_checkpoint(path):
    """Parse a checkpoint file.

    A truncated or corrupt file raises ``VersionError``, as does an entry
    that repeats a name or claims more values than the file holds; an
    intact one whose stored config fails validation raises ``ConfigError``.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise VersionError(f"{path}: not a checkpoint (bad magic)")
    view = memoryview(blob)[:-DIGEST_SIZE]
    try:
        (version,) = struct.unpack_from("<I", view, 4)
        if version != VERSION:
            raise VersionError(f"{path}: format version {version}, expected {VERSION}")
        if hashlib.blake2b(view, digest_size=DIGEST_SIZE).digest() != blob[-DIGEST_SIZE:]:
            raise VersionError(f"{path}: digest mismatch (truncated or corrupt checkpoint)")
        (cfg_len,) = struct.unpack_from("<I", view, 8)
        offset = 12
        cfg = config_mod.loads(bytes(view[offset : offset + cfg_len]).decode("utf-8"))
        offset += cfg_len
        steps, backbone, count = struct.unpack_from("<Q16sI", view, offset)
        offset += 28
        params = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", view, offset)
            offset += 2
            name = bytes(view[offset : offset + name_len]).decode("utf-8")
            offset += name_len
            (ndim,) = struct.unpack_from("<B", view, offset)
            shape = struct.unpack_from(f"<{ndim}I", view, offset + 1)
            offset += 1 + 4 * ndim
            size = math.prod(shape)
            if name in params:
                raise VersionError(f"{path}: entry {name!r} is repeated")
            if 8 * size > len(view) - offset:
                raise VersionError(f"{path}: entry {name!r} holds {size} values, past the end of the file")
            data = np.frombuffer(view, dtype="<f8", count=size, offset=offset)
            offset += 8 * size
            params[name] = data.reshape(shape).astype(np.float64)
    except ConfigError as err:
        raise ConfigError(f"{path}: stored config is invalid: {err}") from None
    except (struct.error, ValueError, UnicodeDecodeError) as err:
        raise VersionError(f"{path}: truncated or corrupt checkpoint ({err})") from None
    if offset != len(view):
        raise VersionError(f"{path}: {len(view) - offset} trailing bytes after the last entry")
    return Checkpoint(config=cfg, params=params, steps=steps, backbone=backbone.hex())


def restore_model(checkpoint):
    """Rebuild the model from the config, check its backbone digest, load the adapters."""
    model = AdapterModel(checkpoint.config)
    if model.store.hash_bytes("backbone/") != checkpoint.backbone:
        raise VersionError("the config builds a backbone whose digest differs from the checkpoint's")
    expected = {name for name, _ in model.store.trainable_items()}
    got = set(checkpoint.params)
    if expected != got:
        missing = sorted(expected - got)[:3]
        extra = sorted(got - expected)[:3]
        raise VersionError(
            f"checkpoint does not match config-built model (missing {missing}, extra {extra})"
        )
    for name, data in checkpoint.params.items():
        t = model.store[name]
        if t.data.shape != data.shape:
            raise VersionError(f"shape mismatch for {name}: {t.data.shape} vs {data.shape}")
        t.data[:] = data
    return model


def load_model(path):
    ckpt = load_checkpoint(path)
    return restore_model(ckpt), ckpt
