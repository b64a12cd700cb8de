"""Frozen two-tower encoder: per-frame ViT over video, transformer over text.

Each video frame is patchified, given a CLS token and positional
embedding, and pushed through pre-norm attention/MLP blocks that treat
frames independently. The text tower embeds integer tokens, appends an
EOS token, and reads the sentence feature at the EOS position. All
weights are frozen stand-ins for a pretrained model. Adapters attach
through two hooks: one ``modulate(layer, x) -> x`` callable, which
both towers call on every block's output, and in the video tower a
per-layer map of replacement attention operations inside the blocks.
Every size is a field of the one ``ExperimentConfig`` the functions
take; the EOS id is ``vocab - 1``. Every frozen tensor is declared once,
in the tables ``_STEM_SHAPES`` and ``_BLOCK_SHAPES``, from which
``init_backbone`` builds the towers and ``counting`` sizes them.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .exceptions import ConfigError, InputError
from .tensor import Tensor, rng_for
from .workers import processes

# One row per frozen tensor: (name, init rule, shape in the sizes
# ``tower_sizes`` names). "ones" and "zeros" draw nothing; "proj" draws a
# Gaussian over sqrt(first dimension), the fan-in, "embed" over sqrt(last).
_STEM_SHAPES = {
    "visual": (
        ("patch_w", "proj", ("P", "D")), ("patch_b", "zeros", ("D",)),
        ("cls", "embed", ("1", "D")), ("pos", "embed", ("N+1", "D")),
    ),
    "text": (("embed", "embed", ("vocab", "D")), ("pos", "embed", ("W+1", "D"))),
}
_BLOCK_SHAPES = (
    ("ln1_g", "ones", ("D",)), ("ln1_b", "zeros", ("D",)),
    ("wq", "proj", ("D", "D")), ("bq", "zeros", ("D",)),
    ("wk", "proj", ("D", "D")), ("bk", "zeros", ("D",)),
    ("wv", "proj", ("D", "D")), ("bv", "zeros", ("D",)),
    ("wo", "proj", ("D", "D")), ("bo", "zeros", ("D",)),
    ("ln2_g", "ones", ("D",)), ("ln2_b", "zeros", ("D",)),
    ("mlp_w1", "proj", ("D", "4D")), ("mlp_b1", "zeros", ("4D",)),
    ("mlp_w2", "proj", ("4D", "D")), ("mlp_b2", "zeros", ("D",)),
)


def tower_sizes(config, tower):
    """(block count, the sizes ``tower``'s shape specs name) from the config's integers."""
    if tower == "visual":
        dim, layers = config.dim_v, config.layers
        sizes = {"P": config.patch * config.patch * config.channels, "N+1": config.patches + 1}
    else:
        dim, layers = config.dim_t, config.text_layers
        sizes = {"vocab": config.vocab, "W+1": config.max_words + 1}
    return layers, {"1": 1, "D": dim, "4D": 4 * dim, **sizes}


def _draw(kind, shape, rng):
    if kind == "ones":
        return np.ones(shape)
    if kind == "zeros":
        return np.zeros(shape)
    return rng.normal(size=shape) / np.sqrt(shape[0] if kind == "proj" else shape[-1])


def init_backbone(store, config):
    """Register all frozen tower parameters under ``backbone/``, seeded by ``config.seed``.

    A tower's stem draws in table order from one stream, each block tensor from its own.
    """
    for tower, stem in _STEM_SHAPES.items():
        layers, sizes = tower_sizes(config, tower)
        prefix = f"backbone/{tower}"
        stem_rng = rng_for(config.seed, f"{prefix}/stem")
        rows = [(name, kind, spec, stem_rng) for name, kind, spec in stem]
        rows += [(f"block{layer}/{name}", kind, spec, rng_for(config.seed, prefix, layer, name))
                 for layer in range(1, layers + 1) for name, kind, spec in _BLOCK_SHAPES]
        for name, kind, spec, rng in rows:
            shape = tuple(sizes[s] for s in spec)
            store.add(f"{prefix}/{name}", Tensor(_draw(kind, shape, rng)), frozen=True)


def attention_core(q, k, v, heads):
    """Scaled dot-product attention over the second-to-last axis.

    q, k, v: (..., S, D). D is split across heads, attended per head at
    1/sqrt(D/heads) scale, and concatenated back.
    """
    *lead, s, d = q.shape
    dh = d // heads

    def split(t):
        t = T.reshape(t, (*lead, s, heads, dh))
        return T.swapaxes(t, -3, -2)

    qh, kh, vh = split(q), split(k), split(v)
    scores = T.matmul(qh, T.swapaxes(kh, -1, -2)) * (1.0 / np.sqrt(dh))
    weights = T.softmax(scores, axis=-1)
    ctx = T.matmul(weights, vh)
    return T.reshape(T.swapaxes(ctx, -3, -2), (*lead, s, d))


def vanilla_attention(x_in, q, k, v, heads):
    """Per-frame multi-head self-attention over all N+1 tokens."""
    return attention_core(q, k, v, heads)


# Block-input elements from which a taped block that attends with
# ``vanilla_attention`` splits its rows over every usable core
# (``T.row_blocks``). In a sweep of one taped block, forward plus backward,
# at 1 and 2 parts (2-core x86_64 VM, BLAS on one thread), every shape from
# 2**15 elements up ran faster split: 0.70-0.74x for wide video blocks of
# 20,480 to 327,680 elements, 0.80x for a 27,648-element text block, 0.82x
# for a 61,440-element toy video block. Below it a split ran up to 4x
# slower (a 1,728-element text block: 0.84 against 3.3 ms). A thread start
# and join cost about 0.1 ms; the rest is the two threads handing the GIL
# back and forth between small numpy calls.
_SPLIT_MIN = 2**15


def vit_block(x, store, prefix, heads, attention_fn, row=None):
    """Pre-norm residual block: x + Attn(LN(x)), then + MLP(LN(.)).

    ``attention_fn(x_in, q, k, v, heads)`` receives the block input
    (pre-norm) alongside the projected triplet so that replacement
    attention operations can score patches on the raw features.

    With ``row`` set, attention still sees every token, but ``wo``, the
    residual, ``ln2`` and the MLP run on token ``row`` alone, and the
    block returns that row as (..., 1, D). The rows enter those products
    as (..., D) operands: a size-1 token axis there would make M=1
    products, which BLAS computes with other kernels and other bits.

    A taped block (recording, and x requires grad) that attends with
    ``vanilla_attention`` and whose input holds at least ``_SPLIT_MIN``
    elements runs its leading rows in ``min(processes(), rows // 2)``
    contiguous blocks, one per usable core (``T.row_blocks``). Such a
    block holds no trainable leaf and every op in it acts on each
    leading row alone, so the split is bitwise one pass; each block
    keeps two or more rows, so no product in it becomes an M=1 product.
    A hook may hold trainable leaves whose gradients sum over rows, so a
    hooked block stays one block. ``processes()`` is 1 on one usable
    core, inside a forked share and while another thread is alive, so
    the block runs as one there too.
    """
    parts = 1
    if (attention_fn is vanilla_attention and T.recording() and x.requires_grad
            and x.data.size >= _SPLIT_MIN):
        parts = max(1, min(processes(), len(x.data) // 2))
    return T.row_blocks(lambda rows: _block_body(rows, store, prefix, heads, attention_fn, row),
                        x, parts)


def _block_body(x, store, prefix, heads, attention_fn, row):
    """The body of ``vit_block`` on one block of rows."""
    p = lambda name: store[f"{prefix}/{name}"]
    h = T.layer_norm(x, p("ln1_g"), p("ln1_b"))
    q = T.linear(h, p("wq"), p("bq"))
    k = T.linear(h, p("wk"), p("bk"))
    v = T.linear(h, p("wv"), p("bv"))
    ctx = attention_fn(x, q, k, v, heads)
    if row is not None:
        x, ctx = x[..., row, :], ctx[..., row, :]
    x = x + T.linear(ctx, p("wo"), p("bo"))
    h = T.layer_norm(x, p("ln2_g"), p("ln2_b"))
    h = T.linear(T.gelu(T.linear(h, p("mlp_w1"), p("mlp_b1"))), p("mlp_w2"), p("mlp_b2"))
    x = x + h
    return x if row is None else x[..., None, :]


def patchify(video, store, config):
    """Embed raw frames into (..., T, N+1, D) token features.

    Non-overlapping P x P patches in row-major order are linearly
    projected, the frozen CLS token is prepended at position 0, and the
    positional embedding is added.
    """
    video = np.asarray(video, dtype=np.float64)
    t_ax = video.ndim - 4
    expected = (config.frames, config.frame_h, config.frame_w, config.channels)
    if video.ndim < 4 or video.shape[t_ax:] != expected:
        raise ConfigError(
            f"video shape {video.shape} does not end with T x H x W x C = {expected}"
        )
    lead = video.shape[:t_ax]
    p = config.patch
    gh, gw = config.frame_h // p, config.frame_w // p
    patches = video.reshape(*lead, config.frames, gh, p, gw, p, config.channels)
    patches = np.moveaxis(patches, t_ax + 2, t_ax + 3)
    patches = patches.reshape(*lead, config.frames, config.patches, p * p * config.channels)

    x = T.linear(Tensor(patches), store["backbone/visual/patch_w"], store["backbone/visual/patch_b"])
    cls = np.broadcast_to(store["backbone/visual/cls"].data, (*lead, config.frames, 1, config.dim_v))
    x = T.concat([Tensor(cls), x], axis=-2)
    return x + store["backbone/visual/pos"]


def encode_video(video, store, config, modulate=None, attention=None, start=0, stop=None):
    """Run the video tower, applying per-layer adapter hooks.

    ``modulate(layer, x)`` is called on every block's output, and what
    it returns feeds the next block; ``attention`` maps layer index ->
    replacement attention operation. Returns the final frame CLS
    sequence (..., T, D), the only rows the heads read; a caller that
    needs a block's internals reads them through its hooks.

    The last block computes only those CLS rows after attention, so
    ``modulate`` receives (..., T, 1, D) there rather than
    (..., T, N+1, D); every attention hook still sees all N+1 tokens.

    ``start`` and ``stop`` run part of the tower (``_blocks``); with
    ``start`` = f > 0, ``attention`` may hold no hook at or before f.
    """
    x = Tensor(video) if start else patchify(video, store, config)
    x = _blocks(x, store, "visual", config.layers, config.heads_v, modulate, attention or {},
                start, stop, last_row=0)
    return x if stop else x[..., 0, :]


def encode_text(tokens, store, config, modulate=None, start=0, stop=None):
    """Run the text tower over integer tokens (EOS appended internally).

    Accepts one caption (1-D) or a batch of equal-length captions (2-D).
    ``modulate(layer, x)`` is called on every block's whole output
    (Q, S, D), word rows and the EOS row alike, and what it returns
    feeds the next block. Returns the final (Q, D_t) sentence feature,
    the EOS row. ``start`` and ``stop`` run part of the tower as in
    ``encode_video``; ``tokens`` is then block ``start``'s (Q, S, D) output.
    """
    x = Tensor(tokens) if start else _embed_tokens(tokens, store, config)
    x = _blocks(x, store, "text", config.text_layers, config.heads_t, modulate, {}, start, stop,
                last_row=None)
    return x if stop else x[:, -1, :]


def _blocks(x, store, tower, layers, heads, modulate, attention, start, stop, last_row):
    """Blocks ``start`` + 1 .. ``layers`` of one tower, each output through ``modulate``.

    With ``start`` = f > 0, x is block f's output and the pass resumes at
    f's ``modulate`` call; with ``stop`` = f in (start, layers] it returns
    block f's output before that call. The last block computes only token
    ``last_row`` after attention.
    """
    for layer in attention:
        if not start < layer <= layers:
            raise ConfigError(f"hook layer {layer} outside [{start + 1}, {layers}]")
    if start and modulate is not None:
        x = modulate(start, x)
    for layer in range(start + 1, layers + 1):
        fn = attention.get(layer, vanilla_attention)
        row = last_row if layer == layers else None
        x = vit_block(x, store, f"backbone/{tower}/block{layer}", heads, fn, row=row)
        if layer == stop:
            return x
        if modulate is not None:
            x = modulate(layer, x)
    return x


def _embed_tokens(tokens, store, config):
    """Checked token ids (Q, W) or (W,) -> embedded (Q, W+1, D) rows, EOS last."""
    tokens = np.asarray(tokens, dtype=np.intp)
    if tokens.ndim == 1:
        tokens = tokens[None, :]
    if tokens.ndim != 2:
        raise InputError(f"tokens must be 1-D or 2-D, got shape {tokens.shape}")
    if tokens.shape[1] > config.max_words:
        raise InputError(
            f"caption length {tokens.shape[1]} exceeds max {config.max_words}"
        )
    if tokens.size and (tokens.min() < 0 or tokens.max() >= config.vocab):
        raise InputError("token id outside vocabulary")

    q = tokens.shape[0]
    seq = np.concatenate([tokens, np.full((q, 1), config.vocab - 1, dtype=np.intp)], axis=1)
    x = store["backbone/text/embed"][seq]
    return x + store["backbone/text/pos"][: seq.shape[1], :]
