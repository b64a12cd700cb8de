"""Synthetic paired video/caption data for the desk-scale harness.

Each item draws a latent vector that deterministically yields both a
caption (quantized latent components as token ids) and a procedural
video (per-token patch patterns whose intensity peaks at a
latent-chosen frame, so informative content moves across frames). Pairs
share their latent, making paired items mutually most-similar in latent
space by construction.

Random frozen towers do not align the two modalities on their own the
way a pretrained model would, so the generator oversamples candidates
and keeps the ones whose video/caption embeddings already agree under
the untouched towers with the seed-derived projection head. That stands
in for pretraining alignment and makes paired similarity beat
random-pair similarity at initialization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .exceptions import InputError
from .tensor import no_grad, rng_for


@dataclass
class SyntheticDataset:
    videos: np.ndarray  # (P, T, H, W, C)
    tokens: np.ndarray  # (P, words)
    latents: np.ndarray  # (P, d)
    seed: int

    def __post_init__(self):
        counts = (len(self.videos), len(self.tokens), len(self.latents))
        if len(set(counts)) != 1:
            raise InputError("{} videos, {} captions and {} latents do not pair up".format(*counts))

    def __len__(self):
        return self.videos.shape[0]


_WORDS = 4
_LATENT = 8


def _gauss_cdf(x):
    # cheap Phi(x) without scipy in the data path; monotone is all we need
    return 0.5 * (1.0 + np.tanh(x * 0.7978845608 * (1.0 + 0.044715 * x * x)))


def _tokens_from_latent(z, vocab):
    """Quantize the first latent components into caption token ids."""
    usable = vocab - 1  # last id is reserved for EOS
    return np.floor(_gauss_cdf(z[:_WORDS]) * usable).astype(np.intp).clip(0, usable - 1)


def _render_video(z, tokens, patterns, config, rng):
    """Patch patterns with frame-varying salience, plus faint noise."""
    t_n, n_n, p = config.frames, config.patches, config.patch
    gw = config.frame_w // p
    video = rng.normal(size=(t_n, config.frame_h, config.frame_w, config.channels)) * 0.05
    slots = rng_for(int(tokens[0]) * 977 + int(tokens[1]), "slots").permutation(n_n)[:_WORDS]
    peaks = np.floor(_gauss_cdf(z[_WORDS : _WORDS + _WORDS]) * t_n).clip(0, t_n - 1)
    frames = np.arange(t_n, dtype=np.float64)
    for j, (tok, slot) in enumerate(zip(tokens, slots)):
        salience = np.exp(-0.5 * ((frames - peaks[j]) / 1.2) ** 2)
        block = patterns[tok].reshape(p, p, config.channels)
        row, col = divmod(int(slot), gw)
        video[:, row * p : (row + 1) * p, col * p : (col + 1) * p, :] += (
            salience[:, None, None, None] * block
        )
    return video


def _frozen_alignment(config, videos, tokens):
    """Paired cosine scores of candidates under the untouched towers."""
    from .model import AdapterModel

    baseline = replace(
        config, decompose="none", asa=False, text_modulation=False, text_lowrank=False,
    )
    model = AdapterModel(baseline)
    with no_grad():
        z = model.encode_texts(tokens)
        v = model.encode_videos(videos)
    sims = v.data @ z.data.T
    paired = np.diag(sims)
    cross = (sims.sum(axis=1) - paired) / (sims.shape[1] - 1)
    return paired - cross


def generate_dataset(seed, pairs, config):
    """Deterministic paired dataset of ``pairs`` videos and captions."""
    if pairs < 2:
        raise InputError(f"need at least 2 pairs, got {pairs}")
    if config.max_words < _WORDS:
        raise InputError(f"max_words {config.max_words} is below the caption length {_WORDS}")
    captions = (config.vocab - 1) ** _WORDS  # the last id is EOS
    if captions < 2 * pairs:
        raise InputError(f"{pairs} pairs need {2 * pairs} distinct {_WORDS}-word captions, "
                         f"but vocab {config.vocab} gives only {captions}")
    rng = rng_for(seed, "dataset")
    patterns = rng_for(seed, "dataset", "patterns").normal(
        size=(config.vocab, config.patch * config.patch * config.channels)
    )

    n_cand = 2 * pairs
    latents = np.zeros((n_cand, _LATENT))
    tokens = np.zeros((n_cand, _WORDS), dtype=np.intp)
    seen = set()
    filled = 0
    while filled < n_cand:
        z = rng.normal(size=_LATENT)
        tok = _tokens_from_latent(z, config.vocab)
        key = tuple(tok)
        if key in seen:
            continue
        seen.add(key)
        latents[filled] = z
        tokens[filled] = tok
        filled += 1

    videos = np.stack([
        _render_video(latents[i], tokens[i], patterns, config, rng_for(seed, "dataset", "video", i))
        for i in range(n_cand)
    ])

    advantage = _frozen_alignment(config, videos, tokens)
    keep = np.sort(np.argsort(-advantage, kind="stable")[:pairs])
    return SyntheticDataset(
        videos=videos[keep], tokens=tokens[keep], latents=latents[keep], seed=seed,
    )
