"""Synthetic dataset generator tests."""

from dataclasses import replace

import numpy as np
import pytest

from tvadapt import data as data_mod
from tvadapt.config import toy_config
from tvadapt.data import _frozen_alignment, generate_dataset
from tvadapt.exceptions import InputError


def test_same_seed_is_bitwise_identical():
    cfg = toy_config()
    a = generate_dataset(4, 6, cfg)
    b = generate_dataset(4, 6, cfg)
    assert (a.videos == b.videos).all()
    assert (a.tokens == b.tokens).all()
    assert (a.latents == b.latents).all()


def test_different_seeds_differ():
    cfg = toy_config()
    a = generate_dataset(4, 6, cfg)
    b = generate_dataset(5, 6, cfg)
    assert not (a.videos == b.videos).all()


def test_minimal_two_pair_dataset():
    cfg = toy_config()
    data = generate_dataset(0, 2, cfg)
    assert len(data) == 2
    assert data.videos.shape == (2, cfg.frames, cfg.frame_h, cfg.frame_w, cfg.channels)
    with pytest.raises(InputError):
        generate_dataset(0, 1, cfg)


@pytest.mark.parametrize("counts", [(3, 4, 4), (4, 3, 4), (4, 4, 3)])
def test_counts_that_do_not_pair_up_are_an_input_error(counts):
    # 3 videos with 4 captions used to train silently on misaligned pairs,
    # and 4 videos with 3 captions to raise an IndexError inside train
    data = generate_dataset(0, 4, toy_config())
    videos, captions, latents = counts
    with pytest.raises(InputError, match=f"{videos} videos, {captions} captions and {latents}"):
        replace(data, videos=data.videos[:videos], tokens=data.tokens[:captions],
                latents=data.latents[:latents])


def test_too_small_vocab_raises_instead_of_looping():
    # vocab 3 leaves 2 usable ids, so 2 ** 4 = 16 distinct captions: enough
    # candidates for 8 pairs, not for 9 (the draw loop used to spin forever)
    cfg = toy_config(vocab=3, pairs=9)
    with pytest.raises(InputError, match="18 distinct 4-word captions, but vocab 3 gives only 16"):
        generate_dataset(0, 9, cfg)
    data = generate_dataset(0, 8, cfg)
    assert len({tuple(row) for row in data.tokens}) == 8


@pytest.mark.parametrize("max_words", [1, 3])
def test_max_words_below_caption_length_raises_before_any_video(max_words, monkeypatch):
    # validate accepts max_words 1-3, but every synthetic caption holds 4 words
    def render(*args):
        raise AssertionError("a video was rendered before the check")

    monkeypatch.setattr(data_mod, "_render_video", render)
    with pytest.raises(InputError, match=f"^max_words {max_words} is below the caption length 4$"):
        generate_dataset(0, 4, toy_config(max_words=max_words))


def test_captions_are_unique_and_in_vocab():
    cfg = toy_config()
    data = generate_dataset(1, 24, cfg)
    rows = {tuple(row) for row in data.tokens}
    assert len(rows) == 24
    assert data.tokens.min() >= 0
    assert data.tokens.max() < cfg.vocab - 1  # EOS id never appears in captions


def test_frame_varying_salience():
    # per-frame energy of the pattern content must not be flat over frames
    cfg = toy_config()
    data = generate_dataset(2, 8, cfg)
    energy = (data.videos**2).sum(axis=(2, 3, 4))
    spread = energy.std(axis=1) / energy.mean(axis=1)
    assert (spread > 0.05).all()


def test_paired_similarity_beats_random_under_frozen_towers():
    # generator property, measured over 100 pairs
    cfg = toy_config()
    data = generate_dataset(cfg.seed, 100, cfg)
    advantage = _frozen_alignment(cfg, data.videos, data.tokens)
    assert advantage.mean() > 0.0
