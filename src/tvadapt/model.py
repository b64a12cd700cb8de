"""Assembles the frozen towers with the trainable adapter set.

Trainable pieces: per-layer video scale/shift factors, per-layer text
scale/shift, the layer-shared warp offsets, the shared visual-to-text
projection (used by sentence selection, patch selection, and the
retrieval head), and the loss temperature. Everything else is frozen.

Video encoding with warped attention needs the most video-aligned
candidate sentence per video. That is picked from a gradient-free
preliminary pass (no attention hook, current modulation): selection is
a hard argmax, so re-deriving it without a tape changes no gradients.

Every reader of the video tower (the prepass, ``encode_videos`` and the
similarity map) runs it through ``AdapterModel.video_tower``. A pass
that records no tape runs there over blocks of videos, each block
through the whole tower, so that a block's activations stay in cache.
The blocks run on every usable core: the caller and one worker process
forked per further core each take a contiguous, equal share of the
videos and run it in blocks (``workers.map_shares``). With one usable
core, no ``os.fork``, another live thread, or inside a worker, the
blocks run inline in the caller. Every tower op acts on each video
(frame) alone, so the blocks are bitwise one pass. A taped pass is one
tower call; inside it, each unhooked frozen block whose input reaches a
size floor splits its rows over helper threads on every usable core
(``backbone.vit_block``), bitwise one block too.

An ASA tower pass is one ``ASAPass``: it builds the offsets' warp plan
once, and each block of it picks its own videos' sentences
(``ASAPass.hooks``) just before its warped pass, in the same share, so
the prepass runs inline there as one block and a tape-free pass forks
its workers once. The pick is a per-video argmax, so this is bitwise
one pick over the batch; a taped pass makes one pick for its one block.

Training starts its passes from each tower's frozen prefix
(``frozen_prefix``), which the ``train`` call builds once and alone holds.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .attention import OffsetParams, SelectionMode, asa_kv, selection_masks, warp_plan
from .backbone import encode_text, encode_video, init_backbone
from .exceptions import InputError
from .modulation import TextModulation, VideoModulation
from .retrieval import similarity, contrastive_loss, text_embedding, video_embedding
from .tensor import ParamStore, Tensor, no_grad, rng_for
from .workers import map_shares

# Token rows (videos x T x (N+1)) per block of a tape-free video-tower pass.
# A block's MLP hidden array (0.5 MB on the toy config) fits the L2 of the
# core that runs it, and the 16-video toy batch (480 rows) stays one block.
# An ASA block's sentence pick runs over the same rows just before it.
# In the threaded sweep in BENCH_14.json, 1,024 rows (the serial optimum of
# BENCH_13.json) was faster still, but with a block live on each core it
# raised eval peak RSS by 6-7 %; 512 rows kept the rise within 3 %.
_BLOCK_ROWS = 512


ADAPTER_GROUPS = {
    "lorm_visual": "adapter/lorm/",
    "lorm_text": "adapter/textmod/",
    "asa_offsets": "adapter/asa/",
    "proj": "adapter/proj/",
    "temperature": "adapter/temperature/",
}


def build_adapters(config, store):
    """Register all trainable adapter parameters; returns the handles.

    Kept separate from backbone construction so parameter counting can
    instantiate adapters at full scale without allocating tower weights.
    """
    video_mod = VideoModulation(
        store, config.decompose, config.visual_adapter_layers(), config.rank,
        config.frames, config.patches + 1, config.dim_v, config.seed,
    )
    text_layers = config.text_adapter_layers() if config.text_modulation else []
    text_mod = TextModulation(
        store, text_layers, config.dim_t, config.seed,
        lowrank=config.text_lowrank, rank=config.rank, positions=config.max_words + 1,
    )
    offsets = None
    if config.asa:
        offsets = OffsetParams(store, config.patches, config.frames, config.warp_axes)
    rng = rng_for(config.seed, "adapter/proj")
    proj_w = store.add("adapter/proj/w",
                       Tensor(rng.normal(size=(config.dim_v, config.dim_t)) / np.sqrt(config.dim_v)))
    proj_b = store.add("adapter/proj/b", Tensor(np.zeros(config.dim_t)))
    log_tau = store.add("adapter/temperature/log_tau", Tensor(np.array([2.0])))
    return video_mod, text_mod, offsets, proj_w, proj_b, log_tau


class AdapterModel:
    def __init__(self, config):
        self.config = config
        self.store = ParamStore()
        init_backbone(self.store, config)
        (self.video_mod, self.text_mod, self.offsets,
         self.proj_w, self.proj_b, self.log_tau) = build_adapters(config, self.store)

    # -- encoding ------------------------------------------------------------

    def prefix_layers(self):
        """Layer f of the (video, text) tower: the first its modulation hook acts on, else its last."""
        return (min(self.video_mod.layers, default=self.config.layers),
                min(self.text_mod.layers, default=self.config.text_layers))

    def frozen_prefix(self, videos, tokens):
        """(video states, text states): each tower's frozen prefix over a set of pairs.

        A tower's prefix is the output of its block f (``prefix_layers``),
        before that layer's modulation, so it depends on the frozen weights
        and the inputs alone. Video states are (P, T, N+1, D_v), or the CLS
        rows (P, T, 1, D_v) when f is the last block; text states are
        (P, S, D_t): one D-wide row per token per pair. Built tape-free,
        the video states in blocks on every usable core (``video_tower``).
        """
        video_layer, text_layer = self.prefix_layers()
        with no_grad():
            video = self.video_tower(videos, stop=video_layer)
            text = encode_text(tokens, self.store, self.config, stop=text_layer)
        return video.data, text.data

    def encode_texts(self, tokens, states=None):
        """Normalized sentence embeddings (Q, D_t) for a token batch.

        With ``states``, these tokens' text rows of ``frozen_prefix``, the
        tower starts after block f from them.
        """
        source, start = (tokens, 0) if states is None else (states, self.prefix_layers()[1])
        return text_embedding(encode_text(source, self.store, self.config,
                                          modulate=self.text_mod.apply, start=start))

    def video_tower(self, videos, attention=lambda rows: {}, states=None, stop=None):
        """Final frame CLS rows (..., T, D) of the adapted video tower.

        ``attention(rows)`` is the attention hook map for the videos at
        ``rows``, called by the block that runs them, in its share, just
        before its tower call (``ASAPass.hooks`` picks those videos'
        sentences there). With ``states``, these videos' rows of
        ``frozen_prefix``, the tower starts after block f from them, so
        ``attention`` may hold no hook at or before f. With ``stop``, it returns the output of
        block ``stop`` before its modulation (``encode_video``).
        With no tape recording, a batch is cut into contiguous, equal
        shares of videos, one per usable process but no more than there
        are blocks (``map_shares``), and each share runs in blocks of at
        most ``_BLOCK_ROWS`` token rows (at least one video each). A share
        may run in a forked worker, so what ``attention``'s hooks write
        there does not reach the caller. A taped pass, an unbatched
        (T, H, W, C) video or an empty batch is one call of the tower.
        """
        source, start = (videos, 0) if states is None else (states, self.prefix_layers()[0])

        def tower(rows):
            return encode_video(source[rows], self.store, self.config, modulate=self.video_mod.apply,
                                attention=attention(rows), start=start, stop=stop)

        lead = np.shape(videos)[:-4]
        if not lead or not lead[0] or T.recording():
            return tower(slice(None))
        rows = int(np.prod(lead[1:])) * self.config.frames * (self.config.patches + 1)
        step = max(1, _BLOCK_ROWS // rows)

        def share(part):
            return [tower(slice(i, min(i + step, part.stop))).data
                    for i in range(part.start, part.stop, step)]

        shares = map_shares(share, lead[0], most=-(-lead[0] // step))
        return Tensor(np.concatenate([block for part in shares for block in part]))

    def _pick_sentences(self, videos, candidates, states=None):
        """Index of the most video-aligned candidate per video (no grad).

        Hard argmax of Proj(mean-pooled last-layer frame features) against
        each candidate row; ties go to the lowest candidate index. The
        pass attends with no hook, so it can start from ``states``, the
        videos' rows of ``frozen_prefix``.
        """
        candidates = np.asarray(candidates)
        shape_ok = candidates.ndim == 2 and candidates.shape[1] == self.config.dim_t
        if not shape_ok or candidates.shape[0] == 0:
            raise InputError(
                f"candidate sentences must be a non-empty (Q, {self.config.dim_t}) array, "
                f"got shape {candidates.shape}"
            )
        with no_grad():
            pooled = self.video_tower(videos, states=states).data.mean(axis=-2)
        probe = pooled @ self.proj_w.data + self.proj_b.data
        scores = probe @ candidates.T
        return scores.argmax(axis=-1)

    def encode_videos(self, videos, candidates=None, sel_key=("eval",), states=None):
        """Normalized video embeddings (V, D_t).

        ``candidates``: detached (Q, D_t) sentence embeddings used by
        text-conditioned selection -- the batch's sentences in training,
        the full query set at evaluation. The tower runs through
        ``video_tower`` with one ``ASAPass``, whose ``hooks`` pick each
        block's sentences before its warped pass, so a tape-free pass fans
        out to the workers once. ``states``, the videos' rows of
        ``frozen_prefix``, serve the sentence pick, and the pass itself
        with ASA off (ASA hooks the block that ends the prefix).
        """
        if self.config.asa:
            asa = ASAPass(self, videos, candidates, sel_key, states)
            f_last = self.video_tower(videos, asa.hooks)
        else:
            f_last = self.video_tower(videos, states=states)
        emb = video_embedding(f_last, self.proj_w, self.proj_b)
        return T.reshape(emb, (-1, self.config.dim_t))

    # -- objective -------------------------------------------------------------

    def batch_scores(self, videos, tokens, sel_key=("eval",), prefix=None):
        """(similarity Tensor, video emb, text emb) for paired batches.

        ``prefix``: the batch's rows of ``frozen_prefix``, if held.
        """
        video_states, text_states = (None, None) if prefix is None else prefix
        z = self.encode_texts(tokens, text_states)
        v = self.encode_videos(videos, candidates=z.data, sel_key=sel_key, states=video_states)
        return similarity(v, z), v, z

    def batch_loss(self, videos, tokens, sel_key, prefix=None):
        scores, _, _ = self.batch_scores(videos, tokens, sel_key=sel_key, prefix=prefix)
        return contrastive_loss(scores, self.log_tau)


class ASAPass:
    """One ASA pass of the video tower: its warp plans, sentence picks and masks.

    The offsets are fixed during a pass, so it builds their two axis plans
    (``warp_plan``) once, when it starts. Random mode draws each adapted
    layer's mask for the whole batch there too, in layer order, from the
    ``randsel`` stream keyed by ``sel_key``: ``selection_masks`` ranks one
    uniform draw per layer, so no share or block boundary changes a mask.
    ``hooks`` is the attention map ``video_tower`` takes; each hook returns
    its block's keys and values warped under that layer's patch mask
    (``asa_kv``). A pass is built per call and the model holds none.
    """

    def __init__(self, model, videos, candidates=None, sel_key=("eval",), states=None):
        cfg = model.config
        self.model, self.videos, self.states = model, videos, states
        self.mode = SelectionMode(cfg.selection)
        self.plans = warp_plan(model.offsets, cfg.frames, cfg.patches)
        self.drawn = {}
        if self.mode is SelectionMode.RANDOM:  # a draw reads only the mask's shape
            rng = rng_for(cfg.seed, "randsel", *sel_key)
            shape = (*np.shape(videos)[:-4], cfg.frames, cfg.patches, 0)
            self.drawn = {layer: selection_masks(self.mode, cfg.top_k, np.empty(shape), rng=rng)
                          for layer in cfg.visual_adapter_layers()}
        text = self.mode in (SelectionMode.TEXT_TOP_K, SelectionMode.TEXT_BOTTOM_K)
        if text and candidates is None:
            raise InputError("text-conditioned selection needs candidate sentences")
        self.candidates = np.asarray(candidates) if text else None

    def hooks(self, rows):
        """ASA at every adapted layer for the videos at ``rows``.

        In the text modes it first picks those videos' sentences
        (``_pick_sentences``, from their rows of ``states``), so a
        tape-free tower pass picks each block's inside the share that runs
        the block. Each layer's mask is then selected from its block input.
        """
        model, cfg = self.model, self.model.config
        w_star = None
        if self.candidates is not None:
            states = None if self.states is None else self.states[rows]
            picked = model._pick_sentences(self.videos[rows], self.candidates, states)
            w_star = self.candidates[picked]

        def hook(layer):
            def attend(x_in, q, k, v):
                x = x_in.data
                mask = self.drawn[layer][rows] if self.drawn else selection_masks(
                    self.mode, cfg.top_k, x[..., 1:, :], w_star=w_star,
                    proj_w=model.proj_w.data, proj_b=model.proj_b.data, cls_feats=x[..., 0, :])
                return asa_kv(k, v, self.plans, mask)
            return attend

        return {layer: hook(layer) for layer in cfg.visual_adapter_layers()}
