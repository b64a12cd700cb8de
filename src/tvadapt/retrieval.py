"""Retrieval head: pooled embeddings, similarity, loss, ranking metrics.

Video embeddings mean-pool the final-layer frame CLS features, project
them into the text dimension, and L2-normalize; text embeddings are the
normalized sentence features. The training objective is a symmetric
InfoNCE over the cosine similarity matrix with a trainable temperature.
Evaluation reports R@K, median rank, and mean rank in both retrieval
directions, with ranking ties resolved pessimistically (tied competitors
count against the ground truth). Dual-softmax rescoring is available as
an inference-time post-process.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .exceptions import ConfigError, ContractError, NumericError
from .tensor import Tensor


@dataclass
class SimilarityMatrix:
    """V x Q score matrix with a bijective video -> text pairing."""

    scores: np.ndarray
    video_to_text: np.ndarray = None

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.video_to_text is None:
            n = min(self.scores.shape)
            self.video_to_text = np.arange(n)
        pairing = np.asarray(self.video_to_text)
        if (pairing.ndim != 1 or pairing.dtype.kind not in "iu"
                or (np.sort(pairing) != np.arange(pairing.size)).any()):
            raise ContractError(
                f"video->text pairing is not a permutation of range({pairing.size})"
            )
        self.video_to_text = pairing.astype(np.intp, copy=False)


@dataclass
class MetricsReport:
    direction: str
    r_at: dict
    mdr: float
    mnr: float
    queries: int = 0

    def to_dict(self):
        return {
            "direction": self.direction,
            **{f"r@{k}": v for k, v in sorted(self.r_at.items())},
            "mdr": self.mdr,
            "mnr": self.mnr,
            "queries": self.queries,
        }

    def row(self):
        cells = [f"{self.direction:<12}"]
        cells += [f"R@{k}={v:.3f}" for k, v in sorted(self.r_at.items())]
        cells += [f"MdR={self.mdr:.1f}", f"MnR={self.mnr:.2f}"]
        return "  ".join(cells)


def video_embedding(frame_feats, proj_w, proj_b):
    """Mean-pool frame features over T, project to D_t, L2-normalize."""
    pooled = T.mean(frame_feats, axis=-2, keepdims=True)
    return T.l2_normalize(T.matmul(pooled, proj_w) + proj_b, axis=-1)


def text_embedding(sentence_feats):
    return T.l2_normalize(sentence_feats, axis=-1)


def similarity(videos, texts):
    """Cosine scores s[i][j] = video_i . text_j for unit-norm rows."""
    return T.matmul(videos, T.swapaxes(texts, -1, -2))


def contrastive_loss(scores, log_tau):
    """Symmetric cross-entropy over a square score matrix (diagonal GT).

    mean over rows of -log softmax(tau * s)[i][i], plus the column-wise
    analogue, halved. tau is carried as a log-parameter so it stays
    positive.
    """
    v, q = scores.shape
    if v != q:
        raise ContractError(f"contrastive loss needs a square matrix, got {v}x{q}")
    logits = scores * T.exp(log_tau)
    diag = logits[np.arange(v), np.arange(v)]
    row_loss = T.mean(T.logsumexp(logits, axis=1) - diag)
    col_loss = T.mean(T.logsumexp(logits, axis=0) - diag)
    return 0.5 * (row_loss + col_loss)


def _ranks(scores, gt_cols):
    """Pessimistic 1-based rank of each row's ground-truth column."""
    gt_vals = scores[np.arange(scores.shape[0]), gt_cols]
    better_or_tied = (scores >= gt_vals[:, None]).sum(axis=1)
    return better_or_tied  # the >= count includes the ground truth itself


def rank_queries(sim, direction):
    """Ranks for every query in one direction of a SimilarityMatrix.

    video->text ranks the texts for each video row; text->video ranks
    the videos for each text column. Needs a bijective pairing, i.e. a
    square matrix with one ground-truth column per row. Non-finite
    scores raise ``NumericError``: a NaN compares false with everything,
    so it would rank its ground truth first.
    """
    s = sim.scores
    if len(sim.video_to_text) != s.shape[0] or s.shape[0] != s.shape[1]:
        raise ContractError(
            f"ranking needs a square matrix with a full pairing, got {s.shape}"
        )
    if not np.isfinite(s).all():
        raise NumericError(f"non-finite similarity scores, cannot rank {direction}")
    if direction == "video->text":
        return _ranks(s, sim.video_to_text)
    if direction == "text->video":
        text_to_video = np.empty_like(sim.video_to_text)
        text_to_video[sim.video_to_text] = np.arange(len(sim.video_to_text))
        return _ranks(s.T, text_to_video)
    raise ConfigError(f"unknown retrieval direction {direction!r}")


def metrics_report(sim, direction, ks=(1, 5, 10)):
    """R@K for every K in ``ks``, median and mean rank (1-based), one direction."""
    if min(ks, default=1) < 1:
        raise ConfigError(f"recall needs k >= 1, got ks={tuple(ks)}")
    ranks = rank_queries(sim, direction)
    mdr, mnr = float(np.median(ranks)), float(ranks.mean())
    r_at = {k: float((ranks <= k).mean()) for k in ks}
    return MetricsReport(direction=direction, r_at=r_at, mdr=mdr, mnr=mnr, queries=len(ranks))


# inverse temperature of dual-softmax rescoring, applied to the cosine scores
DSL_INV_TEMP = 100.0


def dsl(sim):
    """Dual-softmax rescoring: row softmax times column softmax.

    Scores are scaled by ``DSL_INV_TEMP`` first. Inference-time only;
    returns a new SimilarityMatrix ranked in place of the raw scores.
    """
    s = Tensor(sim.scores * DSL_INV_TEMP)
    scores = T.softmax(s, axis=1).data * T.softmax(s, axis=0).data
    return SimilarityMatrix(scores=scores, video_to_text=sim.video_to_text.copy())
