"""Retrieval head tests with brute-force ranking oracles."""

import numpy as np
import pytest

from tvadapt import tensor as T
from tvadapt.exceptions import ConfigError, ContractError, NumericError
from tvadapt.retrieval import (
    MetricsReport,
    SimilarityMatrix,
    contrastive_loss,
    dsl,
    metrics_report,
    rank_queries,
    similarity,
    text_embedding,
    video_embedding,
)
from tvadapt.tensor import ParamStore, Tensor, fd_check, rng_for


def brute_force_ranks(scores, gt_cols):
    """Independent oracle: full sort, all ties counted against the truth."""
    ranks = []
    for i, row in enumerate(scores):
        gt = row[gt_cols[i]]
        rank = 1
        for j, val in enumerate(row):
            if j != gt_cols[i] and val >= gt:
                rank += 1
        ranks.append(rank)
    return np.array(ranks)


# -- embeddings ---------------------------------------------------------------


def test_video_embedding_identical_frames_and_norm():
    rng = rng_for(0, "ve")
    w = Tensor(rng.normal(size=(6, 4)))
    frame = rng.normal(size=(1, 6))
    stack = Tensor(np.repeat(frame, 3, axis=0))
    multi = video_embedding(stack, w, np.zeros(4))
    single = video_embedding(Tensor(frame), w, np.zeros(4))
    np.testing.assert_allclose(multi.data, single.data, atol=1e-12)
    assert abs(np.linalg.norm(multi.data) - 1.0) < 1e-12


def test_video_embedding_matches_pool_project_normalize_oracle():
    rng = rng_for(1, "ve")
    f = rng.normal(size=(3, 6))
    w = rng.normal(size=(6, 4))
    b = rng.normal(size=4)
    got = video_embedding(Tensor(f), Tensor(w), Tensor(b)).data
    raw = (f.sum(0) / 3) @ w + b
    np.testing.assert_allclose(got, (raw / np.linalg.norm(raw))[None], atol=1e-12)


def test_text_embedding_unit_norm():
    z = text_embedding(Tensor(rng_for(2, "te").normal(size=(5, 4))))
    np.testing.assert_allclose(np.linalg.norm(z.data, axis=1), 1.0, atol=1e-12)


# -- similarity ---------------------------------------------------------------


def test_similarity_self_diagonal_and_orthogonal():
    rng = rng_for(3, "sim")
    x = rng.normal(size=(4, 6))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    s = similarity(Tensor(x), Tensor(x)).data
    np.testing.assert_allclose(np.diag(s), 1.0, atol=1e-12)
    a = np.array([[1.0, 0.0]])
    b = np.array([[0.0, 1.0]])
    assert similarity(Tensor(a), Tensor(b)).data[0, 0] == 0.0


def test_similarity_matches_dot_oracle():
    rng = rng_for(4, "sim")
    v = rng.normal(size=(2, 3))
    t = rng.normal(size=(2, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    s = similarity(Tensor(v), Tensor(t)).data
    for i in range(2):
        for j in range(2):
            assert abs(s[i, j] - v[i] @ t[j]) < 1e-15


# -- loss ----------------------------------------------------------------------


def test_loss_saturated_uniform_and_closed_form():
    log_tau = Tensor([0.0])
    big = contrastive_loss(Tensor(np.eye(3) * 1000.0), log_tau)
    assert big.item() < 1e-6

    flat = contrastive_loss(Tensor(np.full((4, 4), 0.37)), log_tau)
    np.testing.assert_allclose(flat.item(), np.log(4), atol=1e-12)

    got = contrastive_loss(Tensor(np.eye(2)), log_tau)
    want = -np.log(np.e / (np.e + 1.0))
    np.testing.assert_allclose(got.item(), want, atol=1e-12)


def test_loss_rejects_nonsquare():
    with pytest.raises(ContractError):
        contrastive_loss(Tensor(np.zeros((2, 3))), Tensor([0.0]))


def test_loss_gradients_pass_fd():
    rng = rng_for(5, "loss")
    store = ParamStore()
    store.add("s", Tensor(rng.normal(size=(4, 4))))
    store.add("log_tau", Tensor([0.4]))
    err = fd_check(lambda st: contrastive_loss(st["s"], st["log_tau"]), store, eps=1e-5)
    assert err < 1e-4


# -- metrics --------------------------------------------------------------------


def test_recall_identity_dominant_and_antidiagonal():
    sim = SimilarityMatrix(np.eye(4) * 5.0)
    assert metrics_report(sim, "video->text").r_at[1] == 1.0
    anti = SimilarityMatrix(np.fliplr(np.eye(3)) * 5.0 + 0.1)
    assert metrics_report(anti, "video->text").r_at[1] < 1.0


def test_recall_rejects_bad_k():
    with pytest.raises(ConfigError):
        metrics_report(SimilarityMatrix(np.eye(2)), "video->text", ks=(1, 0))


def test_ranking_rejects_unknown_direction():
    with pytest.raises(ConfigError, match="unknown retrieval direction 'sideways'"):
        rank_queries(SimilarityMatrix(np.eye(2)), "sideways")


@pytest.mark.parametrize("pairing", [[0, 0, 2], [0, 1, 5], [-1, 0, 1], [[0, 1, 2]],
                                     [0.9, 1.0, 2.0]])
def test_similarity_matrix_rejects_a_pairing_that_is_not_a_permutation(pairing):
    with pytest.raises(ContractError):
        SimilarityMatrix(np.eye(3), video_to_text=pairing)


def test_ranking_rejects_rectangular_matrices():
    with pytest.raises(ContractError):
        metrics_report(SimilarityMatrix(np.zeros((2, 3))), "video->text")


def test_rank_stats_two_point():
    s = np.array([[5.0, 1.0], [4.0, 3.0]])
    # text 1's rank for video 1: 3.0 vs 1.0 -> rank 2? build ranks {1, 2}
    sim = SimilarityMatrix(s)
    rep = metrics_report(sim, "video->text")
    assert (rep.mdr, rep.mnr) == (1.5, 1.5)
    perfect = metrics_report(SimilarityMatrix(np.eye(5) + 1e-3), "video->text")
    assert (perfect.mdr, perfect.mnr) == (1.0, 1.0)


def test_two_queries_with_ranks_one_and_three():
    # ranks {1, 3} must give MdR 2, MnR 2
    s = np.array([[9.0, 1.0, 1.0], [8.0, 2.0, 7.0], [0.0, 0.5, 6.0]])
    ranks = brute_force_ranks(s[:2], [0, 1])
    np.testing.assert_array_equal(ranks, [1, 3])
    assert float(np.median(ranks)) == 2.0 and float(ranks.mean()) == 2.0


def test_metrics_match_bruteforce_oracle_on_random_matrices():
    rng = rng_for(6, "oracle")
    for _ in range(100):
        n = int(rng.integers(2, 51))
        s = rng.normal(size=(n, n))
        perm = rng.permutation(n)
        sim = SimilarityMatrix(s, video_to_text=perm)
        ranks = brute_force_ranks(s, perm)
        rep = metrics_report(sim, "video->text")
        for k in (1, 5, 10):
            assert rep.r_at[k] == (ranks <= k).mean()
        assert rep.mdr == float(np.median(ranks)) and rep.mnr == float(ranks.mean())
        # and the other direction
        inv = np.empty_like(perm)
        inv[perm] = np.arange(n)
        ranks_t = brute_force_ranks(s.T, inv)
        assert metrics_report(sim, "text->video").r_at[1] == (ranks_t <= 1).mean()


def test_recall_monotone_in_k():
    rng = rng_for(7, "mono")
    for _ in range(20):
        sim = SimilarityMatrix(rng.normal(size=(12, 12)))
        vals = list(metrics_report(sim, "video->text", ks=range(1, 13)).r_at.values())
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_pessimistic_ties_count_against_ground_truth():
    s = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    sim = SimilarityMatrix(s)
    ranks = [2, 2, 1]  # every tie outranks the diagonal
    rep = metrics_report(sim, "video->text")
    assert rep.r_at[1] == pytest.approx(1 / 3)
    assert rep.mdr == 2.0 and rep.mnr == pytest.approx(np.mean(ranks))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("direction", ["video->text", "text->video"])
def test_non_finite_scores_raise_naming_the_direction(bad, direction):
    scores = np.eye(4) + 0.01
    scores[1, 2] = bad
    with pytest.raises(NumericError, match=direction):
        metrics_report(SimilarityMatrix(scores), direction)


def test_metrics_report_shape():
    rep = metrics_report(SimilarityMatrix(np.eye(6) + 0.01), "video->text")
    assert rep.r_at[1] == 1.0 and rep.mdr == 1.0 and rep.mnr == 1.0
    d = rep.to_dict()
    assert d["direction"] == "video->text" and d["r@5"] == 1.0
    assert isinstance(rep.row(), str)


# -- dual softmax -----------------------------------------------------------------


def test_dsl_single_entry():
    out = dsl(SimilarityMatrix(np.array([[0.3]])))
    np.testing.assert_allclose(out.scores, [[1.0]])


def test_dsl_preserves_dominant_permutation_argmax():
    rng = rng_for(8, "dsl")
    for _ in range(20):
        n = 5
        perm = rng.permutation(n)
        s = rng.uniform(-0.2, 0.2, size=(n, n))
        s[np.arange(n), perm] = 1.0  # one dominant entry per row and per column
        out = dsl(SimilarityMatrix(s))
        np.testing.assert_array_equal(out.scores.argmax(axis=1), s.argmax(axis=1))


def test_dsl_can_fix_an_ambiguous_matrix():
    # hub column 1 attracts row 0's raw argmax; DSL devalues it
    s = np.array([[0.90, 0.91], [0.20, 0.99]])
    raw = SimilarityMatrix(s)
    fixed = dsl(raw)
    assert metrics_report(raw, "video->text").r_at[1] == 0.5
    assert metrics_report(fixed, "video->text").r_at[1] == 1.0
