#!/usr/bin/env python3
"""Retrieval head: similarity, contrastive loss, rank metrics, dual softmax."""

import numpy as np

from tvadapt.retrieval import (
    SimilarityMatrix,
    contrastive_loss,
    dsl,
    metrics_report,
)
from tvadapt.tensor import Tensor, rng_for

print("=== contrastive loss ===")
log_tau = Tensor([0.0])
print(f"saturated correct pairs  -> loss {contrastive_loss(Tensor(np.eye(3) * 50), log_tau).item():.4f}")
print(f"indifferent 4x4 scores   -> loss {contrastive_loss(Tensor(np.full((4, 4), 0.2)), log_tau).item():.4f}"
      f"  (ln 4 = {np.log(4):.4f})")

print("\n=== ranking metrics ===")
rng = rng_for(0, "demo")
scores = rng.normal(size=(8, 8)) * 0.1
scores[np.arange(8), np.arange(8)] += np.linspace(0.5, -0.1, 8)  # degrade later pairs
sim = SimilarityMatrix(scores)
for direction in ("video->text", "text->video"):
    print(metrics_report(sim, direction).row())
rep = metrics_report(sim, "video->text", ks=(1, 2, 4, 8))
print("R@k grows with k:", [round(r, 3) for r in rep.r_at.values()])
print("median/mean rank:", (rep.mdr, rep.mnr))

print("\n=== ties count against the ground truth ===")
tied = SimilarityMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
rep = metrics_report(tied, "video->text")
print("rank of a tied diagonal entry is 2 ->", (rep.mdr, rep.mnr))

print("\n=== dual-softmax rescoring ===")
s = np.array([[0.90, 0.91], [0.20, 0.99]])  # column 1 is a hub
raw = SimilarityMatrix(s)
fixed = dsl(raw)
print("raw scores:")
print(s)
print("row argmax before:", s.argmax(axis=1), " R@1 =", metrics_report(raw, "video->text").r_at[1])
print("rescored:")
print(np.array2string(fixed.scores, precision=4, suppress_small=True))
print("row argmax after: ", fixed.scores.argmax(axis=1), " R@1 =", metrics_report(fixed, "video->text").r_at[1])
