"""Training loop: Adam over the adapter set with warmup-cosine schedule."""

from __future__ import annotations

import json
import sys

import numpy as np

from .attention import SelectionMode
from .exceptions import ContractError, NumericError
from .model import AdapterModel
from .retrieval import SimilarityMatrix, contrastive_loss, dsl, metrics_report
from .tensor import no_grad, rng_for


class Adam:
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self):
        self.m = {}
        self.v = {}
        self.t = 0

    def step(self, store, lr):
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for name, p in store.trainable_items():
            if p.grad is None:
                continue
            if name not in self.m:
                self.m[name], self.v[name] = np.zeros_like(p.data), np.zeros_like(p.data)
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * p.grad * p.grad
            p.data -= lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def lr_at(step, total_steps, base_lr, warmup_frac):
    """Linear warmup over the first fraction, then cosine decay to zero."""
    warm = int(round(total_steps * warmup_frac))
    if step < warm:
        return base_lr * (step + 1) / warm
    span = max(1, total_steps - warm)
    progress = (step - warm) / span
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * progress))


def evaluate_model(model, dataset, use_dsl=False, prefix=None):
    """MetricsReports for both retrieval directions (optionally with DSL).

    ``prefix``: ``model.frozen_prefix`` of the dataset, if the caller holds
    it; without it the towers run from the raw inputs.
    """
    with no_grad():
        scores, _, _ = model.batch_scores(dataset.videos, dataset.tokens, prefix=prefix)
    return score_reports(scores.data, use_dsl)


def score_reports(scores, use_dsl=False):
    """MetricsReports for both retrieval directions of a (V, Q) score matrix."""
    sim = SimilarityMatrix(scores)
    reports = {
        "video->text": metrics_report(sim, "video->text"),
        "text->video": metrics_report(sim, "text->video"),
    }
    if use_dsl:
        rescored = dsl(sim)
        reports["video->text (dsl)"] = metrics_report(rescored, "video->text")
        reports["text->video (dsl)"] = metrics_report(rescored, "text->video")
    return reports


def _nan_dump(model, step, loss_log):
    payload = {
        "step": step,
        "recent_losses": loss_log[-20:],
        "param_norms": {
            name: float(np.linalg.norm(t.data))
            for name, t in model.store.trainable_items()
        },
    }
    sys.stderr.write("training aborted on non-finite loss\n")
    sys.stderr.write(json.dumps(payload, indent=2) + "\n")


def train(config, dataset, model=None, max_steps=None, eval_each_epoch=True,
          progress=None):
    """Optimize the adapters on a paired dataset.

    Returns (model, history, steps_done); history holds one entry per
    epoch with the mean loss and both retrieval reports. Deterministic
    for a fixed config: batch order, random selection, and init all key
    off config.seed.

    Everything a tower computes up to its first modulated block depends
    only on the frozen weights and the inputs, so before the first step
    ``train`` builds each tower's frozen prefix over the training set once
    (``AdapterModel.frozen_prefix``: one D-wide row per token per pair,
    below the activation cap that ``validate`` enforces), and every step
    and evaluation below starts from its rows. The prefix lives for this
    call only; a call that runs no step builds none.

    When one batch holds every pair and patch selection is deterministic
    (ASA off, or any selection but ``random``), the per-epoch evaluation
    and the next step's forward score the same pairs at the same
    parameters with the same selection. The evaluation then runs that
    step's taped forward once, reads the epoch's reports off its scores
    (bitwise those of ``evaluate_model``), and the step only adds the
    loss. Otherwise, and after the last step, ``eval_each_epoch`` calls
    ``evaluate_model`` as usual. ``progress`` receives each epoch's
    entry; it may read the model but must not change its parameters,
    because the carried-over scores were computed before it ran.
    """
    if model is None:
        model = AdapterModel(config)
    n = len(dataset)
    batch = min(config.batch_size, n)
    steps_per_epoch = (n + batch - 1) // batch
    total_steps = config.epochs * steps_per_epoch
    if max_steps is not None:
        total_steps = min(total_steps, max_steps)
    opt = Adam()
    history = []
    loss_log = []
    step = 0
    # one full batch (order is arange(n)) and a selection drawn the same at
    # train and eval keys: the epoch's evaluation is the next step's forward
    reuse_forward = eval_each_epoch and batch >= n and not (
        config.asa and config.selection == SelectionMode.RANDOM
    )
    carried = None  # the next step's taped scores, computed by the evaluation
    prefix = model.frozen_prefix(dataset.videos, dataset.tokens) if total_steps else None
    for epoch in range(1, config.epochs + 1):
        if step >= total_steps:
            break
        if batch >= n:
            order = np.arange(n)  # one full batch: shuffling only reorders sums
        else:
            order = rng_for(config.seed, "order", epoch).permutation(n)
        epoch_losses = []
        for start in range(0, n, batch):
            if step >= total_steps:
                break
            if carried is None:
                idx = order[start : start + batch]
                loss = model.batch_loss(
                    dataset.videos[idx], dataset.tokens[idx], sel_key=("train", step),
                    prefix=tuple(states[idx] for states in prefix),
                )
            else:
                loss = contrastive_loss(carried, model.log_tau)
                carried = None
            if not loss.requires_grad and model.store.trainable_count:
                raise ContractError(
                    f"loss at step {step} carries no tape (called under no_grad?); "
                    "the trainable adapters would never change"
                )
            value = loss.item()
            if not np.isfinite(value):
                _nan_dump(model, step, loss_log)
                raise NumericError(f"non-finite loss {value} at step {step}")
            loss_log.append(value)
            epoch_losses.append(value)
            model.store.zero_grad()
            loss.backward()
            opt.step(model.store, lr_at(step, total_steps, config.lr, config.warmup))
            step += 1
        entry = {"epoch": epoch, "steps": step, "loss": float(np.mean(epoch_losses))}
        if reuse_forward and step < total_steps:
            carried, _, _ = model.batch_scores(
                dataset.videos, dataset.tokens, sel_key=("train", step), prefix=prefix
            )
            entry["reports"] = score_reports(carried.data)
        elif eval_each_epoch:
            entry["reports"] = evaluate_model(model, dataset, prefix=prefix)
        history.append(entry)
        if progress is not None:
            progress(entry)
    return model, history, step
