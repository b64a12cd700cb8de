"""The three benchmark workloads, driven through tvadapt's public API.

Each workload builds its inputs from the seed in ``setup``, then runs
``task`` repeatedly. A task is the unit whose outputs are checked; it
reports the wall time of each epoch it ran (one epoch is one pass over
the workload's pairs) and calls the runner's ``pause`` after every
epoch, outside the epoch's time. ``digest`` hashes a task's outputs
outside the timed region, so the runner can require identical outputs
from every task of a run and compare them with the stored reference for
the seed.

Every tvadapt function is looked up on its module at call time, so the
tracer's shims see the calls the benchmark itself makes.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import time
from dataclasses import dataclass

import numpy as np

tvadapt = importlib.import_module("tvadapt")
checkpoint = importlib.import_module("tvadapt.checkpoint")
tensor = importlib.import_module("tvadapt.tensor")

DIRECTIONS = ("video->text", "text->video")


def blake(data):
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def reports_digest(reports):
    text = json.dumps({k: r.to_dict() for k, r in sorted(reports.items())}, sort_keys=True)
    return blake(text.encode())


def scores_digest(model, data):
    """Hash of the evaluation similarity matrix, bitwise."""
    with tensor.no_grad():
        scores, _, _ = model.batch_scores(data.videos, data.tokens, sel_key=("eval",))
    if not np.isfinite(scores.data).all():
        raise FloatingPointError("non-finite similarity scores")
    return blake(np.ascontiguousarray(scores.data).tobytes())


def is_perfect(reports):
    return all(reports[d].r_at[1] == 1.0 and reports[d].mnr == 1.0 for d in DIRECTIONS)


class EpochClock:
    """Wall time of each epoch, leaving out the runner's pause after it."""

    def __init__(self, pause):
        self.pause = pause
        self.epoch_ns = []
        self.start = time.perf_counter_ns()

    def tick(self):
        self.epoch_ns.append(time.perf_counter_ns() - self.start)
        self.pause()
        self.start = time.perf_counter_ns()


@dataclass
class TaskResult:
    epoch_ns: list
    model: object
    reports: dict = None
    steps: int = 0


class _Perfect(Exception):
    """Raised from the progress callback to stop ``train`` at the target."""


class _Training:
    """Shared set-up of the two training workloads."""

    def setup(self, seed, out_dir):
        cfg = self.config(seed)
        data = tvadapt.generate_dataset(cfg.effective_data_seed, cfg.pairs, cfg)
        tvadapt.AdapterModel(cfg)  # timed as set-up; each task builds its own
        return {"cfg": cfg, "data": data}


class TrainToyAsa(_Training):
    """Criterion-03 overfit loop: toy preset, ASA on, evaluation every epoch.

    Tiny tensors, so a step is bound by per-op tape overhead; the
    text-conditioned sentence-pick prepass and the warp chain are a large
    share of it. A task trains fresh adapters until the first epoch with
    R@1 = MnR = 1 in both directions.
    """

    name = "train_toy_asa"
    pairs = 16

    def config(self, seed):
        return tvadapt.toy_config(pairs=16, batch_size=16, epochs=120, lr=1e-2, seed=seed)

    def warmup(self, state):
        cfg, data = state["cfg"], state["data"]
        tvadapt.train(cfg, data, model=tvadapt.AdapterModel(cfg), max_steps=2)

    def task(self, state, pause):
        cfg, data = state["cfg"], state["data"]
        model = tvadapt.AdapterModel(cfg)
        entries = []

        def progress(entry):
            clock.tick()
            entries.append(entry)
            if is_perfect(entry["reports"]):
                raise _Perfect

        clock = EpochClock(pause)
        try:
            tvadapt.train(cfg, data, model=model, progress=progress)
        except _Perfect:
            pass
        else:
            raise AssertionError(f"no perfect retrieval within {cfg.epochs} epochs")
        return TaskResult(epoch_ns=clock.epoch_ns, model=model,
                          reports=entries[-1]["reports"], steps=entries[-1]["steps"])

    def digest(self, state, result):
        return {
            "steps_to_perfect": result.steps,
            "adapter": result.model.store.hash_bytes("adapter/"),
            "scores": scores_digest(result.model, state["data"]),
            "reports": reports_digest(result.reports),
        }


class TrainWideNoAsa(_Training):
    """Wider towers, ASA off, no per-epoch evaluation.

    Each tape node costs far more than in the toy loop, so time goes
    into numeric kernels and memory; selection, prepass and warp are
    bypassed. A task trains fresh adapters for a fixed six epochs.
    """

    name = "train_wide_noasa"
    pairs = 16

    def config(self, seed):
        return tvadapt.toy_config(
            layers=4, dim_v=64, frame_h=12, frame_w=12, patch=4, frames=8, dim_t=48,
            pairs=16, batch_size=16, epochs=6, lr=1e-2, asa=False, seed=seed,
        )

    def warmup(self, state):
        cfg, data = state["cfg"], state["data"]
        tvadapt.train(cfg, data, model=tvadapt.AdapterModel(cfg), max_steps=2,
                      eval_each_epoch=False)

    def task(self, state, pause):
        cfg, data = state["cfg"], state["data"]
        model = tvadapt.AdapterModel(cfg)
        clock = EpochClock(pause)
        _, _, steps = tvadapt.train(cfg, data, model=model, eval_each_epoch=False,
                                    progress=lambda entry: clock.tick())
        return TaskResult(epoch_ns=clock.epoch_ns, model=model, steps=steps)

    def digest(self, state, result):
        return {
            "steps": result.steps,
            "adapter": result.model.store.hash_bytes("adapter/"),
            "scores": scores_digest(result.model, state["data"]),
        }


class EvalCorpusDsl:
    """Read-only evaluation with dual-softmax rescoring on a 128-pair corpus.

    A toy-shaped model with fractional offsets is saved and loaded back
    during set-up. No tape, no backward, no optimizer: the prepass and the
    128 x 128 ranking grow with the corpus. A task is one
    ``evaluate_model`` call, which is one epoch over the corpus.
    """

    name = "eval_corpus_dsl"
    pairs = 128

    def config(self, seed):
        return tvadapt.toy_config(pairs=128, seed=seed)

    def setup(self, seed, out_dir):
        cfg = self.config(seed)
        data = tvadapt.generate_dataset(cfg.effective_data_seed, cfg.pairs, cfg)
        model = tvadapt.AdapterModel(cfg)
        rng = tvadapt.rng_for(seed, "perfbench", "offsets")
        for offset in (model.offsets.gamma, model.offsets.delta):
            offset.data[:] = rng.uniform(0.15, 0.45, size=offset.data.shape)
        path = os.path.join(out_dir, f"{self.name}-{os.getpid()}.ckpt")
        try:
            checkpoint.save_checkpoint(path, model)
            size = os.path.getsize(path)
            loaded, _ = checkpoint.load_model(path)
        finally:
            if os.path.exists(path):
                os.remove(path)
        return {"cfg": cfg, "data": data, "model": loaded, "checkpoint_bytes": size}

    def warmup(self, state):
        tvadapt.evaluate_model(state["model"], state["data"], use_dsl=True)

    def task(self, state, pause):
        clock = EpochClock(pause)
        reports = tvadapt.evaluate_model(state["model"], state["data"], use_dsl=True)
        clock.tick()
        values = [v for r in reports.values() for v in (*r.r_at.values(), r.mdr, r.mnr)]
        if not np.isfinite(values).all():
            raise FloatingPointError("non-finite evaluation report")
        return TaskResult(epoch_ns=clock.epoch_ns, model=state["model"], reports=reports)

    def digest(self, state, result):
        if "scores" not in state:  # the model is read-only: hash its scores once
            state["scores"] = scores_digest(state["model"], state["data"])
            state["adapter"] = state["model"].store.hash_bytes("adapter/")
        return {
            "adapter": state["adapter"],
            "scores": state["scores"],
            "reports": reports_digest(result.reports),
        }


WORKLOADS = {w.name: w for w in (TrainToyAsa(), TrainWideNoAsa(), EvalCorpusDsl())}
