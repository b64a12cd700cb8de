"""Ablation suites: train/evaluate every variant of one design axis.

Each suite holds the dataset and seed fixed and sweeps one knob:
decomposition manner, patch-selection manner, warp axes, or the adapter
layer subset (the light configuration adapts only the last four
layers). Rows report trainable parameters, final retrieval metrics in
both directions, and the first step at which retrieval became perfect
on the training pairs. Structural comparisons only; no external
baseline numbers are claimed. The ASA offsets start at 0, where their
gradient is 0, so they never move and the warp stays the identity: every
variant of the ``selection`` and ``warp`` suites reports the same metrics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .counting import count_params
from .data import generate_dataset
from .exceptions import ConfigError
from .train import evaluate_model, train

SUITES = {
    "decompose": [
        ("none", {"decompose": "none"}),
        ("temporal", {"decompose": "temporal"}),
        ("spatial_temporal", {"decompose": "spatial_temporal"}),
        ("spatial_temporal_layer", {"decompose": "spatial_temporal_layer"}),
    ],
    "selection": [
        ("text_top_k", {"selection": "text_top_k"}),
        ("text_bottom_k", {"selection": "text_bottom_k"}),
        ("vision_top_k", {"selection": "vision_top_k"}),
        ("vision_bottom_k", {"selection": "vision_bottom_k"}),
        ("random", {"selection": "random"}),
        ("none", {"selection": "none"}),
    ],
    "warp": [
        ("both", {"warp_axes": "both"}),
        ("temporal_only", {"warp_axes": "temporal"}),
        ("spatial_only", {"warp_axes": "spatial"}),
    ],
    "layers": [
        ("all", {"adapter_layers": "all"}),
        ("last4", {"adapter_layers": "last4"}),
    ],
}


@dataclass
class AblationRow:
    suite: str
    mode: str
    params: int
    steps: int
    steps_to_perfect: object  # int or None
    reports: dict

    def to_dict(self):
        flat = {
            "suite": self.suite,
            "mode": self.mode,
            "params": self.params,
            "steps": self.steps,
            "steps_to_perfect": self.steps_to_perfect,
        }
        for direction, rep in self.reports.items():
            flat[direction] = rep.to_dict()
        return flat


def perfect_step(history):
    """First step count at which both directions hit R@1 = MnR = 1."""
    for entry in history:
        reports = entry.get("reports")
        if not reports:
            continue
        if all(
            reports[d].r_at[1] == 1.0 and reports[d].mnr == 1.0
            for d in ("video->text", "text->video")
        ):
            return entry["steps"]
    return None


def run_suite(suite, config, progress=None):
    """Train and evaluate every mode of one suite on a shared dataset."""
    if suite not in SUITES:
        raise ConfigError(f"unknown ablation suite {suite!r}; pick from {sorted(SUITES)}")
    dataset = generate_dataset(config.effective_data_seed, config.pairs, config)
    rows = []
    for mode, updates in SUITES[suite]:
        mode_config = replace(config, **updates)
        model, history, steps = train(mode_config, dataset, eval_each_epoch=True)
        rows.append(
            AblationRow(
                suite=suite,
                mode=mode,
                params=count_params(mode_config).trainable_total,
                steps=steps,
                steps_to_perfect=perfect_step(history),
                reports=history[-1]["reports"] if history else evaluate_model(model, dataset),
            )
        )
        if progress is not None:
            progress(rows[-1])
    return rows


def format_table(rows):
    header = (
        f"{'suite':<10}{'mode':<24}{'params':>8}{'steps':>7}{'perfect@':>9}"
        f"{'R@1 v2t':>9}{'R@1 t2v':>9}{'R@5':>7}{'R@10':>7}{'MdR':>6}{'MnR':>7}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        v2t = row.reports.get("video->text")
        t2v = row.reports.get("text->video")
        perfect = "-" if row.steps_to_perfect is None else str(row.steps_to_perfect)
        lines.append(
            f"{row.suite:<10}{row.mode:<24}{row.params:>8}{row.steps:>7}{perfect:>9}"
            f"{v2t.r_at[1]:>9.3f}{t2v.r_at[1]:>9.3f}{v2t.r_at[5]:>7.3f}"
            f"{v2t.r_at[10]:>7.3f}{v2t.mdr:>6.1f}{v2t.mnr:>7.2f}"
        )
    return "\n".join(lines)


def rows_to_json(rows):
    return json.dumps([row.to_dict() for row in rows], indent=2)
