#!/usr/bin/env python3
"""End-to-end harness: data, training, evaluation, checkpoint, exports.

Equivalent CLI session:

    tvadapt gen-data --seed 0 --pairs 12
    tvadapt train --config exp.cfg --out model.ckpt
    tvadapt eval --ckpt model.ckpt --dsl
    tvadapt count-params --config exp.cfg
    tvadapt export-diag --ckpt model.ckpt --out-dir diag/
    tvadapt ablate --suite warp
"""

import os
import tempfile

import numpy as np

from tvadapt.checkpoint import load_model, save_checkpoint
from tvadapt.config import toy_config
from tvadapt.counting import count_params
from tvadapt.data import generate_dataset
from tvadapt.diagnostics import export_diagnostics
from tvadapt.model import AdapterModel
from tvadapt.train import evaluate_model, train

cfg = toy_config(pairs=12, batch_size=12, epochs=60, lr=1e-2)
print("=== synthetic data ===")
data = generate_dataset(cfg.effective_data_seed, cfg.pairs, cfg)
print(f"{len(data)} paired items; video {data.videos.shape[1:]}, "
      f"caption words {data.tokens.shape[1]}")

print("\n=== trainable parameters ===")
print(count_params(cfg).table())

print("\n=== training ===")
model, history, steps = train(
    cfg, data,
    progress=lambda e: print(
        f"  epoch {e['epoch']:>3}  loss {e['loss']:.4f}  "
        f"R@1 v2t {e['reports']['video->text'].r_at[1]:.2f}  "
        f"t2v {e['reports']['text->video'].r_at[1]:.2f}"
    ) if e["epoch"] % 10 == 0 else None,
)
print(f"finished {steps} steps")

print("\n=== evaluation (with dual-softmax rows) ===")
for name, rep in evaluate_model(model, data, use_dsl=True).items():
    tag = "  [dsl]" if "dsl" in name else ""
    print(rep.row() + tag)

print("\n=== checkpoint round trip ===")
with tempfile.TemporaryDirectory() as td:
    path = os.path.join(td, "model.ckpt")
    save_checkpoint(path, model, steps=steps)
    restored, ckpt = load_model(path)
    same = all(
        (restored.store[n].data == model.store[n].data).all()
        for n in model.store.names()
    )
    print(f"checkpoint {os.path.getsize(path):,} bytes: config and adapters; the backbone "
          f"is regenerated from the config and its digest checked; bitwise restore: {same}")

    print("\n=== diagnostics export ===")
    out_dir = os.path.join(td, "diag")
    written = export_diagnostics(model, data, out_dir, item=0, frame=2, patch=1)
    for name in written:
        print(" ", name)
    scale = np.loadtxt(os.path.join(out_dir, "modulation_scale_layer1.csv"), delimiter=",")
    print("trained per-frame scale, channel 0:", np.array2string(scale[:, 0], precision=3))

print("\nbackbone untouched by training:",
      model.store.hash_bytes("backbone/") == AdapterModel(cfg).store.hash_bytes("backbone/"))
