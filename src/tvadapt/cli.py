"""Command-line harness: train, eval, ablate, count-params, export-diag, gen-data.

Exit codes: 0 success, 1 validation error (usage, config, input,
checkpoint versioning), 2 numeric failure (non-finite loss or values),
3 worker failure (a forked worker process could not start, was killed,
or sent no result back).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import config as config_mod
from .ablation import SUITES, format_table, rows_to_json, run_suite
from .checkpoint import load_model, save_checkpoint
from .counting import count_params
from .data import generate_dataset
from .diagnostics import export_diagnostics
from .exceptions import (
    ConfigError,
    ConsistencyError,
    ContractError,
    DimensionError,
    InputError,
    NumericError,
    VersionError,
    WorkerError,
)
from .train import evaluate_model, train

# OSError covers a missing path, a directory given for a file and an
# unreadable or unwritable file
_VALIDATION_ERRORS = (ConfigError, InputError, VersionError, ContractError,
                      DimensionError, ConsistencyError, OSError)


def _load_config(path):
    return config_mod.load(path) if path else config_mod.toy_config()


def _check_out_dir(path, suffix=""):
    """Fail before any work if ``path``'s folder is missing or ``path + suffix`` is a directory."""
    folder = os.path.dirname(path or "")
    if folder and not os.path.isdir(folder):
        raise InputError(f"cannot write {path}: directory {folder} does not exist")
    if path and os.path.isdir(path + suffix):
        raise InputError(f"cannot write {path + suffix}: it is a directory")


def _print_reports(reports):
    for name, rep in reports.items():
        suffix = "  [dsl]" if "dsl" in name else ""
        print(rep.row() + suffix)


def _cmd_train(args):
    _check_out_dir(args.out)
    cfg = _load_config(args.config)
    dataset = generate_dataset(cfg.effective_data_seed, cfg.pairs, cfg)
    model, history, steps = train(
        cfg, dataset,
        progress=lambda e: print(
            f"epoch {e['epoch']:>4}  step {e['steps']:>5}  loss {e['loss']:.4f}"
        ) if args.verbose else None,
    )
    save_checkpoint(args.out, model, steps=steps)
    print(f"trained {steps} steps; checkpoint written to {args.out}")
    if history:
        _print_reports(history[-1]["reports"])
    return 0


def _cmd_eval(args):
    _check_out_dir(args.json)
    model, ckpt = load_model(args.ckpt)
    # replace validates, so --pairs meets the config's size cap before any video exists
    cfg = ckpt.config if args.pairs is None else replace(ckpt.config, pairs=args.pairs)
    dataset = generate_dataset(cfg.effective_data_seed, cfg.pairs, cfg)
    reports = evaluate_model(model, dataset, use_dsl=args.dsl)
    _print_reports(reports)
    if args.json:
        payload = {name: rep.to_dict() for name, rep in reports.items()}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"json report written to {args.json}")
    return 0


def _cmd_ablate(args):
    _check_out_dir(args.out)
    cfg = _load_config(args.config)
    rows = run_suite(
        args.suite, cfg,
        progress=lambda row: print(f"done: {row.suite}/{row.mode}") if args.verbose else None,
    )
    print(format_table(rows))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rows_to_json(rows))
        print(f"json table written to {args.out}")
    return 0


def _cmd_count_params(args):
    cfg = _load_config(args.config)
    print(count_params(cfg).table())
    return 0


def _cmd_export_diag(args):
    model, ckpt = load_model(args.ckpt)
    cfg = ckpt.config
    dataset = generate_dataset(cfg.effective_data_seed, cfg.pairs, cfg)
    written = export_diagnostics(
        model, dataset, args.out_dir, item=args.item, frame=args.frame, patch=args.patch
    )
    print(f"wrote {len(written)} files to {args.out_dir}")
    return 0


def _cmd_gen_data(args):
    # np.savez appends ".npz" to a path that lacks it
    suffix = "" if (args.out or "").endswith(".npz") else ".npz"
    _check_out_dir(args.out, suffix)
    cfg = replace(_load_config(args.config), pairs=args.pairs)  # validates, as in eval
    dataset = generate_dataset(args.seed, cfg.pairs, cfg)
    if not np.isfinite(dataset.videos).all():
        raise NumericError("generated videos contain non-finite values")
    if args.out:
        path = args.out + suffix
        np.savez(path, videos=dataset.videos, tokens=dataset.tokens,
                 latents=dataset.latents, seed=dataset.seed)
        print(f"dataset written to {path}")
    print(
        f"pairs={len(dataset)} video shape={dataset.videos.shape[1:]} "
        f"caption words={dataset.tokens.shape[1]} seed={args.seed}"
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are validation errors (exit 1)."""

    def error(self, message):
        raise InputError(message)


def build_parser():
    parser = _Parser(
        prog="tvadapt",
        description="frozen two-tower retrieval with low-rank modulation and warped attention",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train adapters on synthetic pairs")
    p.add_argument("--config", help="flat key=value config file (default: toy preset)")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--pairs", type=int, default=None)
    p.add_argument("--dsl", action="store_true", help="apply dual-softmax rescoring")
    p.add_argument("--json", help="also write reports to this JSON file")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("ablate", help="run one ablation suite")
    p.add_argument("--suite", required=True, choices=tuple(SUITES))
    p.add_argument("--config")
    p.add_argument("--out", help="also write rows to this JSON file")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=_cmd_ablate)

    p = sub.add_parser("count-params", help="trainable parameter audit")
    p.add_argument("--config")
    p.set_defaults(fn=_cmd_count_params)

    p = sub.add_parser("export-diag", help="export modulation/attention CSVs")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--item", type=int, default=0)
    p.add_argument("--frame", type=int, default=0)
    p.add_argument("--patch", type=int, default=0)
    p.set_defaults(fn=_cmd_export_diag)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--config")
    p.add_argument("--out", help="write npz to this path")
    p.set_defaults(fn=_cmd_gen_data)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except _VALIDATION_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 2
    except WorkerError as err:
        print(f"worker failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
