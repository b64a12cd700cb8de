#!/usr/bin/env python3
"""Paired parent/change runs of perfbench/run.py, written as one BENCH file.

Usage (from the repository root):

    python3 tools/bench_pairs.py --parent 5547d64 --change HEAD --scratch /tmp/pairs \\
        --pairs train_toy_asa=10 --pairs train_wide_noasa=10 --pairs eval_corpus_dsl=10 \\
        --first-seed 40 --out BENCH_21.json

Each side's committed files are exported with ``git archive`` into a fresh
directory under ``--scratch``, so each runs its own unchanged
``perfbench/run.py`` on exactly what a commit holds, and nothing is added
to the repository's git metadata. A pair is one seed run on both sides
with ``--trace 0``; even seeds run the parent first, odd seeds the change
first, and the workloads take turns within a seed. Every run lasts
``BENCHMARK.json``'s ``run_seconds``. A ``--parent`` and ``--change`` that
resolve to one commit stop the comparison before anything is exported: a
tree against itself would read as "nothing worse". A seed for which the
parent's ``perfbench/reference.json`` holds no digest on a requested
workload stops the comparison before the first run. A run that exits non-zero, that
runs past ``RUN_TIMEOUT_S``, whose ``#`` status line does not say
"reference checked", that failed a task, or whose machine fingerprint
differs from the first run's, stops the whole comparison: its timings
would describe an output nobody checked, or another machine. The output file holds each end-to-end metric's
medians, interquartile ranges and pair wins, the verdict against the
bounds in ``BENCHMARK.json``, whether the change shows a gain (it wins at
least nine tenths of the pairs, ties counting for neither side, and its
median is better than the parent's by more than the parent's
interquartile range), the seeds, the machine, each side's
``src/tvadapt/`` line count, and every run with its status line. A
stopped comparison still writes its file, marked ``"incomplete": true``,
with the runs made so far and the refused run, and exits 1.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
MACHINE_KEYS = ("python", "numpy", "scipy", "openblas", "openblas_core",
                "blas_threads", "nproc", "cpu_count", "machine")


# seconds one perfbench run may take before it is refused; perfbench is
# designed to finish within three minutes, so a run past this is stuck
RUN_TIMEOUT_S = 600


class Refused(Exception):
    """A run whose timings must not enter the comparison; the message says why."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the baseline")
    ap.add_argument("--change", required=True, help="git revision of the change")
    ap.add_argument("--scratch", required=True, type=Path,
                    help="directory that receives the two exported trees")
    ap.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N",
                    help="number of pairs to run on one workload (repeat per workload)")
    ap.add_argument("--first-seed", type=int, required=True,
                    help="pairs use seeds first-seed, first-seed + 1, ...")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--note", default="", help="what the change does, for the reader")
    args = ap.parse_args(argv)
    try:
        args.pairs = {w: int(n) for w, n in (p.split("=") for p in args.pairs)}
    except ValueError:
        ap.error("--pairs takes WORKLOAD=N")
    return args


def git(*argv, text=True):
    return subprocess.run(["git", "-C", str(ROOT), *argv], capture_output=True,
                          text=text, check=True).stdout


def export(rev, dest):
    """Extract the files commit ``rev`` holds into ``dest``."""
    blob = git("archive", "--format=tar", rev, text=False)
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")


def src_lines(tree):
    return sum(p.read_bytes().count(b"\n") for p in sorted((tree / "src/tvadapt").glob("*.py")))


def run_once(tree, workload, seed, seconds):
    """One ``perfbench/run.py`` run: (status line, result, machine fingerprint)."""
    try:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise Refused(f"timed out after {RUN_TIMEOUT_S} s") from None
    lines = out.stdout.splitlines()
    status = next((l for l in lines if l.startswith(f"# {workload} seed=")), None)
    if out.returncode != 0 or status is None:
        tail = (out.stderr or out.stdout).strip().splitlines()[-1:]
        raise Refused(f"exit {out.returncode}: {status or ' '.join(tail)}")
    result = json.loads(lines[-1])
    if "reference checked" not in status or not result["correct"] or result["failed"]:
        raise Refused(status)
    record = json.loads((tree / status.rpartition("record in ")[2]).read_text())
    return status, result, {k: record["provenance"][k] for k in MACHINE_KEYS}


def iqr(values):
    q1, q3 = np.percentile(values, [25, 75])
    return float(q3 - q1)


def summarize(metric, parent, change):
    """Medians, spreads, pair wins and the verdict of one metric on one workload."""
    p_med, c_med = float(np.median(parent)), float(np.median(change))
    rel = c_med / p_med - 1.0
    lower = metric["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    worse = rel if lower else -rel
    spread = max(iqr(parent), iqr(change)) / p_med
    all_better = (max(change) < min(parent)) if lower else (min(change) > max(parent))
    if worse > metric["bound"]:
        verdict = "worse beyond bound"
    elif spread > metric["bound"] and not all_better:
        verdict = "unresolved: IQR wider than the bound"
    else:
        verdict = "within bound"
    gap = (p_med - c_med) if lower else (c_med - p_med)
    gain = 10 * wins >= 9 * len(parent) and gap > iqr(parent)
    return {"parent_median": p_med, "change_median": c_med, "rel_change": rel,
            "parent_iqr": iqr(parent), "change_iqr": iqr(change), "change_wins": wins,
            "bound": metric["bound"], "verdict": verdict, "gain": gain,
            "parent": list(parent), "change": list(change)}


def run_pairs(trees, seeds, seconds):
    """Every run in order: (runs, machine, refused run or None)."""
    runs, machine = [], None
    for seed in sorted({s for ws in seeds.values() for s in ws}):
        order = SIDES if seed % 2 == 0 else SIDES[::-1]
        for workload in [w for w in seeds if seed in seeds[w]]:
            for side in order:
                try:
                    status, result, fingerprint = run_once(trees[side], workload, seed,
                                                           seconds)
                    machine = machine or fingerprint
                    if fingerprint != machine:
                        differ = sorted(k for k in MACHINE_KEYS
                                        if fingerprint[k] != machine[k])
                        raise Refused(f"machine differs from the first run in {differ}: "
                                      f"{status}")
                except Refused as why:
                    print(f"{side:6s} refused: {why}", flush=True)
                    return runs, machine, {"workload": workload, "seed": seed,
                                           "side": side, "status": str(why)}
                print(f"{side:6s} {status}", flush=True)
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "status": status, "attempted": result["attempted"],
                             "failed": result["failed"],
                             **{k: v["value"] for k, v in result["metrics"].items()}})
    return runs, machine, None


def main(argv=None):
    args = parse_args(argv)
    revs = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}").strip()
            for side, rev in zip(SIDES, (args.parent, args.change))}
    if revs["parent"] == revs["change"]:
        raise SystemExit(f"--parent and --change are one commit, {revs['parent']}")
    args.scratch.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.scratch))
    try:
        trees = {side: work / side for side in SIDES}
        for side in SIDES:
            export(revs[side], trees[side])
        bench = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
        unknown = set(args.pairs) - {w["name"] for w in bench["workloads"]}
        if unknown:
            raise SystemExit(f"unknown workloads {sorted(unknown)}")
        seconds = bench["run_seconds"]
        seeds = {w: list(range(args.first_seed, args.first_seed + n))
                 for w, n in args.pairs.items()}
        reference = trees["parent"] / "perfbench" / "reference.json"
        digests = json.loads(reference.read_text())["digests"] if reference.is_file() else {}
        missing = {w: gaps for w, ws in seeds.items()
                   if (gaps := [s for s in ws if str(s) not in digests.get(w, {})])}
        if missing:
            raise SystemExit(f"no perfbench reference digest for seeds {missing}")
        runs, machine, refused = run_pairs(trees, seeds, seconds)
        src = {side: src_lines(trees[side]) for side in SIDES}
    finally:
        shutil.rmtree(work)
    report = {
        "description": (
            f"Paired parent/change runs of the unchanged perfbench/run.py --seconds "
            f"{seconds:g} (BENCHMARK.json's run_seconds) --trace 0, each side from a git "
            "archive of its commit; even seeds run the parent first, odd seeds the change "
            "first, and the workloads take turns within a seed. Every run is 'reference "
            "checked' with no failed task on one machine fingerprint, or the comparison "
            "stops and this file is marked incomplete."),
        "parent": revs["parent"],
        "change": revs["change"],
        "note": args.note,
        "incomplete": refused is not None,
        "config": {"command": f"python3 perfbench/run.py --workload W --seed S "
                              f"--seconds {seconds:g} --trace 0",
                   "seeds": seeds},
        "machine": machine,
        "src_lines": src,
    }
    if refused is None:
        report["results"] = {}
        for workload in args.pairs:
            mine = [r for r in runs if r["workload"] == workload]
            report["results"][workload] = {"pairs": len(seeds[workload]),
                                           "seeds": seeds[workload]}
            for metric in bench["end_to_end"]:
                values = {side: [r[metric["name"]] for r in mine if r["side"] == side]
                          for side in SIDES}
                report["results"][workload][metric["name"]] = summarize(metric, **values)
    else:
        report["refused"] = refused
    report["runs"] = runs
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}" + (" (incomplete)" if refused else ""))
    return 1 if refused else 0


if __name__ == "__main__":
    raise SystemExit(main())
