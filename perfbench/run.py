#!/usr/bin/env python3
"""tvadapt benchmark: one workload, one seed, one timed run.

Usage (from the repository root):

    python3 perfbench/run.py --workload train_toy_asa --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` alternates untraced and traced tasks and reports the
per-layer metrics from the traced ones (see ``tracer.py``); the ratio of
the two medians is the tracing overhead. Either way the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it show the same numbers for
a reader. The full record (provenance, every sample, digests, the span
tree) is written to ``.perfbench/results/``.

The program is imported from ``src/`` of the checkout the script sits
in; nothing is installed. BLAS runs on one thread, pinned before NumPy
loads, so timings and outputs do not depend on thread scheduling.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"
BLAS_THREADS = 1
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
# the printed p90 of epoch time is to have ten samples beyond it; eval
# epochs are the slowest (~0.3 s), so a run goes on until it has this many
MIN_EPOCHS = 100
# past --seconds, a run that is short of MIN_EPOCHS stops at this many
# seconds of tasks all the same, to end well within three minutes
MAX_TASK_SECONDS = 120


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_program():
    """Import tvadapt from this checkout's ``src/``."""
    sys.path.insert(0, str(ROOT / "src"))
    import tvadapt

    src = (ROOT / "src").resolve()
    if src not in Path(tvadapt.__file__).resolve().parents:
        raise ImportError(f"tvadapt imported from {tvadapt.__file__}, not from {src}")


_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import numpy, scipy.special, tvadapt; print(time.perf_counter() - t)"
)


def import_seconds():
    """Seconds a fresh interpreter takes to import the program, timed inside it."""
    probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src")],
                           capture_output=True, text=True, check=True, timeout=120)
    return float(probe.stdout)


# -- provenance -------------------------------------------------------------


def _openblas():
    """(version, core name, thread count) of the OpenBLAS NumPy links."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = threads = None
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
                get_core = getattr(handle, f"{prefix}_get_corename{suffix}", None)
                if get_threads is not None and get_core is not None:
                    get_threads.restype = ctypes.c_int
                    get_core.restype = ctypes.c_char_p
                    return blas.get("version"), get_core().decode(), get_threads()
    return blas.get("version"), core, threads


def _commit():
    """HEAD of the checkout's own ``.git``, or None outside a git checkout."""
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_stats():
    digest = hashlib.blake2b(digest_size=16)
    lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return lines, digest.hexdigest()


def fingerprint():
    """What must match for bitwise output references to apply."""
    import numpy as np

    version, core, _ = _openblas()
    simd = np.show_config(mode="dicts").get("SIMD Extensions", {}).get("found", [])
    return {"machine": platform.machine(), "numpy": np.__version__,
            "openblas": version, "openblas_core": core, "simd": list(simd)}


def provenance(seed):
    import numpy as np
    import scipy

    version, core, threads = _openblas()
    lines, src_digest = _src_stats()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": version,
        "openblas_core": core,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": _commit(),
        "src_digest": src_digest,
        "src_lines": lines,
        "seed": seed,
    }


# -- measurement --------------------------------------------------------------


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def load_reference(workload, seed):
    """(expected digest or None, status string) for this workload and seed."""
    path = HERE / "reference.json"
    if not path.is_file():
        return None, "no reference file"
    ref = json.loads(path.read_text())
    if ref.get("fingerprint") != fingerprint():
        return None, "skipped: reference made on a different CPU/BLAS build"
    expected = ref.get("digests", {}).get(workload, {}).get(str(seed))
    if expected is None:
        return None, "no reference for this seed"
    return expected, "checked"


def enough(elapsed, seconds, records, min_tasks, epochs):
    """Whether a run may stop after ``elapsed`` seconds of tasks.

    Never before ``seconds``. After it: at once if a task has failed (the
    result is a failure whatever follows, and failed tasks add no
    epochs), else once there are ``min_tasks`` tasks and ``MIN_EPOCHS``
    epochs, or ``MAX_TASK_SECONDS`` have passed.
    """
    if elapsed < seconds:
        return False
    if any(r["error"] is not None for r in records):
        return True
    return (len(records) >= min_tasks and epochs >= MIN_EPOCHS) or elapsed >= MAX_TASK_SECONDS


def run_tasks(workload, state, seconds, trace, tracer):
    """Run tasks for at least ``seconds``; returns per-task records.

    ``enough`` decides when to stop. A calibration burst runs before the
    first task and after every epoch; each record keeps the bursts
    around its epochs. With ``trace`` the tasks alternate untraced /
    traced, starting untraced, and at least two of each run.
    """
    import calibrate

    bursts = [calibrate.burst()]
    pause = lambda: bursts.append(calibrate.burst())
    records = []
    min_tasks = 4 if trace else 2
    epochs = 0
    start = time.perf_counter()
    while not enough(time.perf_counter() - start, seconds, records, min_tasks, epochs):
        traced = trace and len(records) % 2 == 1
        record = {"traced": traced, "error": None}
        first = len(bursts) - 1
        if traced:
            tracer.install()
        try:
            result = workload.task(state, pause)
        except Exception as err:  # a failed operation: counted, run goes on
            record["error"] = f"{type(err).__name__}: {err}"
            records.append(record)
            continue
        finally:
            if traced:
                tracer.uninstall()
        record["epoch_ms"] = [ns / 1e6 for ns in result.epoch_ns]
        epochs += len(result.epoch_ns)
        record["burst_ms"] = bursts[first:]
        record["epoch_cal_ms"] = [
            ms * calibrate.NOMINAL_MS / ((before + after) / 2)
            for ms, before, after in zip(record["epoch_ms"], bursts[first:], bursts[first + 1:])
        ]
        try:
            record["digest"] = workload.digest(state, result)
        except Exception as err:
            record["error"] = f"{type(err).__name__}: {err}"
        records.append(record)
    return records


def judge(records, expected):
    """Mark tasks whose digest differs from the expected one as failed.

    Without a stored reference the first good task's digest is expected.
    """
    source = "reference"
    if expected is None:
        source = "first task"
        digests = [r["digest"] for r in records if r["error"] is None]
        expected = digests[0] if digests else None
    for r in records:
        if r["error"] is None and r["digest"] != expected:
            r["error"] = f"outputs differ from {source}"
    return expected


def end_to_end(workload, setup, records):
    """Calibrated epoch times (see ``calibrate.py``), set-up time and memory."""
    epochs = [ms for r in records if r["error"] is None for ms in r["epoch_cal_ms"]]
    return {
        "setup_s": (setup["cal_s"], "s"),
        "epoch_ms.p50": (percentile(epochs, 50), "ms"),
        "pairs_per_s": (workload.pairs * len(epochs) / (sum(epochs) / 1e3), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, setup_trace, setup, state, records):
    import calibrate
    from tracer import BW_NS, FWD_NS, NODES, TAPED

    traced = [r for r in records if r["traced"] and r["error"] is None]
    plain = [r for r in records if not r["traced"] and r["error"] is None]
    n = sum(len(r["epoch_ms"]) for r in traced)
    traced_ms = sum(sum(r["epoch_ms"]) for r in traced)
    # span times are scaled to the calibrated machine speed like epoch_ms
    speed = calibrate.NOMINAL_MS / statistics.median(b for r in traced for b in r["burst_ms"])
    per_epoch_ms = lambda ns: ns / 1e6 / n * speed
    span_ms = lambda name: per_epoch_ms(tracer.inclusive_ns(name))
    ratio = lambda a, b: a / b if b else 0.0
    c = tracer.counters
    ops = tracer.ops

    m = {
        "tensor.nodes": (sum(r[NODES] for r in ops.values()) / n, "count/epoch"),
        "tensor.tape_nodes": (sum(r[TAPED] for r in ops.values()) / n, "count/epoch"),
    }
    for op in REPORTED_OPS:
        rec = ops.get(op, [0] * 6)
        m[f"tensor.nodes.{op}"] = (rec[NODES] / n, "count/epoch")
        m[f"tensor.fwd_ms.{op}"] = (per_epoch_ms(rec[FWD_NS]), "ms/epoch")
        m[f"tensor.bw_ms.{op}"] = (per_epoch_ms(rec[BW_NS]), "ms/epoch")
    m["tensor.backward_ms"] = (span_ms("tensor.backward"), "ms/epoch")
    m["tensor.grad_alloc_bytes"] = (c["grad_alloc_bytes"] / n, "B/epoch")
    m["tensor.accumulate_calls"] = (c["accumulate_calls"] / n, "count/epoch")
    for name in ("patchify", "vit_block", "attention_core", "encode_text", "encode_video"):
        m[f"backbone.{name}_ms"] = (span_ms(f"backbone.{name}"), "ms/epoch")
    for name in ("video_apply", "text_apply"):
        m[f"modulation.{name}_ms"] = (span_ms(f"modulation.{name}"), "ms/epoch")
    m["attention.selection_masks_ms"] = (span_ms("attention.selection_masks"), "ms/epoch")
    m["attention.warp_kv_ms"] = (span_ms("attention.warp_kv"), "ms/epoch")
    m["attention.warp_kv.bw_ms"] = (
        per_epoch_ms(tracer.backward_ns_under("attention.warp_kv")), "ms/epoch")
    m["attention.warp_rows_useful_frac"] = (
        ratio(c["warp_rows_selected"], c["warp_rows_resampled"]), "ratio")
    m["model.batch_loss_ms"] = (span_ms("model.batch_loss"), "ms/epoch")
    m["model.pick_sentences_ms"] = (span_ms("model.pick_sentences"), "ms/epoch")
    m["model.prepass_share"] = (ratio(
        tracer.inclusive_ns("backbone.encode_video", under="model.pick_sentences"),
        tracer.inclusive_ns("backbone.encode_video")), "ratio")
    m["model.pick_hit_frac"] = (ratio(c["pick_hits"], c["picks"]), "ratio")
    for name in ("video_embedding", "contrastive_loss", "metrics_report", "dsl"):
        m[f"retrieval.{name}_ms"] = (span_ms(f"retrieval.{name}"), "ms/epoch")
    m["train.adam_step_ms"] = (span_ms("train.adam_step"), "ms/epoch")
    m["train.evaluate_model_ms"] = (span_ms("train.evaluate_model"), "ms/epoch")
    to_perfect = "steps_to_perfect" in traced[0]["digest"]
    m["train.steps_to_perfect"] = (
        traced[0]["digest"]["steps_to_perfect"] if to_perfect else 0, "count")
    m["train.time_to_perfect_s"] = (
        statistics.median(sum(r["epoch_cal_ms"]) / 1e3 for r in plain) if to_perfect else 0.0,
        "s")
    setup_ms = lambda name: setup_trace.inclusive_ns(name) / 1e6 * setup["speed"]
    m["data.generate_dataset_ms"] = (setup_ms("data.generate_dataset"), "ms")
    m["checkpoint.save_ms"] = (setup_ms("checkpoint.save"), "ms")
    m["checkpoint.load_ms"] = (setup_ms("checkpoint.load"), "ms")
    m["checkpoint.bytes"] = (state.get("checkpoint_bytes", 0), "B")
    untraced_p50 = percentile([ms for r in plain for ms in r["epoch_cal_ms"]], 50)
    traced_p50 = percentile([ms for r in traced for ms in r["epoch_cal_ms"]], 50)
    m["trace.overhead_frac"] = (traced_p50 / untraced_p50 - 1.0, "ratio")
    m["trace.span_coverage"] = (tracer.top_level_ns() / 1e6 / traced_ms, "ratio")
    return m


# op kinds given their own per-layer metrics: the ones the three
# workloads execute (neg, power, tanh, transpose, value_override never run)
REPORTED_OPS = (
    "add", "broadcast_to", "clip", "concat", "div", "erf", "exp", "getitem", "log",
    "matmul", "mul", "reshape", "softmax", "sqrt", "sub", "swapaxes", "take",
    "tsum", "where_const",
)


def check_names(metrics, trace):
    """The emitted metric names must be exactly those BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if listed != emitted:
        raise SystemExit(
            f"metric set differs from BENCHMARK.json: "
            f"missing {sorted(set(listed) - set(emitted))}, "
            f"extra {sorted(set(emitted) - set(listed))}, "
            f"unit mismatch {sorted(k for k in listed if k in emitted and listed[k] != emitted[k])}"
        )


def main(argv=None):
    args = parse_args(argv)
    pin_threads()
    import_program()
    import calibrate
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        raise SystemExit("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)

    bursts = [calibrate.burst()]
    import_s = []
    for _ in range(IMPORT_REPEATS):
        import_s.append(import_seconds())
        bursts.append(calibrate.burst())
    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.setup(args.seed, str(OUT_DIR))
        setup_s.append(time.perf_counter() - start)
        bursts.append(calibrate.burst())
    speed = calibrate.NOMINAL_MS / statistics.median(bursts)
    raw_setup_s = statistics.median(import_s) + statistics.median(setup_s)
    setup = {"import_s": import_s, "setup_s": setup_s,
             "burst_ms": bursts, "speed": speed, "cal_s": raw_setup_s * speed}
    setup_trace = Tracer()
    if args.trace:
        setup_trace.install()
        try:
            workload.setup(args.seed, str(OUT_DIR))
        finally:
            setup_trace.uninstall()
    workload.warmup(state)
    tracer = Tracer()

    records = run_tasks(workload, state, args.seconds, args.trace, tracer)
    expected, ref_status = load_reference(workload.name, args.seed)
    digest = judge(records, expected)
    failed = sum(r["error"] is not None for r in records)
    ok = [r for r in records if r["error"] is None]
    if not ok or (args.trace and not any(r["traced"] for r in ok)):
        metrics = {}
    elif args.trace:
        metrics = per_layer(tracer, setup_trace, setup, state, records)
    else:
        metrics = end_to_end(workload, setup, records)
    if metrics:
        check_names(metrics, args.trace)

    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(args.seed),
        "calibration_nominal_ms": calibrate.NOMINAL_MS, "setup": setup, "tasks": records,
        "digest": digest, "reference": ref_status, "result": result,
    }
    if args.trace:
        record["spans"] = tracer.span_tree()
        record["ops"] = tracer.op_table()
        record["setup_spans"] = setup_trace.span_tree()
    results = OUT_DIR / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"# {workload.name} seed={args.seed} trace={args.trace}: {len(records)} tasks, "
          f"{failed} failed, reference {ref_status}; record in {out.relative_to(ROOT)}")
    for r in records:
        if r["error"]:
            print(f"#   failed: {r['error']}")
    print(f"#   failed_frac {failed / len(records):.4f} ratio (failed / attempted)")
    if ok:
        raw = [ms for r in ok for ms in r["epoch_ms"]]
        print(f"#   uncalibrated: epoch_ms.p50 {percentile(raw, 50):.6g} ms, "
              f"setup_s {raw_setup_s:.6g} s, "
              f"median burst {statistics.median(b for r in ok for b in r['burst_ms']):.4g} ms "
              f"(nominal {calibrate.NOMINAL_MS} ms)")
    # the same figures under the names a reader of this kind of workload looks for
    epoch_name, pairs_name = (("eval_ms", "eval_videos_per_s") if workload.name == "eval_corpus_dsl"
                              else ("epoch_ms", "train_pairs_per_s"))
    if not args.trace and ok:
        cal = [ms for r in ok for ms in r["epoch_cal_ms"]]
        print(f"#   {epoch_name}.p90 {percentile(cal, 90):.6g} ms over {len(cal)} epochs "
              f"(not gated)")
    if not args.trace and ok and "steps_to_perfect" in (digest or {}):
        ttp = statistics.median(sum(r["epoch_cal_ms"]) / 1e3 for r in ok)
        print(f"#   time_to_perfect_s {ttp:.6g} s ({digest['steps_to_perfect']} steps)")
    for name, (value, unit) in metrics.items():
        print(f"#   {name} {value:.6g} {unit}")
    if not args.trace and metrics:
        for alias, name in ((f"{epoch_name}.p50", "epoch_ms.p50"), (pairs_name, "pairs_per_s")):
            if alias != name:
                print(f"#   {alias} {metrics[name][0]:.6g} {metrics[name][1]} (= {name})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
