"""tools/bench_pairs.py, the paired parent/change benchmark driver, on canned runs.

No perfbench run starts here: ``run_once`` is stubbed with canned status
lines, results and machine fingerprints (or, to reach its own status
check, ``subprocess.run`` is), and git is stubbed by a fake export that
writes a tree holding the repository's ``BENCHMARK.json``.
"""

import importlib.util
import json
import pathlib
import re
import subprocess
from types import SimpleNamespace

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]
WORKLOAD = BENCHMARK["workloads"][0]["name"]


@pytest.fixture
def bench(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def export(rev, dest):
        (dest / "src" / "tvadapt").mkdir(parents=True)
        (dest / "src" / "tvadapt" / "m.py").write_text("a = 1\nb = 2\n")
        (dest / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
        # perfbench holds a reference digest for seeds 0-63 of every workload
        (dest / "perfbench").mkdir()
        (dest / "perfbench" / "reference.json").write_text(json.dumps({"digests": {
            w["name"]: {str(s): "d" for s in range(64)} for w in BENCHMARK["workloads"]}}))

    monkeypatch.setattr(module, "git", lambda *argv, text=True: f"rev-{argv[-1]}\n")
    monkeypatch.setattr(module, "export", export)
    return module


FINGERPRINT = {key: "x" for key in ("python", "numpy", "scipy", "openblas", "openblas_core",
                                    "blas_threads", "nproc", "cpu_count", "machine")}


def canned(value, fingerprint=FINGERPRINT):
    """A ``run_once`` stand-in that logs (side, seed) and reports ``value(side, seed)``."""
    calls = []

    def run_once(tree, workload, seed, seconds):
        side = tree.name
        calls.append((side, seed))
        result = {"attempted": 3, "failed": 0, "correct": True,
                  "metrics": {m: {"value": value(side, seed)} for m in METRICS}}
        return (f"# {workload} seed={seed}: reference checked",
                result, fingerprint(len(calls)) if callable(fingerprint) else fingerprint)

    return run_once, calls


def drive(bench, tmp_path, pairs=4):
    out = tmp_path / "BENCH.json"
    code = bench.main(["--parent", "p", "--change", "c", "--scratch", str(tmp_path / "s"),
                       "--pairs", f"{WORKLOAD}={pairs}", "--first-seed", "40",
                       "--out", str(out)])
    return code, json.loads(out.read_text())


def test_complete_comparison_writes_every_metric_summary(bench, tmp_path, monkeypatch):
    run_once, calls = canned(lambda side, seed: (1.0 if side == "parent" else 2.0) + seed / 100)
    monkeypatch.setattr(bench, "run_once", run_once)
    code, report = drive(bench, tmp_path)
    assert code == 0
    assert report["incomplete"] is False and "refused" not in report
    assert report["src_lines"] == {"parent": 2, "change": 2}
    assert report["machine"] == FINGERPRINT
    assert len(report["runs"]) == len(calls) == 8
    result = report["results"][WORKLOAD]
    assert result["pairs"] == 4 and result["seeds"] == [40, 41, 42, 43]
    for metric in BENCHMARK["end_to_end"]:
        summary = result[metric["name"]]
        assert summary["parent_median"] == pytest.approx(1.415)
        assert summary["change_median"] == pytest.approx(2.415)
        assert summary["parent_iqr"] == pytest.approx(0.015)
        assert summary["change_iqr"] == pytest.approx(0.015)
        assert summary["change_wins"] == (0 if metric["better"] == "lower" else 4)
        assert summary["bound"] == metric["bound"]
        want = "worse beyond bound" if metric["better"] == "lower" else "within bound"
        assert summary["verdict"] == want


def test_status_without_reference_checked_stops_the_comparison(bench, tmp_path, monkeypatch):
    # the real run_once reads this status line and refuses the run
    stdout = (f"# {WORKLOAD} seed=40: reference mismatch, record in r.json\n"
              + json.dumps({"correct": True, "failed": 0, "attempted": 3, "metrics": {}}))
    monkeypatch.setattr(bench, "subprocess", SimpleNamespace(
        run=lambda *a, **k: subprocess.CompletedProcess(a, 0, stdout, "")))
    code, report = drive(bench, tmp_path)
    assert code == 1
    assert report["incomplete"] is True and "results" not in report
    assert report["runs"] == []
    assert report["refused"] == {"workload": WORKLOAD, "seed": 40, "side": "parent",
                                 "status": f"# {WORKLOAD} seed=40: reference mismatch, "
                                           "record in r.json"}


def test_run_past_the_timeout_stops_the_comparison(bench, tmp_path, monkeypatch):
    timeouts = []

    def stuck(argv, **kwargs):
        timeouts.append(kwargs["timeout"])
        raise subprocess.TimeoutExpired(argv, kwargs["timeout"])

    monkeypatch.setattr(bench, "subprocess", SimpleNamespace(
        run=stuck, TimeoutExpired=subprocess.TimeoutExpired))
    code, report = drive(bench, tmp_path)
    assert code == 1 and timeouts == [bench.RUN_TIMEOUT_S] == [600]
    assert report["incomplete"] is True and report["runs"] == []
    assert report["refused"] == {"workload": WORKLOAD, "seed": 40, "side": "parent",
                                 "status": "timed out after 600 s"}


def test_fingerprint_unlike_the_first_runs_is_refused(bench, tmp_path, monkeypatch):
    moved = dict(FINGERPRINT, nproc="y")
    run_once, calls = canned(lambda side, seed: 1.0,
                             fingerprint=lambda n: FINGERPRINT if n < 3 else moved)
    monkeypatch.setattr(bench, "run_once", run_once)
    code, report = drive(bench, tmp_path)
    assert code == 1 and report["incomplete"] is True
    assert len(calls) == 3 and len(report["runs"]) == 2
    refused = report["refused"]
    assert (refused["seed"], refused["side"]) == (41, "change")
    assert refused["status"].startswith("machine differs from the first run in ['nproc']")


def test_even_seeds_run_the_parent_first(bench, tmp_path, monkeypatch):
    run_once, calls = canned(lambda side, seed: 1.0)
    monkeypatch.setattr(bench, "run_once", run_once)
    assert drive(bench, tmp_path)[0] == 0
    assert calls == [("parent", 40), ("change", 40), ("change", 41), ("parent", 41),
                     ("parent", 42), ("change", 42), ("change", 43), ("parent", 43)]


def test_seed_without_a_reference_stops_before_the_first_run(bench, tmp_path, monkeypatch):
    run_once, calls = canned(lambda side, seed: 1.0)
    monkeypatch.setattr(bench, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    missing = {WORKLOAD: [64, 65, 66, 67, 68, 69]}
    with pytest.raises(SystemExit, match=re.escape(f"digest for seeds {missing}")):
        bench.main(["--parent", "p", "--change", "c", "--scratch", str(tmp_path / "s"),
                    "--pairs", f"{WORKLOAD}=10", "--first-seed", "60", "--out", str(out)])
    assert calls == [] and not out.exists()
    assert list((tmp_path / "s").iterdir()) == []  # the exported trees are removed


def test_one_commit_on_both_sides_stops_before_the_export(bench, tmp_path, monkeypatch):
    exports = []
    monkeypatch.setattr(bench, "git", lambda *argv, text=True: "abc123\n")
    monkeypatch.setattr(bench, "export", lambda rev, dest: exports.append(rev))
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit, match="--parent and --change are one commit, abc123"):
        bench.main(["--parent", "HEAD~0", "--change", "main", "--scratch", str(tmp_path / "s"),
                    "--pairs", f"{WORKLOAD}=2", "--first-seed", "40", "--out", str(out)])
    assert exports == [] and not out.exists() and not (tmp_path / "s").exists()


LOWER = {"better": "lower", "bound": 0.1}


def test_summarize_verdicts(bench):
    assert bench.summarize(LOWER, [1.0] * 4, [1.2] * 4)["verdict"] == "worse beyond bound"
    assert bench.summarize(LOWER, [1.0] * 4, [1.05] * 4)["verdict"] == "within bound"
    # a parent IQR of 0.375 is wider than the 10 % bound
    wide = [0.5, 1.0, 1.0, 2.0]
    assert bench.summarize(LOWER, wide, [0.9, 1.0, 1.0, 1.0])["verdict"] == (
        "unresolved: IQR wider than the bound")
    # ... unless every change run beats every parent run
    beaten = bench.summarize(LOWER, [2.0, 3.0, 3.0, 4.0], [0.5, 1.0, 1.0, 1.5])
    assert beaten["verdict"] == "within bound" and beaten["change_wins"] == 4
    higher = dict(LOWER, better="higher")
    assert bench.summarize(higher, [1.0] * 4, [0.8] * 4)["verdict"] == "worse beyond bound"
    assert bench.summarize(higher, [1.0] * 4, [0.8] * 4)["change_wins"] == 0
    # a gain needs 9 of 10 pairs won and a median gap beyond the parent's IQR
    parent = [10.0 + 0.1 * k for k in range(10)]  # IQR 0.45
    faster = [p - 1.0 for p in parent]
    # 9 of 10 pairs won, the tied pair counting for neither side
    nine = bench.summarize(LOWER, parent, faster[:9] + [parent[9]])
    assert nine["change_wins"] == 9 and nine["gain"]
    # 8 of 10 won: the medians still differ by 1.0, but no gain
    eight = bench.summarize(LOWER, parent, faster[:8] + parent[8:])
    assert eight["change_wins"] == 8 and not eight["gain"]
    # every pair won, by a median gap of 0.3, inside the parent's IQR
    close = bench.summarize(LOWER, parent, [p - 0.3 for p in parent])
    assert close["change_wins"] == 10 and not close["gain"]
    # the same rule upward for a metric where higher is better
    assert bench.summarize(higher, parent, [p + 1.0 for p in parent])["gain"]
    assert not bench.summarize(higher, parent, faster)["gain"]
    # a gain claims nothing about the bound: the verdict is unchanged
    assert nine["verdict"] == eight["verdict"] == "within bound"

