"""Tests of the benchmark itself (not part of the package's tier-1 suite).

    python3 -m pytest perfbench -q

Each traced run is made once per module and shared; the whole file takes a
few minutes because ``full-serial`` and ``full-jobs2`` run every entry.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import probe  # noqa: E402
from workloads import (END_TO_END, LIGHT_IDS, WORKLOADS,  # noqa: E402
                       per_layer)

# Layer metrics and the workloads on which they must be nonzero: the layer
# each ROADMAP item targets, on the workload that exercises it.
SERVES = {
    "full-serial": ("mahler.polyroots.calls", "mahler.polyroots.busy_s",
                    "mahler.n_quadrature.busy_s", "mahler.n_quadrature.self_s",
                    "mahler.quad.calls", "mahler.quad.self_s"),
    "full-jobs2": ("mahler.polyroots.calls", "mahler.n_quadrature.busy_s",
                   "registry.pool_idle_frac"),
    "light-serial": ("registry.registry_entries.calls",
                     "registry.registry_entries.busy_s",
                     "symbolic.builtin_pairs.calls", "symbolic.builtin_pairs.busy_s",
                     "numkernel.bloch_wigner.calls", "numkernel.bloch_wigner.busy_s",
                     "elliptic.lattice_dilog_sum.calls",
                     "elliptic.lattice_dilog_sum.busy_s",
                     "elliptic.lattice_dilog_sum.self_s",
                     "series.sum_geometric.calls", "series.sum_geometric.self_s",
                     "series.richardson_sum.calls", "series.richardson_sum.self_s"),
    "light-hiprec": ("registry.registry_entries.calls",
                     "numkernel.bloch_wigner.calls", "numkernel.bloch_wigner.busy_s",
                     "elliptic.lattice_dilog_sum.busy_s"),
}

EXACT_COUNTS = [n for n, unit, _ in per_layer() if unit == "count"]


def bench(workload: str, seed: int, trace: int, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


_traced: dict = {}


def traced(workload: str, seed: int = 1):
    key = (workload, seed)
    if key not in _traced:
        _traced[key] = result(bench(workload, seed, 1))
    return _traced[key]


def test_benchmark_json_matches_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == per_layer()


@pytest.mark.parametrize("workload", sorted(SERVES))
def test_traced_run_reports_every_layer_metric(workload):
    detail, res = traced(workload)
    assert res["correct"] and res["failed"] == 0, detail["findings"]
    assert set(res["metrics"]) == {n for n, _, _ in per_layer()}
    zero = [n for n in SERVES[workload] if not res["metrics"][n]["value"] > 0]
    assert not zero, f"{workload}: zero layer metrics {zero}"
    ids = WORKLOADS[workload].entries
    assert all(res["metrics"][f"entry.{i}.ms"]["value"] > 0 for i in ids)
    # the probe ran in every pass, in the pool workers too
    assert all(p["probe"]["probes"] > 0 for p in detail["passes"])


def test_n_quadrature_idle_on_light_serial():
    _, res = traced("light-serial")
    for name in ("mahler.polyroots.calls", "mahler.n_quadrature.busy_s"):
        assert res["metrics"][name]["value"] == 0


def test_hiprec_doubles_lattice_work():
    _, low = traced("light-serial")
    _, high = traced("light-hiprec")
    name = "numkernel.bloch_wigner.calls"
    assert high["metrics"][name]["value"] > 1.5 * low["metrics"][name]["value"]


@pytest.mark.parametrize("workload", ["light-serial", "full-serial"])
def test_exact_counts_repeat(workload):
    # a second seed also permutes the run_check order of light-serial
    _, first = traced(workload, 1)
    _, second = traced(workload, 2)
    assert [first["metrics"][n]["value"] for n in EXACT_COUNTS] \
        == [second["metrics"][n]["value"] for n in EXACT_COUNTS]


def test_seed_permutes_order_not_results():
    (d1, r1), (d2, r2) = (result(bench("light-serial", s, 0)) for s in (1, 2))
    assert d1["orders"][0] != d2["orders"][0]
    assert all(sorted(o) == sorted(LIGHT_IDS) for o in d1["orders"] + d2["orders"])
    # every pass is checked against the same registry-order reference pass
    assert r1["correct"] and r2["correct"]
    assert r1["attempted"] > 0 and r1["failed"] == r2["failed"] == 0


def test_end_to_end_metrics_and_provenance():
    detail, res = result(bench("light-serial", 3, 0))
    assert list(res["metrics"]) == [n for n, _, _ in END_TO_END]
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert detail["passes"] and all(p["raw_wall_s"] > 0 and p["probe"]["probes"] > 0
                                    for p in detail["passes"])
    assert len(detail["setup_raw"]) == len(detail["setup_s"]) > 0
    # the probe found the entry it interrupted on the stack
    by_entry = detail["passes"][0]["probe"]["by_entry"]
    assert by_entry and set(by_entry) <= set(LIGHT_IDS)
    prov = detail["provenance"]
    assert prov["gmpy2"] == "absent" and prov["mpmath"]["backend"] == "python"
    assert prov["seed"] == 3 and prov["bits"] == 256 and prov["jobs"] == 1


def test_probe_scale():
    stats = {"probe_s": 0.1, "probes": 50, "alive_s": 2.0, "by_entry": {}}
    # the probe took 2 ms a run, twice the reference: the host ran at half
    # speed, and 5% of the armed wall time was the probe's
    assert probe.scale(stats, 2.0) == pytest.approx(2.0 * 0.95 / 2)
    assert probe.scale(stats, 1.9, cpu=True) == pytest.approx(1.8 / 2)
    # probes inside entries set the speed, not those of an idle stretch
    busy = dict(stats, by_entry={"a": [0.06, 20]})
    assert probe.scale(busy, 2.0) == pytest.approx(2.0 * 0.95 / 3)
    # a pool's wall time follows its busiest worker, its CPU time all of them
    idle = {"probe_s": 0.05, "probes": 50, "alive_s": 2.0, "by_entry": {"b": [0.01, 10]}}
    pool = {"probe_s": 0.11, "probes": 70, "alive_s": 4.0,
            "by_entry": {"a": [0.06, 20], "b": [0.01, 10]}, "workers": [idle, busy]}
    assert probe.scale(pool, 2.0) == pytest.approx(probe.scale(busy, 2.0))
    assert probe.scale(pool, 1.9, cpu=True) == pytest.approx((1.9 - 0.11) / (0.07 / 30) / 1000)
    with pytest.raises(ValueError):
        probe.scale({"probe_s": 0.0, "probes": 0, "alive_s": 1.0, "by_entry": {}}, 1.0)


def test_probe_leaves_no_timer_armed():
    import signal
    p = probe.Probe()
    p.start()
    probe.kernel(50 * probe.PROBE_ITERATIONS)
    p.stop()
    assert p.stats()["probes"] > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("light-serial", 1, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_value_mismatch_fails_the_run(tmp_path):
    for sub in ("src", "perfbench"):
        shutil.copytree(os.path.join(ROOT, sub), tmp_path / sub,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    assert bench("light-serial", 1, 0, cwd=str(tmp_path)).returncode == 0
    [ref_path] = (tmp_path / ".perfbench-cache").glob("reference-*-light-serial.json")
    ref = json.loads(ref_path.read_text())
    ref["reports"][0]["lhs_value"] += "1"
    ref_path.write_text(json.dumps(ref))
    proc = bench("light-serial", 1, 0, cwd=str(tmp_path))
    assert proc.returncode == 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not res["correct"] and res["failed"] >= 1
