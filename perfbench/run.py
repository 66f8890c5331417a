"""wzmahler benchmark: the command that runs one workload and reports it.

    python3 perfbench/run.py --workload full-serial --seed 1 --seconds 24 --trace 0

Run from the root of a wzmahler checkout.  Every pass runs in a fresh
interpreter (``child.py``) with the checkout's ``src`` on PYTHONPATH, so each
pass starts with cold module caches, as ``wzmahler all`` does.  Passes repeat
until ``--seconds`` have elapsed (at least one pass).  The last line of
standard output is the result object; the line before it holds provenance,
per-pass values and the correctness findings.

--trace 0  end-to-end metrics (medians over passes) plus ``setup_s``, the
           median of eleven fresh-process set-up times.
--trace 1  per-layer metrics: passes alternate untraced and traced, and
           ``trace.overhead_s`` is the difference of their median wall times.

Every time is reported in reference seconds: the host-speed probe
(``probe.py``) runs beside the work, and ``probe.scale`` removes its own
share and rescales by the speed the host gave the work.  The raw times are on
the line before the result.

Every pass, traced or not, must reproduce the expected statuses and the value
strings of the reference pass (the untraced pass of the workload's reference
workload in registry order, cached per source digest under
``.perfbench-cache/``).  A mismatch makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from decimal import Decimal
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from probe import scale, scale_entry  # noqa: E402
from workloads import (END_TO_END, LAYER_STATS, NUMERIC_IDS,  # noqa: E402
                       WORKLOADS, expected_status, per_layer)

SETUP_SAMPLES = 11
RUN_LIMIT_S = 170       # a run gives up, with exit code 1, after this long
CACHE_DIR = ".perfbench-cache"
COMPARED_FIELDS = ("status", "lhs_value", "rhs_value", "abs_diff")


class BenchError(RuntimeError):
    pass


def _child(root: str, deadline: float, args: list[str]) -> dict:
    """Run child.py in its own process group; kill the group on timeout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), *args],
                            cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args[0]} exceeded the run's time limit")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} failed ({proc.returncode}):\n"
                         f"{err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def _run_pass(root: str, deadline: float, workload: str, order, trace: bool,
              work_dir: str) -> dict:
    spec = {"workload": workload, "order": order, "trace": trace,
            "work_dir": work_dir}
    out = _child(root, deadline, ["pass", json.dumps(spec)])
    expected_src = os.path.join(root, "src", "wzmahler")
    if os.path.dirname(os.path.abspath(out["wzmahler_file"])) != expected_src:
        raise BenchError(f"imported {out['wzmahler_file']}, not the checkout's")
    return out


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src", "wzmahler")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(filenames):
            if fname.endswith((".py", ".txt")):
                path = os.path.join(dirpath, fname)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read() + b"\0")
    return h.hexdigest()


def _git_commit(root: str) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def reference_pass(root: str, deadline: float, workload: str, digest: str,
                   work_dir: str) -> dict:
    """Untraced registry-order pass of ``workload``, cached per source digest
    and workload definition."""
    wl = WORKLOADS[workload]
    key = hashlib.sha256(f"{digest} {wl!r}".encode()).hexdigest()[:20]
    path = os.path.join(root, CACHE_DIR, f"reference-{key}-{workload}.json")
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    ref = _run_pass(root, deadline, workload, list(wl.entries), False, work_dir)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        json.dump(ref, fh)
    os.replace(tmp, path)
    return ref


def check_pass(reports: list[dict], expected_ids, reference: dict) -> list[str]:
    """Findings for one pass; each is one failed check."""
    ref = {r["id"]: r for r in reference["reports"]}
    got = {r["id"]: r for r in reports}
    findings = [f"{i}: missing" for i in expected_ids if i not in got]
    for ident, rep in got.items():
        if rep["status"] != expected_status(ident):
            findings.append(f"{ident}: status {rep['status']}")
        elif ident not in ref:
            findings.append(f"{ident}: not in the reference pass")
        else:
            diff = [f for f in COMPARED_FIELDS if rep[f] != ref[ident][f]]
            if diff:
                findings.append(f"{ident}: {', '.join(diff)} differ from reference")
    return findings


def agree_digits(abs_diff: str, bits: int) -> float:
    """-log10 |lhs - rhs|; an exact 0 counts as the working precision."""
    d = Decimal(abs_diff)
    if d == 0:
        return bits * math.log10(2)
    return float(-d.log10())


def digits_by_id(passed: dict, bits: int) -> dict[str, float]:
    return {r["id"]: agree_digits(r["abs_diff"], bits) for r in passed["reports"]
            if passed["kinds"].get(r["id"]) != "exact-symbolic"}


def scaled_pass(p: dict) -> dict:
    """A pass's times in reference seconds (see ``probe.scale``)."""
    return {"wall_s": scale(p["probe"], p["wall_s"]),
            "cpu_s": scale(p["probe"], p["cpu_s"], cpu=True),
            "entry_s": {i: scale_entry(p["probe"], i, s)
                        for i, s in p["entry_s"].items()}}


def end_to_end(passes: list[dict], setup: list[float], bits: int,
               attempted: int, failed: int) -> dict:
    digits = list(digits_by_id(passes[0], bits).values())
    scaled = [scaled_pass(p) for p in passes]
    values = {
        "wall_s": median(p["wall_s"] for p in scaled),
        "cpu_s": median(p["cpu_s"] for p in scaled),
        "slowest_check_s": max(median(p["entry_s"][i] for p in scaled)
                               for i in scaled[0]["entry_s"]),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
        "pass_ratio": 1 - failed / attempted,
        "min_agree_digits": min(digits),
        "median_agree_digits": median(digits),
        "setup_s": median(setup),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _better in END_TO_END}


def layer_metrics(plain: list[dict], traced: list[dict], jobs: int, bits: int) -> dict:
    def layer(p, name):
        v = p["layers"][name]
        return v if name.endswith(".calls") else scale(p["probe"], v)

    values = {name: median(layer(p, name) for p in traced)
              for name in LAYER_STATS}
    values["registry.terms_used"] = median(
        sum(r["terms_used"] for r in p["reports"]) for p in traced)
    values["registry.pool_idle_frac"] = median(
        1 - sum(r["elapsed_ms"] for r in p["reports"]) / 1000 / (jobs * p["wall_s"])
        for p in traced)
    values["trace.overhead_s"] = (
        median(scale(p["probe"], p["wall_s"]) for p in traced)
        - median(scale(p["probe"], p["wall_s"]) for p in plain))
    digits = digits_by_id(traced[0], bits)
    for ident in {r["id"] for r in traced[0]["reports"]}:
        values[f"entry.{ident}.ms"] = median(
            1000 * scale_entry(p["probe"], ident, p["entry_s"].get(ident, 0.0))
            for p in traced)
    for ident in NUMERIC_IDS:
        values[f"entry.{ident}.agree_digits"] = digits.get(ident, 0.0)
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit, _better in per_layer()}


def run(args) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wzmahler", "registry.py")):
        print("perfbench: run from the root of a wzmahler checkout "
              "(src/wzmahler/registry.py not found)", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    digest = source_digest(root)
    os.makedirs(os.path.join(root, CACHE_DIR), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="workers-", dir=os.path.join(root, CACHE_DIR))
    try:
        reference = reference_pass(root, deadline, wl.reference, digest, work_dir)
        setup, setup_raw = [], []
        if not args.trace:
            setup_raw = [_child(root, deadline, ["setup"])
                         for _ in range(SETUP_SAMPLES)]
            setup = [scale(s["probe"], s["setup_s"]) for s in setup_raw]

        # run_check workloads draw a new order for every round from the seed,
        # so no entry always pays the first call's warm-up; run_all takes no
        # order and runs the registry in its own.
        rng = random.Random(args.seed)
        plain, traced, orders = [], [], []
        # Start another round only if a round of average length still fits,
        # so a run of passes that each take most of --seconds stays near it.
        start = time.perf_counter()
        while True:
            order = rng.sample(wl.ids, len(wl.ids)) if wl.ids is not None else None
            orders.append(order)
            plain.append(_run_pass(root, deadline, wl.name, order, False, work_dir))
            if args.trace:
                traced.append(_run_pass(root, deadline, wl.name, order, True, work_dir))
            elapsed = time.perf_counter() - start
            if elapsed * (len(plain) + 1) / len(plain) > args.seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    expected_ids = wl.entries if wl.ids is not None else \
        [r["id"] for r in reference["reports"]]
    attempted = failed = 0
    findings = []
    for kind, passes in (("reference", [reference]), ("plain", plain),
                         ("traced", traced)):
        for i, p in enumerate(passes):
            found = check_pass(p["reports"], expected_ids, reference)
            attempted += len(expected_ids)
            failed += len(found)
            findings += [f"{kind} pass {i}: {f}" for f in found]

    if args.trace:
        metrics = layer_metrics(plain, traced, wl.jobs, wl.bits)
    else:
        metrics = end_to_end(plain, setup, wl.bits, attempted, failed)

    first = plain[0]
    detail = {
        "provenance": {
            "workload": wl.name, "why": wl.why, "bits": wl.bits, "jobs": wl.jobs,
            "entries": list(expected_ids),
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "mpmath": first["mpmath"],
            "gmpy2": first["gmpy2"],
            "git_commit": _git_commit(root), "source_sha256": digest,
        },
        "orders": orders,
        "passes": [{"traced": kind == "traced", "raw_wall_s": p["wall_s"],
                    "raw_cpu_s": p["cpu_s"], "peak_rss_mb": p["peak_rss_mb"],
                    "probe": p["probe"],
                    "wall_s": scale(p["probe"], p["wall_s"]),
                    "cpu_s": scale(p["probe"], p["cpu_s"], cpu=True)}
                   for kind, ps in (("plain", plain), ("traced", traced))
                   for p in ps],
        "setup_s": setup,
        "setup_raw": setup_raw,
        "findings": findings,
    }
    print(json.dumps(detail))
    print(json.dumps({"correct": not findings, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not findings else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        return run(args)
    except (BenchError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
