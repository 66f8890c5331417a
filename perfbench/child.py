"""One measurement in a fresh interpreter; prints one JSON object.

    python3 perfbench/child.py setup
    python3 perfbench/child.py pass '<json spec>'

``setup`` times ``import wzmahler.registry`` through the first
``registry_entries()``.  ``pass`` runs one pass of a workload:

    {"workload": name, "order": [ids] | null, "trace": bool, "work_dir": path}

``order`` is the run_check order for workloads that drive ``run_check``;
``run_all`` workloads ignore it.  The caller puts the checkout's ``src`` on
PYTHONPATH.

Both run with the host-speed probe (``probe.py``) armed around the timed work
(in the pool workers, for workloads with ``jobs > 1``) and report its stats
under ``"probe"`` next to the raw times.
"""

from __future__ import annotations

import importlib.util
import json
import os
import resource
import sys
import time


def _setup() -> dict:
    from probe import SETUP_PROBE_PERIOD_S, Probe

    probe = Probe(period_s=SETUP_PROBE_PERIOD_S)
    probe.start()
    t0 = time.perf_counter()
    from wzmahler import registry
    registry.registry_entries()
    wall = time.perf_counter() - t0
    probe.stop()
    return {"setup_s": wall, "probe": probe.stats()}


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest pool worker."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def _pass(spec: dict) -> dict:
    import mpmath
    from wzmahler import registry
    from wzmahler.context import PrecisionCtx

    from probe import Probe
    from tracer import Tracer
    from workloads import LOCAL_BINDINGS, TRACED, WORKLOADS

    wl = WORKLOADS[spec["workload"]]
    ctx = PrecisionCtx(bits=wl.bits)
    tracer = None
    if spec["trace"]:
        tracer = Tracer(TRACED, LOCAL_BINDINGS, worker_dir=spec["work_dir"])
        tracer.install()
    probe = Probe(worker_dir=spec["work_dir"])
    if wl.jobs > 1:
        probe.arm_workers()
    else:
        probe.start()

    entry_s = {}
    c0, t0 = _cpu_s(), time.perf_counter()
    if wl.ids is None:
        reports, _code = registry.run_all(jobs=wl.jobs, ctx=ctx)
    else:
        reports = []
        for ident in spec["order"]:
            e0 = time.perf_counter()
            reports.append(registry.run_check(ident, ctx))
            entry_s[ident] = time.perf_counter() - e0
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - c0
    if wl.jobs > 1:
        probe.merge_workers()
    else:
        probe.stop()

    out = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": _peak_rss_mb(),
           "probe": probe.stats()}
    if tracer is not None:
        tracer.uninstall()
        tracer.merge_workers()
        out["layers"] = tracer.layer_metrics()
        out["entry_s"] = tracer.entry_s
    else:
        out["entry_s"] = entry_s or {r.id: r.elapsed_ms / 1000 for r in reports}
    out["reports"] = [r.to_dict() for r in reports]
    out["kinds"] = {r.id: r.kind for r in registry.registry_entries()}
    out["wzmahler_file"] = registry.__file__
    out["gmpy2"] = "absent" if importlib.util.find_spec("gmpy2") is None \
        else "present"
    out["mpmath"] = {"version": mpmath.__version__,
                     "backend": mpmath.libmp.BACKEND}
    return out


def main(argv: list[str]) -> int:
    if argv[1] == "setup":
        result = _setup()
    else:
        result = _pass(json.loads(argv[2]))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
