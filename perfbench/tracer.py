"""Call tracer for the layers of wzmahler, installed from outside the package.

wzmahler's modules import each other's functions with ``from ... import``, so
one function is reachable under several module attributes.  ``Tracer``
replaces every such binding with a wrapper that counts calls and measures

* ``busy_s``: inclusive time of outermost calls (recursion counted once);
* ``self_s``: inclusive time minus the time spent in traced callees.

Under a forked process pool each worker inherits the wrappers; the tracer
restarts its tallies in the worker and writes them to ``worker_dir`` when the
worker exits, and ``merge_workers`` adds them to the parent's.
"""

from __future__ import annotations

import json
import os
import sys
import time
from multiprocessing import util as mp_util


class _Stat:
    __slots__ = ("calls", "busy", "self", "depth")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self = 0.0
        self.depth = 0


class Tracer:
    def __init__(self, traced: dict, local_bindings=frozenset(),
                 worker_dir: str | None = None):
        self.traced = traced
        self.local_bindings = local_bindings
        self.worker_dir = worker_dir
        self.stats = {name: _Stat() for name in traced}
        self.entry_s: dict[str, float] = {}
        self._children: list[float] = []   # callee time, one slot per frame
        self._patched: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self):
        packages = [m for n, m in list(sys.modules.items())
                    if m is not None and (n == "wzmahler" or n.startswith("wzmahler."))]
        for name, (modname, attr) in self.traced.items():
            home = sys.modules[modname]
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            holders = [home] if name in self.local_bindings else packages
            for mod in holders:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, value))
                        setattr(mod, key, wrapper)
        if self.worker_dir is not None:
            mp_util.register_after_fork(self, Tracer._start_worker)

    def uninstall(self):
        for mod, key, value in reversed(self._patched):
            setattr(mod, key, value)
        self._patched.clear()

    def _wrap(self, name, fn):
        stat = self.stats[name]
        children = self._children
        clock = time.perf_counter
        entry_s = self.entry_s if name == "registry.run_check" else None

        def traced(*args, **kwargs):
            stat.calls += 1
            stat.depth += 1
            children.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.self += dt - children.pop()
                stat.depth -= 1
                if stat.depth == 0:
                    stat.busy += dt
                if children:
                    children[-1] += dt
                if entry_s is not None:
                    entry_s[args[0]] = entry_s.get(args[0], 0.0) + dt

        traced.__wrapped__ = fn
        return traced

    # -- forked pool workers ----------------------------------------------

    def _start_worker(self):
        for stat in self.stats.values():
            stat.calls, stat.busy, stat.self = 0, 0.0, 0.0
        self.entry_s.clear()
        mp_util.Finalize(self, self._write_worker, exitpriority=100)

    def _write_worker(self):
        path = os.path.join(self.worker_dir, f"worker-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh)

    def merge_workers(self):
        """Add the tallies every exited worker wrote."""
        names = sorted(n for n in os.listdir(self.worker_dir)
                       if n.startswith("worker-"))
        for fname in names:
            path = os.path.join(self.worker_dir, fname)
            with open(path) as fh:
                snap = json.load(fh)
            os.remove(path)
            for name, (calls, busy, self_s) in snap["stats"].items():
                stat = self.stats[name]
                stat.calls += calls
                stat.busy += busy
                stat.self += self_s
            for ident, secs in snap["entry_s"].items():
                self.entry_s[ident] = self.entry_s.get(ident, 0.0) + secs

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict:
        return {"stats": {n: (s.calls, s.busy, s.self)
                          for n, s in self.stats.items()},
                "entry_s": dict(self.entry_s)}

    def layer_metrics(self) -> dict[str, float]:
        out = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.busy_s"] = stat.busy
            out[f"{name}.self_s"] = stat.self
        return out
