"""Host-speed probe: a fixed kernel interleaved with the measured work.

The benchmark runs on a shared virtual machine whose CPU speed changes by up
to a factor of two within seconds and drifts over minutes, while the work
stays the same.  ``Probe`` runs a fixed pure-Python kernel (no mpmath, no
wzmahler) from a ``SIGALRM`` handler every ``PROBE_PERIOD_S`` of
wall time, in the same thread as the work, and records the CPU time each run
of the kernel took.  The mean of those durations over an interval is the
speed the host gave that thread during the interval.

``Probe.stats`` returns ``probe_s`` (CPU time spent in the kernel), ``probes``
(how many ran), ``alive_s`` (wall time the probe was armed) and ``by_entry``,
the same two tallies per registry entry: the handler looks up the stack for
the ``wzmahler.registry.run_check`` frame it interrupted.  ``scale``
turns a raw time measured while the probe ran into *reference seconds*:
the time minus the probe's share of it, times ``PROBE_REF_S`` over the mean
kernel duration.  A reference second is a second on a host where the kernel
takes ``PROBE_REF_S``.

Under a forked process pool, ``Probe(worker_dir=...)`` arms itself in every
worker after the fork (interval timers are not inherited) and writes the
worker's stats to ``worker_dir`` when the worker exits; ``merge_workers``
adds them up and keeps each worker's under ``workers``.
"""

from __future__ import annotations

import json
import os
import signal
import time
from multiprocessing import util as mp_util

PROBE_PERIOD_S = 0.02
SETUP_PROBE_PERIOD_S = 0.005    # set-up takes about 0.1 s: probe it densely
PROBE_ITERATIONS = 600
PROBE_REF_S = 0.001
MIN_ENTRY_PROBES = 5    # fewer probes in an entry: scale it by the whole pass

_MODULUS = (1 << 160) - 47
_SQUARE_MODULUS = (1 << 256) - 189
_SQUARE_SEED = 0x9E3779B97F4A7C15F39CC0605CEDC8341082276BF3A27251F86C6A11D0C18E95


class _Gauss:
    """A Gaussian integer: small objects and method calls."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def mul(self, other):
        return _Gauss(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re)


def kernel(iterations: int = PROBE_ITERATIONS) -> int:
    """Object churn and multi-word integer arithmetic, the mix mpmath's
    pure-Python backend spends its time on: each step multiplies two
    Gaussian-integer objects modulo a 160-bit prime and squares a 256-bit
    integer modulo another."""
    z, x, seen = _Gauss(3, 5), _SQUARE_SEED, {}
    for k in range(iterations):
        z = z.mul(_Gauss(k + 1, 7))
        z = _Gauss(z.re % _MODULUS, z.im % _MODULUS)
        x = (x * x + k) % _SQUARE_MODULUS
        seen[k & 31] = (z.re >> 100, x & 0xFFFF)
    return len(seen)


class Probe:
    def __init__(self, worker_dir: str | None = None,
                 period_s: float = PROBE_PERIOD_S):
        self.worker_dir = worker_dir
        self.period_s = period_s
        self.probe_s = 0.0
        self.probes = 0
        self.by_entry: dict[str, list] = {}
        self.workers: list[dict] = []
        self._armed_at = None
        self._alive_s = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.thread_time()
        kernel()
        dt = time.thread_time() - t0
        self.probe_s += dt
        self.probes += 1
        entry = _running_entry(frame)
        if entry is not None:
            tally = self.by_entry.setdefault(entry, [0.0, 0])
            tally[0] += dt
            tally[1] += 1

    def start(self):
        kernel()                         # warm the kernel's code paths
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._armed_at = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._armed_at is not None:
            self._alive_s += time.perf_counter() - self._armed_at
            self._armed_at = None
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def stats(self) -> dict:
        return {"probe_s": self.probe_s, "probes": self.probes,
                "alive_s": self._alive_s, "by_entry": self.by_entry,
                "workers": self.workers}

    # -- forked pool workers ----------------------------------------------

    def arm_workers(self):
        mp_util.register_after_fork(self, Probe._start_worker)

    def _start_worker(self):
        self.probe_s, self.probes, self._alive_s = 0.0, 0, 0.0
        self.by_entry = {}
        self.start()
        mp_util.Finalize(self, self._write_worker, exitpriority=100)

    def _write_worker(self):
        self.stop()
        path = os.path.join(self.worker_dir, f"probe-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump(self.stats(), fh)

    def merge_workers(self):
        """Add up the stats every exited worker wrote, and keep each."""
        for fname in sorted(os.listdir(self.worker_dir)):
            if not fname.startswith("probe-"):
                continue
            path = os.path.join(self.worker_dir, fname)
            with open(path) as fh:
                snap = json.load(fh)
            os.remove(path)
            self.workers.append(snap)
            self.probe_s += snap["probe_s"]
            self.probes += snap["probes"]
            self._alive_s += snap["alive_s"]
            for entry, (probe_s, probes) in snap["by_entry"].items():
                tally = self.by_entry.setdefault(entry, [0.0, 0])
                tally[0] += probe_s
                tally[1] += probes


def _running_entry(frame) -> str | None:
    """The id ``wzmahler.registry.run_check`` is checking in ``frame``'s
    stack, if any."""
    while frame is not None:
        if (frame.f_code.co_name == "run_check"
                and frame.f_globals.get("__name__") == "wzmahler.registry"):
            return frame.f_locals.get("ident")
        frame = frame.f_back
    return None


def _in_entries(stats: dict) -> int:
    return sum(n for _, n in stats["by_entry"].values())


def scale(stats: dict, raw_s: float, cpu: bool = False) -> float:
    """``raw_s``, measured while the probe ran, in reference seconds.

    A wall time loses the probe's share of the armed time; a CPU time
    (``cpu=True``, which covers every probed process) loses the probe's own
    CPU time.  The speed is the probes' mean inside registry entries, when
    enough of them ran there, else over all of them.  A pool's wall time is
    scaled by its busiest worker alone, the one on the critical path.
    """
    if not cpu and stats.get("workers"):
        stats = max(stats["workers"], key=_in_entries)
    if stats["probes"] == 0:
        raise ValueError("no probe ran during the measurement")
    mean = stats["probe_s"] / stats["probes"]
    if _in_entries(stats) >= MIN_ENTRY_PROBES:
        # the speed while entries ran, not while a pool worker sat idle
        in_entries = stats["by_entry"].values()
        mean = sum(s for s, _ in in_entries) / _in_entries(stats)
    if cpu:
        work = raw_s - stats["probe_s"]
    else:
        work = raw_s * (1 - stats["probe_s"] / stats["alive_s"])
    return work * PROBE_REF_S / mean


def scale_entry(stats: dict, entry: str, raw_s: float) -> float:
    """An entry's raw time in reference seconds, scaled by the probes that
    ran inside it when there were enough of them, else by the whole pass."""
    probe_s, probes = stats["by_entry"].get(entry, (0.0, 0))
    if probes < MIN_ENTRY_PROBES:
        return scale(stats, raw_s)
    return scale({"probe_s": probe_s, "probes": probes, "alive_s": raw_s,
                  "by_entry": {}}, raw_s)
