"""Workloads, expected outcomes and metric names of the wzmahler benchmark.

Shared by ``run.py`` (which runs the passes and never imports wzmahler) and
``child.py`` (one pass in a fresh interpreter).  ``BENCHMARK.json`` at the
repository root lists the same metric names; ``test_perfbench.py`` checks
that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass

# The 34 registry entries, in registry order.
ENTRY_IDS = (
    "wz-pair-1", "wz-pair-3", "wz-pair-divergent",
    "log2-f1", "log2-f2", "log2-f3", "log2-f1-gen", "log2-f3-gen",
    "zeta2-laurent", "zeta3-f1", "zeta3-f2", "zeta3-f3", "finite-4f3",
    "lalin-m1-m16", "m2-m8", "ko-m1-m16-2m5", "lr-m2-m8-2m3sqrt2",
    "log4r-identity", "qseries-m-series", "qseries-m-quad",
    "qseries-n", "qseries-n2", "dilog-equiv-1", "dilog-equiv-2",
    "m5-dilog", "m8-dilog", "m16-dilog", "m3sqrt2-dilog",
    "bertin-exotic", "bertin-n-form", "bertin-series", "arctan-strange",
    "rs-param", "torsion-orders",
)

# Exact entries report a certificate or an exact comparison, not a residual.
EXACT_IDS = frozenset({"wz-pair-1", "wz-pair-3", "wz-pair-divergent",
                       "torsion-orders"})
NUMERIC_IDS = tuple(i for i in ENTRY_IDS if i not in EXACT_IDS)

# The entries that evaluate n(alpha) by Jensen quadrature.
N_QUADRATURE_IDS = frozenset({"qseries-n", "qseries-n2", "bertin-n-form"})
LIGHT_IDS = tuple(i for i in ENTRY_IDS if i not in N_QUADRATURE_IDS)

CONJECTURAL_IDS = frozenset({"zeta3-f2"})


def expected_status(ident: str) -> str:
    return "CONJECTURAL-PASS" if ident in CONJECTURAL_IDS else "PASS"


@dataclass(frozen=True)
class Workload:
    """One pass: ``ids`` through ``run_all(jobs=jobs)`` (``ids is None``) or
    through ``run_check`` one id at a time, at ``bits`` of precision.

    ``reference`` names the workload whose untraced, unpermuted pass every
    pass of this one must reproduce (statuses and value strings).
    """

    name: str
    bits: int
    jobs: int
    ids: tuple | None
    reference: str
    why: str

    @property
    def entries(self) -> tuple:
        return ENTRY_IDS if self.ids is None else self.ids


WORKLOADS = {w.name: w for w in (
    Workload("full-serial", 256, 1, None, "full-serial",
             "wzmahler all: every entry through run_all(jobs=1); n(alpha) "
             "quadrature dominates"),
    Workload("light-serial", 256, 1, LIGHT_IDS, "light-serial",
             "the 31 entries without n(alpha) quadrature via run_check; "
             "registry rebuilds, Bloch-Wigner and series engines"),
    Workload("light-hiprec", 512, 1, LIGHT_IDS, "light-hiprec",
             "the light-serial entries at 512 bits: lattice sums double their "
             "Bloch-Wigner work, series entries stay flat"),
    Workload("full-jobs2", 256, 2, None, "full-serial",
             "every entry through run_all(jobs=2): process pool, cold "
             "per-worker caches, load balance"),
)}

# (metric, unit, better) -- the end-to-end metrics, reported with --trace 0.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("slowest_check_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_ratio", "ratio", "higher"),
    ("min_agree_digits", "digits", "higher"),
    ("median_agree_digits", "digits", "higher"),
    ("setup_s", "s", "lower"),
)

# Traced functions: metric prefix -> (module, attribute).  The tracer rebinds
# the function under every name any wzmahler module holds it by; the two
# mpmath bindings are rebound in ``wzmahler.mahler`` only, so that root
# solves made by ``elliptic.periods`` do not count as n(alpha) work.
TRACED = {
    "registry.registry_entries": ("wzmahler.registry", "registry_entries"),
    "registry.run_check": ("wzmahler.registry", "run_check"),
    "symbolic.builtin_pairs": ("wzmahler.symbolic.pairs", "builtin_pairs"),
    "symbolic.wz_verify": ("wzmahler.symbolic.wz", "wz_verify"),
    "symbolic.pfq_eval": ("wzmahler.symbolic.pfq", "pfq_eval"),
    "series.sum_geometric": ("wzmahler.series", "sum_geometric"),
    "series.richardson_sum": ("wzmahler.series", "richardson_sum"),
    "mahler.m_series": ("wzmahler.mahler", "m_series"),
    "mahler.rv_series": ("wzmahler.mahler", "rv_series"),
    "mahler.m_quadrature": ("wzmahler.mahler", "m_quadrature"),
    "mahler.n_quadrature": ("wzmahler.mahler", "n_quadrature"),
    "mahler.polyroots": ("wzmahler.mahler", "polyroots"),
    "mahler.quad": ("wzmahler.mahler", "quad"),
    "elliptic.periods": ("wzmahler.elliptic", "periods"),
    "elliptic.lattice_dilog_sum": ("wzmahler.elliptic", "lattice_dilog_sum"),
    "numkernel.bloch_wigner": ("wzmahler.numkernel", "bloch_wigner"),
    "numkernel.gamma_real": ("wzmahler.numkernel", "gamma_real"),
    "numkernel.agm": ("wzmahler.numkernel", "agm"),
    "modular.phi_theta": ("wzmahler.modular", "phi_theta"),
    "modular.xq_product": ("wzmahler.modular", "xq_product"),
}
LOCAL_BINDINGS = frozenset({"mahler.polyroots", "mahler.quad"})

# Per-layer metrics taken from the tracer: "<prefix>.<calls|busy_s|self_s>".
LAYER_STATS = (
    "registry.registry_entries.calls", "registry.registry_entries.busy_s",
    "registry.run_check.self_s",
    "symbolic.builtin_pairs.calls", "symbolic.builtin_pairs.busy_s",
    "symbolic.wz_verify.busy_s", "symbolic.pfq_eval.busy_s",
    "series.sum_geometric.calls", "series.sum_geometric.self_s",
    "series.richardson_sum.calls", "series.richardson_sum.self_s",
    "mahler.n_quadrature.busy_s", "mahler.n_quadrature.self_s",
    "mahler.polyroots.calls", "mahler.polyroots.busy_s",
    "mahler.quad.calls", "mahler.quad.self_s",
    "mahler.m_series.busy_s", "mahler.m_quadrature.busy_s",
    "mahler.rv_series.busy_s",
    "elliptic.lattice_dilog_sum.calls", "elliptic.lattice_dilog_sum.busy_s",
    "elliptic.lattice_dilog_sum.self_s", "elliptic.periods.busy_s",
    "numkernel.bloch_wigner.calls", "numkernel.bloch_wigner.busy_s",
    "numkernel.gamma_real.busy_s", "numkernel.agm.calls",
    "modular.phi_theta.busy_s", "modular.xq_product.busy_s",
)


def _layer_better(name: str) -> str:
    return "higher" if name.endswith("agree_digits") else "lower"


def _layer_unit(name: str) -> str:
    if name.endswith(".calls") or name == "registry.terms_used":
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".ms"):
        return "ms"
    if name.endswith("agree_digits"):
        return "digits"
    return "ratio"


def per_layer() -> list[tuple[str, str, str]]:
    """(metric, unit, better) for every metric reported with --trace 1."""
    names = (list(LAYER_STATS)
             + ["registry.terms_used", "registry.pool_idle_frac",
                "trace.overhead_s"]
             + [f"entry.{i}.ms" for i in ENTRY_IDS]
             + [f"entry.{i}.agree_digits" for i in NUMERIC_IDS])
    return [(n, _layer_unit(n), _layer_better(n)) for n in names]
