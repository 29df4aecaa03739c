"""Metric tables of the mbzero benchmark.

BENCHMARK.json lists the same names, units and directions; the tables here
add, for each per-layer metric, the metric it should move and on which
workload (``test_perfbench.py`` keeps the two in step).
"""

from __future__ import annotations

import statistics

# name, unit, better, bound
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    # on the shared 2-core Xeon the bounds were set on, speed-scaled pass
    # times still spread by up to 0.13 over 10 seeds (README: Noise)
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Phase metrics of single CLI calls, measured with tracing off. They apply
# to one workload each, so they are reported in the traced run (0 where
# the phase is not part of the workload) and in the --workload all summary.
PHASES = (
    # name, unit, better, workload, CLI call keys, what is counted
    ("zeros_per_s", "1/s", "higher", "catalog", ("census_zeta", "census_beta"),
     "items"),
    ("roots_per_s", "1/s", "higher", "catalog", ("filter_roots",), "items"),
    ("dd_roots_per_s", "1/s", "higher", "high_energy", ("filter_roots_dd",),
     "items"),
    ("bijection_s", "s", "lower", "high_energy", ("bijection",), "seconds"),
)

CLAIM_IDS = (
    "specfun_conjugation", "gamma_reflection", "xi_functional_symmetry",
    "beta_functional_equation", "bessel_k_order_symmetry", "bessel_wronskian",
    "bessel_small_x_power", "bessel_large_x_decay", "eigenfunction_l2",
    "mb_contour_shift", "mb_scale_regularity", "mb_a_to_zero_limit",
    "mb_double_pole_circle", "mb_hadamard_ladder_independence",
    "filter_zero_pairing_beta", "guinand_weil_formula", "counting_rvm",
    "s_t_bound_hmty", "bijection_delta_zero", "spacing_wigner_dyson",
    "pair_correlation_sine_kernel", "density_peak_alignment",
    "trace_I_even_odd", "weil_prime_side", "trace_class_p2", "fredholm_z0.4",
    "frobenius_criterion_grid", "deficiency_log_divergence",
    "prufer_monotonicity",
)

_LEDGER = "wall_s@ledger"
_ZEROS = "zeros_per_s@catalog"
_ROOTS = "roots_per_s@catalog"
_BIJ = "bijection_s@high_energy"
_DD = "dd_roots_per_s@high_energy"
_SETUP = "setup_s@all"

# name, unit, better, the end-to-end or phase metric it should move
PER_LAYER = (
    ("specfun.log_gamma.calls", "count", "lower", _LEDGER),
    ("specfun.log_gamma.self_s", "s", "lower", _LEDGER),
    ("specfun.zeta_vec.calls", "count", "lower", _LEDGER),
    ("specfun.zeta_vec.points", "count", "lower", _LEDGER),
    ("specfun.zeta_vec.self_s", "s", "lower", _LEDGER),
    ("specfun.dirichlet_beta_vec.points", "count", "lower", _LEDGER),
    ("specfun.zeta.calls", "count", "lower", f"{_BIJ} {_ZEROS}"),
    ("specfun.zeta.self_s", "s", "lower", f"{_BIJ} {_ZEROS}"),
    ("specfun.arg_zeta_rectangle.calls", "count", "lower", f"{_BIJ} {_ZEROS}"),
    ("specfun.arg_zeta_rectangle.s", "s", "lower", f"{_BIJ} {_ZEROS}"),
    ("specfun.riemann_siegel_theta.calls", "count", "lower", _ZEROS),
    ("specfun.digamma.calls", "count", "lower", _ROOTS),
    ("specfun.completed_xi.calls", "count", "lower", _LEDGER),
    ("mbfilter.mb_integral.calls", "count", "lower", _LEDGER),
    ("mbfilter.mb_integral.self_s", "s", "lower", _LEDGER),
    ("mbfilter.points_per_integral", "count", "lower", _LEDGER),
    ("mbfilter.contour_shift_delta.s", "s", "lower", _LEDGER),
    ("mbfilter.newton_filter_root.calls", "count", "lower", _ROOTS),
    ("mbfilter.newton_filter_root.s", "s", "lower", _ROOTS),
    ("mbfilter.spectral_filter.calls", "count", "lower", _ROOTS),
    ("mbfilter.newton_root_dd.calls", "count", "lower", _DD),
    ("mbfilter.newton_root_dd.s", "s", "lower", _DD),
    ("zerocensus.scan_zeros.s", "s", "lower", _ZEROS),
    ("zerocensus.scan_zeros.retries", "count", "lower", _ZEROS),
    ("zerocensus.zeros_found", "count", "higher", _ZEROS),
    ("zerocensus.n_H_guinand_weil.calls", "count", "lower", _BIJ),
    ("zerocensus.bijection_audit.s", "s", "lower", _BIJ),
    ("zerocensus.s_grid.s", "s", "lower", _LEDGER),
    ("zerocensus.catalog_store.s", "s", "lower", _SETUP),
    ("zerocensus.catalog_load.s", "s", "lower", _SETUP),
    ("zerocensus.catalog_bytes", "B", "lower", _SETUP),
    ("bessel.bessel_K.calls", "count", "lower", _LEDGER),
    ("bessel.bessel_K.s", "s", "lower", _LEDGER),
    ("operatorlab.eigenfunction_L2_classifier.s", "s", "lower", _LEDGER),
    ("operatorlab.prufer_integrate.calls", "count", "lower", _LEDGER),
    ("operatorlab.prufer_integrate.s", "s", "lower", _LEDGER),
    ("operatorlab.deficiency_divergence_check.s", "s", "lower", _LEDGER),
    ("quadrature.rk_adaptive.calls", "count", "lower", _LEDGER),
    ("spectrostats.oscillatory_density.s", "s", "lower", _LEDGER),
    ("spectrostats.unfold.s", "s", "lower", _LEDGER),
    ("audit.ledger_json.s", "s", "lower", _LEDGER),
    *((f"claims.{cid}.s", "s", "lower", _LEDGER) for cid in CLAIM_IDS),
    ("cli.census.s", "s", "lower", "wall_s@catalog"),
    ("cli.filter-roots.s", "s", "lower", "wall_s@catalog wall_s@high_energy"),
    ("cli.bijection.s", "s", "lower", "wall_s@high_energy"),
    ("cli.stats.s", "s", "lower", "wall_s@catalog"),
    ("cli.audit.s", "s", "lower", _LEDGER),
    ("cli.cache.s", "s", "lower", "wall_s@catalog"),
    # untraced zeta census with one and with two threads, catalog workload:
    # the input to the keep-or-delete decision on the census thread pool
    ("cli.census.threads1.s", "s", "lower", "wall_s@catalog"),
    ("cli.census.threads2.s", "s", "lower", "wall_s@catalog"),
    ("trace.overhead_s", "s", "lower", "none (cost of tracing)"),
    *((name, unit, better, f"wall_s@{workload}")
      for name, unit, better, workload, _, _ in PHASES),
)

# Per-layer metrics read from the aggregate of one traced function.
_FIELDS = {"calls": "calls", "self_s": "self", "s": "total",
           "points": "count", "retries": "nested"}


def layer_values(stats: dict) -> dict:
    """Per-layer values of one traced pass from the tracer's aggregates.

    Metrics that are not aggregates of a traced function (phase metrics,
    the thread-pool timings, the tracing overhead) are left out.
    """
    def field(name, attr):
        st = stats.get(name)
        return getattr(st, attr) if st is not None else 0

    out = {}
    for name, _, _, _ in PER_LAYER:
        if name == "mbfilter.points_per_integral":
            calls = field("mbfilter.mb_integral", "calls")
            points = field("mbfilter._kernel_integrand", "count")
            out[name] = points / calls if calls else 0.0
        elif name == "zerocensus.zeros_found":
            out[name] = field("zerocensus.scan_zeros", "count")
        elif name == "zerocensus.catalog_bytes":
            loads = field("zerocensus.catalog_load", "calls")
            size = field("zerocensus.catalog_load", "count")
            out[name] = size / loads if loads else 0.0
        elif name.startswith(("cli.census.threads", "trace.")) or "." not in name:
            continue
        else:
            base, suffix = name.rsplit(".", 1)
            out[name] = field(base, _FIELDS[suffix])
    return out


def quartiles(values: list) -> tuple:
    """(q1, median, q3) of a sample; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
