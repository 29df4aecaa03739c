"""Registry of audited identities for the ledger.

Each claim is a callable (config, catalog) -> AuditReport, where config is
the parsed `audit` command line (claims read its a, e_max and t_max) and
catalog is a zeta catalog.  A claim's id is its REGISTRY key and is written
nowhere else: run_claim stamps it on the report.  The registry is ordered
and deterministic: identical configuration and catalog produce a
byte-identical ledger.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np

from . import bessel as bs
from . import mbfilter as mbf
from . import operatorlab as ol
from . import specfun as sf
from . import spectrostats as st
from . import zerocensus as zc
from .audit import AuditReport
from .errors import ArgumentDomain, MbzeroError


def _report(lhs, rhs, disc, tol, notes="", extra=None):
    rel = disc / max(abs(complex(rhs)), 1.0)
    return AuditReport(
        lhs=complex(lhs), rhs=complex(rhs),
        abs_discrepancy=disc, rel_discrepancy=rel,
        verdict="pass" if disc < tol else "fail",
        notes=notes, extra=extra or {},
    )


def claim_specfun_conjugation(config, catalog):
    rng = np.random.RandomState(2)
    worst = 0.0
    for _ in range(200):
        s = complex(rng.uniform(0.02, 0.98), rng.uniform(-50.0, 50.0))
        z, g = sf.zeta(s), sf.gamma(s)
        z1 = sf.zeta(s.conjugate()) - z.conjugate()
        g1 = sf.gamma(s.conjugate()) - g.conjugate()
        worst = max(worst, abs(z1) / abs(z), abs(g1) / abs(g))
    return _report(worst, 0.0, worst, 1e-12,
                   "zeta/Gamma conjugation equivariance, 200 random strip points")


def claim_gamma_reflection(config, catalog):
    rng = np.random.RandomState(3)
    worst = 0.0
    for _ in range(120):
        s = complex(rng.uniform(-4.0, 4.0), rng.uniform(-40.0, 40.0))
        if abs(s.imag) < 0.05 and abs(s.real - round(s.real)) < 0.05:
            continue
        val = sf.gamma(s) * sf.gamma(1.0 - s) * cmath.sin(math.pi * s) / math.pi
        worst = max(worst, abs(val - 1.0))
    return _report(worst, 0.0, worst, 1e-11,
                   "Gamma(s) Gamma(1-s) sin(pi s)/pi = 1 away from integers")


def claim_xi_symmetry(config, catalog):
    worst = 0.0
    for re in np.linspace(0.05, 0.95, 20):
        for im in np.linspace(-45.0, 45.0, 20):
            s = complex(re, im)
            x1 = sf.completed_xi(s)
            worst = max(worst, abs(x1 - sf.completed_xi(1.0 - s)) / abs(x1))
    return _report(worst, 0.0, worst, 1e-11,
                   "|xi(s) - xi(1-s)|/|xi(s)| on a 20x20 strip grid")


def claim_beta_functional_equation(config, catalog):
    worst = 0.0
    for im in np.linspace(-40.0, 40.0, 33):
        s = complex(0.35, im)
        lhs = sf.dirichlet_beta(1.0 - s)
        rhs = ((math.pi / 2.0) ** (-s) * cmath.sin(0.5 * math.pi * s)
               * sf.gamma(s) * sf.dirichlet_beta(s))
        worst = max(worst, abs(lhs - rhs) / abs(lhs))
    return _report(
        worst, 0.0, worst, 1e-11,
        "odd-character reflection beta(1-s) = (pi/2)^{-s} sin(pi s/2) "
        "Gamma(s) beta(s); the printed even-character form fails at s = 2 "
        "(it predicts beta(2) = 0)",
    )


def claim_bessel_symmetry(config, catalog):
    rng = np.random.RandomState(5)
    worst = 0.0
    for _ in range(100):
        nu = complex(rng.uniform(-2.0, 2.0), rng.uniform(-60.0, 60.0))
        x = rng.uniform(0.05, 20.0)
        k1 = bs.bessel_K(nu, x).value
        worst = max(worst, abs(k1 - bs.bessel_K(-nu, x).value) / abs(k1),
                    abs(bs.bessel_K(nu.conjugate(), x).value
                        - k1.conjugate()) / abs(k1))
    return _report(worst, 0.0, worst, 1e-10,
                   "K_{-nu} = K_nu and K_{conj nu} = conj K_nu, 100 random")


def claim_bessel_wronskian(config, catalog):
    rng = np.random.RandomState(6)
    worst = 0.0
    for _ in range(40):
        nu = complex(rng.uniform(-1.5, 1.5), rng.uniform(-20.0, 20.0))
        x = rng.uniform(0.3, 15.0)
        worst = max(worst, bs.wronskian_check(nu, x))
    return _report(worst, 0.0, worst, 1e-7,
                   "|x W(K, I) - 1| with finite-difference derivatives")


def claim_contour_shift(config, catalog):
    rng = np.random.RandomState(8)
    triples = [(rng.uniform(5.0, 35.0), *sorted(rng.uniform(0.54, 0.96, 2)))
               for _ in range(20)]
    worst = max(mbf.contour_shift_deltas(triples, mbf.KernelScale(config.a)))
    return _report(worst, 0.0, worst, 1e-10,
                   "20 random pole-free abscissa pairs, zeta kernel")


def claim_scale_regularity(config, catalog):
    energy = 12.0
    worst = 0.0
    for a in (0.1, 0.2, 0.3, 0.4):
        h = 1e-5 * a
        c = mbf.ContourSpec(abscissa=0.6, t_max=45.0, panel_count=120)
        up = mbf.mb_integral(energy, mbf.KernelScale(a + h), c)
        dn = mbf.mb_integral(energy, mbf.KernelScale(a - h), c)
        fd = (up - dn) / (2.0 * h)
        analytic = mbf.mb_scale_derivative(energy, mbf.KernelScale(a), c)
        worst = max(worst, abs(fd - analytic) / abs(analytic))
    return _report(worst, 0.0, worst, 1e-6,
                   "d(value)/da against differentiation under the integral "
                   "(weight 2 s / a)")


def claim_a_to_zero(config, catalog):
    mags_in = []
    mags_out = []
    for a in (0.1, 0.05, 0.025, 0.0125):
        c_in = mbf.ContourSpec(abscissa=0.25, t_max=45.0, panel_count=120)
        mags_in.append(abs(mbf.mb_integral(10.0, mbf.KernelScale(a), c_in)))
        c_out = mbf.ContourSpec(abscissa=-0.25, t_max=45.0, panel_count=120)
        mags_out.append(abs(mbf.mb_integral(10.0, mbf.KernelScale(a), c_out)))
    monotone = all(x > y for x, y in zip(mags_in, mags_in[1:]))
    nu = complex(0.5, 5.0)
    plateau = abs(mbf.kernel_prefactor("zeta") * 2j * math.pi
                  * (-0.5) * cmath.exp(sf.log_gamma(-nu)))
    return AuditReport(
        lhs=complex(mags_in[-1]), rhs=0j,
        abs_discrepancy=mags_in[-1],
        rel_discrepancy=0.0 if monotone else 1.0,
        verdict="pass" if monotone else "fail",
        notes="|integral| decreases monotonically to 0 on the pole-free "
              "abscissa g = +1/4; at g = -1/4 the crossed Gamma(s) pole "
              f"leaves the a-independent residue floor {plateau:.4e} "
              f"(measured {mags_out[-1]:.4e}), so the stated negative-"
              "abscissa limit holds only for the (2a)^{-s}-oriented kernel",
        extra={"magnitudes_g_plus": mags_in, "magnitudes_g_minus": mags_out,
               "predicted_floor": plateau},
    )


def claim_hadamard_ladders(config, catalog):
    f = lambda z: (1.0 + (z - 0.2)) / (z - 0.2) ** 2
    v1 = mbf.hadamard_finite_part(f, 0.2 + 0j, [0.2, 0.1, 0.05, 0.025])
    v2 = mbf.hadamard_finite_part(f, 0.2 + 0j, [0.27, 0.09, 0.03])
    gap = abs(v1 - v2)
    return _report(v1, v2, gap, 1e-8,
                   "geometric-ratio-2 vs ratio-3 ladders agree")


def claim_filter_pairing_beta(config, catalog):
    scale = mbf.KernelScale(config.a)
    ordinates, guesses = mbf.newton_guesses(zc.scan_zeros("beta", 17.0))
    roots = mbf.newton_filter_roots("beta", guesses, scale)
    rows = [(e, t, abs(e - 2.0 * t)) for e, t in zip(roots, ordinates)]
    worst = max(gap for *_, gap in rows)
    return _report(worst, 0.0, worst, 1e-8,
                   "Newton roots of the beta filter pair with 2 t_n",
                   extra={"pairs": rows})


def claim_guinand_weil_forms(config, catalog):
    """Printed counting formula against the corrected three-term form."""
    energies = (20.0, 2 * 14.1347251417 + 0.1, 2 * 21.0220396388 + 0.1)
    zc.require_complete(catalog, 0.5 * energies[-1])
    worst_corrected = 0.0
    worst_printed = 0.0
    counts, arg_zs = zc.n_H_guinand_weil(energies)
    for energy, corrected, arg_z in zip(energies, counts, arg_zs):
        count = sum(1 for r in catalog if 2.0 * r.ordinate <= energy)
        arg_g = sf.log_gamma(complex(0.25, 0.25 * energy)).imag
        printed = (arg_g / math.pi
                   - energy / (2 * math.pi)
                   * (math.log(math.pi) - math.log(energy / (2 * math.e)))
                   - arg_z / math.pi)
        worst_corrected = max(worst_corrected, abs(corrected - count))
        worst_printed = max(worst_printed, abs(printed - count))
    return AuditReport(
        lhs=complex(worst_corrected), rhs=complex(worst_printed),
        abs_discrepancy=worst_corrected, rel_discrepancy=worst_corrected,
        verdict="pass" if worst_corrected < 0.5 else "fail",
        notes="corrected three-term form (arg Gamma, (E/4pi) log pi, +1, "
              f"arg zeta) counts within {worst_corrected:.3f}; the printed "
              f"coefficients miss the count by up to {worst_printed:.2f}",
    )


def claim_counting_rvm(config, catalog):
    rng = np.random.RandomState(12)
    t_hi = min(config.t_max, catalog[-1].ordinate + 2.0)
    if t_hi <= 15.0:
        raise ArgumentDomain(f"T is drawn from [15, {t_hi:.3f}), which is empty")
    reports = zc.riemann_von_mangoldt(
        [rng.uniform(15.0, t_hi) for _ in range(12)], catalog)
    worst = max(0.0, *(abs(r.total - r.jump_count) for r in reports))
    return _report(worst, 0.0, worst, 0.5,
                   "main + S(T) within 1/2 of the catalog jump count")


def claim_bijection(config, catalog):
    audit = mbf.filter_bijection(catalog, mbf.KernelScale(config.a),
                                 config.e_max)
    bad = max((abs(d) for d in audit.delta_values), default=0)
    return AuditReport(
        lhs=complex(bad), rhs=0j,
        abs_discrepancy=float(bad), rel_discrepancy=float(bad),
        verdict="pass" if audit.verdict == "pass" else "fail",
        notes=f"Delta(E) on {len(audit.E_grid)} straddling grid points; "
              f"verdict {audit.verdict}",
        extra={"E_grid": audit.E_grid, "delta": audit.delta_values},
    )


def claim_density_peaks(config, catalog):
    lo, hi = 12.0, min(catalog[-1].ordinate + 2.0, 60.0)
    ts = [r.ordinate for r in catalog[:10] if lo + 1.0 < r.ordinate < hi - 1.0]
    if not ts:
        raise ArgumentDomain("no catalog ordinate among the first ten in "
                             f"({lo + 1.0}, {hi - 1.0})")
    worst = float(np.max(st.peak_distances(np.linspace(lo, hi, 4000), ts,
                                           100000)))
    return _report(worst, 0.0, worst, 0.2,
                   "peaks of mean + oscillatory density sit on catalog "
                   "ordinates; alignment needs the negative oscillation sign "
                   "(the printed positive sign anti-aligns)")


def claim_frobenius(config, catalog):
    grid = list(np.linspace(0.02, 0.98, 25)) + [complex(0.5, e)
                                                for e in np.linspace(1, 40, 25)]
    bad = 0
    for nu in grid:
        nu = complex(nu)
        want = "limit_circle" if nu.real < 0.5 else "limit_point"
        if ol.frobenius_classify(nu) != want:
            bad += 1
    return _report(float(bad), 0.0, float(bad), 0.5,
                   "Re nu < 1/2 criterion on a 50-point order grid")


def claim_prufer_monotonicity(config, catalog):
    pairs = [(1.0, 2.0), (2.0, 3.5), (3.5, 5.0), (5.0, 7.0), (7.0, 9.0),
             (1.5, 6.0), (2.5, 8.0), (4.0, 4.5), (6.0, 10.0), (9.0, 12.0)]
    advance = {e: ol.phase_advance(ol.RadialProblem(0.1, 10.0, e))
               for e in {e for pair in pairs for e in pair}}
    worst = 0.0
    for e1, e2 in pairs:
        worst = min(worst, advance[e2] - advance[e1])
    return _report(worst, 0.0, max(0.0, -worst), 1e-9,
                   "phase advance non-decreasing in E across 10 energy pairs")


# a claim that is one library call with fixed arguments is written in place
REGISTRY = {
    "specfun_conjugation": claim_specfun_conjugation,
    "gamma_reflection": claim_gamma_reflection,
    "xi_functional_symmetry": claim_xi_symmetry,
    "beta_functional_equation": claim_beta_functional_equation,
    "bessel_k_order_symmetry": claim_bessel_symmetry,
    "bessel_wronskian": claim_bessel_wronskian,
    "bessel_small_x_power": lambda config, catalog:
        bs.small_x_power(complex(0.3, 0.0)),
    "bessel_large_x_decay": lambda config, catalog:
        bs.large_x_decay(complex(0.5, 4.0)),
    "eigenfunction_l2": lambda config, catalog:
        ol.eigenfunction_L2_classifier(complex(0.5, 7.0673)),
    "mb_contour_shift": claim_contour_shift,
    "mb_scale_regularity": claim_scale_regularity,
    "mb_a_to_zero_limit": claim_a_to_zero,
    "mb_double_pole_circle": lambda config, catalog:
        mbf.double_pole_circle(complex(0.3, 0.2)),
    "mb_hadamard_ladder_independence": claim_hadamard_ladders,
    "filter_zero_pairing_beta": claim_filter_pairing_beta,
    "guinand_weil_formula": claim_guinand_weil_forms,
    "counting_rvm": claim_counting_rvm,
    "s_t_bound_hmty": lambda config, catalog:
        zc.s_of_t_bound_check(min(config.t_max, 60.0)),
    "bijection_delta_zero": claim_bijection,
    "spacing_wigner_dyson": lambda config, catalog:
        st.spacing_vs_gue(np.diff(st.unfold(catalog))),
    "pair_correlation_sine_kernel": lambda config, catalog:
        st.pair_correlation(st.unfold(catalog)),
    "density_peak_alignment": claim_density_peaks,
    "trace_I_even_odd": lambda config, catalog:
        st.trace_I_of_a(config.a, catalog),
    "weil_prime_side": lambda config, catalog:
        st.weil_prime_side(100000, catalog),
    "trace_class_p2": lambda config, catalog:
        st.trace_class_audit(2.0, config.a, catalog),
    "fredholm_z0.4": lambda config, catalog: st.fredholm_audit(0.4, config.a),
    "frobenius_criterion_grid": claim_frobenius,
    "deficiency_log_divergence": lambda config, catalog:
        ol.deficiency_divergence_check(),
    "prufer_monotonicity": claim_prufer_monotonicity,
}


def run_claim(config, catalog, claim_id):
    """Evaluate one registered claim; a claim whose preconditions cannot be
    met by the supplied catalog reports itself inconclusive rather than
    aborting the ledger (audits inform, they do not gate)."""
    try:
        report = REGISTRY[claim_id](config, catalog)
    except MbzeroError as exc:
        report = AuditReport(
            lhs=0j, rhs=0j,
            abs_discrepancy=float("nan"), rel_discrepancy=float("nan"),
            verdict="inconclusive",
            notes=f"not evaluable with this catalog/config: {exc}",
        )
    return dataclasses.replace(report, claim_id=claim_id)
