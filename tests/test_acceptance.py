"""Acceptance criteria, one test per criterion, each printing a
pass/fail line with its measured figure and runtime.

Run with `pytest tests/test_acceptance.py -v -s` for the full report.
"""

import math
import time

import numpy as np
import pytest

import oracles as oc
from mbzero import mbfilter as mbf
from mbzero import operatorlab as ol
from mbzero import specfun as sf
from mbzero import spectrostats as st
from mbzero import zerocensus as zc
from mbzero.audit import ledger_json
from mbzero.bessel import bessel_K, wronskian_check

A02 = mbf.KernelScale(0.2)

PAPER_BETA_TABLE = (6.0209489047, 10.243770304, 12.988098012, 16.342607105)


def _line(num, name, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num}] {name}: {status}  ({detail}; {elapsed:.1f}s)")


def test_criterion_1_beta_zero_table():
    t0 = time.monotonic()
    records = zc.scan_zeros("beta", 17.0)
    worst = max(abs(r.ordinate - want)
                for r, want in zip(records, PAPER_BETA_TABLE))
    elapsed = time.monotonic() - t0
    ok = len(records) == 4 and worst < 1e-9 and elapsed < 30.0
    _line(1, "beta-zero table reproduction", ok,
          f"4 ordinates, worst gap {worst:.2e}", elapsed)
    assert len(records) == 4
    assert worst < 1e-9
    assert elapsed < 30.0


def test_criterion_2_appendix_filter_roots():
    t0 = time.monotonic()
    worst_double = 0.0
    worst_dd = 0.0
    for frozen in oc.BETA_ORDINATES[:4]:
        t_ref = float(frozen)
        e = mbf.newton_filter_root("beta", 2.0 * t_ref + 0.04, A02)
        worst_double = max(worst_double, abs(e - 2.0 * t_ref))
        e_dd = float(oc.newton_root_dd("beta", 2.0 * t_ref + 0.04, A02))
        worst_dd = max(worst_dd, abs(e_dd - 2.0 * t_ref))
    elapsed = time.monotonic() - t0
    ok = worst_double < 1e-8 and worst_dd < 1e-10 and elapsed < 120.0
    _line(2, "Appendix-D filter reproduction", ok,
          f"double {worst_double:.2e}, double-double {worst_dd:.2e}", elapsed)
    assert worst_double < 1e-8
    assert worst_dd < 1e-10
    assert elapsed < 120.0


def test_criterion_3_bijection(zeta_catalog_60):
    t0 = time.monotonic()
    roots = [mbf.newton_filter_root("zeta", 2.0 * r.ordinate + 0.05, A02)
             for r in zeta_catalog_60 if 2.0 * r.ordinate <= 60.5]
    audit = zc.bijection_audit(zeta_catalog_60, roots, 60.0)
    elapsed = time.monotonic() - t0
    ok = audit.verdict == "pass" and all(d == 0 for d in audit.delta_values) \
        and elapsed < 300.0
    _line(3, "zeta filter <-> zero bijection", ok,
          f"Delta = 0 at {len(audit.E_grid)} grid points", elapsed)
    assert audit.verdict == "pass"
    assert all(d == 0 for d in audit.delta_values)
    assert elapsed < 300.0


def test_criterion_4_contour_shift_invariance():
    t0 = time.monotonic()
    rng = np.random.RandomState(11)
    worst = 0.0
    for _ in range(20):
        energy = rng.uniform(5.0, 35.0)
        scale = mbf.KernelScale(rng.uniform(0.08, 0.45))
        g1, g2 = sorted(rng.uniform(0.54, 0.96, 2))
        worst = max(worst, mbf.contour_shift_delta(energy, scale, g1, g2))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-10 and elapsed < 60.0
    _line(4, "contour-shift invariance", ok,
          f"20 random pairs, worst delta {worst:.2e}", elapsed)
    assert worst < 1e-10
    assert elapsed < 60.0


def test_criterion_5_special_function_property_suite():
    t0 = time.monotonic()
    rng = np.random.RandomState(21)
    worst_xi = 0.0
    worst_conj = 0.0
    for _ in range(100):
        s = complex(rng.uniform(0.05, 0.95), rng.uniform(-45.0, 45.0))
        xi = sf.completed_xi(s)
        worst_xi = max(worst_xi, abs(xi - sf.completed_xi(1.0 - s)) / abs(xi))
        z = sf.zeta(s)
        g = sf.gamma(s)
        worst_conj = max(
            worst_conj,
            abs(sf.zeta(s.conjugate()) - z.conjugate()) / abs(z),
            abs(sf.gamma(s.conjugate()) - g.conjugate()) / abs(g),
        )
    worst_k = 0.0
    for _ in range(100):
        nu = complex(rng.uniform(-2.0, 2.0), rng.uniform(-60.0, 60.0))
        x = rng.uniform(0.05, 20.0)
        k1 = bessel_K(nu, x).value
        worst_k = max(worst_k,
                      abs(k1 - bessel_K(-nu, x).value) / abs(k1),
                      abs(bessel_K(nu.conjugate(), x).value
                          - k1.conjugate()) / abs(k1))
    worst_w = 0.0
    for _ in range(100):
        nu = complex(rng.uniform(-1.5, 1.5), rng.uniform(-15.0, 15.0))
        x = rng.uniform(0.3, 12.0)
        worst_w = max(worst_w, wronskian_check(nu, x))
    elapsed = time.monotonic() - t0
    ok = (worst_xi < 1e-11 and worst_conj < 1e-12 and worst_k < 1e-10
          and worst_w < 1e-7 and elapsed < 60.0)
    _line(5, "special-function property suite", ok,
          f"xi {worst_xi:.1e}, conj {worst_conj:.1e}, K-sym {worst_k:.1e}, "
          f"Wronskian {worst_w:.1e}", elapsed)
    assert worst_xi < 1e-11
    assert worst_conj < 1e-12
    assert worst_k < 1e-10
    assert worst_w < 1e-7
    assert elapsed < 60.0


def test_criterion_6_s_bound_to_200():
    t0 = time.monotonic()
    rep = zc.s_of_t_bound_check(200.0)
    elapsed = time.monotonic() - t0
    ok = rep.verdict == "pass" and elapsed < 120.0
    _line(6, "S(t) unconditional bound on [e, 200]", ok, rep.notes, elapsed)
    assert rep.verdict == "pass"
    assert elapsed < 120.0


def test_criterion_7_counting_agreement(zeta_catalog_full):
    t0 = time.monotonic()
    rng = np.random.RandomState(31)
    reports = zc.riemann_von_mangoldt(
        [rng.uniform(15.0, 200.0) for _ in range(50)], zeta_catalog_full)
    worst = max(abs(rep.total - rep.jump_count) for rep in reports)
    elapsed = time.monotonic() - t0
    ok = worst < 0.5 and elapsed < 60.0
    _line(7, "counting-function agreement", ok,
          f"50 random T, worst |total - jumps| = {worst:.3f}", elapsed)
    assert worst < 0.5
    assert elapsed < 60.0


def test_criterion_8_comparators_and_deterministic_ledger(zeta_catalog_full):
    t0 = time.monotonic()
    gue = st.spacing_vs_gue(oc.wigner_dyson_sample(10_000))
    rng = np.random.Generator(np.random.PCG64(99))
    poisson = st.spacing_vs_gue(rng.exponential(size=10_000))
    unfolded = st.unfold(zeta_catalog_full)
    real_spacing = st.spacing_vs_gue(np.diff(unfolded))
    real_pairs = st.pair_correlation(unfolded)
    non_reproducible = [
        st.trace_I_of_a(0.2, zeta_catalog_full),
        st.weil_prime_side(100_000, zeta_catalog_full),
        st.trace_class_audit(2.0, 0.2, zeta_catalog_full),
        st.fredholm_audit(0.4, 0.2),
    ]
    ledger1 = ledger_json([gue, poisson, real_spacing, real_pairs]
                          + non_reproducible)
    ledger2 = ledger_json([
        st.spacing_vs_gue(oc.wigner_dyson_sample(10_000)),
        st.spacing_vs_gue(
            np.random.Generator(np.random.PCG64(99)).exponential(size=10_000)),
        st.spacing_vs_gue(np.diff(st.unfold(zeta_catalog_full))),
        st.pair_correlation(st.unfold(zeta_catalog_full)),
        st.trace_I_of_a(0.2, zeta_catalog_full),
        st.weil_prime_side(100_000, zeta_catalog_full),
        st.trace_class_audit(2.0, 0.2, zeta_catalog_full),
        st.fredholm_audit(0.4, 0.2),
    ])
    elapsed = time.monotonic() - t0
    ok = (gue.lhs.real < 0.02 and poisson.verdict == "fail"
          and real_spacing.verdict in ("pass", "inconclusive")
          and all(r.verdict in ("pass", "fail", "divergent", "inconclusive")
                  for r in non_reproducible)
          and ledger1 == ledger2)
    _line(8, "comparator self-tests + deterministic audit ledger", ok,
          f"GUE KS {gue.lhs.real:.4f}, Poisson {poisson.verdict}, "
          f"ledger byte-identical {ledger1 == ledger2}", elapsed)
    assert gue.lhs.real < 0.02
    assert poisson.verdict == "fail"
    assert real_spacing.verdict in ("pass", "inconclusive")
    for rep in non_reproducible:
        assert rep.verdict in ("pass", "fail", "divergent", "inconclusive")
        assert math.isfinite(rep.abs_discrepancy)
    assert ledger1 == ledger2


def test_criterion_9_operator_corollaries():
    t0 = time.monotonic()
    grid = list(np.linspace(0.02, 0.98, 25)) \
        + [complex(0.5, e) for e in np.linspace(1.0, 40.0, 25)]
    frobenius_ok = all(
        ol.frobenius_classify(complex(nu))
        == ("limit_circle" if complex(nu).real < 0.5 else "limit_point")
        for nu in grid)
    deficiency = ol.deficiency_divergence_check()
    pairs = [(1.0, 2.0), (2.0, 3.5), (3.5, 5.0), (5.0, 7.0), (7.0, 9.0),
             (1.5, 6.0), (2.5, 8.0), (4.0, 4.5), (6.0, 10.0), (9.0, 12.0)]
    monotone_ok = True
    for e1, e2 in pairs:
        a1 = ol.phase_advance(ol.RadialProblem(0.1, 10.0, e1))
        a2 = ol.phase_advance(ol.RadialProblem(0.1, 10.0, e2))
        monotone_ok = monotone_ok and (a2 >= a1 - 1e-9)
    elapsed = time.monotonic() - t0
    ok = (frobenius_ok and deficiency.verdict == "pass" and monotone_ok
          and elapsed < 120.0)
    _line(9, "operator-theory corollaries", ok,
          f"frobenius 50-grid {frobenius_ok}, deficiency slope spread "
          f"{deficiency.abs_discrepancy:.3f}, monotone {monotone_ok}", elapsed)
    assert frobenius_ok
    assert deficiency.verdict == "pass"
    assert monotone_ok
    assert elapsed < 120.0
