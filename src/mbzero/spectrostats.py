"""Statistics and trace-formula audits over the zero catalog: unfolding,
Wigner-Dyson spacing comparison, sine-kernel pair correlation, the
explicit-formula oscillatory density, and the trace-class / Fredholm /
Weil identities as honestly measured claims.

Audits never gate: several closed forms under test are numerically
suspect, and the ledger's value is the quantified measurement.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .audit import AuditReport
from .errors import ArgumentDomain, LimitTooLarge, SeriesDivergent, WindowTooSparse
from .specfun import primes_upto, von_mangoldt_table, zeta

_PRIME_LIMIT_CEILING = 1_000_000
_GAMMA_QUARTER_NEG = -4.901666809860711  # Gamma(-1/4)
_ZERO_CAP = 100  # zeros summed by the trace audits


@dataclass(frozen=True)
class UnfoldedSpectrum:
    raw: list
    unfolded: list
    window: tuple

    @property
    def spacings(self) -> np.ndarray:
        u = np.asarray(self.unfolded)
        return np.diff(u)


def smooth_count(t: float) -> float:
    """Riemann-von Mangoldt main term (T/2pi) log(T/2pi) - T/2pi + 7/8."""
    x = t / (2.0 * math.pi)
    return x * math.log(x) - x + 0.875


def unfold(catalog: list, window: tuple) -> UnfoldedSpectrum:
    """Map ordinates through the smooth counting term; mean spacing -> 1."""
    lo, hi = window
    raw = [r.ordinate for r in catalog if lo <= r.ordinate <= hi]
    if len(raw) < 20:
        raise WindowTooSparse(f"window {window} holds {len(raw)} zeros, need 20")
    unfolded = [smooth_count(t) for t in raw]
    return UnfoldedSpectrum(raw=raw, unfolded=unfolded, window=(lo, hi))


def unfold_catalog(catalog: list) -> UnfoldedSpectrum:
    """The whole catalog unfolded; WindowTooSparse below 20 zeros."""
    return unfold(catalog, (0.0, catalog[-1].ordinate + 1.0))


# ---------------------------------------------------------------------------
# Wigner-Dyson comparison
# ---------------------------------------------------------------------------

def wigner_dyson_pdf(s):
    s = np.asarray(s, dtype=float)
    return (32.0 / math.pi ** 2) * s * s * np.exp(-4.0 * s * s / math.pi)


def wigner_dyson_cdf(s):
    s = np.asarray(s, dtype=float)
    erf = np.vectorize(math.erf)
    return erf(2.0 * s / math.sqrt(math.pi)) \
        - (4.0 * s / math.pi) * np.exp(-4.0 * s * s / math.pi)


def ks_distance(sample: np.ndarray, cdf) -> float:
    xs = np.sort(np.asarray(sample, dtype=float))
    n = xs.size
    f = np.asarray(cdf(xs), dtype=float)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))


def spacing_vs_gue(spectrum_or_spacings) -> AuditReport:
    """Kolmogorov-Smirnov distance of spacings against the Wigner-Dyson law.

    pass below 0.05; the 0.05..0.25 band is inconclusive by design at desk
    scale; above 0.25 is a clear rejection.  Fewer than 100 spacings makes
    the verdict sample-limited (inconclusive) regardless of the distance.
    """
    if isinstance(spectrum_or_spacings, UnfoldedSpectrum):
        spacings = spectrum_or_spacings.spacings
    else:
        spacings = np.asarray(spectrum_or_spacings, dtype=float)
    if spacings.size < 20:
        raise WindowTooSparse(f"{spacings.size} spacings, need >= 20")
    ks = ks_distance(spacings, wigner_dyson_cdf)
    sample_limited = spacings.size < 100
    if ks < 0.05:
        verdict = "pass"
    elif ks <= 0.25:
        verdict = "inconclusive"
    else:
        verdict = "fail"
    if sample_limited and verdict == "pass":
        verdict = "inconclusive"
    return AuditReport(
        claim_id="spacing_wigner_dyson",
        lhs=complex(ks), rhs=0j,
        abs_discrepancy=ks, rel_discrepancy=ks,
        verdict=verdict,
        notes=f"KS distance over {spacings.size} spacings"
              + ("; sample-limited at desk scale" if sample_limited else ""),
        extra={"n_spacings": int(spacings.size),
               "mean_spacing": float(np.mean(spacings))},
    )


# ---------------------------------------------------------------------------
# Pair correlation
# ---------------------------------------------------------------------------

def sine_kernel_r2(omega):
    omega = np.asarray(omega, dtype=float)
    out = np.ones_like(omega)
    nz = omega != 0.0
    x = math.pi * omega[nz]
    out[nz] = 1.0 - (np.sin(x) / x) ** 2
    return out


def pair_correlation_estimate(unfolded, omega_grid, sigma: float = 0.1):
    """Gaussian-window two-point estimator on unit-density points."""
    e = np.sort(np.asarray(unfolded, dtype=float))
    n = e.size
    span = e[-1] - e[0]
    d = (e[None, :] - e[:, None]).ravel()
    d = d[d != 0.0]
    norm = 1.0 / (n * sigma * math.sqrt(2.0 * math.pi))
    out = np.empty(len(omega_grid))
    for i, w in enumerate(omega_grid):
        kernel = np.exp(-0.5 * ((d - w) / sigma) ** 2)
        # edge correction: ordered pairs at separation u are undercounted
        # by the factor (1 - u/span) in a finite window
        out[i] = norm * float(np.sum(kernel)) / max(1.0 - w / span, 1e-6)
    return out


def pair_correlation(spectrum: UnfoldedSpectrum, omega_grid=None,
                     sigma: float = 0.1) -> AuditReport:
    """Binned two-point estimator against 1 - (sin pi w / pi w)^2."""
    if len(spectrum.unfolded) < 20:
        raise WindowTooSparse("need >= 20 zeros for pair correlation")
    if omega_grid is None:
        omega_grid = np.arange(0.25, 3.0001, 0.125)
    omega_grid = np.asarray(omega_grid, dtype=float)
    est = pair_correlation_estimate(spectrum.unfolded, omega_grid, sigma)
    ref = sine_kernel_r2(omega_grid)
    mad = float(np.mean(np.abs(est - ref)))
    sample_limited = len(spectrum.unfolded) < 100
    return AuditReport(
        claim_id="pair_correlation_sine_kernel",
        lhs=complex(mad), rhs=0j,
        abs_discrepancy=mad, rel_discrepancy=mad,
        verdict="pass" if mad < 0.2 else "fail",
        notes=f"mean |R2_hat - sine kernel| over omega in "
              f"[{omega_grid[0]}, {omega_grid[-1]}], sigma = {sigma}"
              + ("; sample-limited at desk scale" if sample_limited else ""),
        extra={"omega": list(omega_grid), "estimate": list(est),
               "reference": list(ref)},
    )


# ---------------------------------------------------------------------------
# Oscillatory density
# ---------------------------------------------------------------------------

def mean_density(e):
    e = np.asarray(e, dtype=float)
    return np.log(e / (2.0 * math.pi)) / (2.0 * math.pi)


def oscillatory_density(e_grid, prime_limit: int,
                        sigma: float = 0.3) -> np.ndarray:
    """Prime-sum oscillation of the zero density, Gaussian-damped.

    Carries the sign that makes mean_density + oscillatory_density peak at
    the zero ordinates (level clustering at zeros): each prime power
    contributes -(1/pi) (log p / p^{k/2}) cos(E k log p) e^{-(k log p)^2
    sigma^2 / 2}.
    """
    if prime_limit > _PRIME_LIMIT_CEILING:
        raise LimitTooLarge(f"prime_limit above {_PRIME_LIMIT_CEILING}")
    e = np.asarray(e_grid, dtype=float)
    out = np.zeros_like(e)
    for p in primes_upto(prime_limit):
        logp = math.log(p)
        k = 1
        while True:
            x = k * logp
            damp = math.exp(-0.5 * (x * sigma) ** 2)
            if damp < 1e-14 or p ** (0.5 * k) > 1e12:
                break
            out -= (logp / p ** (0.5 * k)) * damp * np.cos(e * x) / math.pi
            k += 1
    return out


def density_peaks(e_grid, prime_limit: int, sigma: float = 0.3) -> np.ndarray:
    """Local maxima of the smoothed total density mean + oscillatory."""
    e = np.asarray(e_grid, dtype=float)
    total = mean_density(e) + oscillatory_density(e, prime_limit, sigma)
    idx = np.flatnonzero((total[1:-1] > total[:-2]) & (total[1:-1] > total[2:])) + 1
    return e[idx]


# ---------------------------------------------------------------------------
# Trace audits
# ---------------------------------------------------------------------------

def _ordinates(catalog):
    """The lowest _ZERO_CAP ordinates of the catalog, ascending."""
    return sorted(r.ordinate for r in catalog)[:_ZERO_CAP]


def trace_I_of_a(a: float, catalog: list) -> AuditReport:
    """Even/odd split of the zero-side trace behind the I(a) bracket.

    The even part sum 1/(1 + 4 gamma^2) converges (tail quantified from
    the smooth density); the odd part 2 gamma/(1 + 4 gamma^2) diverges
    under naive one-sided truncation and is exactly zero under the
    symmetric +-gamma pairing.  The bracket and its prefactor
    i Gamma(-1/4) / (4 sqrt2 pi^{1/4}) are reported as stated.
    """
    if not (0.0 < a <= 1.0):
        raise ArgumentDomain("need 0 < a <= 1")
    ts = _ordinates(catalog)
    if len(ts) < 10:
        raise ArgumentDomain("catalog too small for the trace audit")
    cap = len(ts)
    even_terms = [1.0 / (1.0 + 4.0 * t * t) for t in ts]
    even_partial = np.cumsum(even_terms)
    odd_terms = [2.0 * t / (1.0 + 4.0 * t * t) for t in ts]
    odd_partial = np.cumsum(odd_terms)
    t_top = ts[-1]
    # tail of the even part from the smooth density (1/2pi) log(t/2pi)
    xs = np.linspace(t_top, 40.0 * t_top, 20000)
    tail = float(np.trapezoid(np.log(xs / (2 * math.pi)) / (2 * math.pi)
                              / (1.0 + 4.0 * xs * xs), xs))
    even = float(even_partial[-1])
    increments_dec = all(b < a_ for a_, b in zip(even_terms, even_terms[1:]))
    last_inc = even_terms[-1]
    bracket = complex(-2.0 * even + math.log(a) + 0.5 * math.log(math.pi)
                      + math.log(2.0))
    prefactor = 1j * _GAMMA_QUARTER_NEG / (4.0 * math.sqrt(2.0)
                                           * math.pi ** 0.25)
    verdict = "pass" if (increments_dec and last_inc < 1e-4) else "inconclusive"
    return AuditReport(
        claim_id="trace_I_even_odd",
        lhs=complex(even), rhs=complex(even + tail),
        abs_discrepancy=last_inc, rel_discrepancy=last_inc / even,
        verdict=verdict,
        notes=f"even part over {cap} zeros converges (last increment "
              f"{last_inc:.3e}, density tail {tail:.3e}); naive odd partial "
              f"sum reaches {float(odd_partial[-1]):.4f} and keeps growing "
              "~log T (divergent); symmetric +-gamma pairing cancels exactly; "
              f"reported I(a) bracket uses prefactor {prefactor:.6f}",
        extra={
            "even_partial_tail": [float(v) for v in even_partial[-5:]],
            "odd_partial_tail": [float(v) for v in odd_partial[-5:]],
            "odd_symmetrized": 0.0,
            "bracket_value": bracket,
            "I_a_symmetrized": prefactor * bracket,
        },
    )


def weil_prime_side(prime_limit: int, catalog: list):
    """Prime side 2 sum Lambda(n)/sqrt(n) phihat(log n / 2pi) with the
    exponential test transform phihat(u) = (pi/4) e^{-pi |u|}.

    Each term collapses to (pi/2) Lambda(n)/n, so the partial sums grow
    like (pi/2) log X: the audit records the divergence rate instead of
    asserting the printed closed form -(pi/2) zeta'(1).
    """
    if prime_limit > _PRIME_LIMIT_CEILING:
        raise LimitTooLarge(f"prime_limit above {_PRIME_LIMIT_CEILING}")
    table = von_mangoldt_table(prime_limit)
    marks = [10 ** k for k in range(2, 20) if 10 ** k <= prime_limit]
    if marks[-1] != prime_limit:
        marks.append(prime_limit)
    trajectory = []
    running = 0.0
    items = sorted(table.mangoldt.items())
    j = 0
    for mark in marks:
        while j < len(items) and items[j][0] <= mark:
            n, lam = items[j]
            running += 0.5 * math.pi * lam / n
            j += 1
        trajectory.append((mark, running))
    # fitted growth in log X vs the (pi/2) log X prediction
    xs = np.log([m for m, _ in trajectory])
    ys = [v for _, v in trajectory]
    slope = float(np.polyfit(xs, ys, 1)[0])
    zero_side = 0j
    for t in _ordinates(catalog):
        zero_side += complex(-0.5, t) / (1.0 + 4.0 * t * t)
    return AuditReport(
        claim_id="weil_prime_side",
        lhs=complex(trajectory[-1][1]),
        rhs=complex(zero_side),
        abs_discrepancy=abs(trajectory[-1][1] - zero_side.real),
        rel_discrepancy=slope / (0.5 * math.pi),
        verdict="divergent",
        notes=f"phihat(0) = pi/4 = {math.pi/4:.6f}; prime-side partial sums "
              f"grow with fitted slope {slope:.4f} per log X against the "
              f"(pi/2) = {math.pi/2:.4f} prediction: the printed closed form "
              "equates a divergent series with -zeta'(1); zero-side even part "
              "reported alongside",
        extra={"trajectory": [(int(m), float(v)) for m, v in trajectory],
               "zero_side": zero_side},
    )


def trace_class_audit(p: float, a: float, catalog: list) -> AuditReport:
    """Sum (E_n + i)^{-p} with E_n = 2 t_n against i^{-p} (2a)^p zeta(p)."""
    if not (p > 1.0):
        raise ArgumentDomain("trace audit needs p > 1")
    ts = _ordinates(catalog)
    terms = [cmath.exp(-p * cmath.log(complex(2.0 * t, 1.0))) for t in ts]
    lhs = complex(sum(terms))
    e_top = 2.0 * ts[-1]
    xs = np.linspace(e_top, 400.0 * e_top, 60000)
    dens = np.log(xs / (4.0 * math.pi)) / (4.0 * math.pi)
    tail = float(np.trapezoid(dens * xs ** (-p), xs))
    rhs = cmath.exp(-1j * p * 0.5 * math.pi) * (2.0 * a) ** p * zeta(p)
    gap = abs(lhs - rhs)
    slow = tail > 0.5 * abs(lhs)
    if slow:
        verdict = "inconclusive"
    else:
        verdict = "pass" if gap <= 10.0 * (tail + abs(terms[-1])) else "fail"
    return AuditReport(
        claim_id=f"trace_class_p{p:g}",
        lhs=lhs, rhs=rhs,
        abs_discrepancy=gap, rel_discrepancy=gap / max(abs(rhs), 1e-300),
        verdict=verdict,
        notes=f"lhs partial sum over {len(ts)} zeros (tail estimate "
              f"{tail:.3e}{', dominates: slow convergence' if slow else ''}); "
              "rhs is the printed closed form i^{-p} (2a)^p zeta(p); the "
              "catalog spectrum E_n = 2 t_n is log-dense, not unit-dense, so "
              "the two sides are expected to disagree",
        extra={"tail_estimate": tail, "last_term": terms[-1]},
    )


def fredholm_audit(z: float, a: float, k_max: int = 40) -> AuditReport:
    """-sum (2az)^{2k} zeta(4k)/k against log(2^{-z} zeta(2z))."""
    x = 2.0 * a * z
    if abs(x) >= 1.0:
        raise SeriesDivergent(f"|2az| = {abs(x)} >= 1")
    lhs = 0.0
    for k in range(1, k_max + 1):
        lhs -= x ** (2 * k) / k * zeta(4.0 * k).real
    lhs = complex(lhs)
    two_z_zeta = 2.0 ** (-z) * zeta(2.0 * z) if abs(2 * z - 1) > 1e-10 else None
    if two_z_zeta is None:
        rhs = complex(math.inf, 0.0)
        branch_note = "; rhs sits on the zeta pole"
    else:
        rhs = cmath.log(two_z_zeta)
        branch_note = ("; rhs requires log of a negative real value "
                       "(branch/sign flagged)" if two_z_zeta.real < 0 else "")
    gap = abs(lhs - rhs)
    doubling = abs(x ** (2 * (k_max + 1)) / (k_max + 1))
    return AuditReport(
        claim_id=f"fredholm_z{z:g}",
        lhs=lhs, rhs=rhs,
        abs_discrepancy=gap,
        rel_discrepancy=gap / max(abs(rhs), 1e-300),
        verdict="fail" if gap > 1e-6 else "pass",
        notes=f"series side converges geometrically (k_max doubling moves it "
              f"by < {doubling:.3e}); the printed identity equates it with "
              f"log(2^-z zeta(2z)){branch_note}",
        extra={"x": x, "k_max": k_max},
    )
