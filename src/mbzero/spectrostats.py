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

import numpy as np

from .audit import AuditReport
from .errors import ArgumentDomain, NoConvergence
from .specfun import primes_upto, von_mangoldt_table, zeta
from .zerocensus import smooth_count

_PRIME_LIMIT_CEILING = 1_000_000
_GAMMA_QUARTER_NEG = -4.901666809860711  # Gamma(-1/4)
_ZERO_CAP = 100  # zeros summed by the trace audits
_DENSITY_BLOCK = 256  # prime powers per cos block: 8 MB at 4,000 points


def unfold(catalog: list) -> list:
    """The catalog's ordinates mapped through the smooth counting term;
    mean spacing -> 1.  ArgumentDomain below 20 zeros."""
    if len(catalog) < 20:
        raise ArgumentDomain(f"catalog holds {len(catalog)} zeros, need 20")
    return [smooth_count(r.ordinate) for r in catalog]


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


def spacing_vs_gue(spacings) -> AuditReport:
    """Kolmogorov-Smirnov distance of spacings against the Wigner-Dyson law.

    pass below 0.05; the 0.05..0.25 band is inconclusive by design at desk
    scale; above 0.25 is a clear rejection.  Fewer than 100 spacings makes
    the verdict sample-limited (inconclusive) regardless of the distance.
    """
    spacings = np.asarray(spacings, dtype=float)
    if spacings.size < 20:
        raise ArgumentDomain(f"{spacings.size} spacings, need >= 20")
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


# separations at which the ledger and `stats` compare R2 with the sine kernel
OMEGA_GRID = np.arange(0.25, 3.0001, 0.125)
PAIR_WINDOW = 0.1  # the estimator's Gaussian window width


def pair_correlation_estimate(unfolded, omega_grid):
    """Gaussian-window two-point estimator on unit-density points."""
    e = np.sort(np.asarray(unfolded, dtype=float))
    n = e.size
    span = e[-1] - e[0]
    d = (e[None, :] - e[:, None]).ravel()
    d = d[d != 0.0]
    norm = 1.0 / (n * PAIR_WINDOW * math.sqrt(2.0 * math.pi))
    out = np.empty(len(omega_grid))
    for i, w in enumerate(omega_grid):
        kernel = np.exp(-0.5 * ((d - w) / PAIR_WINDOW) ** 2)
        # edge correction: ordered pairs at separation u are undercounted
        # by the factor (1 - u/span) in a finite window
        out[i] = norm * float(np.sum(kernel)) / max(1.0 - w / span, 1e-6)
    return out


def pair_correlation(unfolded: list) -> AuditReport:
    """Binned two-point estimator against 1 - (sin pi w / pi w)^2."""
    est = pair_correlation_estimate(unfolded, OMEGA_GRID)
    ref = sine_kernel_r2(OMEGA_GRID)
    mad = float(np.mean(np.abs(est - ref)))
    sample_limited = len(unfolded) < 100
    return AuditReport(
        lhs=complex(mad), rhs=0j,
        abs_discrepancy=mad, rel_discrepancy=mad,
        verdict="pass" if mad < 0.2 else "fail",
        notes=f"mean |R2_hat - sine kernel| over omega in "
              f"[{OMEGA_GRID[0]}, {OMEGA_GRID[-1]}], sigma = {PAIR_WINDOW}"
              + ("; sample-limited at desk scale" if sample_limited else ""),
        extra={"omega": list(OMEGA_GRID), "estimate": list(est),
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
    sigma^2 / 2}.  Bit for bit the loop over primes, then k: math.log and
    math.exp (numpy's SIMD forms round otherwise), the terms subtracted in
    order, _DENSITY_BLOCK at a time.
    """
    if prime_limit > _PRIME_LIMIT_CEILING:
        raise ArgumentDomain(f"prime_limit above {_PRIME_LIMIT_CEILING}")
    e = np.asarray(e_grid, dtype=float)
    primes = primes_upto(prime_limit)
    logp = np.array([math.log(p) for p in primes.tolist()])
    k, alive, table = 1, np.arange(primes.size), [np.empty((3, 0))]
    while alive.size:  # table columns: prime index, k log p, coefficient
        x = k * logp[alive]
        damp = np.array([math.exp(-0.5 * (v * sigma) ** 2)
                         for v in x.tolist()])
        power = primes[alive] ** (0.5 * k)
        keep = ~((damp < 1e-14) | (power > 1e12))
        alive, k = alive[keep], k + 1
        table.append([alive, x[keep],
                      (logp[alive] / power[keep]) * damp[keep]])
    table = np.concatenate(table, axis=1)
    _, x, coeff = table[:, np.argsort(table[0], kind="stable")]
    out = np.zeros(e.size)
    for lo in range(0, x.size, _DENSITY_BLOCK):
        hi = lo + _DENSITY_BLOCK
        terms = (coeff[lo:hi, None]
                 * np.cos(np.multiply.outer(x[lo:hi], e.ravel())) / math.pi)
        # a reduce down rows subtracts them in turn, as out -= term does
        out = np.subtract.reduce(np.vstack([out[None], terms]), axis=0)
    return out.reshape(e.shape)


def peak_distances(e_grid, targets, prime_limit: int,
                   sigma: float = 0.3) -> np.ndarray:
    """Distance from each target to the nearest local maximum of mean +
    oscillatory density on the sorted grid, bit for bit, evaluated once a
    point within r of open targets plus a neighbour a side; r starts at
    the mean grid step.  A peak at d stands once all points within d are
    tested or the window is the grid; else r doubles.  ArgumentDomain for
    a non-finite target, before any evaluation, or a grid with no peak."""
    e, ts = np.asarray(e_grid, dtype=float), np.asarray(targets, dtype=float)
    if not np.isfinite(ts).all():
        raise ArgumentDomain(f"non-finite target {ts[~np.isfinite(ts)][0]}")
    n = e.size
    total, out, tested = np.empty(n), np.empty(ts.size), np.zeros(n, bool)
    r = (e[-1] - e[0]) / (n - 1) if n > 1 and e[-1] > e[0] else math.inf
    pending = set(range(ts.size))
    while pending:
        lo = np.maximum(np.searchsorted(e, ts - r) - 1, 0)
        hi = np.minimum(np.searchsorted(e, ts + r, "right"), n - 1)
        idx = np.unique(np.concatenate([np.arange(lo[j], hi[j] + 1)
                                        for j in pending]))
        idx = idx[~tested[idx]]
        if idx.size:
            total[idx] = (mean_density(e[idx])
                          + oscillatory_density(e[idx], prime_limit, sigma))
            tested[idx] = True
        for j in list(pending):
            i = np.arange(lo[j] + 1, hi[j])
            d = np.abs(e[i[(total[i] > total[i - 1])
                          & (total[i] > total[i + 1])]] - ts[j])
            whole = lo[j] == 0 and hi[j] == n - 1
            if d.size == 0 and whole:
                raise ArgumentDomain("no density peak on the grid")
            # e is sorted: the untested points lie beyond the window's ends
            if d.size and (whole or min(abs(e[lo[j]] - ts[j]),
                                        abs(e[hi[j]] - ts[j])) > d.min()):
                out[j] = d.min()
                pending.discard(j)
        r *= 2.0
    return out


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
        raise ArgumentDomain(f"prime_limit above {_PRIME_LIMIT_CEILING}")
    table = von_mangoldt_table(prime_limit)
    marks = [10 ** k for k in range(2, 20) if 10 ** k <= prime_limit]
    if marks[-1] != prime_limit:
        marks.append(prime_limit)
    trajectory = []
    running = 0.0
    items = sorted(table.items())
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
        raise NoConvergence(f"|2az| = {abs(x)} >= 1")
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
        lhs=lhs, rhs=rhs,
        abs_discrepancy=gap,
        rel_discrepancy=gap / max(abs(rhs), 1e-300),
        verdict="fail" if gap > 1e-6 else "pass",
        notes=f"series side converges geometrically (k_max doubling moves it "
              f"by < {doubling:.3e}); the printed identity equates it with "
              f"log(2^-z zeta(2z)){branch_note}",
        extra={"x": x, "k_max": k_max},
    )
