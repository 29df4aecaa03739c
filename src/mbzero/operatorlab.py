"""Numerical corollaries of the operator theory: Prufer phase
integration with node counting, endpoint classification at the origin,
the deficiency-index divergence experiment, and L2 classification of
K_nu eigenfunction candidates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .audit import AuditReport
from .bessel import bessel_K
from .errors import ArgumentDomain
from .quadrature import rk_adaptive

_X_MIN_FLOOR = 1e-4


@dataclass(frozen=True)
class RadialProblem:
    """Radial phase problem on [x_min, x_max] at a given energy, with
    the squared-operator barrier potential V = ((x + 1)^2 - E^2)/x."""

    x_min: float
    x_max: float
    energy: float

    def __post_init__(self):
        if not (self.x_min < self.x_max):
            raise ArgumentDomain("x_min must be below x_max")
        if self.x_min < _X_MIN_FLOOR:
            raise ArgumentDomain(f"x_min below origin cutoff {_X_MIN_FLOOR}")

    def v_of_x(self, x: float) -> float:
        return ((x + 1.0) ** 2 - self.energy ** 2) / x


@dataclass(frozen=True)
class PruferState:
    x: float
    amplitude: float
    phase: float


def _phase_rhs(problem: RadialProblem):
    def rhs(x, th):
        s, c = math.sin(th), math.cos(th)
        return 1.0 - problem.v_of_x(x) * s * s - s * c / x
    return rhs


def prufer_integrate(problem: RadialProblem):
    """Integrate theta' = 1 - V sin^2(theta) - (1/x) sin(theta) cos(theta).

    Returns the trajectory as a list of PruferState; the matched
    amplitude equation R'/R = V sin cos + cos^2/x is carried alongside.
    Node count over the window is floor(delta theta / pi).
    """
    states = [PruferState(x=problem.x_min, amplitude=1.0, phase=0.0)]
    log_r = [0.0]

    def record(x, th):
        s, c = math.sin(th), math.cos(th)
        prev = states[-1]
        dx = x - prev.x
        dlr = problem.v_of_x(x) * s * c + c * c / x
        log_r.append(log_r[-1] + dlr * dx)
        states.append(PruferState(x=x, amplitude=math.exp(log_r[-1]), phase=th))

    rk_adaptive(_phase_rhs(problem), problem.x_min, 0.0, problem.x_max,
                record=record)
    return states


def phase_advance(problem: RadialProblem) -> float:
    """theta(x_max) - theta(x_min) for theta(x_min) = 0: the phase equation
    of `prufer_integrate`, without building the trajectory."""
    return rk_adaptive(_phase_rhs(problem), problem.x_min, 0.0, problem.x_max)


# ---------------------------------------------------------------------------
# Endpoint classification at the origin
# ---------------------------------------------------------------------------

def frobenius_classify(nu: complex) -> str:
    """limit_circle iff Re nu < 1/2, by the weighted-norm convergence test.

    The x^{-Re nu} Frobenius branch is the binding one: its norm density
    x^{-2 Re nu} is integrated on [cutoff, 0.1] over a shrinking cutoff
    ladder, and the quadrature verdict must agree with the analytic
    criterion (log-divergence appears exactly at Re nu = 1/2).
    """
    nu = complex(nu)
    analytic = "limit_circle" if nu.real < 0.5 else "limit_point"
    expo = -2.0 * nu.real
    cutoffs = [10.0 ** (-k) for k in range(2, 8)]
    vals = []
    for lo in cutoffs:
        xs = np.geomspace(lo, 0.1, 6000)
        ys = xs ** expo
        vals.append(float(np.trapezoid(ys, xs)))
    increments = np.diff(vals)
    # per-decade increments scale like 10^{-(1 - 2 Re nu) k}: a ratio pinned
    # at 1 is the boundary log divergence, above 1 is power divergence
    ratios = increments[1:] / increments[:-1]
    mean_ratio = float(np.mean(ratios))
    numeric = "limit_circle" if mean_ratio < 0.9995 else "limit_point"
    if numeric != analytic:
        raise ArgumentDomain(
            f"quadrature verdict {numeric} (ratio {mean_ratio:.6f}) disagrees "
            f"with the criterion at nu={nu!r}; resolvable only for "
            "|Re nu - 1/2| >~ 5e-4"
        )
    return analytic


# ---------------------------------------------------------------------------
# J0 of complex argument: series plus asymptotic patch
# ---------------------------------------------------------------------------

def bessel_j0(z: complex) -> complex:
    """J_0(z) for complex z: power series to |z| = 18, Hankel patch beyond."""
    z = complex(z)
    if abs(z) <= 18.0:
        q = -0.25 * z * z
        term = 1.0 + 0.0j
        total = term
        for k in range(1, 120):
            term *= q / (k * k)
            total += term
            if abs(term) <= 1e-17 * abs(total):
                break
        return total
    w = z - 0.25 * math.pi
    zi2 = 1.0 / (z * z)
    p = 1.0 + zi2 * (-9.0 / 128.0 + zi2 * 3675.0 / 32768.0)
    q = (1.0 / (8.0 * z)) * (1.0 + zi2 * (-75.0 / 128.0
                                          + zi2 * 59535.0 / 32768.0))
    return cmath.sqrt(2.0 / (math.pi * z)) * (cmath.cos(w) * p + cmath.sin(w) * q)


def deficiency_divergence_check() -> AuditReport:
    """Divergence signature of the endpoint deficiency experiment.

    The radial profile x |x^{-1/2} f(x)|^2 = |f(x)|^2 is integrated over
    [1, X] for X = 1e2, 1e3, 1e4 with f the J0 solution evaluated on the
    modulus line |z(x)| = x/sqrt(2) (the x^{-1/2}-envelope oscillation the
    operator analysis asserts).  PASS iff the growth is logarithmic: the
    per-decade increments agree within 15%.  The literal complex-ray
    argument z_+-(x) = (x/sqrt 2) e^{-+ i pi/4} makes |J0| grow like
    e^{x/2}, which is measured and recorded alongside.
    """
    marks = [1e2, 1e3, 1e4]
    xs = np.linspace(1.0, marks[-1], 1_200_001)
    u = xs / math.sqrt(2.0)
    # |J0(u)|^2 on the modulus line; vectorized two-region evaluation
    small = u <= 14.0
    vals = np.empty_like(u)
    vals[small] = np.array([abs(bessel_j0(x)) ** 2 for x in u[small]])
    ub = u[~small]
    w = ub - 0.25 * math.pi
    p = 1.0 - 9.0 / (128.0 * ub * ub)
    q = 1.0 / (8.0 * ub) - 75.0 / (1024.0 * ub ** 3)
    vals[~small] = (2.0 / (math.pi * ub)) * (np.cos(w) * p + np.sin(w) * q) ** 2
    inc = 0.5 * (vals[1:] + vals[:-1]) * np.diff(xs)
    cum = np.concatenate(([0.0], np.cumsum(inc)))
    integrals = [float(np.interp(m, xs, cum)) for m in marks]
    slopes = [
        (integrals[i + 1] - integrals[i])
        / (math.log(marks[i + 1]) - math.log(marks[i]))
        for i in range(len(marks) - 1)
    ]
    mean_slope = sum(slopes) / len(slopes)
    spread = max(abs(s - mean_slope) for s in slopes) / mean_slope
    # literal complex-ray probe: fitted exponential growth rate of |J0(z_+)|
    probe_x = np.array([10.0, 20.0, 30.0, 40.0])
    ray = probe_x / math.sqrt(2.0) * cmath.exp(-0.25j * math.pi)
    growth = np.polyfit(probe_x,
                        [math.log(abs(bessel_j0(complex(z)))) for z in ray], 1)[0]
    return AuditReport(
        lhs=complex(mean_slope),
        rhs=complex(math.sqrt(2.0) / math.pi),
        abs_discrepancy=spread,
        rel_discrepancy=spread,
        verdict="pass" if spread <= 0.15 else "fail",
        notes=f"per-decade increments {slopes}; 1/x envelope confirmed "
              f"(expected slope sqrt(2)/pi = {math.sqrt(2)/math.pi:.4f}). "
              f"Literal complex-ray |J0(z_+)| grows like e^{{{growth:.3f} x}} "
              "(~e^{x/2}), so the asserted x^{-1/2} decay holds only for the "
              "modulus-line oscillation profile",
        extra={"integrals": integrals, "marks": marks,
               "complex_ray_growth_rate": float(growth)},
    )


# ---------------------------------------------------------------------------
# L2 classification of K_nu candidates
# ---------------------------------------------------------------------------

def eigenfunction_L2_classifier(nu: complex) -> AuditReport:
    """Convergence audit of  integral x |K_nu(x)|^2 dx  on [1e-3, 40].

    Convergent iff the tail increments past x = 35 are below 1e-12 and
    the integral is stable under halving the origin cutoff; near-origin
    divergence (Re nu >= 1) is detected by cutoff-ladder growth.
    """
    nu = complex(nu)
    if abs(nu.imag) > 60.0:
        raise ArgumentDomain("|Im nu| > 60")

    def weighted(lo: float) -> tuple:
        xs = np.geomspace(lo, 40.0, 3000)
        ys = np.array([x * abs(bessel_K(nu, float(x)).value) ** 2 for x in xs])
        inc = 0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)
        tail = float(np.sum(inc[xs[1:] >= 35.0]))
        return float(np.sum(inc)), tail

    base, tail = weighted(1e-3)
    halved, _ = weighted(5e-4)
    quarter, _ = weighted(2.5e-4)
    inc1, inc2 = halved - base, quarter - halved
    origin_divergent = abs(inc2) > 0.75 * abs(inc1) and abs(inc1) > 1e-10
    tail_ok = tail < 1e-12
    convergent = tail_ok and not origin_divergent
    return AuditReport(
        lhs=complex(base),
        rhs=complex(quarter),
        abs_discrepancy=abs(inc1) + abs(inc2),
        rel_discrepancy=(abs(inc1) + abs(inc2)) / max(abs(base), 1e-300),
        verdict="pass" if convergent else "divergent",
        notes=f"nu={nu!r}: tail increment past 35 = {tail:.3e}; "
              f"cutoff-halving increments {inc1:.3e}, {inc2:.3e}"
              + ("" if not origin_divergent else
                 " (near-origin divergence: cutoff ladder keeps growing)"),
        extra={"tail_increment": tail, "cutoff_increments": [inc1, inc2]},
    )
