"""Modified Bessel functions K_nu and I_nu for real x > 0 and complex order.

K_nu comes from double-exponential trapezoid quadrature of
(1/2) integral e^{-x cosh t - nu t} dt.  For orders with large |Im nu| the
path is rotated to t - i beta sign(Im nu), which pulls the integrand's
magnitude down to the scale of the answer and keeps the cancellation
budget in double precision.  The passes at spacing h and h/2 share one
integrand evaluation, since the h nodes are the even h/2 nodes bit for
bit; where beta does not depend on x, cosh t and nu t come from a grid
cached across calls.  I_nu is the ascending power series.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audit import AuditReport
from .errors import ArgumentDomain, NoConvergence
from .specfun import log_gamma

_RE_NU_MAX = 5.0
_IM_NU_MAX = 100.0
_I_SERIES_X_MAX = 30.0


@dataclass(frozen=True)
class BesselEval:
    value: complex
    abs_error_estimate: float

    def __post_init__(self):
        if not (self.abs_error_estimate >= 0.0):
            raise ArgumentDomain("error estimate must be >= 0")
        if not (math.isfinite(self.value.real) and math.isfinite(self.value.imag)):
            raise ArgumentDomain("Bessel value not finite")


def _check_order(nu: complex) -> complex:
    nu = complex(nu)
    if abs(nu.real) > _RE_NU_MAX or abs(nu.imag) > _IM_NU_MAX:
        raise ArgumentDomain(f"order {nu!r} outside |Re| <= 5, |Im| <= 100")
    return nu


def _k_path(nu: complex, x: float) -> tuple:
    """Rotation angle beta for the integration path t - i beta sign(Im nu),
    and whether beta is the same for every x.

    The saddle of e^{-x cosh t - nu t} sits at Im t = -arcsin(|Im nu|/x)
    when |Im nu| <= x and at the edge of the analyticity strip otherwise;
    running through (just under) it pulls the integrand magnitude down to
    the scale of K itself, so at most ~2 digits cancel.  The angle is
    capped below pi/2, so it depends on x only where the saddle is under
    the cap (x somewhat above |Im nu|); for |Im nu| <= 4 it is 0.
    """
    b = abs(nu.imag)
    if b <= 4.0:
        return 0.0, True
    saddle = math.asin(min(b / x, 1.0))
    cap = 0.5 * math.pi - min(0.35, 4.0 / b)
    return (cap, True) if saddle >= cap else (saddle, False)


def _k_reach(nu: complex, x: float, beta: float) -> float:
    """Truncation point T of the trapezoid sum, 46 e-folds below the
    integrand peak: x cos(beta) (cosh T - 1) - |Re nu| T >= 46."""
    cosb = math.cos(beta) if beta > 0.0 else 1.0
    t_max = math.acosh(1.0 + 46.0 / (x * cosb))
    return math.acosh(1.0 + (46.0 + abs(nu.real) * t_max + 2.0) / (x * cosb))


def _k_grid(nu: complex, beta: float, step: float, m: int):
    """cosh(t) and nu t at the nodes t_j = j step - i beta sign(Im nu),
    j in [-m, m]; none of it depends on x.  Cached through `_k_cached`,
    hence read-only."""
    shift = -1j * beta * (1.0 if nu.imag >= 0.0 else -1.0)
    t = np.arange(-m, m + 1, dtype=float) * step + shift
    cosh_t, nu_t = np.cosh(t), nu * t
    cosh_t.flags.writeable = False
    nu_t.flags.writeable = False
    return cosh_t, nu_t


_k_cached = lru_cache(maxsize=16)(_k_grid)


def _k_integrand(nu: complex, x: float, beta: float, fixed: bool,
                 step: float, m: int) -> np.ndarray:
    """e^{-x cosh t - nu t} at the nodes j in [-m, m].  When beta does not
    depend on x (`fixed`), the x-free factors come from a cached grid whose
    half-length is m rounded up to a multiple of 64."""
    if fixed:
        half = -(-m // 64) * 64
        cosh_t, nu_t = _k_cached(nu, beta, step, half)
        cosh_t = cosh_t[half - m:half + m + 1]
        nu_t = nu_t[half - m:half + m + 1]
    else:
        cosh_t, nu_t = _k_grid(nu, beta, step, m)
    return np.exp(-x * cosh_t - nu_t)


def bessel_K(nu: complex, x: float, tol: float = 1e-12) -> BesselEval:
    """K_nu(x) by double-exponential quadrature of the cosh integral.

    Relative error <= 1e-11 for x in [0.05, 50] across the admitted order
    box; abs_error_estimate comes from interval halving.  Trapezoid nodes
    nest under halving, so the first two passes (spacing h and h/2) share
    one evaluation of the integrand on the h/2 grid: the h sum takes its
    even entries.  A call that needs a further halving evaluates each finer
    grid once more.  Where the path angle does not depend on x (|Im nu| <= 4,
    or x up to a little above |Im nu|), cosh t and nu t come from a cached
    grid shared by every x.
    """
    nu = _check_order(nu)
    if not (x > 0.0):
        raise ArgumentDomain("bessel_K needs x > 0")
    beta, fixed = _k_path(nu, x)
    b = abs(nu.imag)
    delta = 0.5 * math.pi - beta if beta > 0.0 else 0.5 * math.pi
    h = min(0.1, 2.0 * math.pi / (b + 40.0 / delta))
    t_max = _k_reach(nu, x, beta)
    n = int(t_max / h) + 1
    h *= 0.5
    vals = _k_integrand(nu, x, beta, fixed, h, 2 * n)
    # the h pass sums the even nodes with weight 0.5 * 2h = h; a contiguous
    # copy keeps np.sum's pairwise order identical to a pass built on its own
    prev = h * complex(np.sum(vals[::2].copy()))
    cut = 2 * n - (int(t_max / h) + 1)  # the h/2 pass reaches 2n - 1 or 2n
    cur = 0.5 * h * complex(np.sum(vals[cut:vals.size - cut]))
    for level in range(7):
        if level:
            h *= 0.5
            n = int(t_max / h) + 1
            cur = 0.5 * h * complex(np.sum(
                _k_integrand(nu, x, beta, fixed, h, n)))
        err = abs(cur - prev)
        if err <= tol * max(abs(cur), 1e-300):
            return BesselEval(value=cur, abs_error_estimate=err)
        prev = cur
    raise NoConvergence(
        f"K quadrature stalled at nu={nu!r}, x={x}: last delta {err:.3e}"
    )


def bessel_I(nu: complex, x: float) -> BesselEval:
    """I_nu(x) by the ascending power series to 1e-13 relative, x <= 30."""
    nu = _check_order(nu)
    if not (x > 0.0):
        raise ArgumentDomain("bessel_I needs x > 0")
    if x > _I_SERIES_X_MAX:
        raise ArgumentDomain(f"series mode limited to x <= {_I_SERIES_X_MAX}")
    # (x/2)^nu / Gamma(nu+1) in log form to dodge overflow at large |Im nu|
    lead = cmath.exp(nu * math.log(0.5 * x) - log_gamma(nu + 1.0))
    q = 0.25 * x * x
    term = 1.0 + 0.0j
    total = term
    for k in range(1, 400):
        term *= q / (k * (nu + k))
        total += term
        if abs(term) <= 1e-13 * abs(total):
            return BesselEval(value=lead * total,
                              abs_error_estimate=abs(lead * term))
    raise ArgumentDomain(f"I series failed to converge at nu={nu!r}, x={x}")


def _richardson_derivative(f, x: float, h: float) -> complex:
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + 0.5 * h) - f(x - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def wronskian_check(nu: complex, x: float) -> float:
    """|x W(K_nu, I_nu)(x) - 1| with W = K I' - K' I from finite differences.

    Derivatives are numerical on purpose: analytic recurrences would make
    the test circular.
    """
    nu = _check_order(nu)
    if not (x > 0.0):
        raise ArgumentDomain("wronskian_check needs x > 0")
    # base step x * 1e-5, widened for strongly oscillatory orders where the
    # evaluation noise floor rises; Richardson keeps the truncation at h^4
    h = x * 1e-5 * max(1.0, abs(nu.imag) / 3.0)
    kv = bessel_K(nu, x, tol=1e-13).value
    iv = bessel_I(nu, x).value
    dk = _richardson_derivative(lambda u: bessel_K(nu, u, tol=1e-13).value, x, h)
    di = _richardson_derivative(lambda u: bessel_I(nu, u).value, x, h)
    return abs(x * (kv * di - dk * iv) - 1.0)


def small_x_power(nu: complex) -> AuditReport:
    """Power fit of |K_nu| ~ x^{-Re nu} on 1e-3..1e-1, for |Re nu| < 1/2."""
    nu = _check_order(nu)
    if abs(nu.real) >= 0.5:
        raise ArgumentDomain("small_x mode needs |Re nu| < 1/2")
    xs = np.geomspace(1e-3, 1e-1, 9)
    ks = np.array([abs(bessel_K(nu, float(x)).value) for x in xs])
    # pairwise log-log slopes, extrapolated to x -> 0 against the known
    # x^{2 Re nu} reflection-partner correction (it tilts the top decade)
    logx = np.log(xs)
    local = np.diff(np.log(ks)) / np.diff(logx)
    x_mid = np.sqrt(xs[1:] * xs[:-1])
    gap = max(min(2.0 * abs(nu.real), 2.0), 0.2)
    design = np.column_stack([np.ones_like(x_mid), x_mid ** gap])
    coef, *_ = np.linalg.lstsq(design, local, rcond=None)
    slope = float(coef[0])
    expected = -abs(nu.real)
    dev = abs(slope - expected)
    tolerance = 0.02 * max(abs(expected), 0.1)
    return AuditReport(
        lhs=complex(slope), rhs=complex(expected),
        abs_discrepancy=dev,
        rel_discrepancy=dev / max(abs(expected), 1e-12),
        verdict="pass" if dev <= tolerance else "fail",
        notes=f"extrapolated log-log slope of |K_nu| over x in [1e-3, 1e-1], "
              f"nu={nu!r}",
    )


def large_x_decay(nu: complex) -> AuditReport:
    """Log-linear fit of the decay |K_nu| sqrt(x) ~ e^{-x} on 10..40."""
    nu = _check_order(nu)
    xs = np.linspace(10.0, 40.0, 13)
    ks = np.array([abs(bessel_K(nu, float(x)).value) for x in xs])
    slope = float(np.polyfit(xs, np.log(ks * np.sqrt(xs)), 1)[0])
    dev = abs(slope - (-1.0))
    return AuditReport(
        lhs=complex(slope), rhs=complex(-1.0),
        abs_discrepancy=dev, rel_discrepancy=dev,
        verdict="pass" if dev <= 0.02 else "fail",
        notes=f"log-linear fit of |K_nu| sqrt(x) over x in [10, 40], nu={nu!r}",
    )
