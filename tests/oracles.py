"""Independent high-precision oracles used to freeze expected values.

Every oracle here deliberately uses a different algorithm from the
library path it checks (Stirling-with-recurrence vs Lanczos, doubled
working precision Euler-Maclaurin vs the double-precision one, Miller
backward recurrence vs the ascending series, the Mellin-Barnes
representation vs the cosh integral, 31-digit mpmath line sums and
circle quadrature vs the double-precision filter paths, the march up
Re s = 2 vs the arg rectangle started at 2 + it).  The last section holds
helpers whose only callers are tests.
"""

from __future__ import annotations

import cmath

import mpmath as mp
import numpy as np

from mbzero import mbfilter as mbf
from mbzero import specfun as sf
from mbzero.errors import PoleProximity
from mbzero.quadrature import circle_nodes, panel_nodes_from_edges

_STIRLING_SHIFT = 24


def stirling_recurrence_log_gamma(z, dps: int = 30):
    """log Gamma by Stirling's series after upward recurrence, ~30 digits."""
    with mp.workdps(dps):
        z = mp.mpc(z)
        shift = mp.mpc(0)
        while z.real < _STIRLING_SHIFT:
            shift -= mp.log(z)
            z += 1
        # Stirling with B_2..B_20
        out = (z - mp.mpf(1) / 2) * mp.log(z) - z + mp.log(2 * mp.pi) / 2
        z2 = z * z
        term = z
        for j in range(1, 11):
            b = mp.bernoulli(2 * j)
            out += b / ((2 * j) * (2 * j - 1) * term)
            term *= z2
        return out + shift


def gamma_oracle(z, dps: int = 30):
    with mp.workdps(dps):
        return mp.e ** stirling_recurrence_log_gamma(z, dps)


def em_zeta(s, dps: int = 30, n_trunc: int = None, order: int = 16):
    """Euler-Maclaurin zeta at doubled working precision."""
    with mp.workdps(dps):
        s = mp.mpc(s)
        n = n_trunc or max(50, int(2.2 * abs(s.imag)) + 30)
        total = mp.mpc(0)
        for k in range(1, n):
            total += mp.mpc(k) ** (-s)
        big = mp.mpf(n)
        total += big ** (1 - s) / (s - 1)
        total += big ** (-s) / 2
        poch = s
        for j in range(1, order // 2 + 1):
            total += (mp.bernoulli(2 * j) / mp.factorial(2 * j)) * poch \
                * big ** (-s - 2 * j + 1)
            poch = poch * (s + 2 * j - 1) * (s + 2 * j)
        return total


def beta_alternating(s, terms: int = 4000, dps: int = 30):
    """Dirichlet beta by the alternating series with Euler acceleration."""
    with mp.workdps(dps):
        s = mp.mpc(s)
        # van Wijngaarden / Euler transform via mpmath's alternating sum
        return mp.nsum(lambda n: (-1) ** n / (2 * n + 1) ** s, [0, mp.inf],
                       method="a")  # Abel/Euler-type acceleration


def bessel_k_mb(nu, x, dps: int = 30, c: float = None):
    """K_nu(x) through its Mellin-Barnes representation.

    (1/(4 pi i)) (x/2)^nu Int Gamma(t) Gamma(t - nu) (x/2)^{-2t} dt along
    Re t = c > max(Re nu, 0); independent of the cosh-integral route.
    """
    with mp.workdps(dps):
        nu = mp.mpc(nu)
        x = mp.mpf(x)
        cc = c if c is not None else float(nu.real) + 1.5
        f = lambda u: (mp.gamma(mp.mpc(cc, u)) * mp.gamma(mp.mpc(cc, u) - nu)
                       * (x / 2) ** (-2 * mp.mpc(cc, u)))
        val = mp.quad(f, [-mp.inf, 0, float(nu.imag), mp.inf])
        return (x / 2) ** nu * val * 1j / (4j * mp.pi)


def bessel_i_miller(nu, x, dps: int = 30, start: int = 60):
    """I_nu(x) by Miller's backward three-term recurrence.

    Seeds the minimal solution high in the order ladder, recurs down with
    I_{mu-1} = (2 mu / x) I_mu + I_{mu+1}, and normalizes against a single
    high-precision anchor at nu + start (computed from the series, where
    the series is ultra-fast because the order dominates).
    """
    with mp.workdps(dps):
        nu = mp.mpc(nu)
        x = mp.mpf(x)
        top = start + int(2 * abs(x))
        f_hi = mp.mpc(0)
        f_mid = mp.mpc(1) * mp.mpf(10) ** (-dps)
        vals = {}
        for k in range(top, -1, -1):
            mu = nu + k
            f_lo = (2 * (mu + 1) / x) * f_mid + f_hi
            vals[k] = f_lo
            f_hi, f_mid = f_mid, f_lo
        # normalize with the ascending series at order nu + anchor
        anchor = min(12, top)
        mu = nu + anchor
        series = mp.mpc(0)
        term = (x / 2) ** mu / mp.gamma(mu + 1)
        k = 0
        while abs(term) > mp.mpf(10) ** (-dps - 5) * max(abs(series), mp.mpf(1)):
            series += term
            k += 1
            term *= (x * x / 4) / (k * (mu + k))
        scale = series / vals[anchor]
        return vals[0] * scale


def arg_gamma_fine(t_target: float, sigma: float = 2.0, steps: int = 1000,
                   dps: int = 30):
    """Unwrapped arg Gamma(sigma + i t) by 10x-resolution marching."""
    with mp.workdps(dps):
        acc = mp.arg(mp.gamma(mp.mpc(sigma, 0)))
        prev = acc
        for k in range(1, steps + 1):
            t = t_target * k / steps
            raw = mp.arg(mp.gamma(mp.mpc(sigma, t)))
            twopi = 2 * mp.pi
            wind = mp.nint((prev - raw) / twopi)
            cur = raw + twopi * wind
            prev = cur
        return prev


def arg_rectangle_march(evaluate, t: float) -> float:
    """specfun.arg_rectangle by the full path 2 -> 2 + it -> 1/2 + it, the
    leg up Re s = 2 marched in unit steps with the argument unwrapped."""
    tracker = sf.ArgTracker()
    tracker.step(complex(2.0, 0.0), cmath.phase(evaluate(complex(2.0, 0.0))))
    sf.walk_arg_generic(tracker, evaluate, lambda y: complex(2.0, y),
                        0.0, t, 1.0)
    sf.walk_arg_generic(tracker, evaluate, lambda x: complex(x, t),
                        2.0, 0.5, 0.25)
    return tracker.accumulated_arg


def mb_integral_hp(kernel: str, energy: float, a: float,
                   contour, dps: int = 31) -> complex:
    """The vertical-line sum of mbfilter.mb_integral on its coarse node set
    (refine 0), every node in mpmath Gamma and L-functions at dps digits."""
    with mp.workdps(dps):
        nu = mp.mpc(0.5, 0.5 * energy)
        log2a = mp.log(2 * mp.mpf(a))
        edges = mbf._graded_edges(kernel, complex(0.5, 0.5 * energy), contour)
        t, w = panel_nodes_from_edges(edges)
        total = mp.mpc(0)
        for ti, wi in zip(t, w):
            s = mp.mpc(contour.abscissa, ti)
            if kernel in ("zeta2s", "beta2s"):
                val = mp.gamma(s) * mp.gamma(s - nu) * mp.exp(2 * s * log2a)
                val *= mbf._hp_arithmetic(kernel, 2 * s)
            else:
                val = (mp.gamma(s - nu)
                       * mp.exp(s * mp.log(mp.pi) + 2 * s * log2a)
                       * mbf._hp_arithmetic(kernel, 2 * s)
                       / (2 * s * (2 * s - 1)))
            total += val * wi
        return complex(total * 1j * mbf.kernel_prefactor(kernel))


def spectral_filter_circle(kernel: str, energy: float, a: float,
                           radius: float = 0.05, n_points: int = 64) -> complex:
    """mbfilter.spectral_filter by closed-circle quadrature of
    kernel(s)/(s - s0) around s0 = 1/4 + iE/4; spectrally accurate since
    the integrand is meromorphic with one enclosed pole."""
    point = mbf.SpectralPoint(energy)
    s, w = circle_nodes(point.s0, radius, n_points)
    vals = mbf._kernel_integrand(kernel, s, point.nu, a) / (s - point.s0)
    return complex(np.sum(vals * w)) * mbf.kernel_prefactor(kernel)


# 25-digit reference ordinates (independent bisection on the completed
# functions at mpmath dps = 40)
BETA_ORDINATES = (
    "6.020948904697596654902511",
    "10.24377030416655455213776",
    "12.98809801231242250745311",
    "16.34260710458722219497686",
)

ZETA_ORDINATES = (
    "14.13472514173469379045725",
    "21.02203963877155499262848",
    "25.01085758014568876321379",
    "30.42487612585951321031189",
    "32.93506158773918969066237",
    "37.58617815882567125721776",
    "40.91871901214749518739812",
    "43.32707328091499951949612",
    "48.00515088116715972794247",
    "49.77383247767230218191678",
)


# ---------------------------------------------------------------------------
# Test-only helpers
# ---------------------------------------------------------------------------

def log_gamma_continuous(s, tracker: sf.ArgTracker) -> complex:
    """log Gamma with imaginary part continued along the tracker path."""
    s = sf._require_finite(s)
    val = sf.log_gamma(s)
    unwrapped = tracker.step(s, val.imag)
    return complex(val.real, unwrapped)


def hurwitz_zeta(s, a: float) -> complex:
    """Hurwitz zeta(s, a) for 0 < a <= 1, Re s > -1, s != 1, on the
    Euler-Maclaurin core of specfun.zeta."""
    s = sf._require_finite(s)
    if abs(s - 1.0) <= 1e-10:
        raise PoleProximity("Hurwitz zeta pole at s = 1")
    return complex(sf._hurwitz_core(np.array([s]), a)[0])
