"""Independent high-precision oracles used to freeze expected values.

Every oracle here deliberately uses a different algorithm from the
library path it checks (Stirling-with-recurrence vs Lanczos, doubled
working precision Euler-Maclaurin vs the double-precision one, Miller
backward recurrence vs the ascending series, the Mellin-Barnes
representation vs the cosh integral, 31-digit mpmath line sums and
circle quadrature vs the double-precision filter paths, one-point Hardy Z
and one-bracket bisection vs the lockstep census refinement, the scalar march
up Re s = 2 and along the leg vs the arg rectangle started at 2 + it with
one vector call, every node evaluated vs one evaluation per conjugate pair
of nodes, a trapezoid pass built from scratch at each spacing vs nested
passes sharing one evaluation, vector Gamma on each side's two tail probes
vs scalar Gamma on all four, the density on the full grid vs windows
around the targets, three scalar L calls a Newton step vs one vector
call, one Newton loop a guess vs every root in lockstep, one arg walk a
height vs the legs of every height from one call, an ArgTracker object that raises and catches BranchJump vs a float
unwrap that tests the step, the Newton backends with spectral_filter's
prefactor vs without it, scalar theta vs the array forms).  The last
section holds helpers whose only callers are tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from mbzero import bessel as bs
from mbzero import mbfilter as mbf
from mbzero import specfun as sf
from mbzero import spectrostats as st
from mbzero import zerocensus as zc
from mbzero.errors import ArgumentDomain, MbzeroError, NoConvergence
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


class BranchJump(NoConvergence):
    """A tracked-argument path step would move arg by >= pi."""


@dataclass
class ArgTracker:
    """Continuous argument along a sample path, unwrapped step by step.

    Paths start where the principal branch is unambiguous: arg_rectangle
    starts at 2 + it, where Re L(2 + it) > 0 for zeta and beta.  A step
    whose unwrapped argument still moves by >= pi raises BranchJump: the
    caller refines the path instead of guessing a sheet.
    """

    path: list = field(default_factory=list)
    accumulated_arg: float = 0.0

    def step(self, s: complex, principal_arg: float,
             limit: float = 0.9 * math.pi) -> float:
        k = round((self.accumulated_arg - principal_arg) / (2.0 * math.pi))
        candidate = principal_arg + 2.0 * math.pi * k
        if self.path and abs(candidate - self.accumulated_arg) >= limit:
            raise BranchJump(
                f"arg step {candidate - self.accumulated_arg:+.3f} rad at s={s!r}; "
                "refine the path"
            )
        self.path.append(s)
        self.accumulated_arg = candidate
        return candidate


def _leg_step_tracker(tracker: ArgTracker, evaluate, t: float, x0: float,
                      x1: float, value: complex) -> None:
    """Unwrap value = L(x1 + it) after x0 + it.  A move of >= pi/2 is
    split in halves, each midpoint evaluated on its own; BranchJump once the
    split stalls (a zero of L sits on the path)."""
    s = complex(x1, t)
    try:
        tracker.step(s, cmath.phase(value), limit=0.5 * math.pi)
    except BranchJump:
        if x0 - x1 < 1e-11:
            raise BranchJump(
                f"arg path stalled at {s!r}; a zero sits on the path"
            ) from None
        mid = 0.5 * (x0 + x1)
        _leg_step_tracker(tracker, evaluate, t, x0, mid,
                          evaluate(np.array([complex(mid, t)]))[0])
        _leg_step_tracker(tracker, evaluate, t, mid, x1, value)


def _leg_values(evaluate, t: float) -> np.ndarray:
    """evaluate, the vector form of L, at the leg points 2, 1.75, ..., 1/2
    (+ it) of a height t >= 0, in one call."""
    sf._require_finite(t)
    if t < 0:
        raise ArgumentDomain("arg_rectangles defined for t >= 0")
    return evaluate(np.array([complex(x, t) for x in sf._LEG]))


def arg_rectangle(evaluate, t: float) -> float:
    """specfun.arg_rectangles at one height, one vector call of the seven
    leg points: evaluate is the vector form of L (zeta_vec,
    dirichlet_beta_vec or a planted function), which also takes each split
    midpoint.  The serial reference of the batched walk."""
    return sf._unwrap_leg(evaluate, t, _leg_values(evaluate, t))


def arg_rectangle_tracker(evaluate, t: float) -> float:
    """arg_rectangle with the unwrap kept in an ArgTracker, whose rejected
    step raises BranchJump and is caught to split it."""
    values = _leg_values(evaluate, t)
    tracker = ArgTracker()
    tracker.step(complex(2.0, t), cmath.phase(values[0]))
    for k in range(1, len(sf._LEG)):
        _leg_step_tracker(tracker, evaluate, t, sf._LEG[k - 1], sf._LEG[k],
                          values[k])
    return tracker.accumulated_arg


def walk_arg_generic(tracker: ArgTracker, evaluate, point_at,
                     u0: float, u1: float, step: float) -> None:
    """March u from u0 to u1 unwrapping arg evaluate(point_at(u)), one
    scalar evaluation a point.

    Halves the step whenever a move would change the unwrapped argument
    by >= pi/2 and doubles it back after each accepted move; raises
    BranchJump if refinement stalls (a zero of the evaluated function sits
    on the path).
    """
    if u0 == u1:
        return
    direction = 1.0 if u1 > u0 else -1.0
    u = u0
    h = step
    while direction * (u1 - u) > 1e-15:
        h = min(h, abs(u1 - u))
        s = point_at(u + direction * h)
        arg = cmath.phase(evaluate(s))
        try:
            tracker.step(s, arg, limit=0.5 * math.pi)
        except BranchJump:
            if h < 1e-11:
                raise BranchJump(
                    f"arg path stalled at {s!r}; a zero sits on the path"
                ) from None
            h *= 0.5
            continue
        u += direction * h
        h = min(step, h * 2.0)


def arg_rectangle_march(evaluate, t: float) -> float:
    """arg_rectangle by the full path 2 -> 2 + it -> 1/2 + it with
    the scalar evaluate, the leg up Re s = 2 marched in unit steps and the
    horizontal leg by walk_arg_generic, with the argument unwrapped."""
    tracker = ArgTracker()
    tracker.step(complex(2.0, 0.0), cmath.phase(evaluate(complex(2.0, 0.0))))
    walk_arg_generic(tracker, evaluate, lambda y: complex(2.0, y), 0.0, t, 1.0)
    walk_arg_generic(tracker, evaluate, lambda x: complex(x, t), 2.0, 0.5, 0.25)
    return tracker.accumulated_arg


def line_node_set(energy: float, contour, refine: int):
    """Weights and nodes of mbfilter's line node set for the energy, each
    graded panel split `refine` times (mb_integral splits once)."""
    edges = mbf._graded_edges(complex(0.5, 0.5 * energy), contour)
    t, w = panel_nodes_from_edges(edges, refine)
    return w, contour.abscissa + 1j * t


def mb_integral_hp(energy: float, a: float, contour,
                   dps: int = 31) -> complex:
    """The vertical-line sum of mbfilter.mb_integral on its own node set,
    every node in mpmath Gamma and zeta at dps digits."""
    w, nodes = line_node_set(energy, contour, 1)
    with mp.workdps(dps):
        nu = mp.mpc(0.5, 0.5 * energy)
        log2a = mp.log(2 * mp.mpf(a))
        total = mp.mpc(0)
        for z, wi in zip(nodes, w):
            s = mp.mpc(z.real, z.imag)
            val = mp.gamma(s) * mp.gamma(s - nu) * mp.exp(2 * s * log2a)
            total += val * mp.zeta(2 * s) * wi
        return complex(total * 1j * mbf.kernel_prefactor("zeta"))


def scale_free_factors_unmirrored(function: str, s: np.ndarray, nu: complex):
    """mbfilter._scale_free_factors with every node evaluated on its own
    account: no conjugate pair of nodes shares an evaluation.  function
    "beta" gives the beta(2s) kernel's factors, which only the filter has."""
    l_vec = sf.zeta_vec if function == "zeta" else sf.dirichlet_beta_vec
    return sf.log_gamma_vec(s) + sf.log_gamma_vec(s - nu), l_vec(2.0 * s)


def contour_shift_deltas_serial(triples, scale) -> list:
    """mbfilter.contour_shift_deltas as a loop of mb_integral calls, one
    line at a time, each line's zeta(2s) from its own zeta_vec call."""
    out = []
    for energy, g1, g2 in triples:
        lo, hi = min(g1, g2), max(g1, g2)
        ladders = mbf.pole_abscissas(max(12.0, abs(lo) + 2, abs(hi) + 2))
        inside = ladders[(ladders > lo + 1e-12) & (ladders < hi - 1e-12)]
        if inside.size:
            raise ArgumentDomain(
                f"pole ladder at Re s = {inside[0]} inside [{lo}, {hi}]")
        v1, v2 = (mbf.mb_integral(energy, scale, mbf.ContourSpec(g))
                  for g in (g1, g2))
        out.append(abs(v1 - v2))
    return out


def newton_filter_root_serial(function: str, e_guess: float, scale) -> float:
    """mbfilter.newton_filter_root as one Newton loop a guess: a backend
    call of one energy a step, then that root's residual test."""
    e_guess = float(e_guess)
    e, f_hist = e_guess, []
    for it in range(mbf._NEWTON_MAX_ITER):
        f, df = mbf._filter_with_derivative(function, [e], scale)[0]
        f_hist.append(abs(f))
        if it == 2 and not (f_hist[2] < f_hist[0]):
            raise NoConvergence(f"|filter| not decreasing from guess "
                                f"{e_guess}")
        if df == 0:
            raise NoConvergence("filter derivative vanished")
        step = (f / df).real
        e_new = e - step
        if abs(e_new - e_guess) > 1:
            raise NoConvergence(f"iterate {e_new:.6f} left "
                                f"[{e_guess - 1}, {e_guess + 1}]")
        e = e_new
        if abs(step) < 1e-12 * max(1, abs(e)):
            residual = abs(sf.critical_line_values(function, [0.5 * e])[0])
            if not residual < zc.RESIDUAL_LIMIT:
                raise NoConvergence(f"|L| = {residual:.3e} at the converged "
                                    f"E = {e:.6f}: not a zero")
            return e
    raise NoConvergence(f"Newton did not converge from {e_guess} "
                        f"in {mbf._NEWTON_MAX_ITER}")


def newton_root_dd(function: str, e_guess: float, scale):
    """mbfilter.newton_root_dd from the accepted double root of e_guess, as
    double-double filter-roots starts it."""
    start = mbf.newton_filter_roots(function, [e_guess], scale)[0]
    return mbf.newton_root_dd(function, e_guess, start, scale)


def tail_estimate_two_calls(nu: complex, a: float, contour) -> float:
    """mbfilter._tail_estimate with one vector integrand call per side on
    its two probes, t_max - 1 and t_max."""
    out = 0.0
    for sign in (+1.0, -1.0):
        t_edge = sign * contour.t_max
        probe = np.array([t_edge - sign * 1.0, t_edge])
        s = contour.abscissa + 1j * probe
        m = np.abs(mbf._kernel_integrand(nu, s, a))
        if m[1] <= 0.0:
            continue
        rate = math.log(max(m[0], 1e-300) / m[1])  # e-folds per unit t
        rate = max(rate, 0.5)
        out += m[1] / rate * 2.0
    return out * abs(mbf.kernel_prefactor("zeta"))


def oscillatory_density(e_grid, prime_limit: int,
                        sigma: float = 0.3) -> np.ndarray:
    """spectrostats.oscillatory_density one prime power at a time: the
    reference for its blocked form."""
    e = np.asarray(e_grid, dtype=float)
    out = np.zeros_like(e)
    for p in sf.primes_upto(prime_limit):
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
    """Local maxima of mean + oscillatory density over the whole grid: the
    reference for spectrostats.peak_distances, its oscillation the loop's."""
    e = np.asarray(e_grid, dtype=float)
    total = st.mean_density(e) + oscillatory_density(e, prime_limit, sigma)
    idx = np.flatnonzero((total[1:-1] > total[:-2]) & (total[1:-1] > total[2:])) + 1
    return e[idx]


def spectral_filter_circle(function: str, energy: float, a: float,
                           radius: float = 0.05) -> complex:
    """mbfilter.spectral_filter by closed-circle quadrature of
    kernel(s)/(s - s0) around s0 = 1/4 + iE/4; spectrally accurate since
    the integrand is meromorphic with one enclosed pole."""
    s0, nu = complex(0.25, 0.25 * energy), complex(0.5, 0.5 * energy)
    s, w = circle_nodes(s0, radius)
    lg, arith = scale_free_factors_unmirrored(function, s, nu)
    vals = np.exp(lg + 2.0 * s * math.log(2.0 * a)) * arith / (s - s0)
    return complex(np.sum(vals * w)) * mbf.kernel_prefactor(function)


def _k_path_two_pass(nu: complex, x: float) -> float:
    b = abs(nu.imag)
    if b <= 4.0:
        return 0.0
    saddle = math.asin(min(b / x, 1.0))
    return min(saddle, 0.5 * math.pi - min(0.35, 4.0 / b))


def _k_quad(nu: complex, x: float, beta: float, step: float) -> complex:
    """One trapezoid pass of the rotated cosh integral with given spacing."""
    shift = -1j * beta * (1.0 if nu.imag >= 0.0 else -1.0)
    cosb = math.cos(beta) if beta > 0.0 else 1.0
    t_max = math.acosh(1.0 + 46.0 / (x * cosb))
    t_max = math.acosh(1.0 + (46.0 + abs(nu.real) * t_max + 2.0) / (x * cosb))
    n = int(t_max / step) + 1
    t = np.arange(-n, n + 1, dtype=float) * step + shift
    vals = np.exp(-x * np.cosh(t) - nu * t)
    return 0.5 * step * complex(np.sum(vals))


def bessel_K_two_pass(nu: complex, x: float, tol: float = 1e-12):
    """bessel.bessel_K with every trapezoid pass built from scratch.

    Returns the BesselEval and the number of passes after the first.
    """
    nu = bs._check_order(nu)
    beta = _k_path_two_pass(nu, x)
    b = abs(nu.imag)
    delta = 0.5 * math.pi - beta if beta > 0.0 else 0.5 * math.pi
    h = min(0.1, 2.0 * math.pi / (b + 40.0 / delta))
    prev = _k_quad(nu, x, beta, h)
    for halvings in range(1, 8):
        h *= 0.5
        cur = _k_quad(nu, x, beta, h)
        err = abs(cur - prev)
        if err <= tol * max(abs(cur), 1e-300):
            return bs.BesselEval(value=cur, abs_error_estimate=err), halvings
        prev = cur
    raise NoConvergence(f"last delta {err:.3e}")


# The 25 beta ordinates below 60 at 35 digits: mpmath.findroot (dps 40)
# on the real completed function (4/pi)^((s+1)/2) Gamma((s+1)/2) L(s, chi_4)
# at s = 1/2 + it, L from mpmath.dirichlet, each root bracketed by a sign
# change on a grid of step 0.05 (25 changes below 60).  Frozen because
# the computation takes about 10 s.
BETA_ORDINATES = (
    "6.0209489046975966549025115216120859",
    "10.243770304166554552137757479109959",
    "12.988098012312422507453109789562994",
    "16.342607104587222194976861483456150",
    "18.291993196123534838526004277590699",
    "21.450611343983460497200948386292240",
    "23.278376520459531531819558886345423",
    "25.728756425088727567265088674277295",
    "28.359634343025327785651607941786418",
    "29.656384014593152721809906968218799",
    "32.592186527117155130815194048958815",
    "34.199957509213146913044795470002884",
    "36.142880458303137830565814470103148",
    "38.511923141718691293776504688065765",
    "40.322674066690544180344394362312024",
    "41.807084620004562337157521897245043",
    "44.617891058662303393482045725060457",
    "45.599584396791566745937702293355413",
    "47.741562280939141250781347343038077",
    "49.723129323782586066569570880970428",
    "51.686093452870528439533811110319277",
    "52.768820767804729265035076578776603",
    "55.267543584699224846718259656915453",
    "56.934374055202296886801711961125497",
    "58.116707110673917977262367546990132",
)

# The 79 zeta ordinates below 200 at 35 digits: mpmath.zetazero(n).imag,
# found with Riemann-Siegel and Gram points, so they share no code with
# the Euler-Maclaurin census or the filter Newton.  Frozen because the
# 79 calls take about 10 s.
ZETA_ORDINATES = (
    "14.13472514173469379045725198356247",
    "21.022039638771554992628479593896903",
    "25.010857580145688763213790992562822",
    "30.424876125859513210311897530584091",
    "32.935061587739189690662368964074903",
    "37.586178158825671257217763480705333",
    "40.918719012147495187398126914633254",
    "43.327073280914999519496122165406806",
    "48.005150881167159727942472749427516",
    "49.773832477672302181916784678563724",
    "52.97032147771446064414729660888099",
    "56.446247697063394804367759476706128",
    "59.347044002602353079653648674992219",
    "60.831778524609809844259901824524004",
    "65.112544048081606660875054253183705",
    "67.079810529494173714478828896522217",
    "69.546401711173979252926857526554738",
    "72.067157674481907582522107969826168",
    "75.704690699083933168326916762030346",
    "77.144840068874805372682664856304637",
    "79.337375020249367922763592877116228",
    "82.910380854086030183164837494770609",
    "84.735492980517050105735311206827741",
    "87.425274613125229406531667850919213",
    "88.809111207634465423682348079509378",
    "92.491899270558484296259725241810685",
    "94.651344040519886966597925815208154",
    "95.870634228245309758741029219246782",
    "98.831194218193692233324420138622328",
    "101.31785100573139122878544794029231",
    "103.72553804047833941639840810869528",
    "105.44662305232609449367083241411181",
    "107.16861118427640751512335196308619",
    "111.02953554316967452465645030994435",
    "111.87465917699263708561207871677059",
    "114.32022091545271276589093727619108",
    "116.22668032085755438216080431206476",
    "118.79078286597621732297913970269982",
    "121.37012500242064591894553297049992",
    "122.94682929355258820081746033077002",
    "124.25681855434576718473200796612992",
    "127.51668387959649512427932376690608",
    "129.57870419995605098576803390617997",
    "131.08768853093265672356637246150135",
    "133.49773720299758645013049204264061",
    "134.75650975337387133132606415716974",
    "138.11604205453344320019155519028245",
    "139.73620895212138895045004652338246",
    "141.12370740402112376194035381847536",
    "143.11184580762063273940512386891393",
    "146.00098248676551854740250759642468",
    "147.42276534255960204952118501043151",
    "150.05352042078488035143246723695937",
    "150.92525761224146676185252467830563",
    "153.02469381119889619825654425518545",
    "156.11290929423786756975018931016919",
    "157.59759181759405988753050315849877",
    "158.84998817142049872417499477554027",
    "161.18896413759602751943734412936955",
    "163.03070968718198724331103900068799",
    "165.5370691879004188300389193548748",
    "167.18443997817451344095775624621038",
    "169.09451541556882148950587118143183",
    "169.91197647941169896669984359582179",
    "173.4115365195915529598461186493456",
    "174.75419152336572581337876245586692",
    "176.44143429771041888889264105786093",
    "178.37740777609997728583093541418443",
    "179.91648402025699613934003661205124",
    "182.2070784843664619154070372269878",
    "184.87446784838750880096064661723426",
    "185.59878367770747146652770426839265",
    "187.22892258350185199164154058613124",
    "189.41615865601693708485228909984532",
    "192.02665636071378654728363142558343",
    "193.07972660384570404740220579437605",
    "195.26539667952923532146318781486225",
    "196.87648184095831694862226391469621",
    "198.01530967625191242491991870220887",
)


# ---------------------------------------------------------------------------
# One point at a time: the scalar Hardy rotations and bisection that the
# census's lockstep refinement (zerocensus._refine_brackets through
# specfun.hardy_Z_vec) reproduces bit for bit
# ---------------------------------------------------------------------------

def riemann_siegel_theta(t: float) -> float:
    """theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi in scalar complex
    arithmetic, which specfun.riemann_siegel_theta_vec replays."""
    return (sf._lanczos_log_gamma_right(complex(0.25, 0.5 * t)).imag
            - 0.5 * t * math.log(math.pi))


def beta_theta(t: float) -> float:
    """Rotation phase of the completed beta function on the critical line in
    scalar complex arithmetic, which specfun.beta_theta_vec replays."""
    s = complex(0.5, t)
    return (0.5 * (s + 1.0) * math.log(4.0 / math.pi)
            + sf._lanczos_log_gamma_right(0.5 * (s + 1.0))).imag


def completed_xi(s) -> complex:
    """specfun.completed_xi at one point, its zeta from a one-point
    _em_core call: the reference for the array form."""
    s = sf._require_finite(s)
    val = cmath.exp(-0.5 * s * math.log(math.pi) + sf.log_gamma(0.5 * s + 1.0))
    shifted = (1.0 + 0.0j if abs(s - 1.0) <= 1e-13
               else (s - 1.0) * complex(sf._em_core(np.array([s]), (1.0,))[0]))
    out = val * shifted
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise ArgumentDomain(f"completed xi not finite at s = {s!r}")
    return out


def hardy_Z(t: float) -> float:
    """Hardy Z(t) = e^{i theta(t)} zeta(1/2 + it); real for real t >= 0."""
    if t < 0:
        raise ArgumentDomain("hardy_Z defined for t >= 0")
    val = cmath.exp(1j * riemann_siegel_theta(t)) * sf.zeta(complex(0.5, t))
    if abs(val.imag) >= 1e-10 * max(1.0, abs(val)):
        raise ArgumentDomain(f"rotation left imaginary residue {val.imag:.3e}")
    return val.real


def hardy_Z_beta(t: float) -> float:
    """Real rotation of beta on the critical line (completed-function phase)."""
    if t < 0:
        raise ArgumentDomain("hardy_Z_beta defined for t >= 0")
    val = (cmath.exp(1j * beta_theta(t))
           * sf.dirichlet_beta(complex(0.5, t)))
    if abs(val.imag) >= 1e-10 * max(1.0, abs(val)):
        raise ArgumentDomain(f"rotation left imaginary residue {val.imag:.3e}")
    return val.real


def hardy_Z_for(function: str):
    if function == "zeta":
        return hardy_Z
    if function == "beta":
        return hardy_Z_beta
    raise ArgumentDomain(f"unknown function tag {function!r}")


def refine_bracket(function: str, lo: float, hi: float) -> float:
    """Bisection of one sign-change bracket, one scalar evaluation a step."""
    z = hardy_Z_for(function)
    f_lo = z(lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        f_mid = z(mid)
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
        if hi - lo < 1e-13 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def refine_brackets_scalar(function: str, brackets: list) -> list:
    """zerocensus._refine_brackets, one bracket and one point at a time."""
    return [refine_bracket(function, lo, hi) for lo, hi in brackets]


def critical_abs_scalar(function: str, ts: list) -> list:
    """zerocensus._critical_abs, one scalar call a point."""
    value = sf.zeta if function == "zeta" else sf.dirichlet_beta
    return [abs(value(complex(0.5, t))) for t in ts]


def _filter_terms_scalar(function: str, energy: float, scale):
    """(dressing, L(2 s0), (i/4) dlog dressing/dE, L'(2 s0)) of the spectral
    filter, L and L(2 s0 +- ih) from three scalar zeta or dirichlet_beta
    calls."""
    value = sf.zeta if function == "zeta" else sf.dirichlet_beta
    h = 1e-6
    s0, nu = complex(0.25, 0.25 * energy), complex(0.5, 0.5 * energy)
    dress = cmath.exp(sf.log_gamma(s0) + sf.log_gamma(s0 - nu)
                      + 2.0 * s0 * math.log(2.0 * scale.a))
    lval = value(2.0 * s0)
    lp = (value(2.0 * s0 + 1j * h) - value(2.0 * s0 - 1j * h)) / (2j * h)
    dlog = 0.25j * (sf.digamma(s0) - sf.digamma(s0 - nu)
                    + 2.0 * math.log(2.0 * scale.a))
    return dress, lval, dlog, lp


def filter_with_derivative_scalar(function: str, energy: float, scale):
    """mbfilter._filter_with_derivative with L(2 s0) and L(2 s0 +- ih) from
    three scalar zeta or dirichlet_beta calls."""
    dress, lval, dlog, lp = _filter_terms_scalar(function, energy, scale)
    return dress * lval, dress * (dlog * lval + 0.5j * lp)


def filter_with_derivative_normalised(function: str, energy: float, scale):
    """The double Newton backend with spectral_filter's prefactor * 2 pi i
    (1/2 for zeta, 1 for beta) on F and dF/dE, as (norm * dressing) * L."""
    dress, lval, dlog, lp = _filter_terms_scalar(function, energy, scale)
    norm = mbf.kernel_prefactor(function) * 2j * math.pi
    return norm * dress * lval, norm * dress * (dlog * lval + 0.5j * lp)


def hp_filter_with_derivative_normalised(function: str, energy, scale):
    """The 31-digit Newton backend with the prefactor * 2 pi i on F and on
    the double dF/dE of filter_with_derivative_normalised."""
    f, _ = mbf._hp_filter_with_derivative(function, energy, scale)
    norm = mbf.kernel_prefactor(function) * 2j * math.pi
    return (norm * f,
            filter_with_derivative_normalised(function, float(energy), scale)[1])


# ---------------------------------------------------------------------------
# Test-only helpers
# ---------------------------------------------------------------------------

def outcome(fn, *args):
    """The float.hex of each value fn(*args) returns, or the type and
    message of the MbzeroError it raises: what a batched evaluator and its
    serial reference must share."""
    try:
        return [float.hex(v) for v in fn(*args)]
    except MbzeroError as exc:
        return type(exc), str(exc)


def em_core_flipped_at(t: float):
    """specfun._em_core with zeta's sign flipped right of Re s = 1.3 at the
    height t only: no split of the leg step across it unwraps, so the arg
    walk at t stalls, as test_cli's stalled walk does at every height."""
    em_core = sf._em_core

    def flipped(s, *args, **kwargs):
        flip = (s.real > 1.3) & (s.imag == t)
        return em_core(s, *args, **kwargs) * np.where(flip, -1, 1)
    return flipped


class NotAZero(MbzeroError):
    """Residue extraction requested at a point that is not a zero."""


class DerivativeVanishes(MbzeroError):
    """Derivative at a claimed simple zero is numerically zero."""


def log_gamma_continuous(s, tracker: ArgTracker) -> complex:
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
        raise ArgumentDomain("Hurwitz zeta pole at s = 1")
    return complex(sf._em_core(np.array([s]), (a,))[0])


def residue_at_pole(energy: float, scale: mbf.KernelScale,
                    pole: complex, radius: float = 0.05) -> complex:
    """Residue of the raw zeta kernel integrand at a pole, by circle
    quadrature."""
    s, w = circle_nodes(complex(pole), radius)
    vals = mbf._kernel_integrand(complex(0.5, 0.5 * energy), s, scale.a)
    return complex(np.sum(vals * w)) / (2j * math.pi)


def residue_simple_zero(s0: complex, scale: mbf.KernelScale,
                        h: float = 1e-6) -> complex:
    """2 Phi(s0) zeta'(2 s0) with Phi(s) = pi^{-s} Gamma(s/2).

    This is the coefficient extracted by circling Phi(s) zeta(2s)/(s-s0)^2
    at a simple zero s0 of zeta(2s); zeta' comes from Richardson-refined
    central differences at step h.  Phi carries no (2a)^{2s}, so the
    value does not depend on scale.
    """
    s0 = complex(s0)
    z = 2.0 * s0
    if abs(sf.zeta(z)) > 1e-8:
        raise NotAZero(f"zeta(2 s0) = {sf.zeta(z):.3e} at s0 = {s0!r}")
    d1 = (sf.zeta(z + h) - sf.zeta(z - h)) / (2.0 * h)
    d2 = (sf.zeta(z + 0.5 * h) - sf.zeta(z - 0.5 * h)) / h
    dz = (4.0 * d2 - d1) / 3.0
    if abs(dz) < 1e-8:
        raise DerivativeVanishes(f"zeta'(2 s0) = {dz:.3e}: multiple zero?")
    phi = cmath.exp(-s0 * math.log(math.pi) + sf.log_gamma(0.5 * s0))
    return 2.0 * phi * dz


def ode_residual(nu: complex, x: float, h_rel: float = 1e-3) -> float:
    """Finite-difference residual of x^2 K'' + x K' - (x^2 + nu^2) K."""
    nu = bs._check_order(nu)
    h = x * h_rel
    f = lambda u: bs.bessel_K(nu, u, tol=1e-13).value
    fm, f0, fp = f(x - h), f(x), f(x + h)
    d1 = (fp - fm) / (2.0 * h)
    d2 = (fp - 2.0 * f0 + fm) / (h * h)
    res = x * x * d2 + x * d1 - (x * x + nu * nu) * f0
    return abs(res) / max(1.0, abs(f0))


def frobenius_divergence_profile(nu: complex):
    """Cutoff-ladder integrals of the binding branch x^{-2 Re nu}."""
    expo = -2.0 * complex(nu).real
    out = []
    for k in range(2, 7):
        lo = 10.0 ** (-k)
        xs = np.geomspace(lo, 0.1, 4000)
        out.append((lo, float(np.trapezoid(xs ** expo, xs))))
    return out


def node_count(states) -> int:
    """floor((theta(b) - theta(a)) / pi) over a Pruefer trajectory."""
    return int(math.floor((states[-1].phase - states[0].phase) / math.pi))


def wigner_dyson_sample(n: int, seed: int = 20260808) -> np.ndarray:
    """Deterministic inverse-CDF draws from the Wigner-Dyson surmise."""
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.uniform(size=n)
    lo = np.zeros(n)
    hi = np.full(n, 6.0)
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        below = st.wigner_dyson_cdf(mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)
