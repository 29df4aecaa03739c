"""Mellin-Barnes engine: vertical-contour quadrature, contour-shift
calculus, residue extraction, Hadamard finite parts, and Newton root
finding on the spectral filter.

mb_integral is the literal line quadrature of the zeta(2s) kernel; it
obeys contour-shift invariance and the a -> 0 limit lemmas, and it does
not vanish at the spectral energies.  spectral_filter is the
residue-localized value of the zeta(2s) or beta(2s) kernel at s0(E) =
1/4 + iE/4, the Gamma dressing times L(1/2 + iE/2): its roots in E are
exactly twice the critical-line ordinates.

What is bit-identical to what:
* A line sum to every node evaluated on its own: Gamma(s) and zeta(2s)
  are conjugation-equivariant bit for bit, so each is evaluated once per
  conjugate pair of nodes, and the scale-free factors of a line are
  cached per (nu, contour) and reused at every scale a.
* contour_shift_deltas to the loop of contour_shift_delta, with zeta(2s)
  of all its lines from one specfun.zeta_lines call.
* newton_filter_roots to one Newton loop a guess: the roots advance in
  lockstep, one specfun.critical_line_values call a step, each point at
  its own Euler-Maclaurin N.  Newton leaves out spectral_filter's
  prefactor * 2 pi i, 1/2 or 1, which moves no iterate.
* newton_root_dd starts from an accepted double root and takes one
  31-digit L a step (mpmath, zeta by Borwein's sum) with the double dF/dE.
Errors: NoConvergence for a failed Newton, a root with |L| >= 1e-8, or a
tail bound above 1e-14 of |integral|; ArgumentDomain for a line on, or a
strip across, a pole ladder, and for a non-finite value.  The batched
forms raise the first error of their serial loop, message included
(errors.until_error).
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specfun as sf
from . import zerocensus as zc
from .audit import AuditReport
from .errors import ArgumentDomain, MbzeroError, NoConvergence, until_error
from .quadrature import circle_nodes, panel_nodes_from_edges

_DD_DPS = 31  # working digits of the double-double mode
_NEWTON_MAX_ITER = 50
_POLE_MARGIN = 1e-6


@dataclass(frozen=True)
class KernelScale:
    """Scale parameter a in (0, 1), entering kernels as (2a)^{2s}."""

    a: float

    def __post_init__(self):
        if not (0.0 < self.a < 1.0):
            raise ArgumentDomain(f"scale a = {self.a} outside (0, 1)")


@dataclass(frozen=True)
class ContourSpec:
    """Vertical line Re s = abscissa, truncated at |Im s| = t_max."""

    abscissa: float
    t_max: float = 60.0
    panel_count: int = 160

    def __post_init__(self):
        if not (self.t_max > 0 and self.panel_count > 0):
            raise ArgumentDomain("t_max and panel_count must be positive")


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def kernel_prefactor(function: str) -> complex:
    """1/(4 pi i) for the zeta kernel, 1/(2 pi i) for beta."""
    if function == "zeta":
        return 1.0 / (4j * math.pi)
    return 1.0 / (2j * math.pi)


def pole_abscissas(span: float) -> np.ndarray:
    """Real parts of the zeta kernel's pole ladders within [-span, span]:
    Gamma(s) at -n, and Gamma(s - nu) at 1/2 - n, whose n = 0 rung is
    also the zeta(2s) pole at s = 1/2."""
    n_max = int(span) + 2
    ladders = {float(-n) for n in range(n_max)}
    ladders.update(0.5 - n for n in range(n_max))
    arr = np.array(sorted(ladders))
    return arr[np.abs(arr) <= span]


# below this |Im s| a factor's imaginary part can underflow to a zero whose
# sign conjugation does not mirror (zeta(2 +- 5e-324i) has Im +0 both ways)
_MIRROR_MIN_IM = 1e-150


def _conjugate_split(s: np.ndarray):
    """Index arrays (canon, mirror, partner) over the 1-d nodes s:
    s[mirror] is conj(s[partner]) bit for bit with Im s[mirror] < -1e-150,
    and canon holds every other node, the partners included."""
    order = np.argsort(s)
    lower = np.flatnonzero(s.imag < -_MIRROR_MIN_IM)
    want = np.conj(s[lower])
    partner = order[np.minimum(np.searchsorted(s[order], want), s.size - 1)]
    same = (s[partner].view(np.int64) == want.view(np.int64)).reshape(-1, 2)
    paired = same.all(axis=1)
    mirror, partner = lower[paired], partner[paired]
    canon = np.ones(s.size, dtype=bool)
    canon[mirror] = False
    return np.flatnonzero(canon), mirror, partner


def _mirrored(f, s: np.ndarray, split, canon_values=None) -> np.ndarray:
    """f(s) for a conjugation-equivariant f, evaluated on the canonical
    nodes only, or taken there from canon_values; f's Euler-Maclaurin N
    (from max |Im|) is unchanged, as the extreme node or its mirror is
    canonical.

    A partner value that is non-finite or has an exactly zero imaginary
    part has no bit-exact mirror: a cancellation to 0 gives +0 at both
    nodes, and a NaN's sign bit is arbitrary, so then every node is
    evaluated."""
    canon, mirror, partner = split
    out = np.empty(s.shape, dtype=complex)
    out[canon] = f(s[canon]) if canon_values is None else canon_values
    v = out[partner]
    if not np.all(np.isfinite(v) & (v.imag != 0.0)):
        return f(s)
    out[mirror] = np.conj(v)
    return out


def _scale_free_factors(s: np.ndarray, nu: complex, split=None,
                        zeta_canon=None):
    """(log-Gamma part, zeta(2s)) of the integrand: all but (2a)^{2s};
    zeta_canon, when given, is zeta(2s) at split's canonical nodes."""
    split = _conjugate_split(s) if split is None else split
    return (_mirrored(sf.log_gamma_vec, s, split) + sf.log_gamma_vec(s - nu),
            _mirrored(lambda z: sf.zeta_vec(2.0 * z), s, split, zeta_canon))


def _kernel_integrand(nu: complex, s: np.ndarray, a: float,
                      factors=None) -> np.ndarray:
    """Zeta kernel integrand (no prefactor) on an array of contour nodes."""
    lg, arith = _scale_free_factors(s, nu) if factors is None else factors
    return np.exp(lg + 2.0 * s * math.log(2.0 * a)) * arith


# ---------------------------------------------------------------------------
# 31-digit (double-double scale) arithmetic factor
# ---------------------------------------------------------------------------

def _hp_arithmetic(function: str, z):
    """L-type factor at z (an mpc) in the working precision; zeta by the
    Borwein sum mp.zeta takes below |z| = prec, forced at every height."""
    import mpmath as mp
    if function == "zeta":
        return mp.make_mpc(mp.libmp.mpc_zeta(z._mpc_, mp.mp.prec, "n",
                                             force=True))
    return mp.mpf(4) ** (-z) * (mp.zeta(z, mp.mpf(1) / 4)
                                - mp.zeta(z, mp.mpf(3) / 4))


# ---------------------------------------------------------------------------
# Line integral
# ---------------------------------------------------------------------------

def _graded_edges(nu: complex, contour: ContourSpec) -> np.ndarray:
    """Panel edges: uniform base grid plus geometric refinement opposite
    any pole ladder that sits close to the contour.

    A pole at horizontal distance d from the line makes the integrand
    spike with width ~d at that height; panels are shrunk to ~d/2 there
    so 16-point Gauss-Legendre keeps spectral accuracy.  A line within
    _POLE_MARGIN of a pole ladder is an ArgumentDomain.
    """
    lo, hi = -contour.t_max, contour.t_max
    g = contour.abscissa
    edges = set(np.linspace(lo, hi, contour.panel_count + 1))
    ladders = pole_abscissas(span=max(12.0, abs(g) + 2))
    pole_gap = float(np.min(np.abs(ladders - g)))
    if pole_gap < _POLE_MARGIN:
        raise ArgumentDomain(f"abscissa {g} within {_POLE_MARGIN} of a pole "
                             "ladder")
    hotspots = (
        (0.0, pole_gap),
        (nu.imag, min(abs(g - (0.5 - n)) for n in range(14))),
    )
    for t_star, dist in hotspots:
        if dist >= 0.75 or not (lo < t_star < hi):
            continue
        width = max(0.5 * dist, 1e-4)
        offset = 0.0
        while offset < 4.0:
            for sgn in (1.0, -1.0):
                e = t_star + sgn * offset
                if lo < e < hi:
                    edges.add(e)
            offset = width if offset == 0.0 else 2.0 * offset
    return np.array(sorted(edges))


def _line_nodes(nu: complex, contour: ContourSpec):
    """Weights and nodes of the line, each graded panel split once."""
    t, w = panel_nodes_from_edges(_graded_edges(nu, contour), 1)
    return w, contour.abscissa + 1j * t


@lru_cache(maxsize=4)
def _node_set(nu: complex, contour: ContourSpec):
    """Weights, nodes and scale-free factors of the line's node set;
    shared between calls (a +- h, the a -> 0 ladder), hence read-only."""
    w, s = _line_nodes(nu, contour)
    factors = _scale_free_factors(s, nu)
    for arr in (w, s, *factors):
        arr.flags.writeable = False
    return w, s, factors


def _line_sum(nu: complex, a: float, node_set, d_da: bool = False) -> complex:
    """Line quadrature on a node set (weights, nodes, scale-free factors);
    d_da differentiates (2a)^{2s} under the integral."""
    w, s, factors = node_set
    vals = _kernel_integrand(nu, s, a, factors)
    if d_da:
        vals = vals * (2.0 * s / a)
    return complex(np.sum(vals * w)) * 1j * kernel_prefactor("zeta")


def _tail_estimate(nu: complex, a: float, contour: ContourSpec) -> float:
    """Exponential-tail bound from the measured decay at the truncation
    edge, probed at t_max - 1 and t_max on each side; scalar Gamma."""
    t = contour.t_max
    s = contour.abscissa + 1j * np.array([t - 1.0, t, 1.0 - t, -t])
    lg = np.array([sf.log_gamma(z) + sf.log_gamma(z - nu) for z in s.tolist()])
    mags = np.abs(_kernel_integrand(nu, s, a, (lg, sf.zeta_vec(2.0 * s))))
    out = 0.0
    for m in (mags[:2], mags[2:]):
        if m[1] <= 0.0:
            continue
        rate = math.log(max(m[0], 1e-300) / m[1])  # e-folds per unit t
        rate = max(rate, 0.5)
        out += m[1] / rate * 2.0
    return out * abs(kernel_prefactor("zeta"))


def mb_integral(energy: float, scale: KernelScale,
                contour: ContourSpec) -> complex:
    """Literal vertical-line quadrature of the zeta kernel at Re s =
    abscissa.  NoConvergence when the bound on the discarded tails
    exceeds 1e-14 of |integral|; ArgumentDomain for an abscissa on a pole
    ladder or a non-finite value."""
    nu = complex(0.5, 0.5 * energy)
    return _line_integral(nu, scale.a, contour, _node_set(nu, contour))


def _line_integral(nu: complex, a: float, contour: ContourSpec,
                   node_set) -> complex:
    """mb_integral on the line's node set, checks included."""
    value = _line_sum(nu, a, node_set)
    tail = _tail_estimate(nu, a, contour)
    accumulated = abs(value)
    if accumulated > 0.0 and tail > 1e-14 * accumulated and tail > 1e-280:
        raise NoConvergence(
            f"tail {tail:.3e} above 1e-14 of |integral| {accumulated:.3e}; "
            "raise t_max"
        )
    if not (cmath.isfinite(value) and tail >= 0.0):
        raise ArgumentDomain("line integral or its tail bound not finite")
    return value


def mb_scale_derivative(energy: float, scale: KernelScale,
                        contour: ContourSpec) -> complex:
    """d/da of mb_integral, differentiated under the integral: (2a)^{2s}
    contributes the weight 2 s / a on the same node set."""
    nu = complex(0.5, 0.5 * energy)
    return _line_sum(nu, scale.a, _node_set(nu, contour), True)


# ---------------------------------------------------------------------------
# Spectral filter (residue-localized) and Newton root finding
# ---------------------------------------------------------------------------

def spectral_filter(function: str, energy: float,
                    scale: KernelScale) -> complex:
    """Residue extraction of kernel(s)/(s - s0) at s0(E) = 1/4 + iE/4, for
    the zeta(2s) or beta(2s) kernel as function is "zeta" or "beta".

    Equals prefactor * 2 pi i * Gamma-dressing * L(1/2 + iE/2); vanishes
    exactly at E = 2 t_n.  Reported with the kernel's paper prefactor.
    """
    return (kernel_prefactor(function) * 2j * math.pi
            * _filter_with_derivative(function, [energy], scale)[0][0])


def _filter_with_derivative(function: str, energies: list,
                            scale: KernelScale) -> list:
    """Unnormalised (F, dF/dE) at each energy, the derivative taken under
    the extraction.

    dF/dE carries (i/4)(psi(s0) - psi(s0 - nu) + 2 log 2a) from the
    moving dressing (d nu/dE = i/2 appearing as -(i/4) net on s0 - nu)
    plus the (i/2) L'(2 s0) arithmetic term, L' by central differences.
    L(2 s0) and L(2 s0 +- ih) of every energy come from one
    critical_line_values call, each point at its own N (the bits of three
    scalar calls an energy), after the dressings, whose log_gamma raises
    ArgumentDomain for a non-finite E.
    """
    h, log_2a = 1e-6, math.log(2.0 * scale.a)
    dress, dlog, ts = [], [], []
    for energy in energies:
        t = 0.5 * energy
        s0, nu = complex(0.25, 0.25 * energy), complex(0.5, t)
        dress.append(cmath.exp(sf.log_gamma(s0) + sf.log_gamma(s0 - nu)
                               + 2.0 * s0 * log_2a))
        dlog.append(0.25j * (sf.digamma(s0) - sf.digamma(s0 - nu)
                             + 2.0 * log_2a))
        ts += (t, t + h, t - h)
    values = sf.critical_line_values(function, ts).tolist()
    out = []
    for d, g, lval, up, dn in zip(dress, dlog, values[::3], values[1::3],
                                  values[2::3]):
        lp = (up - dn) / (2j * h)
        out.append((d * lval, d * (g * lval + 0.5j * lp)))
    return out


def _hp_filter_with_derivative(function: str, energy, scale: KernelScale):
    """F in the current mpmath precision from one L, with the double dF/dE:
    F alone sets Newton's fixed point."""
    import mpmath as mp
    s0 = mp.mpf(1) / 4 + 1j * energy / 4
    nu = mp.mpf(1) / 2 + 1j * energy / 2
    dress = (mp.gamma(s0) * mp.gamma(s0 - nu)
             * mp.exp(2 * s0 * mp.log(2 * mp.mpf(scale.a))))
    return (dress * _hp_arithmetic(function, 2 * s0),
            _filter_with_derivative(function, [float(energy)], scale)[0][1])


def _newton(filter_and_derivative, e_guesses: list, tol_step,
            starts: list = None) -> tuple:
    """Newton in E from each start (default its guess) on a backend that
    maps a list of energies to their (F, dF/dE), in the backend's number
    type (float, or mpf for the 31-digit backend).  The roots advance in
    lockstep, one backend call a step; a call that raises is replayed one
    energy at a time up to the first that raises (until_error), so the
    error belongs to its root.

    Each iterate must stay within +-1 of its guess and |F| must decrease
    over its first two steps; failure messages name the guess.  A root
    converges when its step falls below tol_step * max(1, |E|).  Returns
    (roots, error): the error of the first guess in input order that
    fails (None if none does), and the roots of the guesses before it,
    as a loop over the guesses would meet them.
    """
    es = list(e_guesses if starts is None else starts)
    f0, roots, errors = [None] * len(es), {}, {}
    active = list(range(len(es)))
    for it in range(_NEWTON_MAX_ITER):
        if not active:
            break
        try:
            values = filter_and_derivative([es[k] for k in active])
        except MbzeroError:
            values, error = until_error(
                lambda e: filter_and_derivative([e])[0],
                [es[k] for k in active])
            errors[active[len(values)]] = error
        for k, (f, df) in zip(active, values):
            f_abs = abs(f)
            try:
                if it == 0:
                    f0[k] = f_abs
                elif it == 2 and not (f_abs < f0[k]):
                    raise NoConvergence(f"|filter| not decreasing from guess "
                                        f"{float(e_guesses[k])}")
                if df == 0:
                    raise NoConvergence("filter derivative vanished")
                step = (f / df).real
                e_new = es[k] - step
                if abs(e_new - e_guesses[k]) > 1:
                    raise NoConvergence(
                        f"iterate {float(e_new):.6f} left "
                        f"[{e_guesses[k] - 1}, {e_guesses[k] + 1}]")
                es[k] = e_new
                if abs(step) < tol_step * max(1, abs(e_new)):
                    roots[k] = e_new
            except NoConvergence as exc:
                errors[k] = exc
        first = min(errors, default=len(es))
        active = [k for k in active
                  if k < first and k not in roots and k not in errors]
    for k in active:
        errors[k] = NoConvergence(f"Newton did not converge from "
                                  f"{float(e_guesses[k])} in "
                                  f"{_NEWTON_MAX_ITER}")
    first = min(errors, default=len(es))
    return [roots[k] for k in range(first)], errors.get(first)


def _check_residuals(function: str, energies: list) -> None:
    """NoConvergence for the first converged Newton root E whose
    |L(1/2 + iE/2)| is not below the catalog's residual limit, from one
    _critical_abs call.  The dressed filter value is no test: the dressing
    alone makes |F| < 1e-11 for every E above ~30."""
    residuals = zc._critical_abs(function, [0.5 * e for e in energies])
    for energy, residual in zip(energies, residuals):
        if not residual < zc.RESIDUAL_LIMIT:
            raise NoConvergence(f"|L| = {residual:.3e} at the converged "
                                f"E = {energy:.6f}: not a zero")


def newton_root_dd(function: str, e_guess: float, start: float,
                   scale: KernelScale):
    """Newton on the spectral filter in 31-digit scalars, started from
    start, the accepted double root of e_guess (newton_filter_roots).  A
    step takes one 31-digit L and the double dF/dE (good to ~1e-10), so a
    start good to ~1e-14 takes three steps, the last one certifying
    convergence; the basin window and failure messages stay on e_guess.

    Returns the root as an mpmath mpf (full working precision) for the
    32-digit serialization path.
    """
    import mpmath as mp
    with mp.workdps(_DD_DPS):
        roots, error = _newton(
            lambda es: [_hp_filter_with_derivative(function, e, scale)
                        for e in es],
            [mp.mpf(e_guess)], mp.mpf(10) ** (-_DD_DPS + 4), [mp.mpf(start)])
        if error is not None:
            raise error
        return +roots[0]


def newton_filter_root(function: str, e_guess: float,
                       scale: KernelScale) -> float:
    """newton_filter_roots from one guess."""
    return newton_filter_roots(function, [e_guess], scale)[0]


def newton_filter_roots(function: str, e_guesses: list,
                        scale: KernelScale) -> list:
    """The root energy E of Newton in E on the spectral filter from each
    guess, accepted when |L(1/2 + iE/2)| < 1e-8.  The roots advance in
    lockstep, bit for bit as one guess at a time, and the first error in
    input order is raised, as by one call a guess."""
    roots, error = _newton(
        lambda es: _filter_with_derivative(function, es, scale),
        [float(g) for g in e_guesses], 1e-12)
    _check_residuals(function, roots)
    if error is not None:
        raise error
    return roots


def newton_guesses(catalog: list, e_max: float = math.inf) -> tuple:
    """(ordinates, guesses): each catalog ordinate t with 2t <= e_max, and
    the Newton guess 2t + 0.05 for the filter root E = 2t paired with it."""
    ordinates = [r.ordinate for r in catalog if 2.0 * r.ordinate <= e_max]
    return ordinates, [2.0 * t + 0.05 for t in ordinates]


def filter_bijection(catalog: list, scale: KernelScale,
                     e_max: float) -> zc.BijectionAudit:
    """Newton roots of the zeta filter from every ordinate t <= e_max/2 of a
    zeta catalog, audited against it up to e_max.  ArgumentDomain, before
    any Newton step, unless the catalog is complete to e_max/2."""
    zc.require_complete(catalog, 0.5 * e_max)
    return zc.bijection_audit(catalog, newton_filter_roots(
        "zeta", newton_guesses(catalog, e_max)[1], scale), e_max)


# ---------------------------------------------------------------------------
# Contour shift
# ---------------------------------------------------------------------------

def contour_shift_delta(energy: float, scale: KernelScale,
                        g1: float, g2: float) -> float:
    """|mb_integral(g1) - mb_integral(g2)| over a pole-free strip."""
    return contour_shift_deltas([(energy, g1, g2)], scale)[0]


def _shift_line(line: tuple) -> tuple:
    """(nu, contour, weights, nodes, conjugate split) of the line Re s = g
    at the energy of line = (energy, g, g1, g2); ArgumentDomain for a pole
    ladder inside the strip between g1 and g2 or on the line."""
    energy, g, g1, g2 = line
    lo, hi = min(g1, g2), max(g1, g2)
    ladders = pole_abscissas(span=max(12.0, abs(lo) + 2, abs(hi) + 2))
    inside = ladders[(ladders > lo + 1e-12) & (ladders < hi - 1e-12)]
    if inside.size:
        raise ArgumentDomain(
            f"pole ladder at Re s = {inside[0]} inside [{lo}, {hi}]")
    nu, contour = complex(0.5, 0.5 * energy), ContourSpec(abscissa=g)
    w, s = _line_nodes(nu, contour)
    return nu, contour, w, s, _conjugate_split(s)


def contour_shift_deltas(triples, scale: KernelScale) -> list:
    """[contour_shift_delta(energy, scale, g1, g2) for (energy, g1, g2) in
    triples], bit for bit, and the serial loop's first error, message
    included: each line is built as mb_integral builds it, but zeta(2s) on
    every line's canonical nodes comes from one sf.zeta_lines call.  The
    lines are built up to the first that fails (until_error), a line and
    not a pair at a time: a pair's first line can fail its integral before
    its second line fails to build."""
    lines, failure = until_error(_shift_line, [
        (energy, g, g1, g2) for energy, g1, g2 in triples for g in (g1, g2)])
    zetas = sf.zeta_lines([2.0 * s[split[0]] for *_, s, split in lines])
    values = [_line_integral(nu, scale.a, contour,
                             (w, s, _scale_free_factors(s, nu, split, z)))
              for (nu, contour, w, s, split), z in zip(lines, zetas)]
    if failure is not None:
        raise failure
    return [abs(v1 - v2) for v1, v2 in zip(values[::2], values[1::2])]


# ---------------------------------------------------------------------------
# Double-pole circle audit
# ---------------------------------------------------------------------------

def double_pole_circle(anchor: complex):
    """Audit the double-pole expansion on the built-in pair at the anchor.

    A(s) = exp(s), B(s) = cosh(s - anchor + 1).  The circle integral of
    A B / (s - s0)^2 equals 2 pi i (A'B + AB')(s0) exactly for every
    radius; the printed expansion keeps only the A B' term, so its
    discrepancy is the constant 2 pi |A'(s0) B(s0)|, not O(epsilon).
    Both comparisons are measured and reported.
    """
    s0 = complex(anchor)
    A = cmath.exp
    B = lambda s: cmath.cosh(s - s0 + 1.0)
    a0, a1 = A(s0), A(s0)                      # exp is its own derivative
    b0, b1 = B(s0), cmath.sinh(1.0)
    full = 2j * math.pi * (a1 * b0 + a0 * b1)
    printed = 2j * math.pi * (a0 * b1)
    rows = []
    for eps in (0.05, 0.025, 0.0125):
        s, w = circle_nodes(s0, eps)
        quad = complex(np.sum(np.array([A(z) * B(z) for z in s]) * w
                              / (s - s0) ** 2))
        rows.append((eps, abs(quad - full), abs(quad - printed)))
    worst_full = max(r[1] for r in rows)
    printed_gap = rows[0][2]
    fitted_c = max(r[2] / r[0] for r in rows)
    ratios = [rows[i][2] / rows[i + 1][2] for i in range(len(rows) - 1)]
    return AuditReport(
        lhs=complex(rows[0][1]),
        rhs=complex(printed_gap),
        abs_discrepancy=worst_full,
        rel_discrepancy=worst_full / abs(full),
        verdict="pass" if worst_full <= 1e-10 * abs(full) else "fail",
        notes="circle integral matches 2 pi i (A'B + AB') to quadrature "
              "precision on the whole ladder; the A B'-only form misses the "
              f"constant 2 pi |A' B| = {abs(2 * math.pi * a1 * b0):.6e} "
              f"(shrink ratios {ratios}, fitted C = {fitted_c:.3e} absorbs it)",
        extra={
            "ladder": [r[0] for r in rows],
            "full_residue_gap": [r[1] for r in rows],
            "printed_form_gap": [r[2] for r in rows],
        },
    )


# ---------------------------------------------------------------------------
# Hadamard finite part
# ---------------------------------------------------------------------------

def hadamard_finite_part(f, s0: complex, epsilon_ladder) -> complex:
    """Finite part of the vertical-segment integral of f through s0.

    f may carry up to a double pole at s0.  For each ladder epsilon the
    symmetric segment [s0 - i, s0 + i] minus the epsilon ball is
    integrated and the divergent 2 i g(s0)/epsilon profile (g the
    analytic factor (s - s0)^2 f) is removed together with its -2 i g(s0)
    completion at the segment ends; the remaining drift is
    c1 eps + c3 eps^3 and the ladder is extrapolated through that model.  The result is
    independent of the particular ladder.
    """
    eps = list(epsilon_ladder)
    if len(eps) < 3 or any(b >= a for a, b in zip(eps, eps[1:])):
        raise ArgumentDomain("epsilon_ladder must be strictly decreasing, >= 3")
    s0 = complex(s0)

    # g(s0) = lim (s - s0)^2 f(s): symmetric average kills odd orders, two
    # Richardson levels kill delta^2 and delta^4 (the 2i g0/eps correction
    # amplifies any g0 error by 1/eps, so this needs to be sharp)
    def g_pair(d: float) -> complex:
        up = (1j * d) ** 2 * f(s0 + 1j * d)
        dn = (-1j * d) ** 2 * f(s0 - 1j * d)
        return 0.5 * (up + dn)

    d0 = 0.02
    g_a, g_b, g_c = g_pair(d0), g_pair(0.5 * d0), g_pair(0.25 * d0)
    r1a = (4.0 * g_b - g_a) / 3.0
    r1b = (4.0 * g_c - g_b) / 3.0
    g0 = (16.0 * r1b - r1a) / 15.0

    def both_sides(e: float) -> complex:
        # geometric panels from the excluded ball outward: the integrand
        # grows like u^{-2} toward the ball and uniform panels lose digits
        u, w = panel_nodes_from_edges(np.geomspace(e, 1.0, 33))
        vals = np.array([f(s0 + 1j * ui) + f(s0 - 1j * ui) for ui in u])
        return complex(np.sum(vals * w)) * 1j

    estimates = []
    for e in eps:
        total = both_sides(e) + 2j * g0 / e - 2j * g0
        estimates.append(total)
    # after removing the 1/epsilon profile the estimates drift like
    # c1 eps + c3 eps^3 + c5 eps^5 (even Taylor orders cancel by symmetry);
    # extrapolate the ladder through that model
    est_arr = np.array(estimates)
    spread = float(np.max(np.abs(est_arr - est_arr[-1])))
    if not np.all(np.isfinite(est_arr)) \
            or abs(est_arr[-1]) > 10.0 * abs(est_arr[0]) + 1e3:
        raise NoConvergence("finite-part ladder estimates diverge")
    powers = (0, 1, 3, 5)[:min(4, len(eps))]
    design = np.array([[e ** p for p in powers] for e in eps])
    coef, *_ = np.linalg.lstsq(design, est_arr, rcond=None)
    limit = complex(coef[0])
    resid = float(np.max(np.abs(design @ coef - est_arr)))
    if resid > 1e-4 * max(1.0, spread):
        raise NoConvergence("finite-part ladder estimates do not follow the "
                            "removable-drift model; divergent input?")
    return limit
