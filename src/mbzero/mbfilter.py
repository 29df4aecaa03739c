"""Mellin-Barnes engine: vertical-contour quadrature, contour-shift
calculus, residue extraction, Hadamard finite parts, and Newton root
finding on the spectral filter.

Two distinct objects live here and must not be conflated:

* ``mb_integral`` is the literal vertical-line quadrature of a kernel.
  It obeys contour-shift invariance and the a -> 0 limit lemmas, and it
  is what the tail-bound and panel-doubling contracts are written about.

* ``spectral_filter`` is the residue-localized value of the same kernel
  at the spectral point s0(E) = 1/4 + iE/4, where the kernel's
  arithmetic factor crosses the critical line: a closed-circle
  extraction of kernel(s)/(s - s0).  Its roots in E are exactly twice
  the critical-line ordinates, which is what Newton iterates on.  The
  raw line integral provably does not vanish at those energies: the
  vanish-iff statement holds for the localized arithmetic factor (the
  Gamma dressing never vanishes), not for the unlocalized integral.

Line sums take the scale-free part of the integrand (Gamma factors by
specfun.log_gamma_vec, and the L-function) from a small cache keyed by
(kernel, nu, contour, refine); only (2a)^{2s} is recomputed per scale, so
sweeps over a on one contour do the expensive work once.

Mirror rule: Gamma(s), zeta(2s) and beta(2s) are conjugation-equivariant
bit for bit, so each is evaluated once per conjugate pair of nodes.  A
node whose exact conjugate is also a node (about 85 % of a line node set,
where -t is a node bit for bit) takes the conjugate of its partner's
value; Gamma(s - nu) has no mirror and is evaluated everywhere.

Newton runs one loop over two (F, dF/dE) backends: complex doubles, and
31-digit mpmath scalars (mpmath is imported on first use).
"""

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import specfun as sf
from . import zerocensus as zc
from .errors import (
    ArgumentDomain,
    BasinEscape,
    ContourOnPole,
    NoConvergence,
    PoleInStrip,
    TailBoundViolated,
)
from .quadrature import circle_nodes, panel_nodes_from_edges

KERNELS = ("zeta2s", "beta2s")
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
class SpectralPoint:
    """Energy E with order nu = 1/2 + iE/2 and locus s0 = 1/4 + iE/4."""

    energy: float

    @property
    def nu(self) -> complex:
        return complex(0.5, 0.5 * self.energy)

    @property
    def s0(self) -> complex:
        return complex(0.25, 0.25 * self.energy)


@dataclass(frozen=True)
class ContourSpec:
    """Vertical line Re s = abscissa, truncated at |Im s| = t_max."""

    abscissa: float
    t_max: float = 60.0
    panel_count: int = 160

    def __post_init__(self):
        if not (self.t_max > 0 and self.panel_count > 0):
            raise ArgumentDomain("t_max and panel_count must be positive")

    @staticmethod
    def default(abscissa: float, energy: float) -> "ContourSpec":
        t_max = max(60.0, 0.5 * abs(energy) + 35.0)
        return ContourSpec(abscissa=abscissa, t_max=t_max,
                           panel_count=max(160, int(2.0 * t_max)))


@dataclass(frozen=True)
class FilterEvaluation:
    energy: float
    kernel: str
    value: complex
    truncation_error: float
    contour: ContourSpec

    def __post_init__(self):
        if not (self.truncation_error >= 0.0):
            raise ArgumentDomain("truncation_error must be >= 0")
        v = complex(self.value)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ArgumentDomain("filter value not finite")


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def _check_kernel(kernel: str) -> str:
    if kernel not in KERNELS:
        raise ArgumentDomain(f"unknown kernel {kernel!r}")
    return kernel


def kernel_prefactor(kernel: str) -> complex:
    """1/(4 pi i) for the zeta kernel, 1/(2 pi i) for beta."""
    if kernel == "zeta2s":
        return 1.0 / (4j * math.pi)
    return 1.0 / (2j * math.pi)


def pole_abscissas(kernel: str, span: float) -> np.ndarray:
    """Real parts of the kernel's pole ladders within [-span, span]."""
    _check_kernel(kernel)
    ladders = set()
    n_max = int(span) + 2
    ladders.update(float(-n) for n in range(n_max))              # Gamma(s)
    ladders.update(0.5 - n for n in range(n_max))                # Gamma(s - nu)
    if kernel == "zeta2s":
        ladders.add(0.5)                                         # zeta(2s) pole
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


def _mirrored(f, s: np.ndarray, split) -> np.ndarray:
    """f(s) for a conjugation-equivariant f, evaluated on the canonical
    nodes only; f's Euler-Maclaurin N (from max |Im|) is unchanged, as the
    extreme node or its mirror is canonical.

    A partner value that is non-finite or has an exactly zero imaginary
    part has no bit-exact mirror: a cancellation to 0 gives +0 at both
    nodes, and a NaN's sign bit is arbitrary, so then every node is
    evaluated."""
    canon, mirror, partner = split
    out = np.empty(s.shape, dtype=complex)
    out[canon] = f(s[canon])
    v = out[partner]
    if not np.all(np.isfinite(v) & (v.imag != 0.0)):
        return f(s)
    out[mirror] = np.conj(v)
    return out


def _scale_free_factors(kernel: str, s: np.ndarray, nu: complex):
    """(log-Gamma part, L factor) of the integrand: all but (2a)^{2s}."""
    split = _conjugate_split(s)
    l_vec = sf.zeta_vec if kernel == "zeta2s" else sf.dirichlet_beta_vec
    return (_mirrored(sf.log_gamma_vec, s, split) + sf.log_gamma_vec(s - nu),
            _mirrored(lambda z: l_vec(2.0 * z), s, split))


def _kernel_integrand(kernel: str, s: np.ndarray, nu: complex, a: float,
                      factors=None) -> np.ndarray:
    """Kernel integrand (no prefactor) on an array of contour nodes."""
    lg, arith = _scale_free_factors(kernel, s, nu) if factors is None else factors
    return np.exp(lg + 2.0 * s * math.log(2.0 * a)) * arith


def arithmetic_factor(kernel: str, z: complex) -> complex:
    """The kernel's L-type factor evaluated at argument z (= 2s)."""
    return sf.zeta(z) if kernel == "zeta2s" else sf.dirichlet_beta(z)


def _dressing_log(point: SpectralPoint, a: float) -> complex:
    """log of the never-vanishing factor multiplying L(2 s0) in the filter."""
    s0, nu = point.s0, point.nu
    return (sf.log_gamma(s0) + sf.log_gamma(s0 - nu)
            + 2.0 * s0 * math.log(2.0 * a))


# ---------------------------------------------------------------------------
# 31-digit (double-double scale) arithmetic factor
# ---------------------------------------------------------------------------

def _hp_arithmetic(kernel: str, z):
    """L-type factor at z in the current mpmath working precision."""
    import mpmath as mp
    if kernel == "zeta2s":
        return mp.zeta(z)
    return mp.mpf(4) ** (-z) * (mp.zeta(z, mp.mpf(1) / 4)
                                - mp.zeta(z, mp.mpf(3) / 4))


# ---------------------------------------------------------------------------
# Line integral
# ---------------------------------------------------------------------------

def _graded_edges(kernel: str, nu: complex, contour: ContourSpec) -> np.ndarray:
    """Panel edges: uniform base grid plus geometric refinement opposite
    any pole ladder that sits close to the contour.

    A pole at horizontal distance d from the line makes the integrand
    spike with width ~d at that height; panels are shrunk to ~d/2 there
    so 16-point Gauss-Legendre keeps spectral accuracy.
    """
    lo, hi = -contour.t_max, contour.t_max
    g = contour.abscissa
    edges = set(np.linspace(lo, hi, contour.panel_count + 1))
    ladders = pole_abscissas(kernel, span=max(12.0, abs(g) + 2))
    hotspots = (
        (0.0, float(np.min(np.abs(ladders - g)))),
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


@lru_cache(maxsize=4)
def _node_set(kernel: str, nu: complex, contour: ContourSpec, refine: int):
    """Weights, nodes and scale-free factors of one node set; shared
    between calls (a +- h, the a -> 0 ladder), hence read-only."""
    t, w = panel_nodes_from_edges(_graded_edges(kernel, nu, contour), refine)
    s = contour.abscissa + 1j * t
    factors = _scale_free_factors(kernel, s, nu)
    for arr in (w, s, *factors):
        arr.flags.writeable = False
    return w, s, factors


def _line_sum(kernel: str, nu: complex, a: float, contour: ContourSpec,
              refine: int = 0, d_da: bool = False) -> complex:
    """Line quadrature; d_da differentiates (2a)^{2s} under the integral."""
    w, s, factors = _node_set(kernel, nu, contour, refine)
    vals = _kernel_integrand(kernel, s, nu, a, factors)
    if d_da:
        vals = vals * (2.0 * s / a)
    return complex(np.sum(vals * w)) * 1j * kernel_prefactor(kernel)


def _tail_estimate(kernel: str, nu: complex, a: float, contour: ContourSpec) -> float:
    """Exponential-tail bound from the measured decay at the truncation edge."""
    out = 0.0
    for sign in (+1.0, -1.0):
        t_edge = sign * contour.t_max
        probe = np.array([t_edge - sign * 1.0, t_edge])
        s = contour.abscissa + 1j * probe
        m = np.abs(_kernel_integrand(kernel, s, nu, a))
        if m[1] <= 0.0:
            continue
        rate = math.log(max(m[0], 1e-300) / m[1])  # e-folds per unit t
        rate = max(rate, 0.5)
        out += m[1] / rate * 2.0
    return out * abs(kernel_prefactor(kernel))


def validate_contour(kernel: str, contour: ContourSpec) -> None:
    _check_kernel(kernel)
    ladders = pole_abscissas(kernel, span=max(12.0, abs(contour.abscissa) + 2))
    dist = float(np.min(np.abs(ladders - contour.abscissa)))
    if dist < _POLE_MARGIN:
        raise ContourOnPole(
            f"abscissa {contour.abscissa} within {_POLE_MARGIN} of a pole ladder"
        )


def _tail_checked_sum(kernel: str, energy: float, scale: KernelScale,
                      contour: ContourSpec) -> FilterEvaluation:
    """Validated fine line sum whose truncation_error is the tail bound."""
    validate_contour(kernel, contour)
    nu = SpectralPoint(energy).nu
    value = _line_sum(kernel, nu, scale.a, contour, 1)
    tail = _tail_estimate(kernel, nu, scale.a, contour)
    accumulated = abs(value)
    if accumulated > 0.0 and tail > 1e-14 * accumulated and tail > 1e-280:
        raise TailBoundViolated(
            f"tail {tail:.3e} above 1e-14 of |integral| {accumulated:.3e}; "
            "raise t_max"
        )
    return FilterEvaluation(energy=energy, kernel=kernel, value=value,
                            truncation_error=tail, contour=contour)


def mb_integral(kernel: str, energy: float, scale: KernelScale,
                contour: ContourSpec = None) -> FilterEvaluation:
    """Literal vertical-line quadrature of the kernel at Re s = abscissa.

    truncation_error combines the discarded-tail bound with a half-panel
    consistency delta; doubling panel_count moves the value by less than
    ten times this figure.
    """
    _check_kernel(kernel)
    if contour is None:
        contour = ContourSpec.default(0.75 if kernel != "zeta2s" else 0.6, energy)
    fine = _tail_checked_sum(kernel, energy, scale, contour)
    coarse = _line_sum(kernel, SpectralPoint(energy).nu, scale.a, contour, 0)
    return replace(fine, truncation_error=fine.truncation_error
                   + abs(fine.value - coarse))


def mb_scale_derivative(kernel: str, energy: float, scale: KernelScale,
                        contour: ContourSpec) -> complex:
    """d/da of mb_integral's value, differentiated under the integral:
    (2a)^{2s} contributes the weight 2 s / a on the fine node set."""
    validate_contour(kernel, contour)
    return _line_sum(kernel, SpectralPoint(energy).nu, scale.a, contour, 1,
                     True)


# ---------------------------------------------------------------------------
# Spectral filter (residue-localized) and Newton root finding
# ---------------------------------------------------------------------------

def spectral_filter(kernel: str, energy: float, scale: KernelScale) -> complex:
    """Residue extraction of kernel(s)/(s - s0) at s0(E) = 1/4 + iE/4.

    Equals prefactor * 2 pi i * Gamma-dressing * L(1/2 + iE/2); vanishes
    exactly at E = 2 t_n.  Reported with the kernel's paper prefactor.
    """
    _check_kernel(kernel)
    point = SpectralPoint(energy)
    norm = kernel_prefactor(kernel) * 2j * math.pi
    dress = cmath.exp(_dressing_log(point, scale.a))
    return norm * dress * arithmetic_factor(kernel, 2.0 * point.s0)


def _filter_with_derivative(kernel: str, energy: float, scale: KernelScale):
    """(F, dF/dE) with the derivative taken under the extraction.

    dF/dE carries (i/4)(psi(s0) - psi(s0 - nu) + 2 log 2a) from the
    moving dressing (d nu/dE = i/2 appearing as -(i/4) net on s0 - nu)
    plus the (i/2) L'(2 s0) arithmetic term, L' by central differences.
    """
    h = 1e-6
    point = SpectralPoint(energy)
    s0, nu = point.s0, point.nu
    dress = cmath.exp(_dressing_log(point, scale.a))
    lval = arithmetic_factor(kernel, 2.0 * s0)
    lp = (arithmetic_factor(kernel, 2.0 * s0 + 1j * h)
          - arithmetic_factor(kernel, 2.0 * s0 - 1j * h)) / (2j * h)
    dlog = 0.25j * (sf.digamma(s0) - sf.digamma(s0 - nu)
                    + 2.0 * math.log(2.0 * scale.a))
    norm = kernel_prefactor(kernel) * 2j * math.pi
    f = norm * dress * lval
    df = norm * dress * (dlog * lval + 0.5j * lp)
    return f, df


def _hp_filter_with_derivative(kernel: str, energy, a):
    """The same (F, dF/dE) in the current mpmath precision, without the
    constant prefactor; energy and a are mpmath numbers."""
    import mpmath as mp
    hh = mp.mpf("1e-12")
    s0 = mp.mpf(1) / 4 + 1j * energy / 4
    nu = mp.mpf(1) / 2 + 1j * energy / 2
    log2a = mp.log(2 * a)
    dress = mp.gamma(s0) * mp.gamma(s0 - nu) * mp.exp(2 * s0 * log2a)
    dlog = (mp.digamma(s0) - mp.digamma(s0 - nu) + 2 * log2a) * mp.mpc(0, 0.25)
    lval = _hp_arithmetic(kernel, 2 * s0)
    lp = (_hp_arithmetic(kernel, 2 * s0 + 1j * hh)
          - _hp_arithmetic(kernel, 2 * s0 - 1j * hh)) / (2j * hh)
    return dress * lval, dress * (dlog * lval + mp.mpc(0, 0.5) * lp)


def _newton(filter_and_derivative, e_guess, tol_step):
    """Newton in E from e_guess on a backend's (F, dF/dE), in the backend's
    number type (float, or mpf for the 31-digit backend).

    The iterate must stay within +-1 of the guess and |F| must decrease
    over the first two steps.  Converges when the step falls below
    tol_step * max(1, |E|).
    """
    e = e_guess
    f_hist = []
    for it in range(_NEWTON_MAX_ITER):
        f, df = filter_and_derivative(e)
        f_hist.append(abs(f))
        if it == 2 and not (f_hist[2] < f_hist[0]):
            raise BasinEscape(f"|filter| not decreasing from guess "
                              f"{float(e_guess)}")
        if df == 0:
            raise NoConvergence("filter derivative vanished")
        step = (f / df).real
        e_new = e - step
        if abs(e_new - e_guess) > 1:
            raise BasinEscape(f"iterate {float(e_new):.6f} left "
                              f"[{e_guess - 1}, {e_guess + 1}]")
        e = e_new
        if abs(step) < tol_step * max(1, abs(e)):
            return e
    raise NoConvergence(f"Newton did not converge from {float(e_guess)} "
                        f"in {_NEWTON_MAX_ITER}")


def _root_residual(kernel: str, energy: float) -> float:
    """|L(1/2 + iE/2)| at a converged Newton root; NoConvergence unless it
    is below the catalog's residual limit.  The dressed filter value is no
    test: the dressing alone makes |F| < 1e-11 for every E above ~30."""
    residual = abs(arithmetic_factor(kernel, complex(0.5, 0.5 * energy)))
    if not residual < zc.RESIDUAL_LIMIT:
        raise NoConvergence(f"|L| = {residual:.3e} at the converged "
                            f"E = {energy:.6f}: not a zero")
    return residual


def newton_root_dd(kernel: str, e_guess: float, scale: KernelScale):
    """Newton on the spectral filter carried entirely in 31-digit scalars.

    Returns the root as an mpmath mpf (full working precision) for the
    32-digit serialization path.
    """
    import mpmath as mp
    _check_kernel(kernel)
    with mp.workdps(_DD_DPS):
        a = mp.mpf(scale.a)
        root = +_newton(lambda e: _hp_filter_with_derivative(kernel, e, a),
                        mp.mpf(e_guess), mp.mpf(10) ** (-_DD_DPS + 4))
    _root_residual(kernel, float(root))
    return root


def newton_filter_root(kernel: str, e_guess: float,
                       scale: KernelScale) -> float:
    """The root energy E of Newton in E on the spectral filter from
    e_guess, accepted when |L(1/2 + iE/2)| < 1e-8."""
    _check_kernel(kernel)
    e = _newton(lambda x: _filter_with_derivative(kernel, x, scale),
                float(e_guess), 1e-12)
    _root_residual(kernel, e)
    return e


def filter_bijection(catalog: list, scale: KernelScale,
                     e_max: float) -> zc.BijectionAudit:
    """Newton roots of the zeta filter from every catalog ordinate, audited
    against the catalog up to min(e_max, 2 t_last - 0.2)."""
    if catalog[0].function != "zeta":
        raise ArgumentDomain("the bijection audit needs a zeta catalog, "
                             f"not a {catalog[0].function} one")
    e_max = min(e_max, 2.0 * catalog[-1].ordinate - 0.2)
    guesses = [2.0 * r.ordinate + 0.05
               for r in catalog if 2.0 * r.ordinate <= e_max + 0.5]
    roots = [newton_filter_root("zeta2s", g, scale) for g in guesses]
    return zc.bijection_audit(catalog, roots, e_max)


# ---------------------------------------------------------------------------
# Contour shift
# ---------------------------------------------------------------------------

def contour_shift_delta(kernel: str, energy: float, scale: KernelScale,
                        g1: float, g2: float) -> float:
    """|mb_integral(g1) - mb_integral(g2)| over a pole-free strip."""
    _check_kernel(kernel)
    lo, hi = min(g1, g2), max(g1, g2)
    ladders = pole_abscissas(kernel, span=max(12.0, abs(lo) + 2, abs(hi) + 2))
    inside = ladders[(ladders > lo + 1e-12) & (ladders < hi - 1e-12)]
    if inside.size:
        raise PoleInStrip(
            f"pole ladder at Re s = {inside[0]} inside [{lo}, {hi}]",
            pole=float(inside[0]),
        )
    if g1 == g2:
        return 0.0
    # only the values are compared: no coarse consistency pass
    evals = [_tail_checked_sum(kernel, energy, scale,
                               ContourSpec.default(g, energy))
             for g in (g1, g2)]
    return abs(evals[0].value - evals[1].value)


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
    from .audit import AuditReport

    s0 = complex(anchor)
    A = cmath.exp
    B = lambda s: cmath.cosh(s - s0 + 1.0)
    a0, a1 = A(s0), A(s0)                      # exp is its own derivative
    b0, b1 = B(s0), cmath.sinh(1.0)
    full = 2j * math.pi * (a1 * b0 + a0 * b1)
    printed = 2j * math.pi * (a0 * b1)
    rows = []
    for eps in (0.05, 0.025, 0.0125):
        s, w = circle_nodes(s0, eps, 64)
        quad = complex(np.sum(np.array([A(z) * B(z) for z in s]) * w
                              / (s - s0) ** 2))
        rows.append((eps, abs(quad - full), abs(quad - printed)))
    worst_full = max(r[1] for r in rows)
    printed_gap = rows[0][2]
    fitted_c = max(r[2] / r[0] for r in rows)
    ratios = [rows[i][2] / rows[i + 1][2] for i in range(len(rows) - 1)]
    return AuditReport(
        claim_id="mb_double_pole_circle",
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
