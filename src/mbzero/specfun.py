"""Complex special functions underpinning the rest of the library.

What is bit-identical to what:
* log_gamma_vec(s) to [log_gamma(z) for z in s], CPython 3.10-3.13
  complex arithmetic replayed in numpy (the property tests guard 3.14's
  new mixed float/complex rules), in blocks of _LANCZOS_BLOCK points; a
  point's bits do not depend on its block or on the call's size.
* zeta and beta are one Euler-Maclaurin engine, _em_core.  A caller
  names its groups of points, and a group's truncation N is that of its
  largest |Im s|, so each value has the bits of a call of its group alone.
Errors: ArgumentDomain for a non-finite argument, a Gamma or zeta pole, an
L point above |Im s| = 1e4, a negative height or an unknown function tag;
NoConvergence when a zero of L sits on an arg rectangle's path.  Every
vector evaluator raises its serial loop's first error (_raise_first,
until_error); only _em_core checks an L point, its callers handing it
their checks.  No points give an empty result.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math

import numpy as np

from .errors import ArgumentDomain, NoConvergence, until_error

# Lanczos coefficients, g = 4.7421875 (607/128), 14-term rational sum.
_LANCZOS_G = 4.7421875
_LANCZOS_C0 = 0.999999999999997092
_LANCZOS_C = (
    57.1562356658629235,
    -59.5979603554754912,
    14.1360979747417471,
    -0.491913816097620199,
    0.339946499848118887e-4,
    0.465236289270485756e-4,
    -0.983744753048795646e-4,
    0.158088703224912494e-3,
    -0.210264441724104883e-3,
    0.217439618115212643e-3,
    -0.164318106536763890e-3,
    0.844182239838527433e-4,
    -0.261908384015814087e-4,
    0.368991826595316234e-5,
)
_SQRT_2PI = 2.5066282746310005

# B_2 .. B_12: the Euler-Maclaurin corrections through order 12, and
# B_2j / (2j)! as the tail uses them
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
              -691.0 / 2730.0)
_EM_COEFFS = tuple(b / math.factorial(2 * j)
                   for j, b in enumerate(_BERNOULLI, 1))

_POLE_MARGIN = 1e-12
_NON_FINITE = "non-finite argument {!r}"


def _require_finite(s) -> complex:
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise ArgumentDomain(_NON_FINITE.format(s))
    return s


def _raise_first(points, checks: list) -> None:
    """ArgumentDomain for the first point, in input order, that fails a
    check: (mask, message) pairs with masks of one shape, tried in turn at
    that point; message.format(point) names it."""
    bad = functools.reduce(np.logical_or, [mask for mask, _ in checks])
    if bad.any():
        k = int(np.argmax(np.ravel(bad)))
        message = next(m for mask, m in checks if np.ravel(mask)[k])
        raise ArgumentDomain(message.format(complex(np.ravel(points)[k])))


# ---------------------------------------------------------------------------
# Gamma family
# ---------------------------------------------------------------------------

def _lanczos_log_gamma_right(z: complex) -> complex:
    """log Gamma on Re z >= 0.5 via the Lanczos sum; principal branch."""
    ser = _LANCZOS_C0
    for j, c in enumerate(_LANCZOS_C):
        ser += c / (z + 1.0 + j)
    tmp = z + _LANCZOS_G + 0.5
    return (z + 0.5) * cmath.log(tmp) - tmp + cmath.log(_SQRT_2PI * ser / z)


def log_sin_pi(s: complex) -> complex:
    """log sin(pi s), overflow-safe for large |Im s|."""
    if s.imag >= 0.0:
        # sin(pi s) = e^{-i pi s} (1 - e^{2 i pi s}) (i/2); |e^{2 i pi s}| <= 1 here
        return (
            -1j * math.pi * s
            + cmath.log(1.0 - cmath.exp(2j * math.pi * s))
            + complex(-math.log(2.0), 0.5 * math.pi)
        )
    return log_sin_pi(s.conjugate()).conjugate()


def _check_gamma_pole(s: complex) -> None:
    if abs(s.imag) < _POLE_MARGIN and s.real < 0.5:
        near = round(s.real)
        if near <= 0 and abs(s.real - near) < _POLE_MARGIN:
            raise ArgumentDomain(f"Gamma pole within 1e-12 of s = {s!r}")


def log_gamma(s) -> complex:
    """log Gamma(s); exp of it reproduces Gamma to ~1e-13 relative.

    On Re s >= 0.5 this is the principal branch and is continuous along
    vertical lines; below, the reflection formula is used and only the
    exponential is contractual.
    """
    s = _require_finite(s)
    if s.real >= 0.5:
        return _lanczos_log_gamma_right(s)
    _check_gamma_pole(s)
    return math.log(math.pi) - log_sin_pi(s) - _lanczos_log_gamma_right(1.0 - s)


# Vector Gamma.  Complex values travel as (re, im) float-array pairs and
# every step replays the CPython 3.10-3.13 complex arithmetic of the
# scalar path: a float operand is promoted to x + 0j, products follow
# _Py_c_prod, quotients follow _Py_c_quot (Smith's method), and log/exp
# are cmath per element.  numpy's complex * and / and np.log round
# differently, so the vector result would not be bit-identical with them.

def _c_mul(ar, ai, br, bi):
    return ar * br - ai * bi, ar * bi + ai * br


def _c_div(ar, ai, br, bi):
    by_real = np.abs(br) >= np.abs(bi)
    with np.errstate(all="ignore"):     # C doubles: no traps, as in CPython
        ratio = np.where(by_real, bi / br, br / bi)
        denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
        re = np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom
        im = np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom
    return re, im


def _c_map(fn, re, im):
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    out = np.fromiter(map(fn, z.ravel().tolist()), complex, z.size)
    return out.real.reshape(z.shape), out.imag.reshape(z.shape)


_LANCZOS_BLOCK = 512  # points per (14, block) quotient division
# c_j as whole rows, not a broadcast column: a block divides about 10 % faster
_LANCZOS_C_ROWS = np.repeat(np.array(_LANCZOS_C)[:, None], _LANCZOS_BLOCK, 1)
_LANCZOS_J_COL = np.arange(float(len(_LANCZOS_C)))[:, None]


def _lanczos_right_vec(zr, zi):
    """_lanczos_log_gamma_right, operation for operation, on arrays of one
    shape.  A block's 14 quotients are one _c_div on (14, block) arrays,
    added into ser row by row in the scalar order, which a reduce breaks."""
    shape, zr, zi = np.shape(zr), np.ravel(zr), np.ravel(zi)
    ser_r, ser_i = np.full(zr.shape, _LANCZOS_C0), np.zeros(zr.shape)
    for lo in range(0, zr.size, _LANCZOS_BLOCK):
        block = slice(lo, lo + _LANCZOS_BLOCK)
        b_r, b_i, b_z = ser_r[block], ser_i[block], zr[block]
        # ser += c / (z + 1.0 + j)
        q_r, q_i = _c_div(_LANCZOS_C_ROWS[:, :b_z.size], 0.0,
                          b_z + 1.0 + _LANCZOS_J_COL, zi[block] + 0.0 + 0.0)
        for j in range(len(_LANCZOS_C)):
            b_r += q_r[j]
            b_i += q_i[j]
    tmp_r, tmp_i = zr + _LANCZOS_G + 0.5, zi + 0.0 + 0.0
    # (z + 0.5) * log(tmp) - tmp + log(_SQRT_2PI * ser / z)
    p_r, p_i = _c_mul(zr + 0.5, zi + 0.0, *_c_map(cmath.log, tmp_r, tmp_i))
    q_r, q_i = _c_div(*_c_mul(_SQRT_2PI, 0.0, ser_r, ser_i), zr, zi)
    m_r, m_i = _c_map(cmath.log, q_r, q_i)
    return ((p_r - tmp_r + m_r).reshape(shape),
            (p_i - tmp_i + m_i).reshape(shape))


_NEG_I_PI = -1j * math.pi
_TWO_I_PI = 2j * math.pi
_LOG_SIN_SHIFT = complex(-math.log(2.0), 0.5 * math.pi)


def _log_sin_pi_vec(sr, si):
    """log_sin_pi, operation for operation."""
    up = si >= 0.0
    si = np.where(up, si, -si)          # lower half-plane by conjugation
    a_r, a_i = _c_mul(_NEG_I_PI.real, _NEG_I_PI.imag, sr, si)
    e_r, e_i = _c_map(cmath.exp,
                      *_c_mul(_TWO_I_PI.real, _TWO_I_PI.imag, sr, si))
    l_r, l_i = _c_map(cmath.log, 1.0 - e_r, 0.0 - e_i)
    out_i = a_i + l_i + _LOG_SIN_SHIFT.imag
    return a_r + l_r + _LOG_SIN_SHIFT.real, np.where(up, out_i, -out_i)


def log_gamma_vec(s) -> np.ndarray:
    """log_gamma over an array, bit-identical to [log_gamma(z) for z in s].

    Raises what the scalar loop would raise first, message included: a
    non-finite argument or a Gamma pole.
    """
    s = np.asarray(s, dtype=complex)
    sr, si = s.real.ravel(), s.imag.ravel()
    near = np.round(sr)
    with np.errstate(invalid="ignore"):
        pole = ((np.abs(si) < _POLE_MARGIN) & (sr < 0.5) & (near <= 0)
                & (np.abs(sr - near) < _POLE_MARGIN))
    _raise_first(s, [(~np.isfinite(s.ravel()), _NON_FINITE),
                     (pole, "Gamma pole within 1e-12 of s = {!r}")])
    out = np.empty(sr.shape, dtype=complex)
    right = sr >= 0.5
    r_r, r_i = _lanczos_right_vec(sr[right], si[right])
    out.real[right], out.imag[right] = r_r, r_i
    if not right.all():
        lr, li = sr[~right], si[~right]
        sin_r, sin_i = _log_sin_pi_vec(lr, li)
        g_r, g_i = _lanczos_right_vec(1.0 - lr, 0.0 - li)
        out.real[~right] = math.log(math.pi) - sin_r - g_r
        out.imag[~right] = 0.0 - sin_i - g_i
    return out.reshape(s.shape)


def gamma(s) -> complex:
    """Gamma(s) for complex s; relative error <= 1e-13 for |s| <= 50."""
    return cmath.exp(log_gamma(s))


def digamma(s) -> complex:
    """psi_0(s) = d/ds log Gamma(s), derivative of the Lanczos form."""
    s = _require_finite(s)
    if s.real < 0.5:
        _check_gamma_pole(s)
        return digamma(1.0 - s) - math.pi / cmath.tan(math.pi * s)
    ser = _LANCZOS_C0
    dser = 0.0 + 0.0j
    for j, c in enumerate(_LANCZOS_C):
        ser += c / (s + 1.0 + j)
        dser -= c / (s + 1.0 + j) ** 2
    tmp = s + _LANCZOS_G + 0.5
    return cmath.log(tmp) + (s + 0.5) / tmp - 1.0 + dser / ser - 1.0 / s


# ---------------------------------------------------------------------------
# Euler-Maclaurin zeta, Hurwitz zeta and beta
# ---------------------------------------------------------------------------

def _em_truncation(im_max: np.ndarray) -> np.ndarray:
    """max(24, int(1.4 |Im s|) + 16) at each largest |Im s|, as int64."""
    return np.maximum(24, (1.4 * np.abs(im_max)).astype(np.int64) + 16)


def _em_power(e: np.ndarray, log_x: list) -> np.ndarray:
    """exp(e log x) for one shift, or its difference over two shifts."""
    if len(log_x) == 1:
        return np.exp(e * log_x[0])
    return np.exp(e * log_x[0]) - np.exp(e * log_x[1])


_HEAD_BLOCK = 512  # rows of one _shared_phase_head block
_EM_IM_MAX = 1e4  # 50 times zeta's |Im s| <= 200 contract; N ~ 1.4 |Im s|


def _shared_phase_head(s: np.ndarray, n_of: np.ndarray,
                       log_n: np.ndarray) -> np.ndarray:
    """_em_power's head sum over n < N of exp(-s log_n[n]) at each point's
    N (n_of), bit for bit.  Complex np.exp is libm's cexp, exp(x) (cos y,
    sin y) (checked on numpy 2.4.6, Python 3.11.7, glibc 2.36), so a term
    is np.exp(x + 0j).real, a row per distinct abscissa, times
    np.exp(0 + iy), a row per distinct ordinate in a block of _HEAD_BLOCK
    points sorted by ordinate.  An imaginary zero's sign may differ, which
    no sum sees: numpy's sum starts from +0."""
    head, y = np.empty(s.shape, dtype=complex), -s.imag
    xs, x_row = np.unique(-s.real, return_inverse=True)
    amp = np.exp(np.multiply.outer(xs, log_n) + 0j).real
    for n in np.unique(n_of).tolist():
        rows = np.flatnonzero(n_of == n)
        rows = rows[np.argsort(y[rows])]
        for lo in range(0, rows.size, _HEAD_BLOCK):
            block = rows[lo:lo + _HEAD_BLOCK]
            ys, y_row = np.unique(y[block], return_inverse=True)
            terms = np.exp(1j * np.multiply.outer(ys, log_n[:n]))[y_row]
            r = amp[x_row[block], :n]
            terms.real *= r
            terms.imag *= r
            head[block] = terms.sum(axis=1)
    return head


def _em_domain(s: np.ndarray) -> list:
    """_em_core's domain, finite and |Im s| <= _EM_IM_MAX, as checks."""
    return [(~np.isfinite(s), _NON_FINITE),
            (np.abs(s.imag) > _EM_IM_MAX,
             f"|Im s| above {_EM_IM_MAX:g} at {{!r}}")]


def _em_core(s: np.ndarray, shifts: tuple, groups: list = None,
             shared_head: bool = False, checks: tuple = ()) -> np.ndarray:
    """Euler-Maclaurin zeta(s, a) for shifts = (a,), or zeta(s, a) -
    zeta(s, b) for shifts = (a, b), over a 1-d complex array of s:

    head(n=0..N-1) + pole + (N+a)^{-s}/2
                   + sum_j B_{2j}/(2j)! (s)_{2j-1} (N+a)^{-s-2j+1}

    with each power of n + a differenced over two shifts.  Only the pole
    term branches: (N+a)^{1-s}/(s-1) for one shift, an entire expm1 form
    for two.  Valid for Re s > -1, and s != 1 with one shift.

    groups, the sizes of consecutive groups of points (None: one group
    of all), gives every point of a group the N of the group's largest
    |Im s|.  Consecutive points of one N sum their head in one
    .sum(axis=1), pairwise per row as for one point, and take log(N + a)
    once, so each value equals the one-group call of its group alone bit
    for bit.  shared_head sums the head by _shared_phase_head (one shift).
    The L path's one check: ArgumentDomain for the first point that fails
    checks, the caller's (mask, message) pairs, else is not finite or lies
    above |Im s| = _EM_IM_MAX; no points give an empty array.
    """
    _raise_first(s, [*checks, *_em_domain(s)])
    if not s.size:
        return np.empty(0, dtype=complex)
    sizes = np.array([k for k in groups or [s.size] if k])
    n_at = _em_truncation(np.maximum.reduceat(np.abs(s.imag),
                                              np.cumsum(sizes) - sizes))
    first = np.flatnonzero(np.concatenate(([True], n_at[1:] != n_at[:-1])))
    ns = n_at[first].tolist()
    counts = np.add.reduceat(sizes, first).tolist()
    logs = [np.log(np.arange(max(ns), dtype=float) + a) for a in shifts]
    if shared_head:
        head = _shared_phase_head(s, np.repeat(ns, counts), logs[0])
    else:
        e, heads, lo = -s[:, None], [], 0
        for n, k in zip(ns, counts):
            heads.append(_em_power(e[lo:lo + k], [x[:n] for x in logs])
                         .sum(axis=1))
            lo += k
        head = np.concatenate(heads)
    log_x = [np.repeat([math.log(n + a) for n in ns], counts) for a in shifts]
    if len(shifts) == 1:
        tail = np.exp((1.0 - s) * log_x[0]) / (s - 1.0)
    else:
        # (xa^{1-s} - xb^{1-s})/(s-1) = xa^{1-s} (lb-la) (e^w - 1)/w,
        # w = (1-s)(lb-la); (e^w - 1)/w is entire, series below |w| = 1e-4
        la, lb = log_x
        w = (1.0 - s) * (lb - la)
        small = np.abs(w) < 1e-4
        w_safe = np.where(small, 1.0, w)
        phi = np.where(small, 1.0 + w / 2.0 + w * w / 6.0,
                       (np.exp(w_safe) - 1.0) / w_safe)
        tail = np.exp((1.0 - s) * la) * (lb - la) * phi
    tail += 0.5 * _em_power(-s, log_x)
    poch = s
    for j, coeff in enumerate(_EM_COEFFS, 1):
        tail += coeff * poch * _em_power(-s - (2 * j - 1), log_x)
        if j < len(_EM_COEFFS):
            poch = poch * (s + (2 * j - 1)) * (s + 2 * j)
    return head + tail


def _l_values(function: str, s, groups: list = None,
              shared_head: bool = False, checks: tuple = ()) -> np.ndarray:
    """L(s) over an array of any shape, L = zeta, or beta as
    4^{-s} [zeta(s,1/4) - zeta(s,3/4)], as function is "zeta" or "beta";
    groups (over the raveled s), shared_head and checks as _em_core takes
    them, zeta adding its pole (1e-10 from s = 1) to the checks; an
    unknown tag is ArgumentDomain once the points pass checks handed in."""
    s = np.asarray(s, dtype=complex)
    flat = s.ravel()
    if function == "zeta":
        pole = (np.abs(flat - 1.0) <= 1e-10, "zeta pole at s = 1")
        out = _em_core(flat, (1.0,), groups, shared_head, (*checks, pole))
    elif function == "beta":
        core = _em_core(flat, (0.25, 0.75), groups, shared_head, checks)
        out = np.exp(-flat * math.log(4.0)) * core
    else:
        if checks:  # a caller's failing point is named before the tag
            _em_core(flat, (1.0,), groups, shared_head, checks)
        raise ArgumentDomain(f"unknown function tag {function!r}")
    return out.reshape(s.shape)


def zeta(s):
    """Riemann zeta via Euler-Maclaurin continuation.

    Relative error <= 1e-12 for |Im s| <= 200, -1 < Re s <= 4;
    conjugation-equivariant by construction.  An array gives each point
    its own N, the one-point loop's values; zeta_vec shares one N.
    """
    out = _l_values("zeta", s, [1] * np.size(s))
    return out if np.ndim(s) else complex(out)


def zeta_vec(s: np.ndarray) -> np.ndarray:
    """Vectorized zeta for contour quadrature; same contract as zeta()."""
    return _l_values("zeta", s)


def zeta_lines(lines: list) -> list:
    """[zeta_vec(z) for z in lines] over 1-d arrays, bit for bit, with
    exp(-it log n) taken once per ordinate the lines share."""
    s, sizes = np.concatenate([np.empty(0), *lines]), [len(z) for z in lines]
    out = _l_values("zeta", s, sizes, shared_head=True)
    return [out[end - k:end] for end, k in zip(itertools.accumulate(sizes),
                                               sizes)]


def dirichlet_beta(s) -> complex:
    """Dirichlet beta via the Hurwitz split 4^{-s}[zeta(s,1/4)-zeta(s,3/4)]."""
    return complex(_l_values("beta", s))


def dirichlet_beta_vec(s: np.ndarray) -> np.ndarray:
    return _l_values("beta", s)


# ---------------------------------------------------------------------------
# Completed functions and Hardy rotations
# ---------------------------------------------------------------------------

def completed_xi(s):
    """xi(s) = (1/2) s (s-1) pi^{-s/2} Gamma(s/2) zeta(s).

    Evaluated as pi^{-s/2} Gamma(s/2 + 1) (s-1) zeta(s), finite through
    both s = 0 and s = 1; an array takes zeta from one _em_core call at
    each point's own N: the one-point loop's values and first error.
    """
    s = np.asarray(s, dtype=complex)
    points, out = s.ravel(), []
    one = np.abs(points - 1.0) <= 1e-13
    outside = np.logical_or.reduce([m for m, _ in _em_domain(points)])
    zetas = _em_core(np.where(one | outside, 2.0, points), (1.0,),
                     [1] * points.size).tolist()
    for k, z in enumerate(points.tolist()):
        z = _require_finite(z)
        val = cmath.exp(-0.5 * z * math.log(math.pi)
                        + log_gamma(0.5 * z + 1.0))
        if outside[k]:  # above the engine's |Im s|: it names the point
            _em_core(points[k:k + 1], (1.0,))
        # (s - 1) zeta(s) is entire: 1 within 1e-13 of s = 1
        xi = val * (1.0 + 0.0j if one[k] else (z - 1.0) * zetas[k])
        if not (math.isfinite(xi.real) and math.isfinite(xi.imag)):
            raise ArgumentDomain(f"completed xi not finite at s = {z!r}")
        out.append(xi)
    return np.array(out, dtype=complex).reshape(s.shape) if s.ndim else out[0]


def riemann_siegel_theta(t: float) -> float:
    """riemann_siegel_theta_vec at one point."""
    return float(riemann_siegel_theta_vec(t))


def riemann_siegel_theta_vec(t: np.ndarray) -> np.ndarray:
    """theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi, any shape."""
    t = np.asarray(t, dtype=float)
    _, g_i = _lanczos_right_vec(np.full(t.shape, 0.25), 0.5 * t)
    return g_i - 0.5 * t * math.log(math.pi)


def beta_theta_vec(t: np.ndarray) -> np.ndarray:
    """Rotation phase of the completed beta function at 1/2 + it, any shape."""
    t = np.asarray(t, dtype=float)
    # z = 0.5 * (s + 1.0) with s = 0.5 + it
    z_r, z_i = _c_mul(0.5, 0.0, 0.5 + 1.0, t + 0.0)
    _, p_i = _c_mul(z_r, z_i, math.log(4.0 / math.pi), 0.0)
    _, g_i = _lanczos_right_vec(z_r, z_i)
    return p_i + g_i


def _on_critical_line(t) -> np.ndarray:
    """1/2 + it at each t, with an infinite t kept in the imaginary part."""
    s = np.empty(np.shape(t), dtype=complex)
    s.real, s.imag = 0.5, t
    return s


def critical_line_values(function: str, t) -> np.ndarray:
    """L(1/2 + it) at each t of a 1-d array, L = zeta or beta.  Each point
    gets the Euler-Maclaurin N that zeta/dirichlet_beta give it alone, so
    each value equals the scalar call bit for bit."""
    return _l_values(function, _on_critical_line(t), [1] * np.size(t))


def hardy_Z_vec(function: str, t: np.ndarray) -> np.ndarray:
    """Real rotation e^{i theta(t)} L(1/2 + it) at each t >= 0: Hardy Z for
    zeta, the completed-function phase beta_theta_vec for beta.

    L comes from _l_values, t < 0 handed to _em_core's one check; the rotation
    replays CPython complex arithmetic, so each value equals the one-point call
    bit for bit.  ArgumentDomain for the first t < 0 or out of the engine's
    domain, then for the first rotation residue of 1e-10 relative or more.
    """
    t = np.asarray(t, dtype=float)
    vals = _l_values(function, _on_critical_line(t), [1] * t.size, False,
                     ((t.ravel() < 0, "hardy_Z_vec defined for t >= 0"),))
    theta = (riemann_siegel_theta_vec(t) if function == "zeta"
             else beta_theta_vec(t))
    # cmath.exp(1j * theta) * vals
    r_r, r_i = _c_map(cmath.exp, *_c_mul(0.0, 1.0, theta, 0.0))
    v_r, v_i = _c_mul(r_r, r_i, vals.real, vals.imag)
    bad = np.abs(v_i) >= 1e-10 * np.maximum(1.0, np.hypot(v_r, v_i))
    if bad.any():
        raise ArgumentDomain(f"rotation left imaginary residue "
                             f"{v_i[np.argmax(bad)]:.3e}")
    return v_r


# ---------------------------------------------------------------------------
# Continued arg zeta and beta along the census rectangle
# ---------------------------------------------------------------------------

def _leg_step(evaluate, t: float, x0: float, x1: float, value: complex,
              arg: float) -> float:
    """The argument continued from arg at x0 + it to value = L(x1 + it),
    on the sheet nearest arg.  A move of >= pi/2 is split in halves, each
    midpoint evaluated on its own; NoConvergence once the split stalls (a
    zero of L sits on the path)."""
    phase = cmath.phase(value)
    candidate = phase + 2.0 * math.pi * round((arg - phase) / (2.0 * math.pi))
    if abs(candidate - arg) >= 0.5 * math.pi:
        if x0 - x1 < 1e-11:
            raise NoConvergence(f"arg path stalled at {complex(x1, t)!r}; "
                                "a zero sits on the path")
        mid = 0.5 * (x0 + x1)
        arg = _leg_step(evaluate, t, x0, mid,
                        evaluate(np.array([complex(mid, t)]))[0], arg)
        return _leg_step(evaluate, t, mid, x1, value, arg)
    return candidate


_LEG = (2.0, 1.75, 1.5, 1.25, 1.0, 0.75, 0.5)


def _unwrap_leg(evaluate, t: float, values) -> float:
    """The argument continued along the leg's values at 2, 1.75, ..., 1/2
    (+ it), from the principal one at 2 + it."""
    arg = cmath.phase(values[0])
    for k in range(1, len(_LEG)):
        arg = _leg_step(evaluate, t, _LEG[k - 1], _LEG[k], values[k], arg)
    return arg


def _leg_points(function: str, t) -> np.ndarray:
    """The points 2, 1.75, ..., 1/2 (+ it) of the horizontal leg at the
    height t; ArgumentDomain for a negative or non-finite t, and for zeta
    a leg through its pole."""
    _require_finite(t)
    if t < 0:
        raise ArgumentDomain("arg_rectangles defined for t >= 0")
    if function == "zeta" and t <= 1e-10:  # 1 + it within 1e-10 of s = 1
        raise ArgumentDomain("zeta pole at s = 1")
    return np.array([complex(x, t) for x in _LEG])


def arg_rectangles(function: str, ts: list) -> list:
    """arg L(1/2 + it) at each height t >= 0, L = zeta or beta as function
    is "zeta" or "beta", continued along 2 -> 2 + it -> 1/2 + it
    (Titchmarsh, 2nd ed., 9.3).

    The leg up Re s = 2 needs no walk: |L(2 + iy) - 1| <= L(2) - 1, which
    is zeta(2) - 1 = 0.645 and pi^2/8 - 1 = 0.234, so Re L(2 + iy) > 0 and
    the argument continued from s = 2 is the principal one at 2 + it.  The
    horizontal legs of all the heights come from one _em_core call, a group
    of seven points a height; the unwrap then walks each height,
    and only a step it rejects is split, its midpoint evaluated on its own
    by zeta_vec or dirichlet_beta_vec.  Values and first error are those
    of one such call of the seven points a height, bit for bit.
    """
    evaluate = {"zeta": zeta_vec, "beta": dirichlet_beta_vec}.get(function)
    legs, failure = until_error(functools.partial(_leg_points, function), ts)
    ts = ts[:len(legs)]
    values = _l_values(function, np.concatenate([np.empty(0), *legs]),
                       [len(_LEG)] * len(legs))
    args = [_unwrap_leg(evaluate, t, values[k * len(_LEG):])
            for k, t in enumerate(ts)]
    if failure is not None:
        raise failure
    return args


def arg_zeta_rectangle(t: float) -> float:
    """arg_rectangles for zeta at one height."""
    return arg_rectangles("zeta", [t])[0]


# ---------------------------------------------------------------------------
# von Mangoldt table
# ---------------------------------------------------------------------------

_MANGOLDT_CEILING = 50_000_000


def von_mangoldt_table(limit: int) -> dict:
    """Sieve Lambda(n) exactly for 2 <= n <= limit: {p^k: log p}."""
    if limit < 2:
        raise ArgumentDomain("limit must be >= 2")
    if limit > _MANGOLDT_CEILING:
        raise ArgumentDomain(f"limit {limit} above ceiling {_MANGOLDT_CEILING}")
    table = {}
    for p in primes_upto(limit):
        p = int(p)
        logp = math.log(p)
        q = p
        while q <= limit:
            table[q] = logp
            q *= p
    return table


def primes_upto(limit: int) -> np.ndarray:
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    return np.flatnonzero(sieve)
