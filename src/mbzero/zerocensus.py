"""Critical-line zero census for zeta and beta, counting functions, the
argument bound check, and the catalog file format.

Zeros are located by sign-change bracketing on the rotated real function
(Hardy Z for zeta, the completed-function rotation for beta), refined by
bisection of all brackets in lockstep; a large scan forks its grid's
slices to workers.  Completeness is checked against the counting
prediction theta(T)/pi (+1 for zeta) + S(T).  numpy and specfun are
imported in the functions that use them: the catalog code needs neither.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from functools import partial

from .audit import AuditReport
from .errors import (ArgumentDomain, CatalogError, MissedZeroSuspected,
                     until_error)
from .fanout import fan_out

_T_CEILING = 200.0
_SCAN_STEP = 0.05
RESIDUAL_LIMIT = 1e-8
# A grid point's estimated scan work is its Euler-Maclaurin N plus
# _POINT_WORK, which balances the two slices of a zeta t <= 200 scan to
# about 2 % in CPU time.  A scan forks one worker per _FORK_WORK of it.  On
# a 2-core Xeon, 2 forked workers lost all 21 alternating runs against the
# serial scan at zeta t = 50 (work 0.9e5), drew level at t = 100-140
# (2.5e5-4.3e5) and won 18-20 of 21 from t = 160 (5.4e5): each fork costs
# ~3.4 ms, and each slice repeats ~6 ms of bisection steps.
_POINT_WORK = 40
_FORK_WORK = 200_000


@dataclass(frozen=True)
class ZeroRecord:
    """One located critical-line zero of zeta or beta."""

    index: int
    ordinate: float
    residual: float
    function: str
    method: str

    def __post_init__(self):
        if self.function not in ("zeta", "beta"):
            raise ArgumentDomain(f"unknown function {self.function!r}")
        if self.method not in ("sign_scan", "newton_refine", "filter_root"):
            raise ArgumentDomain(f"unknown method {self.method!r}")
        if not (self.residual < RESIDUAL_LIMIT):
            raise ArgumentDomain(
                f"residual {self.residual:.3e} above {RESIDUAL_LIMIT}"
            )


@dataclass(frozen=True)
class CountingReport:
    total: float
    jump_count: int


@dataclass(frozen=True)
class BijectionAudit:
    E_grid: list
    N_H_values: list
    N_zeta_values: list
    delta_values: list
    verdict: str


# ---------------------------------------------------------------------------
# Critical-line moduli
# ---------------------------------------------------------------------------

def _critical_abs(function: str, ts: list) -> list:
    """|L(1/2 + it)| at each t, equal to abs() of the scalar call."""
    from . import specfun as sf
    return [abs(v) for v in sf.critical_line_values(function, ts).tolist()]


# ---------------------------------------------------------------------------
# Counting predictions
# ---------------------------------------------------------------------------

def counting_prediction(function: str, t: float) -> float:
    """Smooth + argument counting estimate of zeros with ordinate <= t."""
    from . import specfun as sf
    arg = sf.arg_rectangles(function, [t])[0]
    if function == "zeta":
        return sf.riemann_siegel_theta(t) / math.pi + 1.0 + arg / math.pi
    return float(sf.beta_theta_vec(t)) / math.pi + arg / math.pi


def require_complete(catalog: list, t: float) -> None:
    """ArgumentDomain unless a zeta catalog holds every zero <= t: its count
    there within 1/2 of the argument principle's (Turing's check; a
    catalog records no census height)."""
    below = sum(1 for r in catalog if r.ordinate <= t)
    predicted = counting_prediction("zeta", t)
    if abs(below - predicted) >= 0.5:
        raise ArgumentDomain(f"catalog holds {below} zeros <= {t:.3f}, "
                             f"the argument principle counts {predicted:.3f}")


# ---------------------------------------------------------------------------
# Scan
# ---------------------------------------------------------------------------

def _refine_brackets(function: str, brackets: list) -> list:
    """Bisect every bracket in lockstep, one sf.hardy_Z_vec call a step.

    Each bracket keeps the one-bracket control flow: at most 80 halvings,
    keep [lo, mid] when f_lo * f_mid <= 0, stop once hi - lo < 1e-13
    max(1, hi).  The vector rotation equals the scalar one bit for bit,
    so each ordinate equals that of bisecting its bracket alone.
    """
    import numpy as np
    from . import specfun as sf
    if not brackets:
        return []
    lo, hi = (np.array(side) for side in zip(*brackets))
    f_lo = sf.hardy_Z_vec(function, lo)
    active = np.arange(len(brackets))
    for _ in range(80):
        mid = 0.5 * (lo[active] + hi[active])
        f_mid = sf.hardy_Z_vec(function, mid)
        left = f_lo[active] * f_mid <= 0.0
        hi[active[left]] = mid[left]
        right = active[~left]
        lo[right], f_lo[right] = mid[~left], f_mid[~left]
        done = hi[active] - lo[active] < 1e-13 * np.maximum(1.0, hi[active])
        active = active[~done]
        if not active.size:
            break
    return (0.5 * (lo + hi)).tolist()


def _scan_slice(function: str, grid) -> tuple:
    """(ordinates, residuals) of the zeros bracketed on one grid slice."""
    import numpy as np
    from . import specfun as sf
    vals = sf.hardy_Z_vec(function, grid)
    brackets = [(float(grid[i]), float(grid[i + 1]))
                for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0)]
    ordinates = _refine_brackets(function, brackets)  # disjoint brackets
    return ordinates, _critical_abs(function, ordinates)


def _slices(grid, workers: int) -> list:
    """The grid cut into contiguous slices of about equal estimated work,
    each Euler-Maclaurin N plus _POINT_WORK a point, neighbours sharing
    their end point: one slice a worker, at most one per _FORK_WORK."""
    import numpy as np
    from . import specfun as sf
    work = np.cumsum(sf._em_truncation(grid) + _POINT_WORK)
    workers = max(1, min(workers, int(work[-1] // _FORK_WORK)))
    cuts = np.searchsorted(work, work[-1] / workers * np.arange(1, workers))
    ends = [0, *cuts.tolist(), grid.size - 1]
    return [grid[lo:hi + 1] for lo, hi in zip(ends[:-1], ends[1:])]


def scan_zeros(function: str, t_max: float, workers: int = 1) -> list:
    """All critical-line zeros up to t_max, residual < RESIDUAL_LIMIT (1e-8).

    A pass scans a grid of step _SCAN_STEP, halved at each of at most two
    retries, until its count is within 1/2 of the counting prediction
    (require_complete's rule); else MissedZeroSuspected names the widest
    gap between the range's ends and its zeros.  Every rotated value, on
    the grid and in the lockstep bisection (_refine_brackets), comes from
    sf.hardy_Z_vec with the per-point N of the scalar call, so every
    ordinate and residual equals that of bisecting its bracket alone,
    however the grid is sliced: up to `workers` forked workers scan a
    slice each (_slices), and a failure is the first failing slice's.
    """
    import numpy as np
    if function not in ("zeta", "beta"):
        raise ArgumentDomain(f"unknown function {function!r}")
    if t_max > _T_CEILING:
        raise ArgumentDomain(f"t_max {t_max} above desk-scale ceiling 200")
    t_lo = 0.5
    if t_max <= t_lo:
        return []
    for step in (_SCAN_STEP, 0.5 * _SCAN_STEP, 0.25 * _SCAN_STEP):
        n_pts = max(int(math.ceil((t_max - t_lo) / step)), 2) + 1
        grid = np.linspace(t_lo, t_max, n_pts)
        found = fan_out(partial(_scan_slice, function),
                        _slices(grid, workers), workers)
        records = [
            ZeroRecord(index=k, ordinate=t, residual=r,
                       function=function, method="sign_scan")
            for k, (t, r) in enumerate(
                (pair for ts, rs in found for pair in zip(ts, rs)), start=1)
        ]
        predicted = counting_prediction(function, t_max)
        if abs(len(records) - predicted) < 0.5:
            return records
    edges = [t_lo, *(r.ordinate for r in records), t_max]
    gap = max(zip(edges, edges[1:]), key=lambda pair: pair[1] - pair[0])
    raise MissedZeroSuspected(
        f"found {len(records)} zeros <= {t_max}, prediction "
        f"{predicted:.3f}; suspect interval {gap}")


# ---------------------------------------------------------------------------
# Riemann-von Mangoldt comparison
# ---------------------------------------------------------------------------

def _s_values(ts: list) -> list:
    """S(t) = (arg zeta(1/2 + it) - arg zeta(1/2 + 2i)) / pi at each t,
    so S(2) = 0, the arg rectangles of the anchor and of every t from one
    specfun.arg_rectangles call."""
    from . import specfun as sf
    anchor, *args = sf.arg_rectangles("zeta", [2.0] + ts)
    return [(arg - anchor) / math.pi for arg in args]


def smooth_count(t: float) -> float:
    """Riemann-von Mangoldt main term (T/2pi) log(T/2pi) - T/2pi + 7/8."""
    x = t / (2.0 * math.pi)
    return x * math.log(x) - x + 0.875


def riemann_von_mangoldt(ts: list, catalog: list) -> list:
    """Main term + arg-tracked S(T) against the catalog jump count, a
    CountingReport at each height T of ts; ArgumentDomain, before any
    walk, if a T is below 2."""
    if any(t < 2.0 for t in ts):
        raise ArgumentDomain("riemann_von_mangoldt needs T >= 2")
    return [CountingReport(total=smooth_count(t) + s,
                           jump_count=sum(1 for r in catalog
                                          if r.ordinate <= t))
            for t, s in zip(ts, _s_values(ts))]


def hmty_bound(t: float) -> float:
    """0.1038 log t + 0.2573 log log t + 8.3675, valid for t >= e."""
    return 0.1038 * math.log(t) + 0.2573 * math.log(math.log(t)) + 8.3675


def s_grid(t_max: float):
    """S(t) on the grid e, e + 0.1, ... <= t_max."""
    if t_max < math.e:
        raise ArgumentDomain("grid needs t_max >= e")
    grid = []
    t = math.e
    while t <= t_max + 1e-12:
        grid.append(t)
        t += 0.1
    return list(zip(grid, _s_values(grid)))


def s_of_t_bound_check(t_max: float) -> AuditReport:
    """Check |S(t)| against the unconditional argument bound on a grid."""
    worst_ratio = 0.0
    worst_t = math.e
    max_abs_s = 0.0
    for t, s_val in s_grid(t_max):
        ratio = abs(s_val) / hmty_bound(t)
        max_abs_s = max(max_abs_s, abs(s_val))
        if ratio > worst_ratio:
            worst_ratio, worst_t = ratio, t
    return AuditReport(
        lhs=complex(max_abs_s), rhs=complex(hmty_bound(worst_t)),
        abs_discrepancy=worst_ratio, rel_discrepancy=worst_ratio,
        verdict="pass" if worst_ratio < 1.0 else "fail",
        notes=f"max |S| = {max_abs_s:.4f} on [e, {t_max}]; "
              f"tightest ratio {worst_ratio:.4f} at t = {worst_t:.2f}",
    )


def _arg_gamma_quarter(energy: float) -> float:
    """arg Gamma(1/4 + iE/4), for E >= 4."""
    from . import specfun as sf
    if energy < 4.0:
        raise ArgumentDomain("n_H_guinand_weil needs E >= 4")
    return sf.log_gamma(complex(0.25, 0.25 * energy)).imag


def n_H_guinand_weil(energies: list) -> tuple:
    """Three-term counting formula (arg Gamma, log pi, arg zeta) at each E
    of a grid, with the arg zeta(1/2 + iE/2) it used: (counts, args).

    Evaluates (1/pi) arg Gamma(1/4 + iE/4) - (E/4 pi) log pi + 1
    + (1/pi) arg zeta(1/2 + iE/2) with both arguments tracked
    continuously; within 1/2 of the number of filter roots <= E.  The arg
    rectangles of the grid come from one specfun.arg_rectangles call; the
    first error in input order is raised, as by one call an energy.
    """
    from . import specfun as sf
    arg_gamma, failure = until_error(_arg_gamma_quarter, energies)
    energies = energies[:len(arg_gamma)]
    args = sf.arg_rectangles("zeta", [0.5 * e for e in energies])
    if failure is not None:
        raise failure
    counts = [g / math.pi - 0.25 * e * math.log(math.pi) / math.pi
              + 1.0 + z / math.pi
              for e, g, z in zip(energies, arg_gamma, args)]
    return counts, args


def bijection_audit(catalog: list, filter_roots: list, e_max: float) -> BijectionAudit:
    """Delta(E) = N_H(E) - N_zeta(E/2) on grids straddling each jump.

    N_H counts filter roots; the Guinand-Weil formula count is an
    independent guard at every grid point, so a tampered catalog (and
    therefore a missing seeded root) is flagged near its ordinate, and a
    catalog that ends below e_max/2 within a probe spacing past the first
    zero it lacks (filter_bijection refuses such a catalog beforehand).
    """
    import numpy as np
    ordinates = [r.ordinate for r in catalog]
    roots = sorted(filter_roots)
    anchors = [4.0]
    for e in (2.0 * t for t in ordinates):
        if e <= e_max:
            anchors.extend((e - 0.05, e + 0.05))
    anchors.append(e_max)
    # interior probes between jumps let the formula guard pinpoint a
    # missing catalog zero near its ordinate, not just at the next jump
    grid = []
    for lo, hi in zip(anchors[:-1], anchors[1:]):
        grid.append(lo)
        if hi - lo > 2.0:
            grid.extend(float(x) for x in np.linspace(lo, hi, 8)[1:-1])
    grid.append(anchors[-1])
    n_h, n_z, delta = [], [], []
    verdict = "pass"
    for e, formula in zip(grid, n_H_guinand_weil(grid)[0]):
        count_h = sum(1 for r in roots if r <= e)
        count_z = sum(1 for t in ordinates if t <= 0.5 * e)
        n_h.append(count_h)
        n_z.append(count_z)
        delta.append(count_h - count_z)
        if (count_h != count_z or abs(formula - count_h) >= 0.5) \
                and verdict == "pass":
            verdict = f"fail at E = {e:.6f}"
    return BijectionAudit(E_grid=grid, N_H_values=n_h, N_zeta_values=n_z,
                          delta_values=delta, verdict=verdict)


# ---------------------------------------------------------------------------
# Catalog persistence
# ---------------------------------------------------------------------------

_CATALOG_VERSION = "v1"


def catalog_serialize(records: list) -> bytes:
    if not records:
        raise ArgumentDomain("refusing to store an empty catalog")
    function = records[0].function
    lines = [f"#zerocatalog {_CATALOG_VERSION} {function}"]
    for r in records:
        lines.append("\t".join((
            str(r.index),
            format(r.ordinate, ".17g"),
            format(r.residual, ".17g"),
            r.method,
        )))
    body = ("\n".join(lines) + "\n").encode("utf-8")
    digest = hashlib.sha256(body).hexdigest()
    return body + f"#sha256 {digest}\n".encode("utf-8")


def catalog_store(path: str, records: list) -> None:
    """Atomic write (temp + rename) of the line-oriented catalog format."""
    blob = catalog_serialize(records)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(blob)
    try:
        os.replace(tmp, path)
    except OSError:
        os.remove(tmp)
        raise


def catalog_load(path: str) -> list:
    with open(path, "rb") as fh:
        blob = fh.read()
    head, _, last = blob.rstrip(b"\n").rpartition(b"\n")
    if not last.startswith(b"#sha256 "):
        raise CatalogError("missing checksum line")
    body = head + b"\n"
    digest = hashlib.sha256(body).hexdigest()
    if last[len(b"#sha256 "):] != digest.encode("ascii"):
        raise CatalogError("catalog checksum does not match contents")
    try:
        lines = body.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise CatalogError(f"catalog is not UTF-8 text: {exc}") from None
    header = lines[0].split()
    if len(header) != 3 or header[0] != "#zerocatalog":
        raise CatalogError(f"malformed header {lines[0]!r}")
    if header[1] != _CATALOG_VERSION:
        raise CatalogError(f"unsupported catalog version {header[1]!r}")
    function = header[2]
    records = []
    previous = 0.0
    for number, line in enumerate(lines[1:], start=2):
        try:
            idx, ordinate, residual, method = line.split("\t")
            records.append(ZeroRecord(
                index=int(idx), ordinate=float(ordinate),
                residual=float(residual), function=function, method=method))
            if not previous < records[-1].ordinate < math.inf:
                raise ValueError(f"ordinate {ordinate} not in ({previous!r}"
                                 ", inf): ordinates must be positive and "
                                 "increasing")
        except (ValueError, ArgumentDomain) as exc:
            raise CatalogError(
                f"malformed record on line {number}: {exc}") from None
        previous = records[-1].ordinate
    if not records:
        raise CatalogError("catalog holds no records")
    return records
