"""Critical-line zero census for zeta and beta, counting functions, the
argument bound check, and the catalog file format.

Zeros are located by sign-change bracketing on the rotated real function
(Hardy Z for zeta, the completed-function rotation for beta), refined by
bisection of all brackets in lockstep.  Completeness is checked against the
counting prediction theta(T)/pi (+1 for zeta) + S(T).
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from . import specfun as sf
from .audit import AuditReport
from .errors import (
    ArgumentDomain,
    ChecksumMismatch,
    IncompleteCatalog,
    MissedZeroSuspected,
    VersionUnsupported,
)
from .spectrostats import smooth_count

_T_CEILING = 200.0
_SCAN_STEP = 0.05
RESIDUAL_LIMIT = 1e-8


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
    T: float
    main_term: float
    S_term: float
    total: float
    jump_count: int
    remainder_bound: float


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
    if not ts:
        return []
    return [abs(v) for v in sf.critical_line_values(function, ts).tolist()]


# ---------------------------------------------------------------------------
# Counting predictions
# ---------------------------------------------------------------------------

def _arg_beta_rect(t: float) -> float:
    """arg beta(1/2 + it) continued along the census rectangle."""
    return sf.arg_rectangle(sf.dirichlet_beta_vec, t)


def counting_prediction(function: str, t: float) -> float:
    """Smooth + argument counting estimate of zeros with ordinate <= t."""
    if function == "zeta":
        return (sf.riemann_siegel_theta(t) / math.pi + 1.0
                + sf.arg_zeta_rectangle(t) / math.pi)
    return sf.beta_theta(t) / math.pi + _arg_beta_rect(t) / math.pi


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


def scan_zeros(function: str, t_max: float, step: float = _SCAN_STEP,
               _depth: int = 0) -> list:
    """All critical-line zeros with ordinate <= t_max, residual < 1e-9.

    Every rotated value, on the bracketing grid and in the lockstep
    bisection of the brackets (_refine_brackets), comes from sf.hardy_Z_vec
    with the per-point Euler-Maclaurin N of the scalar call, so every
    ordinate and residual equals that of bisecting its bracket alone with
    scalar calls.
    """
    if function not in ("zeta", "beta"):
        raise ArgumentDomain(f"unknown function {function!r}")
    if t_max > _T_CEILING:
        raise ArgumentDomain(f"t_max {t_max} above desk-scale ceiling 200")
    t_lo = 0.5
    if t_max <= t_lo:
        return []
    n_pts = max(int(math.ceil((t_max - t_lo) / step)), 2) + 1
    grid = np.linspace(t_lo, t_max, n_pts)
    vals = sf.hardy_Z_vec(function, grid)
    brackets = [(float(grid[i]), float(grid[i + 1]))
                for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0)]
    ordinates = []
    seen = set()
    for t in _refine_brackets(function, brackets):
        key = round(t, 9)
        if key not in seen:
            seen.add(key)
            ordinates.append(t)
    records = [
        ZeroRecord(index=k, ordinate=t, residual=r,
                   function=function, method="sign_scan")
        for k, (t, r) in enumerate(
            zip(ordinates, _critical_abs(function, ordinates)), start=1)
    ]
    predicted = counting_prediction(function, t_max)
    if abs(len(records) - predicted) > 0.5:
        if _depth < 2:
            return scan_zeros(function, t_max, step=0.5 * step,
                              _depth=_depth + 1)
        gap_at = max(
            range(len(records) + 1),
            key=lambda i: (records[i].ordinate if i < len(records) else t_max)
            - (records[i - 1].ordinate if i > 0 else t_lo),
        )
        lo = records[gap_at - 1].ordinate if gap_at > 0 else t_lo
        hi = records[gap_at].ordinate if gap_at < len(records) else t_max
        raise MissedZeroSuspected(
            f"found {len(records)} zeros <= {t_max}, prediction "
            f"{predicted:.3f}; suspect interval {(lo, hi)}")
    return records


# ---------------------------------------------------------------------------
# Riemann-von Mangoldt comparison
# ---------------------------------------------------------------------------

def riemann_von_mangoldt(t: float, catalog: list) -> CountingReport:
    """Main term + arg-tracked S(T) against the catalog jump count."""
    if t < 2.0:
        raise ArgumentDomain("riemann_von_mangoldt needs T >= 2")
    main = smooth_count(t)
    s_term = sf.s_of_t(t)
    jumps = sum(1 for r in catalog if r.ordinate <= t)
    return CountingReport(T=t, main_term=main, S_term=s_term,
                          total=main + s_term, jump_count=jumps,
                          remainder_bound=1.0 / t)


def hmty_bound(t: float) -> float:
    """0.1038 log t + 0.2573 log log t + 8.3675, valid for t >= e."""
    return 0.1038 * math.log(t) + 0.2573 * math.log(math.log(t)) + 8.3675


def s_grid(t_max: float):
    """S(t) on the grid e, e + 0.1, ... <= t_max, one arg rectangle a point.

    Each rectangle starts at 2 + it (see specfun.arg_rectangle), so a
    point costs the horizontal walk only.
    """
    if t_max < math.e:
        raise ArgumentDomain("grid needs t_max >= e")
    anchor = sf.arg_zeta_rectangle(2.0)
    out = []
    t = math.e
    while t <= t_max + 1e-12:
        out.append((t, (sf.arg_zeta_rectangle(t) - anchor) / math.pi))
        t += 0.1
    return out


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
        claim_id="s_t_bound_hmty",
        lhs=complex(max_abs_s), rhs=complex(hmty_bound(worst_t)),
        abs_discrepancy=worst_ratio, rel_discrepancy=worst_ratio,
        verdict="pass" if worst_ratio < 1.0 else "fail",
        notes=f"max |S| = {max_abs_s:.4f} on [e, {t_max}]; "
              f"tightest ratio {worst_ratio:.4f} at t = {worst_t:.2f}",
    )


def n_H_guinand_weil(energy: float) -> float:
    """Three-term counting formula (arg Gamma, log pi, arg zeta) at E.

    Evaluates (1/pi) arg Gamma(1/4 + iE/4) - (E/4 pi) log pi + 1
    + (1/pi) arg zeta(1/2 + iE/2) with both arguments tracked
    continuously; within 1/2 of the number of filter roots <= E.
    """
    if energy < 4.0:
        raise ArgumentDomain("n_H_guinand_weil needs E >= 4")
    t = 0.5 * energy
    arg_gamma = sf.log_gamma(complex(0.25, 0.25 * energy)).imag
    return (arg_gamma / math.pi - 0.25 * energy * math.log(math.pi) / math.pi
            + 1.0 + sf.arg_zeta_rectangle(t) / math.pi)


def bijection_audit(catalog: list, filter_roots: list, e_max: float) -> BijectionAudit:
    """Delta(E) = N_H(E) - N_zeta(E/2) on grids straddling each jump.

    N_H counts filter roots; the Guinand-Weil formula count is used as an
    independent completeness guard, so a tampered catalog (and therefore
    a missing seeded root) is flagged at its ordinate.
    """
    if not catalog or catalog[-1].ordinate < 0.5 * e_max - 1e-9:
        raise IncompleteCatalog(
            f"catalog reaches {catalog[-1].ordinate if catalog else 0:.3f}, "
            f"need {0.5 * e_max:.3f}"
        )
    ordinates = [r.ordinate for r in catalog]
    roots = sorted(filter_roots)
    anchors = [4.0]
    for t in ordinates:
        if 2.0 * t <= e_max:
            anchors.extend((2.0 * t - 0.05, 2.0 * t + 0.05))
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
    for e in grid:
        count_h = sum(1 for r in roots if r <= e)
        count_z = sum(1 for t in ordinates if t <= 0.5 * e)
        formula = n_H_guinand_weil(e)
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
        raise ChecksumMismatch("missing checksum line")
    body = head + b"\n"
    digest = hashlib.sha256(body).hexdigest()
    if last[len(b"#sha256 "):] != digest.encode("ascii"):
        raise ChecksumMismatch("catalog checksum does not match contents")
    lines = body.decode("utf-8").splitlines()
    header = lines[0].split()
    if len(header) != 3 or header[0] != "#zerocatalog":
        raise VersionUnsupported(f"malformed header {lines[0]!r}")
    if header[1] != _CATALOG_VERSION:
        raise VersionUnsupported(f"unsupported catalog version {header[1]!r}")
    function = header[2]
    records = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            idx, ordinate, residual, method = line.split("\t")
            records.append(ZeroRecord(
                index=int(idx), ordinate=float(ordinate),
                residual=float(residual), function=function, method=method))
        except (ValueError, ArgumentDomain) as exc:
            raise VersionUnsupported(
                f"malformed record on line {number}: {exc}") from None
    if not records:
        raise IncompleteCatalog("catalog holds no records")
    return records
