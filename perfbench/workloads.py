"""Workloads of the mbzero benchmark: the CLI calls of one pass, the seed
variants, and the checks applied to every call's outputs.

Each workload is a closed loop with one client: the next ``cli.main(argv)``
call starts when the previous one returns, as a researcher drives the CLI.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass

WORKLOADS = ("ledger", "catalog", "high_energy")

# Seed variants: (zeta census height, kernel scale --a). Variant 0 is the
# documented configuration, t <= 200 and a = 0.2. Every height lies at least
# 0.2 from a zeta zero ordinate, and every variant exits 0 at the commit that
# recorded reference.json; make_reference.py checks both before it writes.
VARIANTS = (
    (200.0, 0.20),
    (199.0, 0.21),
    (198.5, 0.19),
    (197.5, 0.22),
    (200.0, 0.18),
    (199.5, 0.23),
    (196.5, 0.17),
    (196.0, 0.20),
)
BETA_T_MAX = 17.0
FILTER_E_MAX = 400.0  # double-precision roots for the whole catalog
DD_E_MAX = 250.0  # double-double roots up to t = 125, past mpmath's switch to
# its costlier zeta algorithm near t = 110
BIJECTION_E_MAX = 240.0
LEDGER_E_MAX = 60.0
LEDGER_CLAIMS = 29
# Claims of under 0.3 s each that touch every module: the ledger's warm-up.
WARMUP_CLAIMS = ("specfun_conjugation", "xi_functional_symmetry",
                 "bessel_wronskian", "mb_hadamard_ladder_independence",
                 "filter_zero_pairing_beta", "counting_rvm",
                 "guinand_weil_formula", "prufer_monotonicity")
GAP_LIMIT = 1e-8


def variant_of(seed: int) -> int:
    return seed % len(VARIANTS)


@dataclass(frozen=True)
class Op:
    """One CLI call, the files it writes and how its outputs are judged."""

    key: str  # names the call in reference.json and in phase metrics
    argv: tuple
    outputs: tuple
    check: object  # check(stdout, files) -> problem text or None


@dataclass(frozen=True)
class Plan:
    prep: tuple  # builds the input catalog; checked, not timed
    warmup: tuple
    passes: tuple  # one timed pass
    threads2: Op = None  # census --threads 2, timed in traced catalog runs


# -- checks on the program's own results -----------------------------------

def _records(stdout: str) -> int:
    last = stdout.rstrip("\n").rsplit("\n", 1)[-1]
    return int(last.split()[1]) if last.startswith("# ") else -1


def _check_census(stdout, files):
    if _records(stdout) <= 0:
        return "census reported no records"
    return None


def _root_rows(files) -> list:
    text = files["filter_roots.csv"].decode("utf-8")
    return [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#") and not line.startswith("E_")]


def _check_roots(stdout, files):
    rows = _root_rows(files)
    if not rows:
        return "filter-roots wrote no roots"
    worst = max(float(r[2]) for r in rows)
    if not worst < GAP_LIMIT:
        return f"abs_gap {worst:.3e} not below {GAP_LIMIT:g}"
    return None


def _check_bijection(stdout, files):
    if "# verdict: pass" not in stdout:
        return "bijection verdict is not pass"
    return None


def _check_cache(stdout, files):
    if "checksum ok" not in stdout:
        return "cache check did not pass"
    return None


def _check_stats(stdout, files):
    return None if all(files.values()) else "stats wrote an empty file"


def _ledger_check(n_claims: int):
    def check(stdout, files):
        entries = json.loads(files["audit_ledger.json"])["claims"]
        if len(entries) != n_claims:
            return f"ledger holds {len(entries)} claims, expected {n_claims}"
        return None
    return check


def items(op: Op, stdout: str, files: dict) -> int:
    """Zeros catalogued or roots found by a call, for the phase metrics."""
    if op.argv[0] == "census":
        return _records(stdout)
    if op.argv[0] == "filter-roots":
        return len(_root_rows(files))
    return 0


# -- plans ----------------------------------------------------------------

def plan(workload: str, variant: int) -> Plan:
    t_max, a = VARIANTS[variant]
    a_arg = ("--a", repr(a))
    census_zeta = Op("census_zeta", ("census", "--function", "zeta",
                                     "--t-max", repr(t_max),
                                     "--cache", "zeta.txt"),
                     ("zeta.txt",), _check_census)
    if workload == "catalog":
        passes = (
            census_zeta,
            Op("census_beta", ("census", "--function", "beta",
                               "--t-max", repr(BETA_T_MAX),
                               "--cache", "beta.txt"),
               ("beta.txt",), _check_census),
            Op("filter_roots", ("filter-roots", "--function", "zeta",
                                "--e-max", repr(FILTER_E_MAX), *a_arg,
                                "--cache", "zeta.txt", "--out", "."),
               ("filter_roots.csv",), _check_roots),
            Op("stats", ("stats", "--cache", "zeta.txt", "--out", "."),
               ("spacing_histogram.csv", "pair_correlation.csv"),
               _check_stats),
            Op("cache", ("cache", "--cache", "zeta.txt"), (), _check_cache),
        )
        threads2 = Op("census_zeta_threads2",
                      census_zeta.argv + ("--threads", "2"),
                      census_zeta.outputs, _check_census)
        return Plan((census_zeta,), passes, passes, threads2)
    if workload == "high_energy":
        passes = (
            Op("filter_roots_dd", ("filter-roots", "--function", "zeta",
                                   "--e-max", repr(DD_E_MAX), *a_arg,
                                   "--precision", "double_double",
                                   "--cache", "zeta.txt", "--out", "."),
               ("filter_roots.csv",), _check_roots),
            Op("bijection", ("bijection", "--e-max", repr(BIJECTION_E_MAX),
                             *a_arg, "--cache", "zeta.txt"),
               (), _check_bijection),
        )
        return Plan((census_zeta,), passes, passes)
    if workload == "ledger":
        ledger_files = ("audit_ledger.json", "spacing_histogram.csv",
                        "pair_correlation.csv")
        warmup = Op("audit_warmup", ("audit", *a_arg,
                                     "--e-max", repr(LEDGER_E_MAX),
                                     "--claims", ",".join(WARMUP_CLAIMS),
                                     "--cache", "zeta.txt", "--out", "."),
                    ("audit_ledger.json",), _ledger_check(len(WARMUP_CLAIMS)))
        audit = Op("audit", ("audit", *a_arg, "--e-max", repr(LEDGER_E_MAX),
                             "--cache", "zeta.txt", "--out", "."),
                   ledger_files, _ledger_check(LEDGER_CLAIMS))
        return Plan((census_zeta,), (warmup,), (audit,))
    raise ValueError(f"unknown workload {workload!r}")


# -- execution -------------------------------------------------------------

@dataclass
class Outcome:
    op: Op
    seconds: float
    problems: list
    digests: dict
    items: int


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def execute(call, op: Op, expected: dict = None) -> Outcome:
    """Run one CLI call in the current directory and judge its outputs.

    ``call(argv)`` returns the exit code. ``expected`` maps output names
    ("stdout" and each written file) to reference sha256 digests; None skips
    the digest comparison.
    """
    for name in op.outputs:
        if os.path.exists(name):
            os.remove(name)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = call(list(op.argv))
        except Exception as exc:  # a traceback is a failed call, not a crash
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    stdout = out.getvalue()
    problems = []
    if code != 0:
        problems.append(f"exit {code}: {err.getvalue().strip()[:200]}")
    files = {}
    for name in op.outputs:
        try:
            with open(name, "rb") as fh:
                files[name] = fh.read()
        except OSError:
            problems.append(f"missing output {name}")
    digests = {"stdout": sha256(stdout.encode("utf-8"))}
    digests.update({name: sha256(data) for name, data in files.items()})
    n_items = 0
    if not problems:
        try:
            problem = op.check(stdout, files)
            n_items = items(op, stdout, files)
        except (ValueError, KeyError, IndexError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem:
            problems.append(problem)
    if expected is not None:
        for name, digest in digests.items():
            if expected.get(name) != digest:
                problems.append(f"{name} sha256 {digest[:12]} differs from "
                                f"reference {str(expected.get(name))[:12]}")
    return Outcome(op, seconds, problems, digests, n_items)
