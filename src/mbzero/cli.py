"""Command-line driver.

Subcommands: census, filter-roots, bijection, stats, audit, cache.
Numbers are serialized at 17 significant digits (32 in double-double
mode, tagged per row); identical configuration and cache produce
byte-identical outputs at any --threads value from 1 to 64.  --threads is
the number of worker processes that `audit` runs its claims in and
double-double `filter-roots` its Newton roots in; it defaults to the
usable CPU count, and 1 runs everything in this process.

Exit codes: 0 success; 2 suspected missed zero in a census scan;
3 numerical failure (Newton, quadrature, ODE step or argument walk);
4 I/O failure (missing, unusable or empty catalog, unwritable output);
5 invalid configuration or command line; 6 cache verification failure.
Each library error class carries its code (errors.py); main maps it
once.  Commands that write into --out check that it is a directory
before any work starts.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import claims as cl
from . import mbfilter as mbf
from . import spectrostats as st
from . import zerocensus as zc
from .audit import ledger_json
from .errors import ConfigError, MbzeroError, WindowTooSparse

EXIT_OK = 0
EXIT_IO = 4
EXIT_CONFIG = 5
EXIT_CACHE = 6

# audit and double-double filter-roots fork at most this many workers
_MAX_THREADS = 64

# commands that write files into --out
_WRITES_OUT = ("filter-roots", "stats", "audit")


@dataclass
class RunConfig:
    command: str
    function: str = "zeta"
    t_max: float = 60.0
    e_max: float = 60.0
    a: float = 0.2
    abscissa: float = 0.75
    precision: str = "double"
    out_dir: str = "."
    cache_path: str = "zerocatalog.txt"
    threads: int = 1
    claims: tuple = ()

    def validate(self):
        if self.function not in ("zeta", "beta"):
            raise ConfigError(f"--function must be zeta or beta, got {self.function}")
        if self.command == "bijection" and self.function != "zeta":
            raise ConfigError(f"--function {self.function}: bijection is a "
                              "zeta-only audit (the Guinand-Weil count is zeta's)")
        if not (0.0 < self.t_max <= 200.0):
            raise ConfigError("--t-max must be in (0, 200]")
        if not (0.0 < self.e_max <= 400.0):
            raise ConfigError("--e-max must be in (0, 400]")
        if self.command == "bijection" and not self.e_max >= 4.0:
            raise ConfigError("--e-max must be >= 4 for bijection (the "
                              "Guinand-Weil count starts at E = 4)")
        if not (0.0 < self.a < 1.0):
            raise ConfigError("--a must be in (0, 1)")
        if not (-8.0 < self.abscissa < 8.0):
            raise ConfigError("--abscissa out of range (-8, 8)")
        if self.precision not in ("double", "double_double"):
            raise ConfigError("--precision must be double or double_double")
        if not (1 <= self.threads <= _MAX_THREADS):
            raise ConfigError(f"--threads must be in [1, {_MAX_THREADS}]")
        unknown = [c for c in self.claims if c not in cl.REGISTRY]
        if unknown:
            raise ConfigError(f"unknown claims: {', '.join(unknown)}; "
                              f"known: {', '.join(sorted(cl.REGISTRY))}")


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _usable_cpus() -> int:
    """The default --threads: the CPUs this process may run on, in
    [1, _MAX_THREADS], or 1 where processes cannot be forked."""
    if not hasattr(os, "fork"):
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    n = len(affinity(0)) if affinity else os.cpu_count() or 1
    return min(n, _MAX_THREADS)


def _fan_out(fn, items, workers: int) -> list:
    """[fn(x) for x in items] over up to `workers` forked processes.

    Results come back in input order and the first failure in input order
    is raised, so outputs, stderr and exit code are the serial loop's.  One
    worker runs the loop in this process, with no pool.
    """
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        return list(pool.map(fn, items))


def _load_catalog(config) -> list:
    if not os.path.isfile(config.cache_path):
        raise FileNotFoundError(f"catalog {config.cache_path} not found or "
                                "not a file; run `mbzero census` first")
    return zc.catalog_load(config.cache_path)


def cmd_census(config: RunConfig) -> int:
    records = zc.scan_zeros(config.function, config.t_max)
    if records:
        zc.catalog_store(config.cache_path, records)
    print(f"# {config.function} zeros with ordinate <= {_fmt(config.t_max)}")
    print(f"{'index':>5}  {'ordinate':>24}  {'residual':>12}")
    for r in records:
        print(f"{r.index:>5}  {_fmt(r.ordinate):>24}  {r.residual:>12.3e}")
    print(f"# {len(records)} records"
          + (f" -> {config.cache_path}" if records else " (no file written)"))
    return EXIT_OK


def _dd_root(kernel: str, scale: mbf.KernelScale, guess: float) -> tuple:
    """One double-double Newton root as (32-digit string, float)."""
    import mpmath as mp
    root = mbf.newton_root_dd(kernel, guess, scale)
    return mp.nstr(root, 32), float(root)


def cmd_filter_roots(config: RunConfig) -> int:
    catalog = _load_catalog(config)
    if catalog[0].function != config.function:
        raise ConfigError(f"--function {config.function} does not match the "
                          f"{catalog[0].function} catalog {config.cache_path}")
    kernel = "beta2s" if config.function == "beta" else "zeta2s"
    scale = mbf.KernelScale(config.a)
    ordinates = []
    for r in catalog:
        if 2.0 * r.ordinate > config.e_max:
            break
        ordinates.append(r.ordinate)
    guesses = [2.0 * t + 0.05 for t in ordinates]
    if config.precision == "double_double":
        roots = _fan_out(partial(_dd_root, kernel, scale), guesses,
                         config.threads)
    else:
        roots = []
        for guess in guesses:
            e_val = 2.0 * mbf.newton_filter_root(kernel, guess, scale).ordinate
            roots.append((_fmt(e_val), e_val))
    rows = [(e_str, t, abs(e_val - 2.0 * t))
            for (e_str, e_val), t in zip(roots, ordinates)]
    out_path = os.path.join(config.out_dir, "filter_roots.csv")
    lines = ["# kernel=%s g=%s a=%s precision=%s" % (
        kernel, _fmt(config.abscissa), _fmt(config.a), config.precision),
        "E_root,paired_ordinate,abs_gap,precision"]
    for e_str, t, gap in rows:
        lines.append(",".join((e_str, _fmt(t), format(gap, ".3e"),
                               config.precision)))
    worst = max((g for _, _, g in rows), default=0.0)
    lines.append(f"# worst |E - 2t| = {worst:.3e} over {len(rows)} roots")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK


def cmd_bijection(config: RunConfig) -> int:
    catalog = _load_catalog(config)
    audit = mbf.filter_bijection(catalog, mbf.KernelScale(config.a),
                                 config.e_max, config.precision)
    print(f"{'E':>12}  {'N_H':>4}  {'N_zeta':>6}  {'Delta':>5}")
    for e, nh, nz, d in zip(audit.E_grid, audit.N_H_values,
                            audit.N_zeta_values, audit.delta_values):
        print(f"{e:>12.6f}  {nh:>4}  {nz:>6}  {d:>5}")
    print(f"# verdict: {audit.verdict}")
    return EXIT_OK


def _emit_stats(config: RunConfig, spectrum) -> None:
    spacings = spectrum.spacings
    edges = np.arange(0.0, 3.2001, 0.2)
    counts, _ = np.histogram(spacings, bins=edges)
    density = counts / (len(spacings) * 0.2)
    centers = 0.5 * (edges[1:] + edges[:-1])
    wd = st.wigner_dyson_pdf(centers)
    n_zeros = len(spectrum.raw)
    hist_path = os.path.join(config.out_dir, "spacing_histogram.csv")
    with open(hist_path, "w", encoding="utf-8") as fh:
        fh.write(f"# unfolded nearest-neighbor spacings, {n_zeros} zeros\n")
        fh.write("s_center,empirical_density,wigner_dyson\n")
        for c, d, w in zip(centers, density, wd):
            fh.write(f"{_fmt(c)},{_fmt(float(d))},{_fmt(float(w))}\n")
    omega = np.arange(0.25, 3.0001, 0.125)
    est = st.pair_correlation_estimate(spectrum.unfolded, omega)
    ref = st.sine_kernel_r2(omega)
    pc_path = os.path.join(config.out_dir, "pair_correlation.csv")
    with open(pc_path, "w", encoding="utf-8") as fh:
        fh.write(f"# two-point estimator, Gaussian window 0.1, {n_zeros} zeros\n")
        fh.write("omega,estimate,sine_kernel\n")
        for o, e, r in zip(omega, est, ref):
            fh.write(f"{_fmt(float(o))},{_fmt(float(e))},{_fmt(float(r))}\n")
    gp = os.path.join(config.out_dir, "plots.gp")
    with open(gp, "w", encoding="utf-8") as fh:
        fh.write(
            "set terminal dumb\n"
            "set datafile separator ','\n"
            "set title 'nearest-neighbor spacing'\n"
            "plot 'spacing_histogram.csv' every ::1 u 1:2 w boxes "
            "t 'empirical', 'spacing_histogram.csv' every ::1 u 1:3 w lines "
            "t 'Wigner-Dyson'\n"
            "set title 'pair correlation'\n"
            "plot 'pair_correlation.csv' every ::1 u 1:2 w points "
            "t 'estimate', 'pair_correlation.csv' every ::1 u 1:3 w lines "
            "t 'sine kernel'\n"
        )


def cmd_stats(config: RunConfig) -> int:
    catalog = _load_catalog(config)
    _emit_stats(config, st.unfold_catalog(catalog))
    print(f"# spacing_histogram.csv, pair_correlation.csv, plots.gp "
          f"-> {config.out_dir}")
    return EXIT_OK


def cmd_audit(config: RunConfig) -> int:
    catalog = _load_catalog(config)
    only = set(config.claims) or None
    if only is None:
        # the full audit also writes the spacing statistics: check that the
        # catalog unfolds before any claim runs or any file is written
        try:
            spectrum = st.unfold_catalog(catalog)
        except WindowTooSparse as exc:
            raise ConfigError(f"{exc}; the full audit writes spacing "
                              "statistics, so choose claims with --claims"
                              ) from None
    reports = _fan_out(partial(cl.run_claim, config, catalog),
                       [c for c in cl.REGISTRY if not only or c in only],
                       config.threads)
    ledger = ledger_json(reports)
    path = os.path.join(config.out_dir, "audit_ledger.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ledger + "\n")
    if only is None:
        _emit_stats(config, spectrum)
    for rep in sorted(reports, key=lambda r: r.claim_id):
        print(f"{rep.claim_id:<36} {rep.verdict}")
    print(f"# {len(reports)} claims -> {path}")
    return EXIT_OK


def cmd_cache(config: RunConfig) -> int:
    records = _load_catalog(config)
    print(f"# {config.cache_path}: {records[0].function} catalog, "
          f"{len(records)} records, checksum ok")
    print(f"# ordinate range [{_fmt(records[0].ordinate)}, "
          f"{_fmt(records[-1].ordinate)}]")
    return EXIT_OK


_COMMANDS = {
    "census": cmd_census,
    "filter-roots": cmd_filter_roots,
    "bijection": cmd_bijection,
    "stats": cmd_stats,
    "audit": cmd_audit,
    "cache": cmd_cache,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 5 (invalid configuration), not argparse's 2,
    which is the missed-zero code.  An argument that starts with '-' and
    a digit is a number: argparse's own pattern misses exponent forms and
    read `--abscissa -1e-3` as an option missing its value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mbzero",
        description="Spectral-filter laboratory for critical-line zeros.",
        epilog="exit codes: 0 ok, 2 missed-zero suspicion, 3 numerical "
               "failure (Newton, quadrature, ODE step or argument walk), "
               "4 I/O failure, 5 invalid config or usage, "
               "6 cache verification failure",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--function", default="zeta", choices=("zeta", "beta"))
        p.add_argument("--t-max", type=float, default=60.0)
        p.add_argument("--e-max", type=float, default=60.0)
        p.add_argument("--a", type=float, default=0.2)
        p.add_argument("--abscissa", type=float, default=0.75)
        p.add_argument("--precision", default="double",
                       choices=("double", "double_double"))
        p.add_argument("--threads", type=int, default=_usable_cpus())
        p.add_argument("--out", default=".")
        p.add_argument("--cache", default="zerocatalog.txt")
        p.add_argument("--claims", default="",
                       help="comma-separated claim ids (audit only)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help 0, usage error 5
        return int(exc.code)
    try:
        config = RunConfig(
            command=args.command, function=args.function, t_max=args.t_max,
            e_max=args.e_max, a=args.a, abscissa=args.abscissa,
            precision=args.precision, out_dir=args.out,
            cache_path=args.cache, threads=args.threads,
            claims=tuple(c for c in args.claims.split(",") if c),
        )
        config.validate()
        if config.command in _WRITES_OUT and not os.path.isdir(config.out_dir):
            raise NotADirectoryError(f"cannot write outputs: --out "
                                     f"{config.out_dir} is not a directory")
        return _COMMANDS[config.command](config)
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except MbzeroError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.exit_code == EXIT_IO and args.command == "cache":
            return EXIT_CACHE
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
