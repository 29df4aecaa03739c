"""Command-line driver.

Subcommands: census, filter-roots, bijection, stats, audit, cache.  Each
accepts only the flags it reads, declared once in `_FLAGS`; any other
flag is a usage error.  Numbers are serialized at 17 significant digits
(32 in double-double mode, tagged per row); identical configuration and
cache produce byte-identical outputs at any --threads value from 1 to 64.
--threads is the number of worker processes, forked for each call with no
pool and no thread (fanout.fan_out), that pull `audit`'s claims, double-
double `filter-roots`' Newton roots or the slices of a census scan large
enough to pay for a fork from one pipe of task indices; it defaults to
the usable CPU count, and 1 runs everything in this process.

Exit codes: 0 success; 2 suspected missed zero in a census scan;
3 numerical failure (Newton, quadrature, ODE step or argument walk);
4 I/O failure (missing, unusable or empty catalog, unwritable output, a
worker dead without results); 5 invalid configuration or command line;
6 cache verification failure.
errors.py has one class per code; main maps it once.  `bijection`,
`stats` and `audit` read only a zeta catalog.  Commands that write into
--out check that it is a directory before any work starts.  Each command
imports only the modules it runs: `cache`, --help and a rejected command
line load no numpy, so they start fast.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from . import zerocensus as zc
from .audit import ledger_json
from .errors import ArgumentDomain, MbzeroError
from .fanout import fan_out

EXIT_OK = 0
EXIT_IO = 4
EXIT_CONFIG = 5
EXIT_CACHE = 6

# the most workers census, audit and double-double filter-roots fork
_MAX_THREADS = 64

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


def _load_catalog(config, function: str = None) -> list:
    if not os.path.isfile(config.cache):
        raise FileNotFoundError(f"catalog {config.cache} not found or "
                                "not a file; run `mbzero census` first")
    records = zc.catalog_load(config.cache)
    if function and records[0].function != function:
        raise ArgumentDomain(f"{config.command} needs a {function} catalog, "
                             f"not the {records[0].function} catalog "
                             f"{config.cache}")
    return records


def cmd_census(config) -> int:
    records = zc.scan_zeros(config.function, config.t_max, config.threads)
    if records:
        zc.catalog_store(config.cache, records)
    print(f"# {config.function} zeros with ordinate <= {_fmt(config.t_max)}")
    print(f"{'index':>5}  {'ordinate':>24}  {'residual':>12}")
    for r in records:
        print(f"{r.index:>5}  {_fmt(r.ordinate):>24}  {r.residual:>12.3e}")
    print(f"# {len(records)} records"
          + (f" -> {config.cache}" if records else " (no file written)"))
    return EXIT_OK


def _dd_root(function: str, scale, pair: tuple) -> tuple:
    """The double-double Newton root from a (guess, accepted double root)
    pair as (32-digit string, float)."""
    import mpmath as mp
    from . import mbfilter as mbf
    root = mbf.newton_root_dd(function, *pair, scale)
    return mp.nstr(root, 32), float(root)


def cmd_filter_roots(config) -> int:
    from . import mbfilter as mbf
    catalog = _load_catalog(config, config.function)
    scale = mbf.KernelScale(config.a)
    ordinates, guesses = mbf.newton_guesses(catalog, config.e_max)
    # every double root is accepted before any 31-digit step
    e_vals = mbf.newton_filter_roots(config.function, guesses, scale)
    if config.precision == "double_double":
        roots = fan_out(partial(_dd_root, config.function, scale),
                        list(zip(guesses, e_vals)), config.threads)
    else:
        roots = [(_fmt(e), e) for e in e_vals]
    rows = [(e_str, t, abs(e_val - 2.0 * t))
            for (e_str, e_val), t in zip(roots, ordinates)]
    out_path = os.path.join(config.out, "filter_roots.csv")
    # the residue filter has no contour; g=0.75 stays so that the header's
    # bytes do not change
    lines = ["# kernel=%s2s g=0.75 a=%s precision=%s" % (
        config.function, _fmt(config.a), config.precision),
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


def cmd_bijection(config) -> int:
    from . import mbfilter as mbf
    if not config.e_max >= 4.0:
        raise ArgumentDomain("--e-max must be >= 4 for bijection (the "
                             "Guinand-Weil count starts at E = 4)")
    catalog = _load_catalog(config, "zeta")
    audit = mbf.filter_bijection(catalog, mbf.KernelScale(config.a),
                                 config.e_max)
    print(f"{'E':>12}  {'N_H':>4}  {'N_zeta':>6}  {'Delta':>5}")
    for e, nh, nz, d in zip(audit.E_grid, audit.N_H_values,
                            audit.N_zeta_values, audit.delta_values):
        print(f"{e:>12.6f}  {nh:>4}  {nz:>6}  {d:>5}")
    print(f"# verdict: {audit.verdict}")
    return EXIT_OK


def _emit_stats(config, unfolded) -> None:
    import numpy as np
    from . import spectrostats as st
    spacings = np.diff(unfolded)
    edges = np.arange(0.0, 3.2001, 0.2)
    counts, _ = np.histogram(spacings, bins=edges)
    density = counts / (len(spacings) * 0.2)
    centers = 0.5 * (edges[1:] + edges[:-1])
    wd = st.wigner_dyson_pdf(centers)
    n_zeros = len(unfolded)
    hist_path = os.path.join(config.out, "spacing_histogram.csv")
    with open(hist_path, "w", encoding="utf-8") as fh:
        fh.write(f"# unfolded nearest-neighbor spacings, {n_zeros} zeros\n")
        fh.write("s_center,empirical_density,wigner_dyson\n")
        for c, d, w in zip(centers, density, wd):
            fh.write(f"{_fmt(c)},{_fmt(float(d))},{_fmt(float(w))}\n")
    est = st.pair_correlation_estimate(unfolded, st.OMEGA_GRID)
    ref = st.sine_kernel_r2(st.OMEGA_GRID)
    pc_path = os.path.join(config.out, "pair_correlation.csv")
    with open(pc_path, "w", encoding="utf-8") as fh:
        fh.write(f"# two-point estimator, Gaussian window {st.PAIR_WINDOW}, "
                 f"{n_zeros} zeros\n")
        fh.write("omega,estimate,sine_kernel\n")
        for o, e, r in zip(st.OMEGA_GRID, est, ref):
            fh.write(f"{_fmt(float(o))},{_fmt(float(e))},{_fmt(float(r))}\n")
    gp = os.path.join(config.out, "plots.gp")
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


def cmd_stats(config) -> int:
    from . import spectrostats as st
    # the unfolding counts with the Riemann-von Mangoldt term of zeta
    catalog = _load_catalog(config, "zeta")
    _emit_stats(config, st.unfold(catalog))
    print(f"# spacing_histogram.csv, pair_correlation.csv, plots.gp "
          f"-> {config.out}")
    return EXIT_OK


def cmd_audit(config) -> int:
    from . import claims as cl, spectrostats as st
    # every ledger claim tests a zeta identity
    catalog = _load_catalog(config, "zeta")
    only = set(config.claims) or None
    if only is None:
        # the full audit also writes the spacing statistics: check that the
        # catalog unfolds before any claim runs or any file is written
        try:
            unfolded = st.unfold(catalog)
        except ArgumentDomain as exc:
            raise ArgumentDomain(f"{exc}; the full audit writes spacing "
                                 "statistics, so choose claims with "
                                 "--claims") from None
    reports = fan_out(partial(cl.run_claim, config, catalog),
                      [c for c in cl.REGISTRY if not only or c in only],
                      config.threads)
    ledger = ledger_json(reports)
    path = os.path.join(config.out, "audit_ledger.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ledger + "\n")
    if only is None:
        _emit_stats(config, unfolded)
    for rep in sorted(reports, key=lambda r: r.claim_id):
        print(f"{rep.claim_id:<36} {rep.verdict}")
    print(f"# {len(reports)} claims -> {path}")
    return EXIT_OK


def cmd_cache(config) -> int:
    records = _load_catalog(config)
    print(f"# {config.cache}: {records[0].function} catalog, "
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
    which is the missed-zero code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _claim_ids(text: str) -> tuple:
    from . import claims as cl
    ids = tuple(c for c in text.split(",") if c)
    if not ids:
        raise argparse.ArgumentTypeError("no claim ids given")
    unknown = ", ".join(c for c in ids if c not in cl.REGISTRY)
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown claims: {unknown}; known: "
                                         + ", ".join(sorted(cl.REGISTRY)))
    return ids


# flag: (the subcommands that read it, argparse keywords, valid interval)
_FLAGS = {
    "--function": (("census", "filter-roots"),
                   dict(default="zeta", choices=("zeta", "beta")), None),
    "--t-max": (("census", "audit"), dict(type=float, default=60.0),
                (lambda v: 0.0 < v <= 200.0, "(0, 200]")),
    "--e-max": (("filter-roots", "bijection", "audit"),
                dict(type=float, default=60.0),
                (lambda v: 0.0 < v <= 400.0, "(0, 400]")),
    "--a": (("filter-roots", "bijection", "audit"),
            dict(type=float, default=0.2),
            (lambda v: 0.0 < v < 1.0, "(0, 1)")),
    "--precision": (("filter-roots",), dict(
        default="double", choices=("double", "double_double")), None),
    "--threads": (("census", "filter-roots", "audit"),
                  dict(type=int, default=_usable_cpus()),
                  (lambda v: 1 <= v <= _MAX_THREADS, f"[1, {_MAX_THREADS}]")),
    "--out": (("filter-roots", "stats", "audit"), dict(default="."), None),
    "--cache": (tuple(_COMMANDS), dict(default="zerocatalog.txt"), None),
    "--claims": (("audit",), dict(type=_claim_ids, default=(),
                                  help="comma-separated claim ids"), None),
}


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
        # each flag has one spelling: no unique prefix stands for it
        p = sub.add_parser(name, allow_abbrev=False)
        for flag, (commands, keywords, _) in _FLAGS.items():
            if name in commands:
                p.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    try:
        config = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help 0, usage error 5
        return int(exc.code)
    try:
        for flag, (commands, _, bounds) in _FLAGS.items():
            if config.command in commands and bounds and \
                    not bounds[0](getattr(config, flag[2:].replace("-", "_"))):
                raise ArgumentDomain(f"{flag} must be in {bounds[1]}")
        if "out" in config and not os.path.isdir(config.out):
            raise NotADirectoryError(f"cannot write outputs: --out "
                                     f"{config.out} is not a directory")
        return _COMMANDS[config.command](config)
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except MbzeroError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.exit_code == EXIT_IO and config.command == "cache":
            return EXIT_CACHE
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
