#!/usr/bin/env python3
"""Record the reference sha256 digests of every output of every workload.

Run from the root of a checkout, on the commit whose outputs are the
reference:

    python3 perfbench/make_reference.py

For each seed variant it runs each workload's calls once (preparation,
warm-up, one pass and, for catalog, the two-thread census) and checks them
with the program's own results: exit code 0, bijection verdict pass, every
abs_gap below 1e-8, a passing cache check and 29 ledger entries. A call
made twice must give the same bytes both times, and the two-thread census
the same bytes as the one-thread census. Only then is reference.json
written.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads as wl


def record_variant(cli, variant: int, work_root: str) -> dict:
    out = {}
    for name in wl.WORKLOADS:
        p = wl.plan(name, variant)
        workdir = os.path.join(work_root, f"v{variant}", name)
        os.makedirs(workdir, exist_ok=True)
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            digests = {}
            ops = [*p.prep, *p.warmup, *p.passes]
            if p.threads2 is not None:
                ops.append(p.threads2)
            for op in ops:
                outcome = wl.execute(cli.main, op)
                if outcome.problems:
                    raise SystemExit(f"variant {variant} {name} {op.key}: "
                                     + "; ".join(outcome.problems))
                if digests.setdefault(op.key, outcome.digests) != outcome.digests:
                    raise SystemExit(f"variant {variant} {name} {op.key}: "
                                     "outputs differ between two calls")
                print(f"variant {variant} {name:<11} {op.key:<20} "
                      f"{outcome.seconds:7.3f} s  "
                      + " ".join(f"{k}={v[:12]}"
                                 for k, v in outcome.digests.items()),
                      flush=True)
        finally:
            os.chdir(cwd)
        if "census_zeta_threads2" in digests and (
                digests["census_zeta_threads2"] != digests["census_zeta"]):
            raise SystemExit(f"variant {variant}: --threads 2 census differs")
        out[name] = digests
    return out


def main() -> int:
    cli = run.load_program()
    work_root = os.path.join(run.WORK, "reference")
    shutil.rmtree(work_root, ignore_errors=True)
    variants = {}
    for v, params in enumerate(wl.VARIANTS):
        variants[str(v)] = {"params": list(params),
                            "workloads": record_variant(cli, v, work_root)}
    shutil.rmtree(work_root, ignore_errors=True)
    reference = {"recorded_at_commit": run.git_commit(),
                 "variants": variants}
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
