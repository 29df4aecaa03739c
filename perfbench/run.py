#!/usr/bin/env python3
"""mbzero benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 30 --trace 0

``--workload`` is ledger, catalog, high_energy, or all (the three
interleaved in one process). The program runs in this process, from the
checkout's ``src/``, with one thread. With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run. Lines before it summarise the
run for a reader. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# One thread: fix the native thread pools before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 60
# The speed probe's time at the reference speed: its fastest time on the
# shared 2-core Intel Xeon where the bounds were set. Pass times are scaled
# to this speed; see speed_probe.
PROBE_REF_S = 0.03

# A fresh interpreter imports the CLI and verifies the input catalog, as
# `mbzero cache` does; it prints its exit code and the monotonic clock, which
# on Linux is one clock for every process.
SETUP_CODE = """\
import contextlib, io, time
from mbzero import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["cache", "--cache", "zeta.txt"])
print(rc, repr(time.monotonic()))
"""


def speed_probe() -> float:
    """Seconds taken by a fixed computation that does not use mbzero.

    On a shared machine the throughput of a core drifts by 30-40 % over
    minutes (a fixed loop runs 24-120 ms), and a pass is slowed in
    proportion. The probe mixes scalar complex arithmetic with numpy array
    arithmetic, as the program does; timed before and after a pass, it
    measures the machine's speed during that pass.
    """
    import numpy as np

    z = np.linspace(1.0, 50.0, 4000) * 1j + 0.5
    t0 = time.perf_counter()
    acc = 0j
    for k in range(1, 40000):
        s = complex(0.5, k * 1e-3)
        acc += cmath.exp(cmath.log(s) * s) / (s + k)
    for _ in range(40):
        acc += complex(np.sum(np.exp(np.log(z) * z[::-1]) / (z + 1.0)))
    return time.perf_counter() - t0


def load_program():
    """Import mbzero from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "mbzero", "cli.py")):
        raise SystemExit(f"error: no program at {SRC}; run from a full "
                         "checkout of the repository")
    sys.path.insert(0, SRC)
    from mbzero import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: mbzero imported from {cli.__file__}, "
                         f"not from {SRC}")
    return cli


def load_reference() -> dict:
    if not os.path.isfile(REFERENCE):
        raise SystemExit(f"error: reference digests {REFERENCE} missing")
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def provenance(seed: int, variant: int) -> dict:
    import mpmath
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    t_max, a = wl.VARIANTS[variant]
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "mpmath": mpmath.__version__, "commit": git_commit(),
        "seed": seed, "variant": variant, "t_max": t_max, "a": a,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git; "unknown" outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class WorkloadRun:
    """One workload's set-up, warm-up and timed passes, with their checks."""

    def __init__(self, cli, name: str, seed: int, trace: bool,
                 reference: dict, workdir: str):
        self.cli = cli
        self.name = name
        self.seed = seed
        self.variant = wl.variant_of(seed)
        self.plan = wl.plan(name, self.variant)
        self.trace = trace
        self.workdir = workdir
        recorded = reference["variants"][str(self.variant)]
        if tuple(recorded["params"]) != wl.VARIANTS[self.variant]:
            raise SystemExit("error: reference.json was recorded for other "
                             "variants; run perfbench/make_reference.py")
        self.expected = recorded["workloads"][name]
        self.tracer = tracing.Tracer() if trace else None
        self.attempted = 0
        self.problems = []
        self.setup_samples = []
        self.walls = []  # untraced pass times
        self.speeds = []  # PROBE_REF_S / probe time, mean around each pass
        self.phase_samples = {p[0]: [] for p in metrics.PHASES}
        self.traced_walls = []
        self.layer_samples = []
        self.threads = {"cli.census.threads1.s": [], "cli.census.threads2.s": []}

    # -- calls -------------------------------------------------------------

    def _call(self, op, call=None) -> wl.Outcome:
        outcome = wl.execute(call or self.cli.main, op,
                             self.expected.get(op.key, {}))
        self.attempted += 1
        if outcome.problems:
            self.problems.append(f"{op.key}: {'; '.join(outcome.problems)}")
        return outcome

    def _in_workdir(self, fn):
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            return fn()
        finally:
            os.chdir(cwd)

    # -- stages ------------------------------------------------------------

    def prepare(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        self._in_workdir(self._prepare)

    def _prepare(self) -> None:
        for op in self.plan.prep:
            self._call(op)
        for _ in range(SETUP_REPEATS):
            self._measure_setup()
        for op in self.plan.warmup:
            self._call(op)

    def _measure_setup(self) -> None:
        env = dict(os.environ, PYTHONPATH=SRC)
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        self.attempted += 1
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 2 or fields[0] != "0":
            self.problems.append(f"setup: exit {proc.returncode} "
                                 f"{proc.stderr.strip()[-200:]}")
            return
        self.setup_samples.append(float(fields[1]) - t0)

    def round(self) -> None:
        self._in_workdir(self._round)

    def _round(self) -> None:
        before = speed_probe()
        outcomes = [self._call(op) for op in self.plan.passes]
        speed = PROBE_REF_S / (0.5 * (before + speed_probe()))
        self.speeds.append(speed)
        self.walls.append(sum(o.seconds for o in outcomes))
        for name, _, _, workload, keys, what in metrics.PHASES:
            if workload != self.name:
                continue
            done = [o for o in outcomes if o.op.key in keys]
            seconds = sum(o.seconds for o in done) * speed
            if what == "seconds":
                self.phase_samples[name].append(seconds)
            else:
                self.phase_samples[name].append(
                    sum(o.items for o in done) / seconds)
        if not self.trace:
            return
        if self.plan.threads2 is not None:
            census = next(o for o in outcomes if o.op.key == "census_zeta")
            self.threads["cli.census.threads1.s"].append(census.seconds)
            self.threads["cli.census.threads2.s"].append(
                self._call(self.plan.threads2).seconds)
        self._traced_pass()

    def _traced_pass(self) -> None:
        tracer = self.tracer
        tracer.reset_stats()
        tracer.patch()
        try:
            traced = [self._call(op, lambda argv: tracer.span(
                f"cli.{argv[0]}", self.cli.main, argv))
                for op in self.plan.passes]
        finally:
            tracer.restore()
        self.traced_walls.append(sum(o.seconds for o in traced))
        self.layer_samples.append(metrics.layer_values(tracer.stats))

    # -- results -----------------------------------------------------------

    @property
    def failed(self) -> int:
        return len(self.problems)

    def end_to_end(self) -> dict:
        return {
            # no sample means every set-up call failed, which `failed` shows
            "setup_s": statistics.median(self.setup_samples)
            if self.setup_samples else 0.0,
            "wall_s": statistics.median(self.scaled_walls()),
            "peak_rss_mb": peak_rss_mb(),
        }

    def scaled_walls(self) -> list:
        """Pass times at the probe's reference speed."""
        return [w * s for w, s in zip(self.walls, self.speeds)]

    def phases(self) -> dict:
        return {name: statistics.median(self.phase_samples[name])
                for name, *_ in metrics.PHASES if self.phase_samples[name]}

    def per_layer(self) -> dict:
        out = {}
        for name, *_ in metrics.PER_LAYER:
            samples = [s[name] for s in self.layer_samples if name in s]
            if samples:
                out[name] = statistics.median(samples)
        for name, samples in self.threads.items():
            out[name] = statistics.median(samples) if samples else 0.0
        out["trace.overhead_s"] = (statistics.median(self.traced_walls)
                                   - statistics.median(self.walls))
        phases = self.phases()
        for name, *_ in metrics.PHASES:
            out[name] = phases.get(name, 0.0)
        return out

    def summary(self) -> list:
        t_max, a = wl.VARIANTS[self.variant]
        lines = [f"workload {self.name}: seed {self.seed}, variant "
                 f"{self.variant} (zeta t <= {t_max}, a = {a})"]
        q1, med, q3 = metrics.quartiles(self.scaled_walls())
        lines.append(f"  wall_s       {med:.4f} s  median of {len(self.walls)} "
                     f"passes at reference speed, quartiles {q1:.4f} .. {q3:.4f}")
        q1, med, q3 = metrics.quartiles(self.walls)
        lines.append(f"  raw wall     {med:.4f} s  median as timed, quartiles "
                     f"{q1:.4f} .. {q3:.4f}; machine speed "
                     f"{statistics.median(self.speeds):.3f} of reference")
        if self.setup_samples:
            q1, med, q3 = metrics.quartiles(self.setup_samples)
            lines.append(f"  setup_s      {med:.4f} s  median of "
                         f"{len(self.setup_samples)} fresh interpreters, "
                         f"quartiles {q1:.4f} .. {q3:.4f}")
        units = {p[0]: p[1] for p in metrics.PHASES}
        for name, value in self.phases().items():
            lines.append(f"  {name:<12} {value:.4f} {units[name]}  median of "
                         f"{len(self.phase_samples[name])} passes")
        lines.append(f"  peak_rss_mb  {peak_rss_mb():.1f} MB  (this process)")
        lines.append(f"  failed_ops   {self.failed}/{self.attempted} CLI calls "
                     f"= {self.failed / max(self.attempted, 1):.4f}")
        if self.trace:
            lines.append(f"  traced passes {len(self.traced_walls)}; spans "
                         f"{len(self.tracer.span_start)} -> "
                         f"{os.path.relpath(self.workdir, ROOT)}")
        lines.extend(f"  FAILED {p}" for p in self.problems[:20])
        return lines


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(names: list, seed: int, seconds: float, trace: bool,
        work_root: str = WORK, reference: dict = None, cli=None) -> list:
    """Prepare each workload, then interleave rounds until ``seconds`` per
    workload have been spent on rounds; every workload gets one or more."""
    cli = cli or load_program()
    reference = reference or load_reference()
    runs = []
    for name in names:
        workdir = os.path.join(work_root, name)
        if os.path.isdir(workdir):
            for entry in os.listdir(workdir):
                os.remove(os.path.join(workdir, entry))
        runs.append(WorkloadRun(cli, name, seed, trace, reference, workdir))
    for r in runs:
        r.prepare()
    budget = seconds * len(runs)
    t0 = time.perf_counter()
    rounds = 0
    while True:
        for r in runs:
            r.round()
        rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / rounds > budget:
            break
    if trace:
        for r in runs:
            r.tracer.write(r.workdir)
    return runs


def report(runs: list, trace: bool) -> dict:
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    units = {m[0]: m[1] for m in metrics.END_TO_END + metrics.PER_LAYER}
    values = {}
    for r in runs:
        vals = r.per_layer() if trace else r.end_to_end()
        prefix = f"{r.name}." if len(runs) > 1 else ""
        values.update({prefix + k: (v, units[k]) for k, v in vals.items()})
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    runs = run(names, args.seed, args.seconds, bool(args.trace))
    prov = provenance(args.seed, wl.variant_of(args.seed))
    result = report(runs, bool(args.trace))
    record = dict(result, provenance=prov, run_seconds=args.seconds,
                  samples={r.name: {"wall_s": r.walls, "speed": r.speeds,
                                    "setup_s": r.setup_samples,
                                    "traced_wall_s": r.traced_walls}
                           for r in runs},
                  problems={r.name: r.problems for r in runs})
    with open(os.path.join(WORK, f"result_{args.workload}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items()))
    for r in runs:
        print("\n".join(r.summary()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
