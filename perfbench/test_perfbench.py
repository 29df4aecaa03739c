"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import metrics
import run
import tracing


@pytest.fixture(scope="module")
def cli():
    return run.load_program()


def _bindings():
    """Every object bound in an mbzero module namespace or the registry."""
    from mbzero import claims
    out = {}
    for name, mod in sys.modules.items():
        if name == "mbzero" or name.startswith("mbzero."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    out.update({("REGISTRY", k): v for k, v in claims.REGISTRY.items()})
    return out


def test_flipped_reference_digest_counts_as_failed(cli, tmp_path):
    reference = copy.deepcopy(run.load_reference())
    digests = reference["variants"]["0"]["workloads"]["catalog"]["cache"]
    digests["stdout"] = digests["stdout"][::-1]
    runs = run.run(["catalog"], 0, 0.0, False, str(tmp_path), reference, cli)
    result = run.report(runs, False)
    assert result["failed"] > 0
    assert result["correct"] is False
    assert all("cache" in p for p in runs[0].problems)


def test_traced_run_restores_every_function_and_keeps_bytes(cli, tmp_path):
    before = _bindings()
    runs = run.run(["catalog"], 0, 0.0, True, str(tmp_path), None, cli)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    (r,) = runs
    # the traced pass was checked against the same reference digests
    assert r.problems == [] and r.failed == 0 and len(r.traced_walls) == 1
    layer = r.per_layer()
    assert layer["mbfilter.mb_integral.calls"] == 0
    assert layer["specfun.log_gamma.calls"] > 0
    assert layer["zerocensus.zeros_found"] > 0
    assert layer["cli.census.threads2.s"] > 0
    assert set(layer) == {m[0] for m in metrics.PER_LAYER}
    assert os.path.isfile(tmp_path / "catalog" / "trace_spans.npz")


def test_patch_reaches_names_bound_by_import():
    from mbzero import bessel, operatorlab, quadrature, specfun
    tracer = tracing.Tracer()
    originals = (specfun.log_gamma, bessel.log_gamma, operatorlab.bessel_K,
                 operatorlab.rk_adaptive)
    tracer.patch()
    try:
        assert bessel.log_gamma is specfun.log_gamma
        assert bessel.log_gamma.__wrapped__ is originals[0]
        assert operatorlab.bessel_K is bessel.bessel_K
        assert operatorlab.rk_adaptive is quadrature.rk_adaptive
        assert operatorlab.rk_adaptive is not originals[3]
    finally:
        tracer.restore()
    assert (specfun.log_gamma, bessel.log_gamma, operatorlab.bessel_K,
            operatorlab.rk_adaptive) == originals


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_nested_self_times_add_up_to_the_parent():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", _spin)

    def body():
        _spin(0.002)
        inner(0.003)
        inner(0.001)
        _spin(0.001)

    outer = tracer.wrap("outer", body)
    outer()
    st_out, st_in = tracer.stats["outer"], tracer.stats["inner"]
    duration = tracer.span_end[0] - tracer.span_start[0]
    resolution = 1e-6
    assert abs(st_out.self + st_in.total - duration) < resolution
    assert abs(st_out.total - duration) < resolution
    assert st_in.calls == 2 and st_in.self == pytest.approx(st_in.total)
    # spans: the parent of both inner spans is the outer span
    assert list(tracer.span_parent) == [-1, 0, 0]
    children = sum(tracer.span_end[i] - tracer.span_start[i] for i in (1, 2))
    assert abs(duration - children - st_out.self) < resolution


def test_recursion_counts_retries_and_no_double_time():
    tracer = tracing.Tracer()

    def f(n):
        _spin(0.0005)
        return f_traced(n - 1) if n else 0

    f_traced = tracer.wrap("f", f)
    f_traced(3)
    st = tracer.stats["f"]
    duration = tracer.span_end[0] - tracer.span_start[0]
    assert st.calls == 4 and st.nested == 3
    assert abs(st.total - duration) < 1e-6
    assert abs(st.self - duration) < 1e-6


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [m[:3] for m in metrics.PER_LAYER]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
