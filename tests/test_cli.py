import argparse
import contextlib
import hashlib
import io
import json
import math
import operator
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as hst

import mbzero
import oracles as oc
from mbzero import bessel as bs
from mbzero import claims as cl
from mbzero import cli, errors, fanout, quadrature
from mbzero import mbfilter as mbf
from mbzero import specfun as sf
from mbzero import spectrostats as st
from mbzero import zerocensus as zc


# sha256 of the zeta t <= 200 catalog file
ZETA_200_SHA256 = ("3ea12789cf626f9d671f4b28bb8fc0ff"
                   "58ca7749fbcd55e6288b741eb922bbe5")


def run(args, tmp_path):
    out = ["--out", str(tmp_path)] if args[0] in cli._FLAGS["--out"][0] \
        else []
    return cli.main(args + out + ["--cache", str(tmp_path / "cat.txt")])


class TestCensusCommand:
    def test_beta_census_matches_table(self, tmp_path, capsys):
        code = run(["census", "--function", "beta", "--t-max", "17"], tmp_path)
        out = capsys.readouterr().out
        assert code == 0
        assert "4 records" in out
        for frag in ("6.02094890469", "10.2437703041", "12.9880980123",
                     "16.3426071045"):
            assert frag in out

    def test_empty_census_exits_zero(self, tmp_path, capsys):
        code = run(["census", "--function", "zeta", "--t-max", "10"], tmp_path)
        assert code == 0
        assert "0 records" in capsys.readouterr().out

    def test_rerun_is_idempotent(self, tmp_path, capsys):
        run(["census", "--function", "beta", "--t-max", "17"], tmp_path)
        blob1 = (tmp_path / "cat.txt").read_bytes()
        run(["census", "--function", "beta", "--t-max", "17"], tmp_path)
        assert (tmp_path / "cat.txt").read_bytes() == blob1

    def test_threads2_full_census_bytes(self, tmp_path, capsys):
        # the catalog bytes pinned in test_zerocensus, at --threads 2
        assert run(["census", "--t-max", "200", "--threads", "2"],
                   tmp_path) == 0
        blob = (tmp_path / "cat.txt").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == ZETA_200_SHA256

    def test_threads_identical_output(self, tmp_path, capsys):
        run(["census", "--function", "zeta", "--t-max", "40",
             "--threads", "1"], tmp_path)
        one = (tmp_path / "cat.txt").read_bytes()
        run(["census", "--function", "zeta", "--t-max", "40",
             "--threads", "4"], tmp_path)
        assert (tmp_path / "cat.txt").read_bytes() == one

    def _census_at(self, argv, threads, tmp_path, capsys):
        """(exit code, stdout, stderr, catalog bytes or None) of a census
        at each --threads value."""
        outcomes = []
        for n in threads:
            (tmp_path / "cat.txt").unlink(missing_ok=True)
            code = run(argv + ["--threads", n], tmp_path)
            out, err = capsys.readouterr()
            path = tmp_path / "cat.txt"
            outcomes.append((code, out, err,
                             path.read_bytes() if path.exists() else None))
        return outcomes

    def test_forked_census_bytes_at_one_to_three_workers(self, tmp_path,
                                                         capsys, monkeypatch):
        forks = []  # the slice count of each scan
        fan_out = zc.fan_out

        def counted(fn, items, workers):
            forks.append(len(items))
            return fan_out(fn, items, workers)

        monkeypatch.setattr(zc, "fan_out", counted)
        zeta = self._census_at(["census", "--t-max", "200"], "123",
                               tmp_path, capsys)
        assert forks == [1, 2, 3]
        assert len(set(zeta)) == 1 and zeta[0][0] == 0
        assert hashlib.sha256(zeta[0][3]).hexdigest() == ZETA_200_SHA256
        # a beta scan to 60 forks once the fork threshold is patched down
        monkeypatch.setattr(zc, "_FORK_WORK", 1000)
        beta = self._census_at(["census", "--function", "beta", "--t-max",
                                "60"], "123", tmp_path, capsys)
        assert forks[3:] == [1, 2, 3]
        assert len(set(beta)) == 1 and beta[0][0] == 0
        assert beta[0][3] == zc.catalog_serialize(zc.scan_zeros("beta", 60.0))

    @pytest.mark.parametrize("argv", [
        ["census", "--t-max", "60"],
        ["census", "--function", "beta", "--t-max", "17"]])
    def test_small_census_forks_nothing(self, argv, tmp_path, capsys,
                                        monkeypatch):
        monkeypatch.setattr(os, "fork", _never_forked)
        assert run(argv + ["--threads", "2"], tmp_path) == 0

    def test_same_failure_in_the_upper_slice_at_one_and_two_workers(
            self, tmp_path, capsys, monkeypatch):
        grid = np.linspace(0.5, 200.0, 3991)
        upper = zc._slices(grid, 2)[1]
        bad = float(upper[len(upper) // 2])
        vector = sf.hardy_Z_vec

        def failing(function, t):
            if bad in np.asarray(t):
                raise errors.NoConvergence(f"injected at t = {bad!r}")
            return vector(function, t)

        monkeypatch.setattr(sf, "hardy_Z_vec", failing)
        outcomes = self._census_at(["census", "--t-max", "200"], "12",
                                   tmp_path, capsys)
        assert outcomes[0] == outcomes[1]
        code, out, err, written = outcomes[0]
        assert (code, out, written) == (3, "", None)
        assert err == f"error: injected at t = {bad!r}\n"

    def test_same_step_halving_retry_at_one_and_two_workers(
            self, tmp_path, capsys, monkeypatch):
        # the first count is one short, so the scan retries at step 0.025
        predictions = []
        predict = zc.counting_prediction

        def short_once(function, t):
            predictions.append(t)
            return predict(function, t) + (len(predictions) % 2)

        monkeypatch.setattr(zc, "counting_prediction", short_once)
        outcomes = self._census_at(["census", "--t-max", "200"], "12",
                                   tmp_path, capsys)
        assert predictions == [200.0] * 4
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 0 and "# 79 records" in outcomes[0][1]


class TestFilterRootsCommand:
    def test_beta_roots_csv(self, tmp_path, capsys):
        run(["census", "--function", "beta", "--t-max", "17"], tmp_path)
        code = run(["filter-roots", "--function", "beta", "--e-max", "34"],
                   tmp_path)
        assert code == 0
        lines = (tmp_path / "filter_roots.csv").read_text().splitlines()
        assert lines[0] == ("# kernel=beta2s g=0.75 a=0.20000000000000001 "
                            "precision=double")
        rows = [ln for ln in lines if ln and not ln.startswith("#")
                and not ln.startswith("E_root")]
        assert len(rows) == 4
        for row in rows:
            assert float(row.split(",")[2]) < 1e-8

    @pytest.mark.parametrize("precision", ["double", "double_double"])
    def test_no_root_below_e_max(self, precision, tmp_path, capsys):
        # beta's first zero is at t = 6.02: no guess below E = 12
        run(["census", "--function", "beta", "--t-max", "17"], tmp_path)
        code = run(["filter-roots", "--function", "beta", "--e-max", "12",
                    "--precision", precision], tmp_path)
        assert code == 0
        assert (tmp_path / "filter_roots.csv").read_text().endswith(
            "# worst |E - 2t| = 0.000e+00 over 0 roots\n")

    def test_missing_catalog_exit_4(self, tmp_path, capsys):
        code = run(["filter-roots"], tmp_path)
        assert code == 4
        assert "census" in capsys.readouterr().err


class TestBijectionCommand:
    def test_delta_zero(self, tmp_path, capsys):
        run(["census", "--function", "zeta", "--t-max", "32"], tmp_path)
        code = run(["bijection", "--e-max", "60"], tmp_path)
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: pass" in out

    def test_catalog_short_of_e_max_exit_5(self, tmp_path, capsys):
        # a t <= 32 catalog holds 4 of the 38 zeros below E/2 = 120
        run(["census", "--function", "zeta", "--t-max", "32"], tmp_path)
        capsys.readouterr()
        assert run(["bijection", "--e-max", "240"], tmp_path) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("catalog holds 4 zeros <= 120.000, the argument principle "
                "counts 38.000") in captured.err

    def test_complete_catalog_audited_to_e_max(self, tmp_path, capsys):
        # a t <= 30 catalog is complete to t = 30, so the audit reaches 60
        run(["census", "--function", "zeta", "--t-max", "30"], tmp_path)
        capsys.readouterr()
        assert run(["bijection", "--e-max", "60"], tmp_path) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[-1] == "# verdict: pass"
        assert rows[-2].split()[0] == "60.000000"
        assert len(rows) == 1 + 32 + 1


class TestAuditCommand:
    def test_single_claim_ledger(self, tmp_path, capsys):
        run(["census", "--function", "zeta", "--t-max", "32"], tmp_path)
        code = run(["audit", "--claims", "mb_double_pole_circle"], tmp_path)
        assert code == 0
        ledger = json.loads((tmp_path / "audit_ledger.json").read_text())
        assert ledger["format"].startswith("mbzero-audit-ledger")
        assert len(ledger["claims"]) == 1
        assert ledger["claims"][0]["claim_id"] == "mb_double_pole_circle"

    def test_ledger_reruns_byte_identical(self, tmp_path, capsys):
        run(["census", "--function", "zeta", "--t-max", "32"], tmp_path)
        run(["audit", "--claims", "fredholm_z0.4,trace_class_p2"], tmp_path)
        blob1 = (tmp_path / "audit_ledger.json").read_bytes()
        run(["audit", "--claims", "fredholm_z0.4,trace_class_p2"], tmp_path)
        assert (tmp_path / "audit_ledger.json").read_bytes() == blob1

    def test_unknown_claim_exit_5(self, tmp_path, capsys):
        run(["census", "--function", "zeta", "--t-max", "20"], tmp_path)
        code = run(["audit", "--claims", "nonsense"], tmp_path)
        assert code == 5

    @pytest.mark.parametrize("claims", ["", ","])
    def test_empty_claim_list_exit_5(self, tmp_path, capsys, monkeypatch,
                                     claims):
        # an empty list is a usage error, not the full audit
        run(["census", "--function", "zeta", "--t-max", "20"], tmp_path)
        monkeypatch.setattr(cl, "run_claim", _fail_if_called)
        monkeypatch.setattr(st, "unfold", _fail_if_called)
        capsys.readouterr()
        assert run(["audit", "--claims", claims], tmp_path) == 5
        assert "--claims: no claim ids given" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cat.txt"]

    def test_full_audit_on_sparse_catalog_exit_5(self, tmp_path, capsys):
        # 3 zeros: the spacing statistics of a full audit need 20, which is
        # checked before any claim runs or any file is written
        run(["census", "--function", "zeta", "--t-max", "30"], tmp_path)
        capsys.readouterr()
        assert run(["audit"], tmp_path) == 5
        assert "--claims" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cat.txt"]
        assert run(["audit", "--claims", "bijection_delta_zero"], tmp_path) == 0
        assert (tmp_path / "audit_ledger.json").exists()

    def test_beta_catalog_exit_5(self, tmp_path, capsys, monkeypatch):
        # 25 beta zeros: enough for the spacing statistics, but every
        # ledger claim tests a zeta identity
        run(["census", "--function", "beta", "--t-max", "60"], tmp_path)
        monkeypatch.setattr(cl, "run_claim", _fail_if_called)
        capsys.readouterr()
        for claims in ([], ["--claims", "counting_rvm,trace_I_even_odd"]):
            assert run(["audit", "--threads", "1"] + claims, tmp_path) == 5
            err = capsys.readouterr().err
            assert "zeta catalog" in err and "beta" in err
            assert [p.name for p in tmp_path.iterdir()] == ["cat.txt"]


class TestStatsCommand:
    def test_emits_plot_files(self, tmp_path, capsys):
        run(["census", "--function", "zeta", "--t-max", "110"], tmp_path)
        code = run(["stats"], tmp_path)
        assert code == 0
        for name in ("spacing_histogram.csv", "pair_correlation.csv",
                     "plots.gp"):
            assert (tmp_path / name).exists()
        lines = (tmp_path / "spacing_histogram.csv").read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "s_center,empirical_density,wigner_dyson"

    def test_beta_catalog_exit_5(self, tmp_path, capsys):
        # 25 beta zeros: enough to unfold, but the unfolding counts with
        # zeta's Riemann-von Mangoldt term
        run(["census", "--function", "beta", "--t-max", "60"], tmp_path)
        (tmp_path / "plots.gp").write_text("from an earlier run\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        assert run(["stats"], tmp_path) == 5
        err = capsys.readouterr().err
        assert "stats needs a zeta catalog, not the beta catalog" in err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestCacheCommand:
    def test_verify_ok(self, tmp_path, capsys):
        run(["census", "--function", "beta", "--t-max", "17"], tmp_path)
        assert run(["cache"], tmp_path) == 0
        assert "checksum ok" in capsys.readouterr().out

    def test_corrupted_exit_6(self, tmp_path, capsys):
        run(["census", "--function", "beta", "--t-max", "17"], tmp_path)
        path = tmp_path / "cat.txt"
        path.write_bytes(path.read_bytes().replace(b"6.02", b"6.03", 1))
        assert run(["cache"], tmp_path) == 6

    def test_missing_exit_4(self, tmp_path, capsys):
        assert run(["cache"], tmp_path) == 4


class TestCorruptedCatalogProperty:
    _BLOB = zc.catalog_serialize([
        zc.ZeroRecord(index=i + 1, ordinate=t, residual=1e-14,
                      function="beta", method="newton_refine")
        for i, t in enumerate((6.020948904697597, 10.243770304166555,
                               12.988098012312423))])

    @settings(max_examples=150, deadline=None)
    @given(hst.data())
    def test_one_byte_changed_anywhere(self, tmp_path_factory, data):
        position = data.draw(hst.integers(0, len(self._BLOB) - 1))
        byte = data.draw(hst.integers(0, 255).filter(
            lambda b: b != self._BLOB[position]))
        blob = bytearray(self._BLOB)
        blob[position] = byte
        directory = tmp_path_factory.mktemp("corrupt")
        (directory / "cat.txt").write_bytes(bytes(blob))
        cache = ["--cache", str(directory / "cat.txt")]
        assert cli.main(["cache"] + cache) == 6
        assert cli.main(["stats", "--out", str(directory)] + cache) == 4

    def _resigned(self, body: bytes) -> bytes:
        """body with a checksum line that matches it."""
        return body + b"#sha256 " + hashlib.sha256(body).hexdigest().encode() \
            + b"\n"

    @settings(max_examples=100, deadline=None)
    @given(hst.data())
    def test_bytes_changed_and_checksum_recomputed(self, tmp_path_factory,
                                                   data):
        # a re-signed change passes the checksum, so the body itself must
        # be refused or read: no command may raise
        body = bytearray(self._BLOB[:self._BLOB.rindex(b"#sha256 ")])
        for position in data.draw(hst.lists(hst.integers(0, len(body) - 1),
                                            min_size=1, max_size=3,
                                            unique=True)):
            body[position] = data.draw(hst.integers(0, 255))
        directory = tmp_path_factory.mktemp("resigned")
        (directory / "cat.txt").write_bytes(self._resigned(bytes(body)))
        cache = ["--cache", str(directory / "cat.txt")]
        out = ["--out", str(directory)]
        assert cli.main(["cache"] + cache) in (0, 6)
        assert cli.main(["stats"] + out + cache) in _DOCUMENTED_CODES
        assert cli.main(["filter-roots", "--function", "beta", "--threads",
                         "1"] + out + cache) in _DOCUMENTED_CODES

    def test_body_not_utf8(self, tmp_path, capsys):
        body = self._BLOB[:self._BLOB.rindex(b"#sha256 ")] + b"4\t\xff\n"
        (tmp_path / "cat.txt").write_bytes(self._resigned(body))
        assert run(["cache"], tmp_path) == 6
        assert "catalog is not UTF-8 text" in capsys.readouterr().err
        for command in ("stats", "filter-roots", "bijection", "audit"):
            assert run([command], tmp_path) == 4


_DOCUMENTED_CODES = (0, 2, 3, 4, 5, 6)


def _write_checksummed_catalog(path, *records):
    body = "".join(line + "\n" for line in ("#zerocatalog v1 zeta",) + records)
    digest = hashlib.sha256(body.encode()).hexdigest()
    path.write_text(body + f"#sha256 {digest}\n")


class TestHeaderOnlyCatalog:
    def test_cache_exit_6(self, tmp_path, capsys):
        _write_checksummed_catalog(tmp_path / "cat.txt")
        assert run(["cache"], tmp_path) == 6
        assert "no records" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["stats", "audit", "bijection",
                                         "filter-roots"])
    def test_catalog_commands_exit_4(self, command, tmp_path, capsys):
        _write_checksummed_catalog(tmp_path / "cat.txt")
        assert run([command], tmp_path) == 4
        assert "no records" in capsys.readouterr().err


MALFORMED_RECORDS = {
    "two_fields": "1\t14.134725141734695",
    "non_numeric_residual": "1\t14.134725141734695\tsmall\tsign_scan",
}


class TestMalformedCatalogRecord:
    @pytest.mark.parametrize("kind", sorted(MALFORMED_RECORDS))
    def test_cache_exit_6(self, kind, tmp_path, capsys):
        _write_checksummed_catalog(tmp_path / "cat.txt", MALFORMED_RECORDS[kind])
        assert run(["cache"], tmp_path) == 6
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", sorted(MALFORMED_RECORDS))
    @pytest.mark.parametrize("command", ["stats", "audit", "bijection",
                                         "filter-roots"])
    def test_catalog_commands_exit_4(self, command, kind, tmp_path, capsys):
        _write_checksummed_catalog(tmp_path / "cat.txt", MALFORMED_RECORDS[kind])
        assert run([command], tmp_path) == 4
        assert "line 2" in capsys.readouterr().err


def _with_first_ordinates(records, first, second):
    """records with the first two ordinates replaced."""
    return [zc.ZeroRecord(index=r.index, ordinate=t, residual=r.residual,
                          function=r.function, method=r.method)
            for r, t in zip(records, (first, second))] + records[2:]


BAD_ORDINATES = {
    "negative": lambda t1, t2: (-t1, t2),
    "zero": lambda t1, t2: (0.0, t2),
    "out_of_order": lambda t1, t2: (t2, t1),
    "repeated": lambda t1, t2: (t1, t1),
}


class TestCatalogOrdinates:
    @pytest.mark.parametrize("kind", sorted(BAD_ORDINATES))
    @pytest.mark.parametrize("command", ["filter-roots", "bijection", "stats",
                                         "audit", "cache"])
    def test_refused_on_load(self, command, kind, tmp_path, capsys,
                             zeta_catalog_110):
        # every catalog command reads the catalog through catalog_load, so
        # none of them sees an ordinate <= 0 or out of order
        t1, t2 = (r.ordinate for r in zeta_catalog_110[:2])
        zc.catalog_store(str(tmp_path / "cat.txt"), _with_first_ordinates(
            zeta_catalog_110, *BAD_ORDINATES[kind](t1, t2)))
        capsys.readouterr()
        assert run([command], tmp_path) == (6 if command == "cache" else 4)
        err = capsys.readouterr().err
        line = 2 if kind in ("negative", "zero") else 3
        assert f"malformed record on line {line}: ordinate" in err
        assert "positive and increasing" in err
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["cat.txt"]


class TestCatalogFunctionTag:
    def test_filter_roots_function_mismatch_exit_5(self, tmp_path, capsys):
        run(["census", "--function", "beta", "--t-max", "17"], tmp_path)
        capsys.readouterr()
        assert run(["filter-roots", "--function", "zeta"], tmp_path) == 5
        err = capsys.readouterr().err
        assert "zeta" in err and "beta" in err

    def test_bijection_on_beta_catalog_exit_5(self, tmp_path, capsys):
        # bijection takes no --function: the catalog tag alone decides
        run(["census", "--function", "beta", "--t-max", "17"], tmp_path)
        capsys.readouterr()
        assert run(["bijection", "--function", "beta", "--e-max", "30"],
                   tmp_path) == 5
        err = capsys.readouterr().err
        assert "unrecognized arguments: --function beta" in err

    def test_bijection_default_function_on_beta_catalog_exit_5(
            self, tmp_path, capsys):
        run(["census", "--function", "beta", "--t-max", "17"], tmp_path)
        capsys.readouterr()
        assert run(["bijection", "--e-max", "30"], tmp_path) == 5
        err = capsys.readouterr().err
        assert "zeta catalog" in err and "beta" in err

    def test_bijection_function_beta_on_zeta_catalog_exit_5(
            self, tmp_path, capsys):
        run(["census", "--function", "zeta", "--t-max", "32"], tmp_path)
        capsys.readouterr()
        assert run(["bijection", "--function", "beta", "--e-max", "60"],
                   tmp_path) == 5
        captured = capsys.readouterr()
        assert "unrecognized arguments: --function beta" in captured.err
        assert "verdict" not in captured.out


class TestRootAcceptance:
    def test_residual_above_limit_exit_3(self, tmp_path, capsys, monkeypatch):
        run(["census", "--function", "beta", "--t-max", "13"], tmp_path)
        records = zc.catalog_load(str(tmp_path / "cat.txt"))
        monkeypatch.setattr(zc, "catalog_load", lambda path: records)
        monkeypatch.setattr(zc, "RESIDUAL_LIMIT", 0.0)
        code = run(["filter-roots", "--function", "beta", "--e-max", "13",
                    "--precision", "double_double"], tmp_path)
        assert code == 3
        assert "not a zero" in capsys.readouterr().err

    def test_dd_root_rejected_before_any_hp_step(self, tmp_path, capsys,
                                                 monkeypatch):
        # one double pass accepts every root first: a rejected one exits 3
        # with no fork, no 31-digit Newton and no 31-digit L
        run(["census", "--function", "beta", "--t-max", "26"], tmp_path)
        records = zc.catalog_load(str(tmp_path / "cat.txt"))
        monkeypatch.setattr(zc, "catalog_load", lambda path: records)
        monkeypatch.setattr(zc, "RESIDUAL_LIMIT", 0.0)
        for work in ((mbf, "_hp_arithmetic"), (mbf, "newton_root_dd"),
                     (cli, "fan_out")):
            monkeypatch.setattr(*work, _fail_if_called)
        code = run(["filter-roots", "--function", "beta", "--e-max", "26",
                    "--precision", "double_double", "--threads", "2"],
                   tmp_path)
        assert code == 3
        assert "not a zero" in capsys.readouterr().err

    def test_same_failure_at_one_and_two_workers(self, tmp_path, capsys,
                                                 monkeypatch):
        # three roots, each rejected: the first one's error is reported
        run(["census", "--function", "beta", "--t-max", "13"], tmp_path)
        records = zc.catalog_load(str(tmp_path / "cat.txt"))
        monkeypatch.setattr(zc, "catalog_load", lambda path: records)
        monkeypatch.setattr(zc, "RESIDUAL_LIMIT", 0.0)
        capsys.readouterr()
        outcomes = []
        for threads in ("1", "2"):
            code = run(["filter-roots", "--function", "beta", "--e-max", "26",
                        "--precision", "double_double",
                        "--threads", threads], tmp_path)
            outcomes.append((code, capsys.readouterr().err))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 3 and "E = 12.04" in outcomes[0][1]


# sha256 of filter_roots.csv of double-double `filter-roots --a 0.2` on two
# workers: zeta at E <= 400 on the t <= 200 catalog, beta at E <= 120 on the
# t <= 60 one
DD_TABLE_SHA256 = {
    "zeta": ("e17e181a7359e041e28b744dbde9d84b"
             "e4ceb5cccc09def0fade9991e78ae783"),
    "beta": ("ac0c968772f48b0c1cbafa18c518b16f"
             "e063afa215934b74c276dc499c02e25b"),
}
# the same at --a 1e-150 --e-max 64 on the zeta t <= 32 catalog
ZETA_64_A1E150_DD_SHA256 = ("5777e83ac4e4b23705c7627d038f6707"
                            "b704980a1a632286a9c0b6285b0c4ae4")
# the zeta E <= 400 table at three more scales, recorded before the 31-digit
# Newton took its F' from the double backend and zeta its Borwein sum at
# every height
ZETA_400_DD_SHA256_BY_A = {
    "0.17": ("fd48fd88a4de88622a54c9e4b13de8e0"
             "9687465603be997fd3e791e2c8e66d34"),
    "0.999999": ("6e6ab7c66a586818868c44b0dbcd4560"
                 "4504a3b71ff1de1924db3588ee5a3da3"),
    "1e-50": ("aedd6a57e10b08e3f29be233f6d33efb"
              "d924002b72ad90058f4bc434892d405a"),
}
FROZEN_ORDINATES = {"zeta": oc.ZETA_ORDINATES, "beta": oc.BETA_ORDINATES}


def _filter_roots(directory, *flags):
    """(exit code, filter_roots.csv bytes or None) of one filter-roots run
    on directory/cat.txt."""
    code = cli.main(["filter-roots", *flags, "--out", str(directory),
                     "--cache", str(directory / "cat.txt")])
    table = directory / "filter_roots.csv"
    return code, table.read_bytes() if table.exists() else None


def _root_strings(table: bytes) -> list:
    return [row.split(",")[0] for row in table.decode().splitlines()
            if row[:1].isdigit()]


@pytest.fixture(scope="module")
def root_tables(tmp_path_factory, zeta_catalog_full, beta_catalog_60):
    """filter_roots.csv in each precision: zeta at E <= 400 on the t <= 200
    catalog, beta at E <= 120 on the t <= 60 catalog, two workers."""
    tables = {}
    for function, e_max, records in (
            ("zeta", "400", zeta_catalog_full),
            ("beta", "120", beta_catalog_60)):
        directory = tmp_path_factory.mktemp(function)
        zc.catalog_store(str(directory / "cat.txt"), records)
        for precision in ("double", "double_double"):
            code, tables[function, precision] = _filter_roots(
                directory, "--function", function, "--e-max", e_max,
                "--a", "0.2", "--precision", precision, "--threads", "2")
            assert code == 0
    return tables


class TestDoubleDoubleFilterRoots:
    """The 31-digit Newton starts from the double Newton root and fails
    where the double Newton fails; each step evaluates one 31-digit L and
    takes dF/dE from the double backend."""

    @pytest.mark.parametrize("function", ["zeta", "beta"])
    def test_bytes(self, root_tables, function):
        table = root_tables[function, "double_double"]
        assert hashlib.sha256(table).hexdigest() == DD_TABLE_SHA256[function]

    @pytest.mark.parametrize("a", sorted(ZETA_400_DD_SHA256_BY_A))
    def test_bytes_at_other_scales(self, a, zeta_catalog_full, tmp_path):
        zc.catalog_store(str(tmp_path / "cat.txt"), zeta_catalog_full)
        code, table = _filter_roots(tmp_path, "--e-max", "400", "--a", a,
                                    "--precision", "double_double",
                                    "--threads", "2")
        assert code == 0
        assert hashlib.sha256(table).hexdigest() == ZETA_400_DD_SHA256_BY_A[a]

    @pytest.mark.parametrize("function", ["zeta", "beta"])
    def test_every_printed_root_against_frozen_ordinates(self, root_tables,
                                                         function):
        dd = _root_strings(root_tables[function, "double_double"])
        double = _root_strings(root_tables[function, "double"])
        frozen = FROZEN_ORDINATES[function]
        assert len(dd) == len(double) == len(frozen)
        with mp.workdps(40):
            for e_dd, e_double, ordinate in zip(dd, double, frozen):
                want = 2 * mp.mpf(ordinate)
                assert abs(mp.mpf(e_dd) - want) < 1e-30 * want
                assert abs(float(e_double) - float(want)) < 1e-11

    @pytest.mark.parametrize("function, e_max, counts",
                             [("zeta", "250", [3] * 41),
                              ("beta", "120", [3] * 4 + [2] + [3] * 20)],
                             ids=["zeta", "beta"])
    def test_three_hp_evaluations_per_root(self, function, e_max, counts,
                                           root_tables, zeta_catalog_full,
                                           beta_catalog_60, tmp_path,
                                           monkeypatch):
        # from the double root, three 31-digit Newton steps of one L each,
        # the last one's size certifying convergence (123 calls on zeta);
        # the beta root at E = 36.6 starts close enough to need two (74)
        calls, per_root = [0], []
        hp_arithmetic, root_dd = mbf._hp_arithmetic, mbf.newton_root_dd

        def counted_arithmetic(*args):
            calls[0] += 1
            return hp_arithmetic(*args)

        def counted_root(*args):
            before = calls[0]
            root = root_dd(*args)
            per_root.append(calls[0] - before)
            return root

        monkeypatch.setattr(mbf, "_hp_arithmetic", counted_arithmetic)
        monkeypatch.setattr(mbf, "newton_root_dd", counted_root)
        records = {"zeta": zeta_catalog_full, "beta": beta_catalog_60}
        zc.catalog_store(str(tmp_path / "cat.txt"), records[function])
        code, table = _filter_roots(tmp_path, "--function", function,
                                    "--e-max", e_max, "--a", "0.2",
                                    "--precision", "double_double",
                                    "--threads", "1")
        assert code == 0
        assert per_root == counts and calls[0] == sum(counts)
        roots = _root_strings(root_tables[function, "double_double"])
        assert _root_strings(table) == roots[:len(counts)]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_small_scale(self, threads, tmp_path, capsys):
        run(["census", "--t-max", "32"], tmp_path)
        flags = ("--e-max", "64", "--precision", "double_double",
                 "--threads", threads)
        code, table = _filter_roots(tmp_path, "--a", "1e-150", *flags)
        assert code == 0
        assert hashlib.sha256(table).hexdigest() == ZETA_64_A1E150_DD_SHA256
        # at 1e-157 the 31-digit Newton from the guess needs more than 50
        # steps, but the double Newton converges and seeds it
        (tmp_path / "filter_roots.csv").unlink()
        code, small = _filter_roots(tmp_path, "--a", "1e-157", *flags)
        assert code == 0 and _root_strings(small) == _root_strings(table)
        # at 1e-200 the double Newton fails too, and the 31-digit Newton
        # from the guess fails as it always did
        (tmp_path / "filter_roots.csv").unlink()
        capsys.readouterr()
        assert _filter_roots(tmp_path, "--a", "1e-200", *flags) == (3, None)
        assert capsys.readouterr().err == (
            "error: Newton did not converge from 28.3194502834689 in 50\n")

    @pytest.mark.parametrize("precision", ["double", "double_double"])
    def test_small_scale_names_the_first_failing_guess(self, precision,
                                                       tmp_path, capsys):
        # at 1e-158 the double Newton converges from the first three of the
        # four guesses and crawls from the last: the error names that one
        run(["census", "--t-max", "32"], tmp_path)
        capsys.readouterr()
        assert _filter_roots(tmp_path, "--e-max", "400", "--a", "1e-158",
                             "--precision", precision,
                             "--threads", "1") == (3, None)
        assert capsys.readouterr().err == (
            "error: Newton did not converge from 60.89975225171948 in 50\n")


def _pause_or_fail(task):
    """A fan-out task: sleep, then raise the named error, if any."""
    seconds, error = task
    time.sleep(seconds)
    if error:
        raise getattr(errors, error)(f"{error} from a worker")
    return seconds


def _never_forked():
    raise AssertionError("forked")


_TEST_PROCESS = os.getpid()


def _kill_own_worker(task):
    """A fan-out task: SIGKILL the worker process it runs in, if named."""
    if task == "kill":
        assert os.getpid() != _TEST_PROCESS, "not in a worker process"
        os.kill(os.getpid(), signal.SIGKILL)
    return task


def _negative_fails(task):
    if task < 0:
        raise ValueError(f"negative task {task}")
    return task


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkerProcesses:
    CHEAP_CLAIMS = ("gamma_reflection,mb_double_pole_circle,trace_class_p2,"
                    "fredholm_z0.4")

    def test_results_in_input_order(self):
        tasks = [(0.2, None), (0.0, None), (0.1, None)]
        assert fanout.fan_out(_pause_or_fail, tasks, 3) == [0.2, 0.0, 0.1]

    def test_first_failure_in_input_order_is_raised(self):
        # the later task fails first in time
        tasks = [(0.0, None), (0.3, "NoConvergence"), (0.0, "CatalogError")]
        with pytest.raises(errors.NoConvergence,
                           match="^NoConvergence from a worker$") as err:
            fanout.fan_out(_pause_or_fail, tasks, 3)
        assert type(err.value) is errors.NoConvergence

    @pytest.mark.skipif(not (hasattr(os, "fork")
                             and os.path.isdir("/proc/self/task")),
                        reason="counts threads through /proc/self/task")
    def test_back_to_back_pools_fork_single_threaded(self,
                                                     forks_single_threaded):
        # the conftest records the OS thread count at every fork
        tasks = [(0.0, None)] * 2
        for _ in range(20):
            assert fanout.fan_out(_pause_or_fail, tasks, 2) == [0.0, 0.0]
        assert len(forks_single_threaded) >= 40
        assert set(forks_single_threaded) == {1}

    @pytest.mark.skipif(not (hasattr(os, "fork")
                             and os.path.isdir("/proc/self/task")),
                        reason="counts threads through /proc/self/task")
    def test_fork_beside_a_thread_is_recorded(self, forks_single_threaded):
        # the conftest check that fails every other test forking like this
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                os._exit(0)
            os.waitpid(pid, 0)
        finally:
            release.set()
            thread.join()
        assert forks_single_threaded == [2]
        forks_single_threaded.clear()

    def test_audit_ledger_bytes_at_any_worker_count(self, tmp_path,
                                                    zeta_catalog_60, capsys):
        zc.catalog_store(str(tmp_path / "cat.txt"), zeta_catalog_60)
        ledgers = set()
        for threads in ("1", "2", "3"):
            assert run(["audit", "--claims", self.CHEAP_CLAIMS,
                        "--threads", threads], tmp_path) == 0
            ledgers.add((tmp_path / "audit_ledger.json").read_bytes())
        assert len(ledgers) == 1

    def test_double_double_roots_bytes_at_one_and_two_workers(
            self, tmp_path, capsys):
        run(["census", "--t-max", "40"], tmp_path)
        tables = set()
        for threads in ("1", "2"):
            assert run(["filter-roots", "--e-max", "80", "--precision",
                        "double_double", "--threads", threads], tmp_path) == 0
            tables.add((tmp_path / "filter_roots.csv").read_bytes())
        assert len(tables) == 1
        assert b"over 6 roots" in tables.pop()

    def test_one_worker_builds_no_pool(self, tmp_path, zeta_catalog_60,
                                       capsys, monkeypatch):
        zc.catalog_store(str(tmp_path / "cat.txt"), zeta_catalog_60)
        monkeypatch.setattr(os, "fork", _never_forked)
        assert run(["audit", "--claims", self.CHEAP_CLAIMS,
                    "--threads", "1"], tmp_path) == 0
        assert run(["filter-roots", "--e-max", "45", "--precision",
                    "double_double", "--threads", "1"], tmp_path) == 0
        with pytest.raises(AssertionError, match="forked"):
            run(["audit", "--claims", self.CHEAP_CLAIMS, "--threads", "2"],
                tmp_path)

    @pytest.mark.parametrize("workers", [2, 5])
    def test_more_indices_than_a_pipe_holds(self, workers):
        # 80 KB of 4-byte indices: written before any child could read
        # them, they would fill a 64 KiB pipe and block the parent; each
        # index is taken once, also by more workers than cores
        items = list(range(20_000))
        assert fanout.fan_out(operator.neg, items, workers) == \
            [-i for i in items]
        _assert_no_child_left()

    def test_killed_worker_raises_oserror(self):
        with pytest.raises(OSError, match=r"^worker \d+ sent no results "
                                          r"\(exit status -9\)$"):
            fanout.fan_out(_kill_own_worker, ["kill", "ok", "ok"], 2)
        _assert_no_child_left()

    def test_killed_worker_exits_4(self, tmp_path, zeta_catalog_60, capsys,
                                   monkeypatch):
        zc.catalog_store(str(tmp_path / "cat.txt"), zeta_catalog_60)
        monkeypatch.setattr(cl, "run_claim",
                            lambda config, catalog, claim_id:
                            _kill_own_worker("kill"))
        assert run(["audit", "--claims", self.CHEAP_CLAIMS, "--threads", "2"],
                   tmp_path) == 4
        assert re.fullmatch(r"error: I/O failure: worker \d+ sent no results "
                            r"\(exit status -9\)\n", capsys.readouterr().err)
        assert not (tmp_path / "audit_ledger.json").exists()
        _assert_no_child_left()

    def test_other_exception_raised_as_the_serial_loop_raises_it(
            self, tmp_path):
        items = [1, 0, -2, 3, -4]
        with pytest.raises(ValueError) as serial:
            [_negative_fails(x) for x in items]
        with pytest.raises(ValueError) as forked:
            fanout.fan_out(_negative_fails, items, 3)
        # the caller's code after fan_out runs in this process only: a
        # worker that returned into it would log its pid here, then end
        with open(tmp_path / "after.log", "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        if os.getpid() != _TEST_PROCESS:
            os._exit(0)
        assert (tmp_path / "after.log").read_text() == f"{_TEST_PROCESS}\n"
        assert type(forked.value) is ValueError
        assert str(forked.value) == str(serial.value) == "negative task -2"
        _assert_no_child_left()


def _env_importing_this_mbzero():
    src = str(Path(mbzero.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_cli_import_leaves_mpmath_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, mbzero.cli; print('mpmath' in sys.modules)"],
        capture_output=True, text=True, env=_env_importing_this_mbzero(),
        timeout=120, check=True)
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_process_pools_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, mbzero.cli; print(sorted({'concurrent.futures', "
         "'multiprocessing'} & set(sys.modules)))"],
        capture_output=True, text=True, env=_env_importing_this_mbzero(),
        timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_forking_commands_leave_process_pools_unloaded(tmp_path):
    # audit and double-double filter-roots on 2 workers, in one fresh
    # process: the fan-out forks with no process-pool module
    script = f"""
import contextlib, io, sys
from mbzero import cli
paths = ["--cache", {str(tmp_path / "cat.txt")!r}]
out = paths + ["--out", {str(tmp_path)!r}]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["census", "--t-max", "40"] + paths),
             cli.main(["audit", "--claims", {TestWorkerProcesses.CHEAP_CLAIMS!r},
                       "--threads", "2"] + out),
             cli.main(["filter-roots", "--e-max", "80", "--precision",
                       "double_double", "--threads", "2"] + out)]
print(codes, sorted({{"concurrent.futures", "multiprocessing"}}
                    & set(sys.modules)))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_env_importing_this_mbzero(),
                          timeout=300, check=True)
    assert proc.stdout.strip() == "[0, 0, 0] []"


class TestModulesLoaded:
    """Each subcommand, in a fresh interpreter, imports only the mbzero
    modules it runs: a cold start compiles every module it imports, and
    `cache`, --help and a rejected command line import no numpy."""

    BASE = {"mbzero", "mbzero.cli", "mbzero.zerocensus", "mbzero.audit",
            "mbzero.errors", "mbzero.fanout"}
    COMPUTE = BASE | {"mbzero.specfun", "numpy"}
    ALL = COMPUTE | {"mbzero.claims", "mbzero.mbfilter", "mbzero.bessel",
                     "mbzero.operatorlab", "mbzero.quadrature",
                     "mbzero.spectrostats"}

    @pytest.mark.parametrize("argv, code, loaded", [
        (["cache"], 0, BASE),
        (["--help"], 0, BASE),
        (["cache", "--bogus"], 5, BASE),
        (["filter-roots", "--a", "2"], 5, BASE),
        (["census", "--t-max", "30", "--threads", "1"], 0, COMPUTE),
        (["stats"], 0, COMPUTE | {"mbzero.spectrostats"}),
        (["filter-roots", "--e-max", "60", "--threads", "1"], 0,
         COMPUTE | {"mbzero.mbfilter", "mbzero.quadrature"}),
        (["bijection", "--e-max", "60"], 0,
         COMPUTE | {"mbzero.mbfilter", "mbzero.quadrature"}),
        (["audit", "--claims", TestWorkerProcesses.CHEAP_CLAIMS,
          "--threads", "1"], 0, ALL),
    ], ids=["cache", "help", "unknown-flag", "out-of-range", "census",
            "stats", "filter-roots", "bijection", "audit"])
    def test_subcommand_loads(self, argv, code, loaded, tmp_path,
                              zeta_catalog_110):
        zc.catalog_store(str(tmp_path / "zeta.txt"), zeta_catalog_110)
        if argv[0] in cli._COMMANDS:
            cache = "census.txt" if argv[0] == "census" else "zeta.txt"
            out = ["--out", "."] if argv[0] in cli._FLAGS["--out"][0] else []
            argv = argv + out + ["--cache", cache]
        script = f"""
import contextlib, io, sys
from mbzero import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
print(code, sorted(k for k in sys.modules
                   if k == "numpy" or k.split(".")[0] == "mbzero"))
"""
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, cwd=tmp_path,
                              env=_env_importing_this_mbzero(), timeout=120,
                              check=True)
        assert proc.stdout.strip() == f"{code} {sorted(loaded)}", proc.stderr

    def test_census_without_cli_same_records(self):
        # zerocensus imports numpy and specfun inside its functions, so a
        # direct call must find them with no cli import before it
        script = """
import sys
from mbzero import zerocensus as zc
records = zc.scan_zeros("beta", 17.0)
print("mbzero.cli" in sys.modules, repr(records))
"""
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True,
                              env=_env_importing_this_mbzero(), timeout=120,
                              check=True)
        assert proc.stdout.strip() == \
            f"False {zc.scan_zeros('beta', 17.0)!r}", proc.stderr

    def test_repeated_filter_roots_in_process_same_bytes(
            self, tmp_path, zeta_catalog_110, capsys):
        zc.catalog_store(str(tmp_path / "cat.txt"), zeta_catalog_110)
        outputs = []
        for _ in range(2):
            assert run(["filter-roots", "--e-max", "120", "--threads", "1"],
                       tmp_path) == 0
            outputs.append((capsys.readouterr().out,
                            (tmp_path / "filter_roots.csv").read_bytes()))
        assert outputs[0] == outputs[1]


def _fail_if_called(*args, **kwargs):
    raise AssertionError("work started before the output check")


class TestUnwritableOutput:
    def test_filter_roots_missing_out_dir_exit_4(self, tmp_path, capsys):
        run(["census", "--function", "beta", "--t-max", "17"], tmp_path)
        code = cli.main(["filter-roots", "--function", "beta", "--e-max", "14",
                         "--out", str(tmp_path / "missing"),
                         "--cache", str(tmp_path / "cat.txt")])
        assert code == 4
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("command, work", [
        (["audit"], (cl, "run_claim")),
        (["filter-roots", "--precision", "double_double"],
         (mbf, "newton_root_dd")),
        (["stats"], (st, "unfold")),
    ])
    def test_out_checked_before_work(self, command, work, tmp_path,
                                     zeta_catalog_60, capsys, monkeypatch):
        zc.catalog_store(str(tmp_path / "cat.txt"), zeta_catalog_60)
        monkeypatch.setattr(*work, _fail_if_called)
        code = cli.main(command + ["--out", str(tmp_path / "missing"),
                                   "--cache", str(tmp_path / "cat.txt")])
        assert code == 4
        assert "is not a directory" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cat.txt"]


class TestIOErrorsExit4:
    def test_census_cache_in_missing_dir(self, tmp_path, capsys):
        code = cli.main(["census", "--t-max", "20",
                         "--cache", str(tmp_path / "nodir" / "z.txt")])
        assert code == 4
        assert "I/O failure" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_census_cache_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "cat.txt").mkdir()
        assert run(["census", "--t-max", "20"], tmp_path) == 4
        assert [p.name for p in tmp_path.iterdir()] == ["cat.txt"]

    @pytest.mark.parametrize("command", ["stats", "cache", "audit",
                                         "bijection", "filter-roots"])
    def test_cache_is_a_directory(self, command, tmp_path, capsys):
        (tmp_path / "cat.txt").mkdir()
        assert run([command], tmp_path) == 4
        assert "Traceback" not in capsys.readouterr().err


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["census", "--t-max", "abc"],
        ["nonsense"],
        [],
        ["census", "--function", "gamma"],
        ["census", "--bogus-flag"],
    ])
    def test_usage_error_exit_5(self, argv, capsys):
        assert cli.main(argv) == 5
        assert "usage:" in capsys.readouterr().err

    def test_help_exit_0(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "exit codes" in capsys.readouterr().out
        assert cli.main(["census", "--help"]) == 0


# one value each flag accepts
_VALID = {"--function": "zeta", "--t-max": "30", "--e-max": "30", "--a": "0.2",
          "--precision": "double", "--threads": "1", "--out": ".",
          "--cache": "cat.txt", "--claims": "trace_class_p2"}
# a dropped flag, with a value it took: every command rejects it
_DROPPED = {"--abscissa": "0.75"}


def _unique_prefixes(command, flag):
    """The prefixes of flag, past "--", that no other flag of the command
    starts with: argparse's allow_abbrev would read each as the flag."""
    others = [f for f, (commands, _, _) in cli._FLAGS.items()
              if command in commands and f != flag]
    return [flag[:end] for end in range(3, len(flag))
            if not any(f.startswith(flag[:end]) for f in others)]


class TestFlagTable:
    def test_twenty_four_pairs(self):
        assert sum(len(commands) for commands, _, _ in cli._FLAGS.values()) \
            == 24
        assert set(cli._FLAGS) == set(_VALID)

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_help_lists_only_the_table_rows(self, command, capsys):
        assert cli.main([command, "--help"]) == 0
        listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert listed - {"--help"} == {
            flag for flag, (commands, _, _) in cli._FLAGS.items()
            if command in commands}

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command in sorted(cli._COMMANDS)
        for flag in [*cli._FLAGS, *_DROPPED]
        if command not in cli._FLAGS.get(flag, ((),))[0]])
    def test_flag_outside_the_table_exit_5(self, command, flag, tmp_path,
                                           capsys, monkeypatch):
        monkeypatch.setattr(zc, "catalog_load", _fail_if_called)
        monkeypatch.setattr(zc, "scan_zeros", _fail_if_called)
        monkeypatch.chdir(tmp_path)
        assert cli.main([command, flag, {**_VALID, **_DROPPED}[flag]]) == 5
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command in sorted(cli._COMMANDS)
        for flag in cli._FLAGS if _unique_prefixes(command, flag)])
    def test_unique_prefix_exit_5(self, command, flag, tmp_path, capsys,
                                  monkeypatch):
        # each flag has one spelling
        monkeypatch.setattr(zc, "catalog_load", _fail_if_called)
        monkeypatch.setattr(zc, "scan_zeros", _fail_if_called)
        monkeypatch.chdir(tmp_path)
        for prefix in _unique_prefixes(command, flag):
            assert cli.main([command, prefix, _VALID[flag]]) == 5
            assert f"unrecognized arguments: {prefix} " \
                in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestConfigValidation:
    def test_bad_t_max(self, tmp_path, capsys):
        assert run(["census", "--t-max", "500"], tmp_path) == 5

    def test_bad_scale(self, tmp_path, capsys):
        assert run(["bijection", "--a", "1.5"], tmp_path) == 5
        assert "--a must be in (0, 1)" in capsys.readouterr().err

    def test_bad_threads(self, tmp_path, capsys):
        assert run(["census", "--threads", "0"], tmp_path) == 5

    @pytest.mark.parametrize("threads", ["65", "1000000000"])
    def test_threads_above_bound(self, threads, tmp_path, capsys,
                                 monkeypatch):
        # the bound is checked before any work starts
        monkeypatch.setattr(zc, "scan_zeros", _fail_if_called)
        assert run(["census", "--threads", threads], tmp_path) == 5
        assert "[1, 64]" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


# every library error class and the exit code it carries to main
_CLASS_CODES = {
    "MbzeroError": 5, "ArgumentDomain": 5, "MissedZeroSuspected": 2,
    "NoConvergence": 3, "CatalogError": 4,
}


def _raiser(name):
    def fail(*args, **kwargs):
        raise getattr(errors, name)(f"{name} raised for the test")
    return fail


def _load_blob(blob):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "cat.txt")
        with open(path, "wb") as fh:
            fh.write(blob)
        zc.catalog_load(path)


def _miss_a_zero():
    with mock.patch.object(zc, "counting_prediction", lambda f, t: 99.0):
        zc.scan_zeros("zeta", 30.0)


def _stalled_arg_walk():
    # zeta with its sign flipped right of Re s = 1.3: no split of the leg
    # step across it unwraps
    with mock.patch.object(sf, "_em_core", oc.em_core_flipped_at(3.7)):
        sf.arg_rectangles("zeta", [3.7])


_V2_BODY = b"#zerocatalog v2 zeta\n"
_A02 = mbf.KernelScale(0.2)

# each failure mode that had an error class of its own before errors.py
# kept one class per exit code, raised at a real site of the library:
# name -> (the exit code it carries, the call that raises it)
_FAILURES = {
    "MbzeroError": (5, _raiser("MbzeroError")),
    "ArgumentDomain": (5, lambda: bs.bessel_I(0.5, 0.0)),
    "NonFiniteInput": (5, lambda: sf.log_gamma(complex(math.nan, 0.0))),
    "PoleProximity": (5, lambda: sf.gamma(-3.0)),
    "LimitTooLarge": (5, lambda: sf.von_mangoldt_table(60_000_000)),
    "SeriesOverflow": (5, lambda: bs.bessel_I(0.5, 31.0)),
    "ContourOnPole": (5, lambda: mbf.mb_integral(5.0, _A02, mbf.ContourSpec(
        abscissa=0.5 + 1e-8, t_max=40, panel_count=100))),
    "PoleInStrip": (5, lambda: mbf.contour_shift_delta(10.0, _A02, 0.45,
                                                       0.70)),
    "WindowTooSparse": (5, lambda: st.unfold([])),
    "ConfigError": (5, lambda: cli.cmd_bijection(
        argparse.Namespace(e_max=3.9))),
    "MissedZeroSuspected": (2, _miss_a_zero),
    "NoConvergence": (3, lambda: mbf._check_residuals("zeta", [60.0])),
    "BranchJump": (3, _stalled_arg_walk),
    "BasinEscape": (3, lambda: mbf.newton_filter_root("beta", 1.0, _A02)),
    "TailBoundViolated": (3, lambda: mbf.mb_integral(
        30.0, _A02, mbf.ContourSpec(abscissa=0.75, t_max=2.0,
                                    panel_count=10))),
    "QuadratureNonConvergence": (3, lambda: bs.bessel_K(complex(1.5, 2.0),
                                                        0.1, 1e-16)),
    "StepUnderflow": (3, lambda: quadrature.rk_adaptive(
        lambda x, y: 1.0 / (1.0 - x), 0.0, 0.0, 2.0)),
    "SeriesDivergent": (3, lambda: st.fredholm_audit(3.0, 0.9)),
    "IncompleteCatalog": (5, lambda: zc.require_complete([], 60.0)),
    "ChecksumMismatch": (4, lambda: _load_blob(
        b"#zerocatalog v1 zeta\n#sha256 " + b"0" * 64 + b"\n")),
    "VersionUnsupported": (4, lambda: _load_blob(
        _V2_BODY + b"#sha256 "
        + hashlib.sha256(_V2_BODY).hexdigest().encode() + b"\n")),
}
_COMPUTATION_FAILURES = sorted(n for n, (c, _) in _FAILURES.items()
                               if c == 3)


def _fail(failure):
    _FAILURES[failure][1]()


class TestExitCodeMapping:
    def test_every_class_carries_its_code(self):
        classes = {name: cls for name, cls in vars(errors).items()
                   if isinstance(cls, type)
                   and issubclass(cls, errors.MbzeroError)}
        assert {name: cls.exit_code for name, cls in classes.items()} == \
            _CLASS_CODES

    @pytest.mark.parametrize("failure", sorted(_FAILURES))
    def test_error_survives_the_process_boundary(self, failure):
        # worker processes send their errors back pickled
        with pytest.raises(errors.MbzeroError) as here:
            _fail(failure)
        with pytest.raises(errors.MbzeroError) as there:
            fanout.fan_out(_fail, [failure, failure], 2)
        assert type(there.value) is type(here.value)
        assert str(there.value) == str(here.value)
        assert there.value.exit_code == _FAILURES[failure][0]

    def test_missed_zero_exit_2(self, tmp_path, capsys, monkeypatch):
        # three zeros below 30: the widest gap runs from the grid start
        # to the first one
        monkeypatch.setattr(zc, "counting_prediction", lambda f, t: 99.0)
        assert run(["census", "--t-max", "30"], tmp_path) == 2
        assert "suspect interval (0.5, 14.1347251417" in \
            capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("failure", _COMPUTATION_FAILURES)
    def test_computation_failure_exit_3(self, failure, tmp_path, capsys,
                                        monkeypatch):
        with pytest.raises(errors.NoConvergence) as here:
            _fail(failure)
        monkeypatch.setattr(zc, "scan_zeros", lambda *args: _fail(failure))
        assert run(["census", "--t-max", "30"], tmp_path) == 3
        assert capsys.readouterr().err == f"error: {here.value}\n"

    def test_quadrature_failure_inside_filter_roots_exit_3(
            self, tmp_path, zeta_catalog_60, capsys, monkeypatch):
        zc.catalog_store(str(tmp_path / "cat.txt"), zeta_catalog_60)
        monkeypatch.setattr(mbf, "_filter_with_derivative",
                            _raiser("NoConvergence"))
        assert run(["filter-roots", "--e-max", "40"], tmp_path) == 3
        assert [p.name for p in tmp_path.iterdir()] == ["cat.txt"]

    @pytest.mark.parametrize("command", ["stats", "cache", "audit",
                                         "bijection", "filter-roots"])
    def test_missing_catalog_names_census(self, command, tmp_path, capsys):
        assert run([command], tmp_path) == 4
        assert "run `mbzero census` first" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestBijectionEnergyBound:
    @pytest.mark.parametrize("e_max", ["3.9", "1e-300"])
    def test_below_four_exit_5(self, e_max, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(zc, "catalog_load", _fail_if_called)
        assert run(["bijection", "--e-max", e_max], tmp_path) == 5
        err = capsys.readouterr().err
        assert "--e-max" in err and ">= 4" in err

    def test_four_accepted(self, tmp_path, capsys):
        run(["census", "--t-max", "32"], tmp_path)
        assert run(["bijection", "--e-max", "4"], tmp_path) == 0
        assert "verdict: pass" in capsys.readouterr().out


@pytest.mark.parametrize("argv, code", [
    (["census", "--t-max", "500"], 5),
    (["cache", "--cache", "missing.txt"], 4),
])
def test_exit_code_of_real_process(argv, code, tmp_path):
    proc = subprocess.run([sys.executable, "-m", "mbzero.cli"] + argv,
                          capture_output=True, text=True,
                          env=_env_importing_this_mbzero(), cwd=tmp_path,
                          timeout=120)
    assert proc.returncode == code
    assert proc.stderr.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


_EDGE_NUMBERS = ("nan", "inf", "-inf", "-2.5", "1e308", "5e-324", "0")


def _floats(lo, hi):
    return hst.floats(lo, hi).map(repr)


# flag -> (values inside the documented range, edge values mostly outside)
_VALUES = {
    "--function": (hst.sampled_from(["zeta", "beta"]), hst.just("gamma")),
    "--t-max": (_floats(1.0, 40.0), hst.sampled_from(_EDGE_NUMBERS)),
    "--e-max": (_floats(4.0, 60.0),
                hst.sampled_from(_EDGE_NUMBERS + ("3.9",))),
    "--a": (_floats(0.01, 0.99),
            hst.sampled_from(_EDGE_NUMBERS + ("1", "0.9999999999999999"))),
    "--precision": (hst.sampled_from(["double", "double_double"]),
                    hst.just("quad")),
    "--threads": (hst.sampled_from(["1", "2"]),
                  hst.sampled_from(["0", "-1", "65", "nan"])),
    "--claims": (hst.sampled_from(["mb_double_pole_circle",
                                   "trace_class_p2,fredholm_z0.4"]),
                 hst.sampled_from(["", ",", "nonsense"])),
}


def _snapshot(directory):
    return {p.relative_to(directory): p.read_bytes() if p.is_file() else None
            for p in sorted(directory.rglob("*"))}


def _make_cache(kind, path, catalogs, data):
    if kind in catalogs:
        path.write_bytes(catalogs[kind])
    elif kind == "directory":
        path.mkdir()
    elif kind == "one_byte_changed":
        blob = bytearray(catalogs["zeta"])
        position = data.draw(hst.integers(0, len(blob) - 1))
        blob[position] = data.draw(hst.integers(0, 255).filter(
            lambda b: b != blob[position]))
        path.write_bytes(bytes(blob))
    elif kind == "header_only":
        _write_checksummed_catalog(path)
    elif kind == "malformed":
        _write_checksummed_catalog(path, data.draw(
            hst.sampled_from(sorted(MALFORMED_RECORDS.values()))))


class TestArgvGrammarProperty:
    @settings(max_examples=200, deadline=None)
    @given(hst.data())
    def test_exit_code_documented_and_failures_write_nothing(
            self, tmp_path_factory, zeta_catalog_60, zeta_catalog_110,
            beta_catalog, data):
        directory = tmp_path_factory.mktemp("argv")
        cache = directory / "cat.txt"
        catalogs = {"zeta": zc.catalog_serialize(zeta_catalog_60),
                    "zeta_110": zc.catalog_serialize(zeta_catalog_110),
                    "beta": zc.catalog_serialize(beta_catalog)}
        kind = data.draw(hst.sampled_from(
            ["zeta", "zeta", "zeta", "zeta_110", "zeta_110", "beta",
             "missing", "directory", "one_byte_changed", "header_only",
             "malformed"]))
        _make_cache(kind, cache, catalogs, data)
        out = {"dir": directory, "missing": directory / "nodir",
               "file": cache}[data.draw(hst.sampled_from(
                   ["dir", "dir", "missing", "file"]))]
        command = data.draw(hst.sampled_from(sorted(cli._COMMANDS)))
        accepted = [flag for flag, (commands, _, _) in cli._FLAGS.items()
                    if command in commands]
        drawable = sorted(set(accepted) & set(_VALUES))
        flags = data.draw(hst.lists(hst.sampled_from(drawable), unique=True)
                          if drawable else hst.just([]))
        # the 110 catalog holds 33 zeros, so a full audit (no --claims)
        # would take seconds an example; every edge --claims value, the
        # empty list included, exits 5 before any claim runs
        if command == "audit" and kind == "zeta_110" \
                and "--claims" not in flags:
            flags.append("--claims")
        # half the argv hold one edge value, the rest none
        edge = data.draw(hst.none() | hst.sampled_from(flags)) \
            if flags else None
        argv = [command]
        for flag in flags:
            inside, outside = _VALUES[flag]
            argv += [flag, data.draw(outside if flag == edge else inside)]
        if "--out" in accepted:
            argv += ["--out", str(out)]
        argv += ["--cache", str(cache)]
        # a quarter of the argv hold one flag that the command does not take
        foreign = data.draw(hst.sampled_from(
            sorted(set(cli._FLAGS) - set(accepted)))) \
            if data.draw(hst.integers(0, 3)) == 0 else None
        if foreign:
            argv += [foreign, str(directory) if foreign == "--out"
                     else data.draw(_VALUES[foreign][0])]
        before = _snapshot(directory)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr), \
                mock.patch.object(zc, "catalog_load",
                                  wraps=zc.catalog_load) as load:
            code = cli.main(argv)
        event(f"{command} exit {code}" + (" foreign flag" if foreign else ""))
        assert code in (0, 2, 3, 4, 5, 6)
        assert "Traceback" not in stderr.getvalue()
        if code != 0:
            assert _snapshot(directory) == before
        if foreign:
            assert code == 5 and not load.called

    @pytest.mark.parametrize("argv, written", [
        (["filter-roots", "--precision", "double"], ["filter_roots.csv"]),
        (["filter-roots", "--precision", "double_double", "--threads", "2"],
         ["filter_roots.csv"]),
        (["stats"], ["pair_correlation.csv", "plots.gp",
                     "spacing_histogram.csv"]),
        (["audit", "--claims", "mb_double_pole_circle,trace_class_p2",
          "--threads", "2"], ["audit_ledger.json"]),
    ])
    def test_success_writes_the_documented_files(
            self, argv, written, tmp_path, zeta_catalog_110, capsys):
        zc.catalog_store(str(tmp_path / "cat.txt"), zeta_catalog_110)
        assert run(argv, tmp_path) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            sorted(["cat.txt"] + written)
