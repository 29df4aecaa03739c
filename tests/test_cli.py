import contextlib
import hashlib
import io
import json
import os
import pickle
import re
import subprocess
import sys
import threading
import time
import warnings
from concurrent import futures
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as hst

import mbzero
from mbzero import cli, errors
from mbzero import mbfilter as mbf
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


class TestFilterRootsCommand:
    def test_beta_roots_csv(self, tmp_path, capsys):
        run(["census", "--function", "beta", "--t-max", "17"], tmp_path)
        code = run(["filter-roots", "--function", "beta", "--e-max", "34"],
                   tmp_path)
        assert code == 0
        rows = [ln for ln in (tmp_path / "filter_roots.csv").read_text()
                .splitlines() if ln and not ln.startswith("#")
                and not ln.startswith("E_root")]
        assert len(rows) == 4
        for row in rows:
            assert float(row.split(",")[2]) < 1e-8

    def test_negative_exponent_abscissa(self, tmp_path, capsys):
        # argparse's default pattern reads "-1e-3" as an option name
        run(["census", "--t-max", "32"], tmp_path)
        written = []
        for argv in (["--abscissa", "-1e-3"], ["--abscissa=-1e-3"]):
            assert run(["filter-roots"] + argv, tmp_path) == 0
            written.append((tmp_path / "filter_roots.csv").read_bytes())
        assert written[0] == written[1]
        assert b" g=-0.001 " in written[0]

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
        monkeypatch.setattr(cli.cl, "run_claim", _fail_if_called)
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


def _pause_or_fail(task):
    """A fan-out task: sleep, then raise the named error, if any."""
    seconds, error = task
    time.sleep(seconds)
    if error:
        raise getattr(errors, error)(f"{error} from a worker")
    return seconds


def _never_constructed(*args, **kwargs):
    raise AssertionError("ProcessPoolExecutor constructed")


class TestWorkerProcesses:
    CHEAP_CLAIMS = ("gamma_reflection,mb_double_pole_circle,trace_class_p2,"
                    "fredholm_z0.4")

    def test_results_in_input_order(self):
        tasks = [(0.2, None), (0.0, None), (0.1, None)]
        assert cli._fan_out(_pause_or_fail, tasks, 3) == [0.2, 0.0, 0.1]

    def test_first_failure_in_input_order_is_raised(self):
        # the later task fails first in time
        tasks = [(0.0, None), (0.3, "NoConvergence"), (0.0, "BasinEscape")]
        with pytest.raises(errors.NoConvergence, match="from a worker"):
            cli._fan_out(_pause_or_fail, tasks, 3)

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                        reason="counts threads through /proc/self/stat")
    def test_back_to_back_pools_fork_single_threaded(self):
        # /proc/self/stat field 20 is the OS thread count that Python 3.12+
        # checks at fork; the warm-up fan-out also lets OpenBLAS shut its
        # thread pool down, as it does at a process's first fork
        def os_threads():
            with open("/proc/self/stat", "rb") as fh:
                return int(fh.read().rsplit(b")", 1)[1].split()[17])

        tasks = [(0.0, None)] * 2
        cli._fan_out(_pause_or_fail, tasks, 2)
        counts = []
        os.register_at_fork(before=lambda: counts.append(os_threads()))
        for _ in range(20):
            assert cli._fan_out(_pause_or_fail, tasks, 2) == [0.0, 0.0]
        assert len(counts) >= 40
        assert set(counts) == {1}

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
        monkeypatch.setattr(futures, "ProcessPoolExecutor", _never_constructed)
        assert run(["audit", "--claims", self.CHEAP_CLAIMS,
                    "--threads", "1"], tmp_path) == 0
        assert run(["filter-roots", "--e-max", "45", "--precision",
                    "double_double", "--threads", "1"], tmp_path) == 0
        with pytest.raises(AssertionError, match="constructed"):
            run(["audit", "--claims", self.CHEAP_CLAIMS, "--threads", "2"],
                tmp_path)


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
        (["audit"], (cli.cl, "run_claim")),
        (["filter-roots", "--precision", "double_double"],
         (cli.mbf, "newton_root_dd")),
        (["stats"], (cli.st, "unfold")),
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
          "--abscissa": "0.75", "--precision": "double", "--threads": "1",
          "--out": ".", "--cache": "cat.txt", "--claims": "trace_class_p2"}


class TestFlagTable:
    def test_twenty_five_pairs(self):
        assert sum(len(commands) for commands, _, _ in cli._FLAGS.values()) \
            == 25
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
        for flag, (commands, _, _) in cli._FLAGS.items()
        if command not in commands])
    def test_flag_outside_the_table_exit_5(self, command, flag, tmp_path,
                                           capsys, monkeypatch):
        monkeypatch.setattr(zc, "catalog_load", _fail_if_called)
        monkeypatch.setattr(zc, "scan_zeros", _fail_if_called)
        monkeypatch.chdir(tmp_path)
        assert cli.main([command, flag, _VALID[flag]]) == 5
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
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
    "MbzeroError": 5, "NonFiniteInput": 5, "PoleProximity": 5,
    "LimitTooLarge": 5, "ArgumentDomain": 5, "SeriesOverflow": 5,
    "ContourOnPole": 5, "PoleInStrip": 5, "WindowTooSparse": 5,
    "ConfigError": 5,
    "MissedZeroSuspected": 2,
    "BranchJump": 3, "QuadratureNonConvergence": 3, "TailBoundViolated": 3,
    "NoConvergence": 3, "BasinEscape": 3, "SeriesDivergent": 3,
    "StepUnderflow": 3,
    "IncompleteCatalog": 4, "ChecksumMismatch": 4, "VersionUnsupported": 4,
}
_COMPUTATION_FAILURES = sorted(n for n, c in _CLASS_CODES.items() if c == 3)


def _raiser(name):
    def fail(*args, **kwargs):
        raise getattr(errors, name)(f"{name} raised for the test")
    return fail


class TestExitCodeMapping:
    def test_every_class_carries_its_code(self):
        classes = {name: cls for name, cls in vars(errors).items()
                   if isinstance(cls, type)
                   and issubclass(cls, errors.MbzeroError)}
        assert {name: cls.exit_code for name, cls in classes.items()} == \
            _CLASS_CODES

    @pytest.mark.parametrize("name", sorted(_CLASS_CODES))
    def test_error_survives_the_process_boundary(self, name):
        # worker processes send their errors back pickled
        cls = getattr(errors, name)
        exc = cls(f"{name} message", pole=-0.5) if cls is errors.PoleInStrip \
            else cls(f"{name} message")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == f"{name} message"
        assert back.exit_code == _CLASS_CODES[name]
        assert getattr(back, "pole", None) == getattr(exc, "pole", None)

    def test_missed_zero_exit_2(self, tmp_path, capsys, monkeypatch):
        # three zeros below 30: the widest gap runs from the grid start
        # to the first one
        monkeypatch.setattr(zc, "counting_prediction", lambda f, t: 99.0)
        assert run(["census", "--t-max", "30"], tmp_path) == 2
        assert "suspect interval (0.5, 14.1347251417" in \
            capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", _COMPUTATION_FAILURES)
    def test_computation_failure_exit_3(self, name, tmp_path, capsys,
                                        monkeypatch):
        monkeypatch.setattr(zc, "scan_zeros", _raiser(name))
        assert run(["census", "--t-max", "30"], tmp_path) == 3
        assert f"{name} raised" in capsys.readouterr().err

    def test_quadrature_failure_inside_filter_roots_exit_3(
            self, tmp_path, zeta_catalog_60, capsys, monkeypatch):
        zc.catalog_store(str(tmp_path / "cat.txt"), zeta_catalog_60)
        monkeypatch.setattr(mbf, "_filter_with_derivative",
                            _raiser("QuadratureNonConvergence"))
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
    "--abscissa": (_floats(-7.9, 7.9), hst.sampled_from(_EDGE_NUMBERS)),
    "--precision": (hst.sampled_from(["double", "double_double"]),
                    hst.just("quad")),
    "--threads": (hst.sampled_from(["1", "2"]),
                  hst.sampled_from(["0", "-1", "65", "nan"])),
    "--claims": (hst.sampled_from(["mb_double_pole_circle",
                                   "trace_class_p2,fredholm_z0.4"]),
                 hst.sampled_from(["", "nonsense"])),
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
            self, tmp_path_factory, zeta_catalog_60, beta_catalog, data):
        directory = tmp_path_factory.mktemp("argv")
        cache = directory / "cat.txt"
        catalogs = {"zeta": zc.catalog_serialize(zeta_catalog_60),
                    "beta": zc.catalog_serialize(beta_catalog)}
        _make_cache(data.draw(hst.sampled_from(
            ["zeta", "zeta", "zeta", "beta", "missing", "directory",
             "one_byte_changed", "header_only", "malformed"])), cache,
            catalogs, data)
        out = {"dir": directory, "missing": directory / "nodir",
               "file": cache}[data.draw(hst.sampled_from(
                   ["dir", "dir", "missing", "file"]))]
        command = data.draw(hst.sampled_from(sorted(cli._COMMANDS)))
        accepted = [flag for flag, (commands, _, _) in cli._FLAGS.items()
                    if command in commands]
        drawable = sorted(set(accepted) & set(_VALUES))
        flags = data.draw(hst.lists(hst.sampled_from(drawable), unique=True)
                          if drawable else hst.just([]))
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
