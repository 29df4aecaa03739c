import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import oracles as oc
from mbzero import cli
from mbzero import mbfilter as mbf
from mbzero import specfun as sf
from mbzero import zerocensus as zc
from mbzero.errors import (
    ArgumentDomain,
    ChecksumMismatch,
    IncompleteCatalog,
    VersionUnsupported,
)


class TestScanZeros:
    def test_beta_first_four(self, beta_catalog):
        table = (6.0209489047, 10.243770304, 12.988098012, 16.342607105)
        assert len(beta_catalog) == 4
        for rec, want in zip(beta_catalog, table):
            assert abs(rec.ordinate - want) < 1e-9
            assert rec.residual < 1e-9

    def test_beta_against_high_precision_ordinates(self, beta_catalog):
        for rec, frozen in zip(beta_catalog, oc.BETA_ORDINATES):
            assert abs(rec.ordinate - float(frozen)) < 1e-11

    def test_zeta_below_fifteen(self):
        records = zc.scan_zeros("zeta", 15.0)
        assert len(records) == 1
        assert abs(records[0].ordinate - 14.1347251417) < 1e-9

    def test_zeta_against_high_precision_ordinates(self, zeta_catalog_full):
        # every ordinate to t = 200 against mpmath.zetazero (max 5.6e-12)
        assert len(zeta_catalog_full) == len(oc.ZETA_ORDINATES)
        for rec, frozen in zip(zeta_catalog_full, oc.ZETA_ORDINATES):
            assert abs(rec.ordinate - float(frozen)) < 1e-11

    def test_empty_below_first_zero(self):
        assert zc.scan_zeros("zeta", 10.0) == []
        assert zc.scan_zeros("beta", 5.0) == []

    def test_count_at_fifty(self, zeta_catalog_60):
        assert sum(1 for r in zeta_catalog_60 if r.ordinate <= 50.0) == 10

    def test_indices_strictly_increasing(self, zeta_catalog_60):
        for a, b in zip(zeta_catalog_60, zeta_catalog_60[1:]):
            assert a.ordinate < b.ordinate
            assert b.index == a.index + 1

    def test_threads_produce_identical_output(self, zeta_catalog_60,
                                              tmp_path, capsys):
        # --threads sizes the audit and double-double filter-roots pools;
        # the census scan is one vector evaluation at any value
        cache = tmp_path / "cat.txt"
        assert cli.main(["census", "--t-max", "60", "--threads", "4",
                         "--cache", str(cache)]) == 0
        assert cache.read_bytes() == zc.catalog_serialize(zeta_catalog_60)

    def test_ceiling_guard(self):
        with pytest.raises(ArgumentDomain):
            zc.scan_zeros("zeta", 250.0)

    def test_interlacing(self, zeta_catalog_60):
        # consecutive ordinates bracket exactly one sign change of Z
        for a, b in zip(zeta_catalog_60, zeta_catalog_60[1:]):
            lo, hi = a.ordinate + 1e-6, b.ordinate - 1e-6
            grid = np.linspace(lo, hi, 40)
            vals = [oc.hardy_Z(float(t)) for t in grid]
            flips = sum(1 for u, v in zip(vals, vals[1:]) if u * v < 0)
            assert flips == 0

    def test_simplicity_probe(self, zeta_catalog_60):
        for r in zeta_catalog_60:
            h = 1e-4
            dz = (oc.hardy_Z(r.ordinate + h) - oc.hardy_Z(r.ordinate - h)) / (2 * h)
            assert abs(dz) > 1e-6


# zeta census heights of the benchmark's seed variants
_BENCH_HEIGHTS = (200.0, 199.0, 198.5, 197.5, 199.5, 196.5, 196.0)


def _scalar_census(monkeypatch, function, t_max, **kwargs):
    """scan_zeros with every bracket bisected alone, one point a step."""
    with monkeypatch.context() as m:
        m.setattr(zc, "_refine_brackets", oc.refine_brackets_scalar)
        m.setattr(zc, "_critical_abs", oc.critical_abs_scalar)
        return zc.scan_zeros(function, t_max, **kwargs)


class TestLockstepRefinement:
    @pytest.mark.parametrize("t_max", _BENCH_HEIGHTS)
    def test_zeta_equals_scalar_bisection(self, t_max, monkeypatch):
        assert zc.scan_zeros("zeta", t_max) == \
            _scalar_census(monkeypatch, "zeta", t_max)

    def test_beta_equals_scalar_bisection(self, monkeypatch):
        assert zc.scan_zeros("beta", 60.0) == \
            _scalar_census(monkeypatch, "beta", 60.0)

    @pytest.mark.parametrize("function, t_max, step", [
        ("zeta", 200.0, 1.0), ("beta", 40.0, 2.0)])
    def test_step_halving_retry(self, function, t_max, step, monkeypatch):
        depths = []
        scan = zc.scan_zeros

        def counted(*args, **kwargs):
            depths.append(kwargs.get("_depth", 0))
            return scan(*args, **kwargs)

        monkeypatch.setattr(zc, "scan_zeros", counted)
        lockstep = zc.scan_zeros(function, t_max, step=step)
        assert depths == [0, 1]
        assert lockstep == _scalar_census(monkeypatch, function, t_max,
                                          step=step)

    def test_brackets_equal_one_at_a_time(self):
        brackets = [(14.1, 14.15), (0.6, 0.65), (21.0, 21.05), (25.0, 25.05)]
        assert zc._refine_brackets("zeta", brackets) == \
            oc.refine_brackets_scalar("zeta", brackets)
        assert zc._refine_brackets("zeta", []) == []


class TestScanGridValues:
    @settings(max_examples=20, deadline=None)
    @given(function=hst.sampled_from(["zeta", "beta"]),
           t_max=hst.floats(1.0, 200.0), data=hst.data())
    def test_grid_values_equal_scalar_rotation(self, function, t_max, data):
        # the first hardy_Z_vec call is the scan's whole grid
        calls = []
        vector = sf.hardy_Z_vec

        def recording(fn, t):
            values = vector(fn, t)
            calls.append((t, values))
            return values

        with mock.patch.object(sf, "hardy_Z_vec", recording):
            zc.scan_zeros(function, t_max)
        grid, values = calls[0]
        assert grid.min() == 0.5 and grid.max() == t_max
        scalar = oc.hardy_Z_for(function)
        for i in data.draw(hst.lists(hst.integers(0, len(grid) - 1),
                                     min_size=1, max_size=12)):
            assert values[i].hex() == scalar(float(grid[i])).hex()


class TestCatalogBytes:
    """The catalog files are a byte contract: pinned here at the heights
    of the benchmark's variant 0."""

    def test_zeta_200(self, zeta_catalog_full):
        blob = zc.catalog_serialize(zeta_catalog_full)
        assert hashlib.sha256(blob).hexdigest() == (
            "3ea12789cf626f9d671f4b28bb8fc0ff58ca7749fbcd55e6288b741eb922bbe5")

    def test_beta_17(self, beta_catalog):
        blob = zc.catalog_serialize(beta_catalog)
        assert hashlib.sha256(blob).hexdigest() == (
            "34d2479d3206c095d0ea8c6ee323f3fcd68373acd3f806ace69dba414b5d3a1f")


class TestRiemannVonMangoldt:
    def test_t20(self, zeta_catalog_60):
        rep = zc.riemann_von_mangoldt(20.0, zeta_catalog_60)
        assert rep.jump_count == 1
        assert abs(rep.total - 1.0) < 0.5

    def test_t50(self, zeta_catalog_60):
        rep = zc.riemann_von_mangoldt(50.0, zeta_catalog_60)
        assert rep.jump_count == 10
        assert abs(rep.total - 10.0) < 0.5

    def test_s_normalized_at_anchor(self, zeta_catalog_60):
        rep = zc.riemann_von_mangoldt(2.0, zeta_catalog_60)
        assert abs(rep.S_term) < 1e-12

    def test_jump_across_each_ordinate(self, zeta_catalog_60):
        for r in zeta_catalog_60[:6]:
            up = zc.riemann_von_mangoldt(r.ordinate + 1e-4, zeta_catalog_60)
            dn = zc.riemann_von_mangoldt(r.ordinate - 1e-4, zeta_catalog_60)
            assert up.jump_count - dn.jump_count == 1


class TestSBound:
    def test_endpoint_arithmetic(self):
        assert abs(zc.hmty_bound(math.e)
                   - (0.1038 + 0.2573 * 0.0 + 8.3675)) < 1e-12

    def test_bound_to_100(self):
        rep = zc.s_of_t_bound_check(100.0)
        assert rep.verdict == "pass"
        assert rep.lhs.real < 2.0  # empirically small next to the bound ~9

    def test_s_jumps_across_ordinate(self, zeta_catalog_60):
        t = zeta_catalog_60[2].ordinate
        jump = sf.s_of_t(t + 1e-4) - sf.s_of_t(t - 1e-4)
        assert abs(abs(jump) - 1.0) < 0.01


class TestGuinandWeil:
    def test_just_above_first_zero(self, zeta_catalog_60):
        e = 2.0 * zeta_catalog_60[0].ordinate + 0.1
        assert abs(zc.n_H_guinand_weil(e) - 1.0) < 0.5

    def test_below_first_root(self):
        assert abs(zc.n_H_guinand_weil(20.0)) < 0.5

    def test_above_second_zero(self, zeta_catalog_60):
        e = 2.0 * zeta_catalog_60[1].ordinate + 0.1
        assert abs(zc.n_H_guinand_weil(e) - 2.0) < 0.5


class TestBijection:
    def test_delta_zero_to_60(self, zeta_catalog_60):
        scale = mbf.KernelScale(0.2)
        roots = [mbf.newton_filter_root("zeta2s", 2.0 * r.ordinate + 0.05,
                                        scale)
                 for r in zeta_catalog_60 if 2.0 * r.ordinate <= 60.5]
        audit = zc.bijection_audit(zeta_catalog_60, roots, 60.0)
        assert audit.verdict == "pass"
        assert all(d == 0 for d in audit.delta_values)
        assert all(isinstance(d, int) for d in audit.delta_values)

    def test_empty_spectra_below_first_zero(self, zeta_catalog_60):
        audit = zc.bijection_audit(zeta_catalog_60, [], 20.0)
        assert audit.verdict == "pass"
        assert audit.N_H_values == audit.N_zeta_values

    def test_fault_injection(self, zeta_catalog_60):
        tampered = [r for r in zeta_catalog_60 if r.index != 2]
        roots = [2.0 * r.ordinate for r in tampered if 2.0 * r.ordinate <= 60.5]
        audit = zc.bijection_audit(tampered, roots, 60.0)
        e_fail = float(audit.verdict.split("=")[1])
        # pinpointed within the probe spacing of the removed ordinate 2 t_2
        assert 0.0 <= e_fail - 2.0 * 21.022039638771602 < 2.0

    def test_incomplete_catalog(self, zeta_catalog_60):
        with pytest.raises(IncompleteCatalog):
            zc.bijection_audit(zeta_catalog_60[:3], [], 120.0)


class TestCatalogPersistence:
    def test_round_trip(self, tmp_path, zeta_catalog_60):
        path = str(tmp_path / "cat.txt")
        zc.catalog_store(path, zeta_catalog_60)
        loaded = zc.catalog_load(path)
        assert loaded == zeta_catalog_60

    def test_serialization_bit_exact(self, zeta_catalog_60):
        blob1 = zc.catalog_serialize(zeta_catalog_60)
        blob2 = zc.catalog_serialize(zeta_catalog_60)
        assert blob1 == blob2

    def test_truncated_file(self, tmp_path, beta_catalog):
        path = str(tmp_path / "cat.txt")
        zc.catalog_store(path, beta_catalog)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(ChecksumMismatch):
            zc.catalog_load(path)

    def test_version_bump(self, tmp_path, beta_catalog):
        path = str(tmp_path / "cat.txt")
        blob = zc.catalog_serialize(beta_catalog).decode()
        body = blob[: blob.rindex("#sha256")]
        body = body.replace("#zerocatalog v1", "#zerocatalog v2", 1)
        import hashlib
        digest = hashlib.sha256(body.encode()).hexdigest()
        open(path, "w").write(body + f"#sha256 {digest}\n")
        with pytest.raises(VersionUnsupported):
            zc.catalog_load(path)

    @settings(max_examples=150, deadline=None)
    @given(hst.sampled_from(["zeta", "beta"]), hst.lists(hst.tuples(
        hst.integers(-10 ** 6, 10 ** 9),
        hst.floats(allow_nan=False, allow_infinity=False),
        hst.floats(0.0, zc.RESIDUAL_LIMIT, exclude_max=True),
        hst.sampled_from(["sign_scan", "newton_refine", "filter_root"])),
        min_size=1, max_size=30))
    def test_store_load_round_trip(self, tmp_path_factory, function, rows):
        records = [zc.ZeroRecord(index=i, ordinate=t, residual=r,
                                 function=function, method=m)
                   for i, t, r, m in rows]
        path = str(tmp_path_factory.mktemp("catalog") / "cat.txt")
        zc.catalog_store(path, records)
        loaded = zc.catalog_load(path)
        assert loaded == records
        assert zc.catalog_serialize(loaded) == zc.catalog_serialize(records)

    def test_empty_refused(self):
        with pytest.raises(ArgumentDomain):
            zc.catalog_serialize([])

    def test_header_only_catalog_is_incomplete(self, tmp_path):
        import hashlib
        path = tmp_path / "cat.txt"
        body = b"#zerocatalog v1 zeta\n"
        digest = hashlib.sha256(body).hexdigest().encode()
        path.write_bytes(body + b"#sha256 " + digest + b"\n")
        with pytest.raises(IncompleteCatalog):
            zc.catalog_load(str(path))

    @pytest.mark.parametrize("record", [
        "1\t14.134725141734695",                       # two fields
        "1\t14.134725141734695\tsmall\tsign_scan",     # non-numeric residual
        "1\t14.134725141734695\t0.001\tsign_scan",     # residual above 1e-8
    ])
    def test_malformed_record_names_its_line(self, tmp_path, record):
        import hashlib
        path = tmp_path / "cat.txt"
        good = "1\t14.134725141734695\t1e-15\tsign_scan\n"
        body = f"#zerocatalog v1 zeta\n{good}{record}\n".encode()
        digest = hashlib.sha256(body).hexdigest().encode()
        path.write_bytes(body + b"#sha256 " + digest + b"\n")
        with pytest.raises(VersionUnsupported, match="line 3"):
            zc.catalog_load(str(path))
