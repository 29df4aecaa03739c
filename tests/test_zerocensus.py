import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import oracles as oc
from mbzero import claims, cli
from mbzero import mbfilter as mbf
from mbzero import specfun as sf
from mbzero import zerocensus as zc
from mbzero.errors import ArgumentDomain, CatalogError, NoConvergence


class TestScanZeros:
    def test_beta_first_four(self, beta_catalog):
        table = (6.0209489047, 10.243770304, 12.988098012, 16.342607105)
        assert len(beta_catalog) == 4
        for rec, want in zip(beta_catalog, table):
            assert abs(rec.ordinate - want) < 1e-9
            assert rec.residual < 1e-9

    def test_beta_against_high_precision_ordinates(self):
        # every ordinate to t = 60 against mpmath.findroot (max 1.5e-12)
        records = zc.scan_zeros("beta", 60.0)
        assert len(records) == len(oc.BETA_ORDINATES)
        for rec, frozen in zip(records, oc.BETA_ORDINATES):
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

    def test_zeros_to_200_are_over_a_quarter_apart(self, zeta_catalog_full):
        # scan_zeros keeps one ordinate per bracket, with no dedupe: its
        # brackets are disjoint strict sign changes, and the closest zeros
        # (0.72 apart for zeta, 0.29 for beta) are far above 1e-9
        for catalog in (zeta_catalog_full, zc.scan_zeros("beta", 200.0)):
            assert np.min(np.diff([r.ordinate for r in catalog])) > 0.25

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
        # a scan to t = 60 is too small to fork for: one slice in process
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


def _cut(items, cuts):
    """items cut at the sorted distinct positions in cuts."""
    ends = [0, *sorted(set(cuts)), len(items)]
    return [items[lo:hi] for lo, hi in zip(ends[:-1], ends[1:])]


class TestSlicedScan:
    """The invariant the forked census rests on: every grid value and every
    bisected bracket is the same however the points are grouped."""

    @settings(max_examples=30, deadline=None)
    @given(function=hst.sampled_from(["zeta", "beta"]),
           ts=hst.lists(hst.floats(0.0, 200.0), min_size=1, max_size=40),
           cuts=hst.lists(hst.integers(0, 40), max_size=5))
    def test_grid_pieces_equal_one_call(self, function, ts, cuts):
        grid = np.sort(np.array(ts))
        whole = sf.hardy_Z_vec(function, grid)
        pieces = np.concatenate([sf.hardy_Z_vec(function, piece)
                                 for piece in _cut(grid, cuts)])
        assert [v.hex() for v in pieces.tolist()] == \
            [v.hex() for v in whole.tolist()]

    @settings(max_examples=15, deadline=None)
    @given(function=hst.sampled_from(["zeta", "beta"]),
           starts=hst.lists(hst.integers(1, 3990), min_size=1, max_size=8,
                            unique=True),
           cuts=hst.lists(hst.integers(0, 8), max_size=3))
    def test_bracket_splits_equal_one_call(self, function, starts, cuts):
        # brackets of the scan grid of t <= 200, sign change or not
        grid = np.linspace(0.5, 200.0, 3991)
        brackets = [(float(grid[i]), float(grid[i + 1]))
                    for i in sorted(starts)]
        whole = zc._refine_brackets(function, brackets)
        split = [t for piece in _cut(brackets, cuts)
                 for t in zc._refine_brackets(function, piece)]
        assert [t.hex() for t in split] == [t.hex() for t in whole]

    @pytest.mark.parametrize("function, t_max, workers, fork_work, sizes", [
        ("zeta", 200.0, 2, zc._FORK_WORK, 2),
        ("zeta", 200.0, 3, zc._FORK_WORK, 3),
        ("zeta", 200.0, 64, zc._FORK_WORK, 3),
        ("zeta", 110.0, 2, zc._FORK_WORK, 1),
        ("beta", 17.0, 64, zc._FORK_WORK, 1),
        ("beta", 17.0, 64, 1, 64)])
    def test_slices_share_their_ends(self, function, t_max, workers,
                                     fork_work, sizes, monkeypatch):
        monkeypatch.setattr(zc, "_FORK_WORK", fork_work)
        grid = np.linspace(0.5, t_max, int(math.ceil((t_max - 0.5) / 0.05))
                           + 1)
        slices = zc._slices(grid, workers)
        assert len(slices) == sizes
        assert all(a[-1] == b[0] for a, b in zip(slices, slices[1:]))
        joined = np.concatenate([s[:-1] for s in slices] + [grid[-1:]])
        assert np.array_equal(joined, grid)
        if sizes > 1:  # each cut lands within a point of its share
            work = [(sf._em_truncation(s[1:]) + zc._POINT_WORK).sum()
                    for s in slices]
            assert max(work) - min(work) <= 2 * (296 + zc._POINT_WORK)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_forked_scan_equals_serial(self, workers, monkeypatch):
        monkeypatch.setattr(zc, "_FORK_WORK", 1)
        assert zc.scan_zeros("beta", 60.0, workers=workers) == \
            zc.scan_zeros("beta", 60.0)


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
        rep, = zc.riemann_von_mangoldt([20.0], zeta_catalog_60)
        assert rep.jump_count == 1
        assert abs(rep.total - 1.0) < 0.5

    def test_t50(self, zeta_catalog_60):
        rep, = zc.riemann_von_mangoldt([50.0], zeta_catalog_60)
        assert rep.jump_count == 10
        assert abs(rep.total - 10.0) < 0.5

    def test_s_normalized_at_anchor(self, zeta_catalog_60):
        rep, = zc.riemann_von_mangoldt([2.0], zeta_catalog_60)
        assert rep.total == zc.smooth_count(2.0) and rep.jump_count == 0

    def test_jump_across_each_ordinate(self, zeta_catalog_60):
        heights = [r.ordinate + d for r in zeta_catalog_60[:6]
                   for d in (1e-4, -1e-4)]
        reps = zc.riemann_von_mangoldt(heights, zeta_catalog_60)
        for up, dn in zip(reps[::2], reps[1::2]):
            assert up.jump_count - dn.jump_count == 1

    def test_one_walk_a_height_and_one_for_the_anchor(self, zeta_catalog_60):
        # the same bits as a call a height, whose walks repeat the anchor's
        heights = [20.0, 37.5, 50.0]
        reps = zc.riemann_von_mangoldt(heights, zeta_catalog_60)
        assert reps == [zc.riemann_von_mangoldt([t], zeta_catalog_60)[0]
                        for t in heights]

    @pytest.mark.parametrize("heights", [[20.0, 1.5], [1.5, math.nan]])
    def test_height_below_two_before_any_walk(self, heights, monkeypatch):
        monkeypatch.setattr(sf, "arg_rectangles", None)
        with pytest.raises(ArgumentDomain, match="needs T >= 2"):
            zc.riemann_von_mangoldt(heights, [])

    def test_counting_claim_walks_13_rectangles_in_one_call(
            self, zeta_catalog_60, monkeypatch):
        # the 12 drawn heights and the anchor t = 2, once
        calls = []
        batched = sf.arg_rectangles
        monkeypatch.setattr(sf, "arg_rectangles", lambda f, ts: calls.append(
            (f, list(ts))) or batched(f, ts))
        config = cli.build_parser().parse_args(["audit"])
        assert claims.claim_counting_rvm(
            config, zeta_catalog_60).verdict == "pass"
        assert [(f, len(ts), ts[0]) for f, ts in calls] == [("zeta", 13, 2.0)]


class TestSBound:
    def test_endpoint_arithmetic(self):
        assert abs(zc.hmty_bound(math.e)
                   - (0.1038 + 0.2573 * 0.0 + 8.3675)) < 1e-12

    def test_bound_to_100(self):
        rep = zc.s_of_t_bound_check(100.0)
        assert rep.verdict == "pass"
        assert rep.lhs.real < 2.0  # empirically small next to the bound ~9

    def test_s_jumps_across_ordinate(self, zeta_catalog_60):
        # the main term moves by about 1e-5 over the 2e-4 step
        t = zeta_catalog_60[2].ordinate
        up, dn = zc.riemann_von_mangoldt([t + 1e-4, t - 1e-4], [])
        assert abs(abs(up.total - dn.total) - 1.0) < 0.01


class TestGuinandWeil:
    def test_just_above_first_zero(self, zeta_catalog_60):
        e = 2.0 * zeta_catalog_60[0].ordinate + 0.1
        assert abs(zc.n_H_guinand_weil([e])[0][0] - 1.0) < 0.5

    def test_below_first_root(self):
        assert abs(zc.n_H_guinand_weil([20.0])[0][0]) < 0.5

    def test_above_second_zero(self, zeta_catalog_60):
        e = 2.0 * zeta_catalog_60[1].ordinate + 0.1
        assert abs(zc.n_H_guinand_weil([e])[0][0] - 2.0) < 0.5

    @pytest.mark.parametrize("energies, error, match", [
        ([20.0, 3.9, math.nan], ArgumentDomain, "needs E >= 4"),
        ([20.0, math.nan, 3.9], ArgumentDomain, "non-finite"),
        ([20.0, 7.4, 3.9], NoConvergence, "stalled"),
    ])
    def test_first_error_in_input_order(self, energies, error, match,
                                        monkeypatch):
        # the walk at t = 3.7 (E = 7.4) stalls
        monkeypatch.setattr(sf, "_em_core", oc.em_core_flipped_at(3.7))
        with pytest.raises(error, match=match):
            zc.n_H_guinand_weil(energies)

    def test_forms_claim_walks_each_rectangle_once(self, zeta_catalog_60,
                                                   monkeypatch):
        # require_complete walks the top height on its own; the forms take
        # their three walks from one batched call
        walked = []
        batched = sf.arg_rectangles
        monkeypatch.setattr(sf, "arg_rectangles", lambda f, ts: walked.append(
            list(ts)) or batched(f, ts))
        assert claims.claim_guinand_weil_forms(
            None, zeta_catalog_60).verdict == "pass"
        assert [len(ts) for ts in walked] == [1, 3]
        assert walked[0] == [walked[1][-1]]


class TestBijection:
    def test_delta_zero_to_60(self, zeta_catalog_60):
        scale = mbf.KernelScale(0.2)
        roots = [mbf.newton_filter_root("zeta", 2.0 * r.ordinate + 0.05,
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
        # a catalog ending at t_3 = 25.01: the formula guard fails one top
        # probe past 2 t_4 = 60.85, the first energy it counts one root more
        short = zeta_catalog_60[:3]
        roots = [mbf.newton_filter_root("zeta", 2.0 * r.ordinate + 0.05,
                                        mbf.KernelScale(0.2)) for r in short]
        audit = zc.bijection_audit(short, roots, 120.0)
        assert audit.verdict == "fail at E = 70.051225"
        assert all(d == 0 for d in audit.delta_values)
        assert 0.0 < 70.051225 - 2.0 * zeta_catalog_60[3].ordinate < 10.0

    def test_require_complete(self, zeta_catalog_60):
        zc.require_complete(zeta_catalog_60, 60.0)
        with pytest.raises(ArgumentDomain, match="catalog holds 2 zeros "
                           r"<= 30\.000, the argument principle counts "
                           r"3\.000"):
            zc.require_complete(zeta_catalog_60[:2], 30.0)


_POSITIVE = hst.floats(0.0, exclude_min=True, allow_infinity=False)


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
        with pytest.raises(CatalogError, match="checksum"):
            zc.catalog_load(path)

    def test_version_bump(self, tmp_path, beta_catalog):
        path = str(tmp_path / "cat.txt")
        blob = zc.catalog_serialize(beta_catalog).decode()
        body = blob[: blob.rindex("#sha256")]
        body = body.replace("#zerocatalog v1", "#zerocatalog v2", 1)
        import hashlib
        digest = hashlib.sha256(body.encode()).hexdigest()
        open(path, "w").write(body + f"#sha256 {digest}\n")
        with pytest.raises(CatalogError, match="unsupported catalog version"):
            zc.catalog_load(path)

    @settings(max_examples=150, deadline=None)
    @given(hst.sampled_from(["zeta", "beta"]), hst.lists(hst.tuples(
        hst.integers(-10 ** 6, 10 ** 9), _POSITIVE,
        hst.floats(0.0, zc.RESIDUAL_LIMIT, exclude_max=True),
        hst.sampled_from(["sign_scan", "newton_refine", "filter_root"])),
        min_size=1, max_size=30, unique_by=lambda row: row[1]))
    def test_store_load_round_trip(self, tmp_path_factory, function, rows):
        records = [zc.ZeroRecord(index=i, ordinate=t, residual=r,
                                 function=function, method=m)
                   for i, t, r, m in sorted(rows, key=lambda row: row[1])]
        path = str(tmp_path_factory.mktemp("catalog") / "cat.txt")
        zc.catalog_store(path, records)
        loaded = zc.catalog_load(path)
        assert loaded == records
        assert zc.catalog_serialize(loaded) == zc.catalog_serialize(records)

    @settings(max_examples=150, deadline=None)
    @given(hst.data())
    def test_ordinate_not_positive_and_increasing_refused(
            self, tmp_path_factory, data):
        ordinates = sorted(data.draw(hst.sets(_POSITIVE, min_size=1,
                                              max_size=30)))
        bad = data.draw(hst.integers(0, len(ordinates) - 1))
        floor = ordinates[bad - 1] if bad else 0.0
        ordinates[bad] = data.draw(hst.floats(max_value=floor)
                                   | hst.sampled_from([math.inf, math.nan]))
        records = [zc.ZeroRecord(index=i + 1, ordinate=t, residual=0.0,
                                 function="zeta", method="sign_scan")
                   for i, t in enumerate(ordinates)]
        path = str(tmp_path_factory.mktemp("catalog") / "cat.txt")
        zc.catalog_store(path, records)
        with pytest.raises(CatalogError, match=f"line {bad + 2}: ordinate"):
            zc.catalog_load(path)

    def test_empty_refused(self):
        with pytest.raises(ArgumentDomain):
            zc.catalog_serialize([])

    def test_header_only_catalog_is_incomplete(self, tmp_path):
        import hashlib
        path = tmp_path / "cat.txt"
        body = b"#zerocatalog v1 zeta\n"
        digest = hashlib.sha256(body).hexdigest().encode()
        path.write_bytes(body + b"#sha256 " + digest + b"\n")
        with pytest.raises(CatalogError, match="holds no records"):
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
        with pytest.raises(CatalogError, match="line 3"):
            zc.catalog_load(str(path))
