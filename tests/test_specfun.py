import cmath
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

import oracles as oc
from mbzero import specfun as sf
from mbzero import zerocensus as zc
from mbzero.errors import ArgumentDomain, MbzeroError, NoConvergence


class TestGamma:
    def test_gamma_one(self):
        assert abs(sf.gamma(1.0) - 1.0) < 1e-15

    def test_gamma_half(self):
        assert abs(sf.gamma(0.5) - math.sqrt(math.pi)) < 1e-15

    def test_gamma_vs_stirling_recurrence_oracle(self):
        # frozen from stirling_recurrence_log_gamma at 30 digits
        want = complex(0.006609577111117995, 0.003567616377284917)
        got = sf.gamma(complex(0.25, 3.5))
        assert abs(got - want) < 1e-13 * abs(want)

    def test_gamma_grid_against_oracle(self):
        rng = np.random.RandomState(1)
        for _ in range(25):
            z = complex(rng.uniform(-4, 8), rng.uniform(-45, 45))
            if abs(z.imag) < 0.1 and z.real < 0.5:
                continue
            want = complex(oc.gamma_oracle(z))
            assert abs(sf.gamma(z) - want) <= 1e-13 * abs(want)

    def test_pole_proximity(self):
        with pytest.raises(ArgumentDomain, match="Gamma pole"):
            sf.gamma(complex(-3.0, 0.0))
        with pytest.raises(ArgumentDomain, match="Gamma pole"):
            sf.gamma(-1 - 5e-13)

    def test_reflection_identity(self):
        rng = np.random.RandomState(2)
        for _ in range(100):
            s = complex(rng.uniform(-4, 4), rng.uniform(-40, 40))
            if abs(s.imag) < 0.05 and abs(s.real - round(s.real)) < 0.05:
                continue
            val = sf.gamma(s) * sf.gamma(1 - s) * cmath.sin(math.pi * s) / math.pi
            assert abs(val - 1.0) < 1e-11

    def test_digamma_matches_log_gamma_slope(self):
        for z in (complex(0.3, 2.0), complex(4.0, -7.0), complex(-1.4, 0.8)):
            h = 1e-6
            fd = (sf.log_gamma(z + h) - sf.log_gamma(z - h)) / (2 * h)
            assert abs(sf.digamma(z) - fd) < 1e-8


# both half-planes, |Im s| <= 200, and points on or next to the real axis
_IMAG = hst.one_of(hst.floats(-200.0, 200.0), hst.floats(-1e-6, 1e-6),
                   hst.sampled_from([0.0, -0.0, 1e-13, -1e-13]))
_POINTS = hst.builds(complex, hst.floats(-40.0, 40.0), _IMAG)
_NEAR_POLES = hst.builds(
    lambda n, dx, dy: complex(-n + dx, dy), hst.integers(0, 30),
    hst.floats(-3e-12, 3e-12), hst.floats(-3e-12, 3e-12))
_NON_FINITE = hst.sampled_from([complex(math.nan, 0.0), complex(1.0, math.inf),
                                complex(-math.inf, -2.0)])


def _first_error(points):
    for z in points:
        try:
            sf.log_gamma(z)
        except MbzeroError as exc:
            return type(exc), str(exc)
    return None


class TestLogGammaVec:
    @settings(max_examples=300, deadline=None)
    @given(hst.lists(_POINTS, min_size=1, max_size=60))
    def test_bit_identical_to_scalar(self, points):
        points = [z for z in points if _first_error([z]) is None]
        want = np.array([sf.log_gamma(z) for z in points], dtype=complex)
        got = sf.log_gamma_vec(np.array(points, dtype=complex))
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @settings(max_examples=200, deadline=None)
    @given(hst.lists(hst.one_of(_POINTS, _NEAR_POLES, _NON_FINITE),
                     min_size=1, max_size=8))
    def test_raises_what_the_scalar_loop_raises(self, points):
        expected = _first_error(points)
        if expected is None:
            sf.log_gamma_vec(np.array(points))
            return
        with pytest.raises(MbzeroError) as err:
            sf.log_gamma_vec(np.array(points))
        assert (type(err.value), str(err.value)) == expected

    def test_real_input_and_shape(self):
        x = np.array([[0.25, 3.5], [-2.5, 11.0]])
        got = sf.log_gamma_vec(x)
        assert got.shape == x.shape
        want = np.array([[sf.log_gamma(v) for v in row] for row in x])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


_B = sf._LANCZOS_BLOCK


def _hex(values):
    return [(z.real.hex(), z.imag.hex()) for z in map(complex, values)]


class TestLanczosBlocks:
    """The vector Lanczos sum divides a block of _LANCZOS_BLOCK points at
    a time: values keep the scalar bits on both sides of a block edge, and
    the number of divisions a call makes does not grow with the 14 terms."""

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 9, _B - 1, _B, _B + 1,
                                   2 * _B + 1])
    def test_block_edges_keep_the_scalar_bits(self, n):
        rng = np.random.default_rng(n)
        y = rng.uniform(-200.0, 200.0, n)
        # all right of Re s = 1/2, then all left: n points reach the sum
        for x in (rng.uniform(0.5, 40.0, n), rng.uniform(-40.0, 0.5, n)):
            s = x + 1j * y
            assert _hex(sf.log_gamma_vec(s)) \
                == _hex([sf.log_gamma(z) for z in s.tolist()])
        for theta, scalar in (
                (sf.riemann_siegel_theta_vec, oc.riemann_siegel_theta),
                (sf.beta_theta_vec, oc.beta_theta)):
            got = theta(y)
            assert got.shape == (n,)
            assert _hex(got) == _hex([scalar(t) for t in y.tolist()])

    def test_zero_d_input(self):
        z = complex(0.75, -31.5)
        got = sf.log_gamma_vec(np.complex128(z))
        assert got.shape == () and _hex([got]) == _hex([sf.log_gamma(z)])
        theta = sf.riemann_siegel_theta(31.5)
        assert type(theta) is float
        assert theta.hex() == oc.riemann_siegel_theta(31.5).hex()

    @pytest.mark.parametrize("call, divisions", [
        (lambda: sf.log_gamma_vec(np.full(1, 2.0 + 3j)), 2),
        (lambda: sf.log_gamma_vec(np.linspace(0.5, 9.0, _B) + 1j), 2),
        (lambda: sf.log_gamma_vec(np.linspace(0.5, 9.0, 2 * _B + 1) + 1j), 4),
        (lambda: sf.hardy_Z_vec("beta", np.array([3.0, 5.0, 7.0, 9.0])), 2),
    ], ids=["log_gamma_vec-1", "log_gamma_vec-B", "log_gamma_vec-2B+1",
            "hardy_Z_vec-beta-4"])
    def test_divisions_per_call(self, call, divisions, monkeypatch):
        # one _c_div per block for the 14 quotients, one for ser / z
        calls, div = [], sf._c_div

        def counted(*args):
            calls.append(args)
            return div(*args)

        monkeypatch.setattr(sf, "_c_div", counted)
        call()
        assert len(calls) == divisions


class TestLogGammaContinuous:
    def test_fresh_tracker_at_two(self):
        tracker = oc.ArgTracker()
        val = oc.log_gamma_continuous(complex(2.0, 0.0), tracker)
        assert abs(val) < 1e-14

    def test_path_to_2_plus_10i_matches_fine_unwrap(self):
        # frozen from arg_gamma_fine(10.0, sigma=2) at 10x resolution
        want = 15.274040648533635
        tracker = oc.ArgTracker()
        for k in range(101):
            val = oc.log_gamma_continuous(complex(2.0, 0.1 * k), tracker)
        assert abs(val.imag - want) < 1e-10
        assert abs(cmath.exp(val) - sf.gamma(complex(2.0, 10.0))) \
            <= 1e-12 * abs(sf.gamma(complex(2.0, 10.0)))

    def test_quarter_line_feeds_counting_term(self):
        # arg Gamma(1/4 + iE/4) at E = 28.269... equals the theta rotation
        e = 2 * 14.1347251417
        t = 0.5 * e
        lhs = sf.log_gamma(complex(0.25, 0.25 * e)).imag
        theta = sf.riemann_siegel_theta(t)
        assert abs(lhs - (theta + 0.5 * t * math.log(math.pi))) < 1e-10

    def test_branch_jump_on_coarse_step(self):
        # half-circle around the pole at s = -1 in one hop: arg moves ~0.96 pi
        tracker = oc.ArgTracker()
        oc.log_gamma_continuous(complex(-1.0 + 0.1, 0.0), tracker)
        with pytest.raises(oc.BranchJump):
            oc.log_gamma_continuous(-1.0 + 0.1 * cmath.exp(0.96j * math.pi),
                                    tracker)


class TestZeta:
    def test_basel(self):
        assert abs(sf.zeta(2.0) - math.pi ** 2 / 6) < 1e-14

    def test_zero_point(self):
        assert abs(sf.zeta(0.0) + 0.5) < 1e-13

    def test_first_zero_ordinate(self, zeta_catalog_60):
        t1 = zeta_catalog_60[0].ordinate
        assert abs(sf.zeta(complex(0.5, t1))) < 1e-9
        # doubled-precision Euler-Maclaurin oracle agrees the point is a zero
        assert abs(complex(oc.em_zeta(complex(0.5, t1)))) < 1e-11

    def test_against_doubled_precision_oracle(self):
        for s in (complex(0.5, 14.0), complex(0.1, 50.0), complex(1.7, 120.0),
                  complex(0.25, 199.5), complex(2.0, -60.0)):
            want = complex(oc.em_zeta(s))
            assert abs(sf.zeta(s) - want) <= 1e-12 * abs(want)

    def test_conjugation_200_random(self):
        rng = np.random.RandomState(3)
        for _ in range(200):
            s = complex(rng.uniform(0.02, 0.98), rng.uniform(-50, 50))
            z = sf.zeta(s)
            assert abs(sf.zeta(s.conjugate()) - z.conjugate()) <= 1e-12 * abs(z)

    def test_pole_guard(self):
        with pytest.raises(ArgumentDomain, match="zeta pole"):
            sf.zeta(1.0 + 1e-11)

    def test_vectorized_matches_scalar(self):
        s = np.array([complex(0.5, 9.0), complex(1.5, -3.0), complex(0.2, 44.0)])
        vec = sf.zeta_vec(s)
        for si, vi in zip(s, vec):
            assert abs(sf.zeta(si) - vi) < 1e-14 * abs(vi)


class TestHurwitzZeta:
    def test_reduces_to_zeta_at_unit_shift(self):
        s = complex(1.7, 9.0)
        assert abs(oc.hurwitz_zeta(s, 1.0) - sf.zeta(s)) < 1e-14 * abs(sf.zeta(s))

    def test_quarter_shift_against_oracle(self):
        # frozen from mpmath.zeta(s, 1/4) at 30 digits
        want = complex(-7.120812258920156, 2.348382710839155)
        got = oc.hurwitz_zeta(complex(1.5, 2.0), 0.25)
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_pole_guard(self):
        with pytest.raises(ArgumentDomain, match="zeta pole"):
            oc.hurwitz_zeta(1.0, 0.25)


# Functional equations on the ledger's strip box (Re s in [0.05, 0.95],
# |Im s| <= 45) and 1e-11 relative bound.  Every zero there lies on
# Re s = 1/2; within 0.01 of it the relative error grows like
# 1e-14 / distance, so those points are left out.
_FE_RE = hst.floats(0.05, 0.95)
_FE_IM = hst.floats(-45.0, 45.0)
_FE_LINE_GAP = 0.01


class TestDirichletBeta:
    def test_leibniz(self):
        assert abs(sf.dirichlet_beta(1.0) - math.pi / 4) < 1e-14

    def test_catalan(self):
        catalan = 0.9159655941772190  # alternating-series oracle, Euler accel.
        assert abs(sf.dirichlet_beta(2.0) - catalan) < 1e-13

    def test_first_beta_zero(self):
        assert abs(sf.dirichlet_beta(complex(0.5, 6.0209489047))) < 1e-9

    def test_functional_equation_grid(self):
        worst = 0.0
        for im in np.linspace(-40, 40, 41):
            s = complex(0.3, im)
            lhs = sf.dirichlet_beta(1 - s)
            rhs = ((math.pi / 2) ** (-s) * cmath.sin(0.5 * math.pi * s)
                   * sf.gamma(s) * sf.dirichlet_beta(s))
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
        assert worst < 1e-11

    @settings(max_examples=200, deadline=None)
    @given(hst.builds(complex, _FE_RE, _FE_IM))
    def test_functional_equation_property(self, s):
        assume(abs(s.real - 0.5) >= _FE_LINE_GAP)
        lhs = sf.dirichlet_beta(1.0 - s)
        rhs = ((math.pi / 2.0) ** (-s) * cmath.sin(0.5 * math.pi * s)
               * sf.gamma(s) * sf.dirichlet_beta(s))
        assert abs(lhs - rhs) <= 1e-11 * abs(lhs)

    def test_entire_at_one(self):
        # no pole: beta(1 +- tiny) is smooth
        assert abs(sf.dirichlet_beta(1.0 + 1e-9)
                   - sf.dirichlet_beta(1.0 - 1e-9)) < 1e-8


class TestCompletedXi:
    def test_half_point_factor_oracle(self):
        # (1/2)(1/4 - 1/2) pi^{-1/4} Gamma(1/4) zeta(1/2), 30-digit factors
        want = 0.4971207781883141
        assert abs(sf.completed_xi(0.5) - want) < 1e-12

    def test_endpoints_equal(self):
        assert abs(sf.completed_xi(0.0) - sf.completed_xi(1.0)) < 1e-13
        assert abs(sf.completed_xi(0.0) - 0.5) < 1e-13

    def test_vanishes_at_first_zero(self, zeta_catalog_60):
        t1 = zeta_catalog_60[0].ordinate
        assert abs(sf.completed_xi(complex(0.5, t1))) < 1e-9

    def test_symmetry_grid(self):
        rng = np.random.RandomState(4)
        for _ in range(100):
            s = complex(rng.uniform(0.05, 0.95), rng.uniform(-45, 45))
            x1 = sf.completed_xi(s)
            assert abs(x1 - sf.completed_xi(1 - s)) <= 1e-11 * abs(x1)

    @settings(max_examples=200, deadline=None)
    @given(hst.builds(complex, _FE_RE, _FE_IM))
    def test_functional_equation_property(self, s):
        assume(abs(s.real - 0.5) >= _FE_LINE_GAP)
        x1 = sf.completed_xi(s)
        assert abs(x1 - sf.completed_xi(1.0 - s)) <= 1e-11 * abs(x1)


# s = 0, s = 1, points within 1e-13 of 1 (where (s - 1) zeta(s) is 1)
# and just beyond, then points on both sides of the strip
_XI_POINT = hst.one_of(
    hst.sampled_from([0j, 1.0 + 0j, complex(1.0 + 5e-14, 0.0),
                      complex(1.0, -8e-14), complex(1.0 - 2e-13, 0.0)]),
    hst.builds(complex, hst.floats(-3.0, 4.0), hst.floats(-60.0, 60.0)))
# a non-finite argument, Gamma poles, a point above the engine's
# |Im s|, a value that is not finite and one whose Gamma factor overflows
_XI_FAILING = hst.sampled_from([
    complex(math.nan, 0.0), complex(1.0, math.inf), -2.0 + 0j, -6.0 + 0j,
    complex(0.5, 2e4), -301.5 + 0j, 800.0 + 0j])


def _xi_serial(points):
    """(values, (type, message) of the first error or None) of the
    one-point reference over points in turn."""
    values = []
    for z in points:
        try:
            values.append(oc.completed_xi(z))
        except (MbzeroError, OverflowError) as exc:
            return values, (type(exc), str(exc))
    return values, None


class TestCompletedXiArray:
    """completed_xi over an array: the one-point loop's bits and first
    error, its zeta from one engine call with each point's own N."""

    @settings(max_examples=150, deadline=None)
    @given(hst.lists(_XI_POINT, max_size=30))
    @example([0j, 1.0 + 0j, complex(1.0 + 5e-14, 0.0), complex(0.5, 45.0)])
    def test_equals_one_point_loop(self, points):
        with np.errstate(over="ignore", invalid="ignore"):
            want, error = _xi_serial(points)
            assume(error is None)
            got = sf.completed_xi(points)
        assert got.shape == (len(points),)
        assert _hex(got) == _hex(want)
        assert _hex(got) == _hex([sf.completed_xi(z) for z in points])

    @settings(max_examples=100, deadline=None)
    @given(hst.lists(_XI_POINT, max_size=8),
           hst.lists(hst.tuples(hst.integers(0, 8), _XI_FAILING),
                     min_size=1, max_size=3))
    def test_first_error_of_the_loop(self, points, placed):
        s = _insert(points, placed)
        with np.errstate(over="ignore", invalid="ignore"):
            _, error = _xi_serial(s)
            with pytest.raises((MbzeroError, OverflowError)) as err:
                sf.completed_xi(s)
        assert (type(err.value), str(err.value)) == error

    def test_first_non_finite_point_named(self):
        with pytest.raises(ArgumentDomain,
                           match=re.escape("non-finite argument (nan+0j)")):
            sf.completed_xi([0.5 + 3j, complex(math.nan, 0.0),
                             complex(1.0, math.inf)])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ArgumentDomain, match=re.escape(
                    "completed xi not finite at s = (-301.5+0j)")):
            sf.completed_xi([0.5 + 3j, -301.5 + 0j, complex(math.nan, 0.0)])

    def test_scalar_0d_and_2d(self):
        grid = np.array([[0j, 1.0 + 0j], [complex(0.3, 14.0), -1.5 + 2j]])
        got = sf.completed_xi(grid)
        assert got.shape == (2, 2)
        assert _hex(got.ravel()) == _hex([oc.completed_xi(z)
                                          for z in grid.ravel()])
        for z in grid.ravel():
            for one in (sf.completed_xi(z), sf.completed_xi(np.array(z))):
                assert type(one) is complex
                assert _hex([one]) == _hex([oc.completed_xi(z)])
        assert sf.completed_xi([]).shape == (0,)


class TestHardyZ:
    def test_at_zero(self):
        # Euler-Maclaurin oracle value of zeta(1/2)
        assert abs(oc.hardy_Z(0.0) + 1.4603545088095868) < 1e-12

    def test_at_first_ordinate(self, zeta_catalog_60):
        assert abs(oc.hardy_Z(zeta_catalog_60[0].ordinate)) < 1e-8

    def test_sign_at_20_matches_oracle(self):
        # doubled-precision oracle: Z(20) = +1.1478424121851...
        assert oc.hardy_Z(20.0) > 0
        assert abs(oc.hardy_Z(20.0) - 1.1478424121851972) < 1e-10

    def test_modulus_identity(self):
        for t in (5.0, 17.3, 48.2):
            assert abs(abs(oc.hardy_Z(t)) - abs(sf.zeta(complex(0.5, t)))) < 1e-10

    def test_zero_sets_coincide(self, zeta_catalog_60):
        # every sign-change bracket of Z contains exactly one census zero
        ts = np.arange(12.0, 60.0, 0.05)
        vals = [oc.hardy_Z(float(t)) for t in ts]
        brackets = [(ts[i], ts[i + 1]) for i in range(len(ts) - 1)
                    if vals[i] * vals[i + 1] < 0]
        ordinates = [r.ordinate for r in zeta_catalog_60 if r.ordinate >= 12.0]
        assert len(brackets) == len(ordinates)
        for (lo, hi), t in zip(brackets, ordinates):
            assert lo <= t <= hi


class TestSNormalization:
    def test_s_at_anchor_is_zero(self):
        # S(t) is the arg walk at t less the one at the anchor t = 2, so
        # S(2) = 0
        grid = zc.s_grid(30.0)
        ts = [t for t, _ in grid]
        anchor, *args = [oc.arg_rectangle(sf.zeta_vec, t) for t in [2.0] + ts]
        assert grid == [(t, (a - anchor) / math.pi) for t, a in zip(ts, args)]


class TestArgRectangle:
    """arg_rectangles starts at 2 + it; oc.arg_rectangle_march, which
    marches up Re s = 2 first, is the reference.  The planted tests walk
    oc.arg_rectangle, one height with any vector L, through the package's
    unwrap."""

    _TAG = {sf.zeta: "zeta", sf.dirichlet_beta: "beta"}

    @staticmethod
    def _assert_bits_match(evaluate, heights):
        # the marches share their integer heights; evaluate is pure, so a
        # memo changes their cost, not their bits.  arg_rectangles walks
        # every height from one call.
        memo = functools.lru_cache(maxsize=None)(evaluate)
        got = sf.arg_rectangles(TestArgRectangle._TAG[evaluate], heights)
        for t, arg in zip(heights, got):
            assert arg == oc.arg_rectangle_march(memo, t), t

    def test_zeta_bits_on_bijection_grid(self, zeta_catalog_full, monkeypatch):
        heights = []
        monkeypatch.setattr(sf, "arg_rectangles", lambda f, ts: heights.extend(
            ts) or [0.0] * len(ts))
        roots = [2.0 * r.ordinate for r in zeta_catalog_full]
        zc.bijection_audit(zeta_catalog_full, roots, 240.0)
        monkeypatch.undo()
        assert len(heights) == 306
        self._assert_bits_match(sf.zeta, heights)

    def test_zeta_bits_on_sevenths(self):
        self._assert_bits_match(sf.zeta, [k / 7 for k in range(7, 1400)])

    def test_beta_bits_on_sevenths(self):
        self._assert_bits_match(sf.dirichlet_beta,
                                [k / 7 for k in range(7, 140)])

    @settings(max_examples=60, deadline=None)
    @given(hst.floats(1.0, 200.0))
    def test_agrees_with_march(self, t):
        # a tolerance: within 1e-15 above an integer the march stops at
        # 2 + i floor(t)
        want = oc.arg_rectangle_march(sf.zeta, t)
        assert abs(sf.arg_zeta_rectangle(t) - want) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(hst.floats(0.0, 200.0))
    def test_right_half_plane_on_re_two(self, y):
        # |zeta(2 + iy) - 1| <= 0.645, |beta(2 + iy) - 1| <= 0.234
        assert sf.zeta(complex(2.0, y)).real > 0.3
        assert sf.dirichlet_beta(complex(2.0, y)).real > 0.7

    @pytest.mark.parametrize("t", [10.0, 100.0, 190.0])
    def test_zeta_evaluations_bounded(self, t, monkeypatch):
        # points through the Euler-Maclaurin engine: the seven of the leg
        # and any split midpoints
        points = []
        em_core = sf._em_core
        monkeypatch.setattr(sf, "_em_core", lambda s, *args: points.extend(
            s) or em_core(s, *args))
        sf.arg_zeta_rectangle(t)
        assert 7 <= len(points) <= 20

    @pytest.mark.parametrize("arg", [sf.arg_zeta_rectangle,
                                     lambda t: oc.arg_rectangle_march(sf.zeta, t)])
    def test_pole_on_real_axis(self, arg):
        # at t = 0 the horizontal leg runs through s = 1
        with pytest.raises(ArgumentDomain, match="zeta pole"):
            arg(0.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_height(self, t):
        with pytest.raises(ArgumentDomain, match="non-finite argument"):
            sf.arg_zeta_rectangle(t)

    @staticmethod
    def _planted(lo, hi, jump, function=sf.zeta):
        """function (zeta by default) times a phase ramp of jump radians
        across lo <= Re s <= hi (a step function when lo == hi); the vector
        form maps the scalar one, so both walks see the same bits."""
        def scalar(s):
            x = 1.0 if s.real < lo else 0.0 if s.real >= hi else \
                (hi - s.real) / (hi - lo)
            return function(s) * cmath.exp(1j * jump * x)
        calls = []

        def vector(s):
            calls.append(len(s))
            return np.array([scalar(complex(z)) for z in s])
        return scalar, vector, calls

    # ramps of at most 3 rad a planned step: a steeper one (5 rad over
    # 0.15) aliases to a small move in the march, which doubles its step
    # back to 0.25 after a halving, and the two results differ by 2 pi
    @pytest.mark.parametrize("lo, hi, jump", [
        (1.3, 1.45, 2.5), (1.3, 1.45, -2.5), (0.9, 1.05, 3.0),
        (0.55, 0.6, 3.0), (1.76, 1.99, 2.0)])
    @pytest.mark.parametrize("t", [3.7, 14.2, 58.0, 131.0])
    def test_planted_phase_jump_agrees_with_march(self, lo, hi, jump, t):
        scalar, vector, calls = self._planted(lo, hi, jump)
        assert oc.arg_rectangle(vector, t) == oc.arg_rectangle_march(scalar, t)
        # the leg is one call of seven points; each halving adds one point
        assert calls[0] == 7 and len(calls) > 1 and set(calls[1:]) == {1}

    @pytest.mark.parametrize("t", [3.7, 58.0])
    def test_planted_sign_flip_stalls_like_march(self, t):
        # a jump of pi at Re s = 1.3 cannot be unwrapped by refinement
        scalar, vector, _ = self._planted(1.3, 1.3, math.pi)
        with pytest.raises(NoConvergence, match="stalled") as err:
            oc.arg_rectangle(vector, t)
        assert type(err.value) is NoConvergence
        with pytest.raises(NoConvergence, match="stalled") as tracked:
            oc.arg_rectangle_tracker(vector, t)
        assert str(tracked.value) == str(err.value)
        with pytest.raises(oc.BranchJump, match="stalled"):
            oc.arg_rectangle_march(scalar, t)

    @staticmethod
    def _outcome(arg_rectangle, function, lo, width, jump, t):
        """(result or error, points evaluated) of arg_rectangle on L times
        a phase ramp of jump radians across lo <= Re s <= lo + width."""
        scalar = TestArgRectangle._planted(lo, lo + width, jump,
                                           function)[0]
        points = []

        def vector(s):
            points.extend(complex(z) for z in s)
            return np.array([scalar(complex(z)) for z in s])
        try:
            result = float.hex(arg_rectangle(vector, t))
        except MbzeroError as exc:
            result = (exc.exit_code, str(exc))
        return result, points

    @settings(max_examples=200, deadline=None)
    @given(hst.sampled_from([sf.zeta, sf.dirichlet_beta]),
           hst.floats(0.5, 2.0, exclude_min=True, exclude_max=True),
           hst.one_of(hst.just(0.0), hst.floats(0.0, 0.3)),
           hst.floats(-3.0 * math.pi, 3.0 * math.pi, exclude_min=True,
                      exclude_max=True),
           hst.floats(0.0, 200.0))
    def test_float_unwrap_replays_the_tracker(self, function, lo, width, jump,
                                              t):
        # the same bits, the same points in the same order, and the same
        # error message where the walk stalls or meets a pole
        assert self._outcome(oc.arg_rectangle, function, lo, width, jump, t) \
            == self._outcome(oc.arg_rectangle_tracker, function, lo, width,
                             jump, t)


_VECTOR = {"zeta": sf.zeta_vec, "beta": sf.dirichlet_beta_vec}


def _serial_args(function, heights):
    return [oc.arg_rectangle(_VECTOR[function], t) for t in heights]


def _batched_heights(run, monkeypatch):
    """The heights of each arg_rectangles call that run() makes."""
    calls = []
    batched = sf.arg_rectangles
    monkeypatch.setattr(sf, "arg_rectangles", lambda f, ts: calls.append(
        list(ts)) or batched(f, ts))
    run()
    return calls


class TestArgZetaRectangles:
    """arg_rectangles for zeta, one _em_core call for the legs of all the
    heights, against oc.arg_rectangle(zeta_vec, t), one vector call a
    height: the same bits, the same split points and the same first
    error."""

    def test_bijection_heights(self, zeta_catalog_full, monkeypatch):
        roots = [2.0 * r.ordinate for r in zeta_catalog_full]
        calls = _batched_heights(lambda: zc.bijection_audit(
            zeta_catalog_full, roots, 240.0), monkeypatch)
        assert [len(ts) for ts in calls] == [306]
        assert oc.outcome(sf.arg_rectangles, "zeta", calls[0]) \
            == oc.outcome(_serial_args, "zeta", calls[0])

    def test_s_grid_heights(self, monkeypatch):
        # the anchor t = 2 and the 573 grid points e, e + 0.1, ... <= 60
        calls = _batched_heights(lambda: zc.s_grid(60.0), monkeypatch)
        assert [len(ts) for ts in calls] == [574] and calls[0][0] == 2.0
        assert oc.outcome(sf.arg_rectangles, "zeta", calls[0]) \
            == oc.outcome(_serial_args, "zeta", calls[0])

    def test_split_steps(self, zeta_catalog_full, monkeypatch):
        # just off a zero the leg's phase turns fast near Re s = 1/2, and a
        # split step evaluates its midpoint on its own, after the one call
        # of all the legs
        heights = [r.ordinate + d for r in zeta_catalog_full
                   for d in (1e-2, 1e-3, 1e-4, -1e-3)]
        points = []
        em_core = sf._em_core
        monkeypatch.setattr(sf, "_em_core", lambda s, *args: points.append(
            s.tolist()) or em_core(s, *args))
        want = oc.outcome(_serial_args, "zeta", heights)
        splits = [p for p in points if len(p) == 1]
        del points[:]
        assert oc.outcome(sf.arg_rectangles, "zeta", heights) == want
        assert len(splits) > 100 and points[1:] == splits
        assert len(points[0]) == 7 * len(heights)

    @settings(max_examples=60, deadline=None)
    @given(hst.lists(hst.floats(0.0, 200.0), max_size=30))
    @example([14.1357, 0.0, 3.0])
    def test_random_heights(self, heights):
        assert oc.outcome(sf.arg_rectangles, "zeta", heights) \
            == oc.outcome(_serial_args, "zeta", heights)

    @pytest.mark.parametrize("heights, error", [
        ([5.0, 10.0, -1.0, 3.7], ArgumentDomain),
        ([5.0, 0.0, 3.7], ArgumentDomain),
        ([5.0, math.nan, 3.7], ArgumentDomain),
        ([5.0, 10.0, 3.7, -1.0, 0.0], NoConvergence),
    ], ids=["negative", "pole", "non-finite", "stall"])
    def test_first_error_after_good_heights(self, heights, error,
                                            monkeypatch):
        monkeypatch.setattr(sf, "_em_core", oc.em_core_flipped_at(3.7))
        want = oc.outcome(_serial_args, "zeta", heights)
        assert want[0] is error
        assert oc.outcome(sf.arg_rectangles, "zeta", heights) == want


class TestArgBetaRectangles:
    """arg_rectangles for beta against oc.arg_rectangle(dirichlet_beta_vec,
    t), one vector call a height: the same bits and the same first error.
    beta has no pole, so t = 0 walks."""

    @settings(max_examples=60, deadline=None)
    @given(hst.lists(hst.floats(0.0, 200.0), max_size=30))
    @example([0.0, 14.1357, 6.0209489, 3.0])
    def test_random_heights(self, heights):
        assert oc.outcome(sf.arg_rectangles, "beta", heights) \
            == oc.outcome(_serial_args, "beta", heights)

    def test_zero_height(self):
        # beta(x) > 0 on the leg 2 >= x >= 1/2: the argument is 0
        assert oc.outcome(sf.arg_rectangles, "beta", [0.0]) == ["0x0.0p+0"]

    @pytest.mark.parametrize("heights, error", [
        ([5.0, 10.0, -1.0, 3.7], ArgumentDomain),
        ([5.0, math.inf, 3.7], ArgumentDomain),
        ([5.0, 0.0, 10.0, 3.7, -1.0], NoConvergence),
    ], ids=["negative", "non-finite", "stall"])
    def test_first_error_after_good_heights(self, heights, error,
                                            monkeypatch):
        monkeypatch.setattr(sf, "_em_core", oc.em_core_flipped_at(3.7))
        want = oc.outcome(_serial_args, "beta", heights)
        assert want[0] is error
        assert oc.outcome(sf.arg_rectangles, "beta", heights) == want

    def test_counting_prediction(self):
        # theta/pi + arg/pi, the arg from the batched walk
        for t in (0.0, 6.0209489, 100.0):
            want = (float(sf.beta_theta_vec(t)) / math.pi
                    + oc.arg_rectangle(sf.dirichlet_beta_vec, t) / math.pi)
            assert zc.counting_prediction("beta", t) == want


_STRIP_RE = hst.floats(-0.9, 3.5, exclude_min=True, exclude_max=True)
# the mirror rule pairs |Im s| >= 1e-150 only: below, an imaginary part can
# underflow to a zero whose sign conjugation does not mirror
_UPPER_IM = hst.floats(1e-150, 120.0)


def _bits(values):
    return np.array(values, dtype=complex, ndmin=1).view(np.uint64)


class TestConjugationEquivariance:
    """The mirror rule of mbfilter: f(conj s) is conj f(s) bit for bit, and
    a vector call's values depend only on max |Im| of its argument."""

    @settings(max_examples=200, deadline=None)
    @given(hst.lists(hst.builds(complex, _STRIP_RE, _UPPER_IM),
                     min_size=1, max_size=12))
    def test_zeta_and_beta_vec(self, points):
        s = np.array(points)
        assume(np.all(np.abs(s - 1.0) > 1e-10))
        for f in (sf.zeta_vec, sf.dirichlet_beta_vec):
            assert np.array_equal(_bits(f(np.conj(s))), _bits(np.conj(f(s))))

    @settings(max_examples=200, deadline=None)
    @given(hst.lists(hst.builds(complex, hst.floats(-5.0, 5.0, exclude_min=True,
                                                    exclude_max=True),
                                _UPPER_IM), min_size=1, max_size=12))
    def test_log_gamma_vec(self, points):
        assume(_first_error(points) is None)
        s = np.array(points)
        assert np.array_equal(_bits(sf.log_gamma_vec(np.conj(s))),
                              _bits(np.conj(sf.log_gamma_vec(s))))

    @settings(max_examples=100, deadline=None)
    @given(hst.builds(complex, _STRIP_RE, _UPPER_IM))
    def test_completed_xi(self, z):
        assert np.array_equal(_bits(sf.completed_xi(z.conjugate())),
                              _bits(sf.completed_xi(z).conjugate()))

    @settings(max_examples=150, deadline=None)
    @given(hst.lists(hst.tuples(hst.builds(complex, _STRIP_RE,
                                           hst.floats(-120.0, 120.0)),
                                hst.booleans()), min_size=1, max_size=30))
    def test_sub_array_keeping_max_im_node(self, marked):
        s = np.array([z for z, _ in marked])
        assume(np.all(np.abs(s - 1.0) > 1e-10))
        keep = np.array([k for _, k in marked])
        keep[np.argmax(np.abs(s.imag))] = True
        for f in (sf.zeta_vec, sf.dirichlet_beta_vec):
            assert np.array_equal(_bits(f(s[keep])), _bits(f(s)[keep]))


# heights in [0, 200] with the points where the Euler-Maclaurin N steps
# (1.4 t an integer) and the integers, each with its neighbouring floats
_N_STEP = hst.integers(0, 280).map(lambda k: k / 1.4)
_HEIGHT = hst.one_of(
    hst.floats(0.0, 200.0),
    hst.tuples(hst.one_of(_N_STEP, hst.integers(0, 200).map(float)),
               hst.sampled_from((-1.0, 0.0, 1.0)))
    .map(lambda p: float(np.clip(np.nextafter(p[0], p[0] + p[1]), 0.0, 200.0))),
)
_HEIGHTS = hst.lists(_HEIGHT, min_size=1, max_size=24)


class TestPointwise:
    """Per-point Euler-Maclaurin N: each vector value equals the scalar
    call at that point bit for bit, and shared-N vector calls stay as they
    were."""

    @settings(max_examples=150, deadline=None)
    @given(_HEIGHTS, hst.floats(-0.9, 3.5, exclude_min=True,
                                exclude_max=True))
    def test_zeta_and_beta_equal_scalar(self, heights, re):
        line = [complex(0.5, t) for t in heights]
        assert np.array_equal(_bits(sf.critical_line_values("zeta", heights)),
                              _bits([sf.zeta(z) for z in line]))
        assert np.array_equal(_bits(sf.critical_line_values("beta", heights)),
                              _bits([sf.dirichlet_beta(z) for z in line]))
        # off the line, through the cores with the per-point N
        s = np.array([complex(re, t) for t in heights])
        assume(np.all(np.abs(s - 1.0) > 1e-10))
        groups = [1] * len(s)           # each point its own N
        assert np.array_equal(_bits(sf._em_core(s, (1.0,), groups)),
                              _bits([sf.zeta(z) for z in s]))
        assert np.array_equal(_bits(sf._l_values("beta", s, groups)),
                              _bits([sf.dirichlet_beta(z) for z in s]))

    @settings(max_examples=100, deadline=None)
    @given(hst.lists(hst.builds(complex, _STRIP_RE, hst.floats(-200.0, 200.0)),
                     max_size=24))
    def test_zeta_array_equals_scalar(self, points):
        # zeta over an array gives each point its own N
        assume(all(abs(z - 1.0) > 1e-10 for z in points))
        got = sf.zeta(points)
        assert got.shape == (len(points),)
        assert _hex(got) == _hex([sf.zeta(z) for z in points])
        assert _hex(got) == _hex([sf.zeta_vec(np.array([z]))[0]
                                  for z in points])

    @settings(max_examples=150, deadline=None)
    @given(hst.lists(hst.one_of(_HEIGHT, hst.floats(-200.0, 0.0)),
                     min_size=1, max_size=24))
    def test_theta_and_beta_phase_equal_scalar(self, heights):
        t = np.array(heights)
        assert np.array_equal(
            sf.riemann_siegel_theta_vec(t).view(np.uint64),
            np.array([oc.riemann_siegel_theta(x) for x in heights]).view(np.uint64))
        assert np.array_equal(
            sf.beta_theta_vec(t).view(np.uint64),
            np.array([oc.beta_theta(x) for x in heights]).view(np.uint64))
        for x in heights:
            assert sf.riemann_siegel_theta(x).hex() \
                == oc.riemann_siegel_theta(x).hex()

    @pytest.mark.parametrize("theta, scalar", [
        (sf.riemann_siegel_theta_vec, oc.riemann_siegel_theta),
        (sf.beta_theta_vec, oc.beta_theta)])
    def test_theta_takes_a_scalar_or_a_2d_array(self, theta, scalar):
        # a 0-d input gives a 0-d result with the scalar's bits, and a 2-d
        # input keeps its shape (the cmath map runs over the raveled array)
        for t in (0.0, 10.0, 21.072, 199.5):
            got = theta(t)
            assert np.shape(got) == () and float(got).hex() == scalar(t).hex()
        grid = np.linspace(0.0, 200.0, 2000).reshape(40, 50)
        got = theta(grid)
        assert got.shape == (40, 50)
        assert np.array_equal(
            got.view(np.uint64),
            np.array([[scalar(t) for t in row] for row in grid]).view(np.uint64))

    @settings(max_examples=100, deadline=None)
    @given(_HEIGHTS)
    def test_hardy_rotation_equals_scalar(self, heights):
        t = np.array(heights)
        for function in ("zeta", "beta"):
            scalar = oc.hardy_Z_for(function)
            assert np.array_equal(
                sf.hardy_Z_vec(function, t).view(np.uint64),
                np.array([scalar(x) for x in heights]).view(np.uint64))

    @settings(max_examples=100, deadline=None)
    @given(hst.lists(hst.builds(complex, _STRIP_RE, hst.floats(-120.0, 120.0)),
                     min_size=1, max_size=16))
    def test_shared_n_vector_calls_unchanged(self, points):
        # a shared-N call sums its rows in one np.sum(axis=1): each row
        # equals that row summed beside the point that sets N alone, and
        # the points whose own N is the shared one equal the scalar loop
        s = np.array(points)
        assume(np.all(np.abs(s - 1.0) > 1e-10))
        top = s[np.argmax(np.abs(s.imag))]
        n = sf._em_truncation(top.imag)
        shared = s[[sf._em_truncation(y) == n for y in s.imag]]
        for vec, scalar in ((sf.zeta_vec, sf.zeta),
                            (sf.dirichlet_beta_vec, sf.dirichlet_beta)):
            assert np.array_equal(
                _bits(vec(s)), _bits([vec(np.array([z, top]))[0] for z in s]))
            assert np.array_equal(_bits(vec(shared)),
                                  _bits([scalar(z) for z in shared]))

    @settings(max_examples=100, deadline=None)
    @given(hst.lists(hst.one_of(hst.floats(-5.7, 5.7),
                                hst.floats(-200.0, 200.0)),
                     min_size=1, max_size=12),
           hst.floats(-0.9, 3.5, exclude_min=True, exclude_max=True))
    def test_colliding_n_groups_equal_scalar(self, heights, re):
        # near-duplicate pairs (t, t + 0.01) share N, and every |t| below
        # 5.7 takes the N = 24 floor, so the pointwise head sums runs of
        # several rows, each equal to the scalar call
        t = [y for x in heights for y in (x, x + 0.01)]
        ns = [sf._em_truncation(y) for y in t]
        assume(len(set(ns)) < len(ns))
        s = np.array([complex(re, y) for y in t])
        assume(np.all(np.abs(s - 1.0) > 1e-10))
        line = [complex(0.5, y) for y in t]
        assert np.array_equal(_bits(sf.critical_line_values("zeta", t)),
                              _bits([sf.zeta(z) for z in line]))
        assert np.array_equal(_bits(sf.critical_line_values("beta", t)),
                              _bits([sf.dirichlet_beta(z) for z in line]))
        groups = [1] * len(s)           # each point its own N
        assert np.array_equal(_bits(sf._em_core(s, (1.0,), groups)),
                              _bits([sf.zeta(z) for z in s]))
        assert np.array_equal(_bits(sf._l_values("beta", s, groups)),
                              _bits([sf.dirichlet_beta(z) for z in s]))

    @pytest.mark.parametrize("s, want_re, want_im", [
        (1.0 + 0j, "0x1.921fb54442d19p-1", "0x0.0p+0"),
        (complex(1 + 1e-7, 0), "0x1.921fb5e9f643ep-1", "0x0.0p+0"),
        (complex(1 - 3e-7, 2e-7), "0x1.921fb35328774p-1",
         "0x1.4b66eaaae7433p-25"),
        (complex(1, -8e-7), "0x1.921fb54442ed5p-1", "-0x1.4b66e5760d9c3p-23"),
    ])
    def test_beta_series_branch_near_one_frozen(self, s, want_re, want_im):
        # within 1e-6 of s = 1 the pole difference takes its series branch
        # (|w| < 1e-4); values frozen from the separate-core implementation
        want = complex(float.fromhex(want_re), float.fromhex(want_im))
        for got in (sf.dirichlet_beta(s),
                    sf.dirichlet_beta_vec(np.array([s]))[0],
                    sf._l_values("beta", np.array([s, s + 10j]),
                                 [1, 1])[0]):
            assert np.array_equal(_bits(got), _bits(want))

    def test_hardy_rotation_residue_names_first_point(self, monkeypatch):
        monkeypatch.setattr(sf, "riemann_siegel_theta_vec", np.zeros_like)
        monkeypatch.setattr(sf, "critical_line_values", lambda f, t: np.array(
            [1.0, 1.0 + 3e-9j, 1.0 + 5e-9j]))
        with pytest.raises(ArgumentDomain, match="residue 3.000e-09"):
            sf.hardy_Z_vec("zeta", np.array([1.0, 2.0, 3.0]))

    def test_hardy_rotation_rejects(self):
        with pytest.raises(ArgumentDomain):
            sf.hardy_Z_vec("zeta", np.array([1.0, -0.5]))
        with pytest.raises(ArgumentDomain):
            sf.hardy_Z_vec("gamma", np.array([1.0]))


# signed zeros, the smallest subnormal and a tiny normal, then |t| <= 200
_ORDINATES = hst.one_of(
    hst.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300]),
    hst.floats(-200.0, 200.0))


class TestSharedPhaseHead:
    """zeta_lines' head, exp(-Re s log n) times one cexp row per distinct
    ordinate, against the complex np.exp head and zeta_vec, bit for bit.
    The cexp(x + iy) = exp(x) (cos y, sin y) identity it rests on was
    checked on numpy 2.4.6, Python 3.11.7 and glibc 2.36."""

    @settings(max_examples=120, deadline=None)
    @given(hst.lists(hst.floats(-2.9, 2.9), min_size=1, max_size=4),
           hst.lists(_ORDINATES, min_size=1, max_size=24),
           hst.lists(hst.lists(_ORDINATES, max_size=8), min_size=4,
                     max_size=4),
           hst.integers(1, 40))
    # the Re 2s = -5.75 line of TestMirroredFactors.test_random_contours,
    # with both signed zeros on it
    @example([-2.875, 0.6], [0.0, -0.0, 27.0], [[5e-324], [], [], []], 2)
    def test_matches_complex_exp(self, gs, shared, own, block):
        # contour lines at Re 2s = 2g share the ordinates `shared`
        lines = []
        for g, extra in zip(gs, own):
            t = np.array(shared + extra)
            z = np.empty(t.size, dtype=complex)
            z.real, z.imag = 2.0 * g, t
            lines.append(z)
        s = np.concatenate(lines)
        ns = [sf._em_truncation(float(np.max(np.abs(z.imag)))) for z in lines]
        n_of = np.repeat(ns, [z.size for z in lines])
        log_n = np.log(np.arange(max(ns), dtype=float) + 1.0)
        want = np.empty(s.size, dtype=complex)
        for n in set(ns):
            rows = n_of == n
            want[rows] = np.exp(-s[rows][:, None] * log_n[:n]).sum(axis=1)
        saved, sf._HEAD_BLOCK = sf._HEAD_BLOCK, block
        try:
            got = sf._shared_phase_head(s, n_of, log_n)
        finally:
            sf._HEAD_BLOCK = saved
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assume(np.all(np.abs(s - 1.0) > 1e-10))
        for z, v in zip(lines, sf.zeta_lines(lines)):
            assert np.array_equal(v.view(np.int64), sf.zeta_vec(z).view(np.int64))

    def test_pole_guard(self):
        with pytest.raises(ArgumentDomain, match="zeta pole"):
            sf.zeta_lines([np.array([2.0 + 1j]), np.array([1.0 + 0j])])


_ENGINE_POINT = hst.builds(complex, _STRIP_RE, hst.floats(-200.0, 200.0))
_NON_FINITE_T = hst.sampled_from([math.nan, math.inf])


# engine points, with zeta's pole and a point within 1e-10 of it
_ENGINE_OR_POLE = hst.one_of(_ENGINE_POINT, hst.sampled_from(
    [1.0 + 0j, complex(1.0, 5e-11)]))


def _first_named(s, zeta: bool) -> str:
    """The message of the first point of s outside the engine's domain
    or, if zeta, at zeta's pole."""
    for z in s.tolist():
        if not cmath.isfinite(z):
            return f"non-finite argument {z!r}"
        if abs(z.imag) > 1e4:
            return f"|Im s| above 10000 at {z!r}"
        if zeta and abs(z - 1.0) <= 1e-10:
            return "zeta pole at s = 1"
    raise AssertionError("every point in the domain")


def _insert(items, placed):
    """items with each (position, item) of placed inserted in turn."""
    items = list(items)
    for k, item in placed:
        items.insert(min(k, len(items)), item)
    return items


class TestEngineContract:
    """One way into the Euler-Maclaurin engine: no points give an empty
    result of the input's shape, a non-finite point or one above |Im s| =
    1e4 raises ArgumentDomain naming the first one, and each group of an
    _em_core call has the bits of a one-group call of its points alone."""

    @pytest.mark.parametrize("shape", [(0,), (2, 0)])
    def test_no_points(self, shape):
        s = np.empty(shape, dtype=complex)
        for got in (sf.zeta_vec(s), sf.dirichlet_beta_vec(s),
                    sf._l_values("zeta", s), sf._l_values("beta", s)):
            assert got.shape == shape and got.dtype == complex
        for function in ("zeta", "beta"):
            for got in (sf.critical_line_values(function, []),
                        sf.hardy_Z_vec(function, np.array([]))):
                assert got.shape == (0,)
            assert zc._critical_abs(function, []) == []
            assert sf.arg_rectangles(function, []) == []
        assert sf.zeta_lines([]) == []
        lines = sf.zeta_lines([s.ravel(), np.array([2.0 + 1j]), s.ravel()])
        assert [z.shape for z in lines] == [(0,), (1,), (0,)]
        assert lines[1][0] == sf.zeta(2.0 + 1j)
        for groups in (None, [], [0, 0]):
            assert sf._em_core(s.ravel(), (1.0,), groups).shape == (0,)

    @settings(max_examples=100, deadline=None)
    @given(hst.lists(_ENGINE_OR_POLE, max_size=12),
           hst.lists(hst.tuples(hst.integers(0, 12), _NON_FINITE),
                     min_size=1, max_size=3),
           hst.integers(0, 12))
    def test_first_non_finite_point_named(self, points, placed, cut):
        s = np.array(_insert(points, placed))
        named = re.escape(f"non-finite argument "
                          f"{complex(s[np.argmin(np.isfinite(s))])!r}")
        for call in (lambda s: sf.zeta(s[np.argmin(np.isfinite(s))]),
                     lambda s: sf.dirichlet_beta(
                         s[np.argmin(np.isfinite(s))])):
            with pytest.raises(ArgumentDomain, match=named):
                call(s)
        # a zeta pole before the first non-finite point is the error
        for call, zeta in ((sf.zeta_vec, True), (sf.dirichlet_beta_vec, False),
                           (lambda s: sf.zeta_lines([s[:cut], s[cut:]]),
                            True)):
            with pytest.raises(ArgumentDomain,
                               match=re.escape(_first_named(s, zeta))):
                call(s)

    @pytest.mark.parametrize("call, first", [
        (lambda: sf.zeta(0.5 + 1e12j), 0.5 + 1e12j),
        (lambda: sf.critical_line_values("zeta", [1.0, 1e12]), 0.5 + 1e12j),
        (lambda: sf.zeta_vec(np.array([2.0, 2.0 - 1e19j])), 2.0 - 1e19j)],
        ids=["zeta", "critical_line_values", "zeta_vec"])
    def test_height_above_ceiling_named(self, call, first):
        # N = 1.4 |Im s| + 16 head terms: 1e12 asked numpy for 10 TiB, and
        # 1e19 for an array too big to make
        with pytest.raises(ArgumentDomain,
                           match=re.escape(f"|Im s| above 10000 at {first!r}")):
            call()

    @settings(max_examples=100, deadline=None)
    @given(hst.lists(_ENGINE_OR_POLE, max_size=8),
           hst.lists(hst.tuples(hst.integers(0, 8), hst.one_of(
               _NON_FINITE, hst.builds(complex, _STRIP_RE, hst.sampled_from(
                   [math.nextafter(1e4, 2e4), -2e4, 1e12, 1e19, -1e300])))),
                     min_size=1, max_size=3))
    def test_first_point_out_of_domain_named(self, points, placed):
        # non-finite, above the ceiling or, for zeta, at the pole: the
        # first in input order
        s = np.array(_insert(points, placed))
        for call, zeta in ((sf.zeta_vec, True), (sf.dirichlet_beta_vec, False),
                           (lambda s: sf.zeta_lines([s[:2], s[2:]]), True)):
            with pytest.raises(ArgumentDomain,
                               match=re.escape(_first_named(s, zeta))):
                call(s)

    @pytest.mark.parametrize("points, named", [
        ([math.nan, 1.0], "non-finite argument (nan+0j)"),
        ([2.0 + 2e4j, 1.0], "|Im s| above 10000 at (2+20000j)"),
        ([1.0, math.nan], "zeta pole at s = 1")])
    def test_pole_and_domain_in_input_order(self, points, named):
        with pytest.raises(ArgumentDomain, match=f"^{re.escape(named)}$"):
            sf.zeta_vec(np.array(points, dtype=complex))

    @settings(max_examples=100, deadline=None)
    @given(hst.lists(hst.floats(0.0, 200.0), max_size=12),
           hst.lists(hst.tuples(hst.integers(0, 12), _NON_FINITE_T),
                     min_size=1, max_size=3))
    def test_first_non_finite_height_named(self, heights, placed):
        t = np.array(_insert(heights, placed))
        first = complex(0.5, t[np.argmin(np.isfinite(t))])
        named = re.escape(f"non-finite argument {first!r}")
        for function in ("zeta", "beta"):
            for call in (sf.critical_line_values, sf.hardy_Z_vec):
                with pytest.raises(ArgumentDomain, match=named):
                    call(function, t)

    @settings(max_examples=150, deadline=None)
    @given(hst.lists(hst.lists(_ENGINE_POINT, max_size=6), max_size=6),
           hst.sampled_from([((1.0,), False), ((0.25, 0.75), False),
                             ((1.0,), True)]))
    @example([[], [2.0 + 1j, 0.5 - 30j], [], [3.0 + 0j]], ((1.0,), True))
    def test_groups_equal_one_group_calls(self, groups, engine):
        # a group takes the N of its largest |Im s|, whatever its neighbours
        shifts, shared_head = engine
        points = [z for group in groups for z in group]
        assume(all(abs(z - 1.0) > 1e-10 for z in points))
        got = sf._em_core(np.array(points, dtype=complex), shifts,
                          [len(group) for group in groups], shared_head)
        want = [v for group in groups if group
                for v in sf._em_core(np.array(group), shifts)]
        assert _hex(got) == _hex(want)


# points that fail a check of log_gamma_vec, of the engine or of zeta alone
_FAILING = hst.sampled_from([
    complex(math.nan, 0.0), complex(1.0, math.inf), complex(-math.inf, -2.0),
    complex(0.5, 2e4), complex(2.0, -1e12), 1.0 + 0j, complex(1.0, 5e-11),
    -3.0 + 0j, complex(-1.0, 5e-13), 0j])
_FAILING_T = hst.sampled_from([math.nan, math.inf, -math.inf, -1.0, -1e-300,
                               2e4, -2e4, 1e12])


def _serial_first(call, points):
    """(type, message) of the first error of call on each point alone, or
    None if no point fails."""
    for z in points:
        try:
            call(np.array([z]))
        except MbzeroError as exc:
            return type(exc), str(exc)
    return None


class TestFirstFailingPoint:
    """One rule, specfun._raise_first: a vector evaluator raises what its
    point-by-point loop raises first, message included."""

    @settings(max_examples=100, deadline=None)
    @given(hst.lists(_ENGINE_POINT, max_size=8),
           hst.lists(hst.tuples(hst.integers(0, 8), _FAILING),
                     min_size=1, max_size=3))
    def test_complex_evaluators(self, points, placed):
        s = _insert(points, placed)
        for call in (sf.log_gamma_vec, sf.zeta_vec, sf.dirichlet_beta_vec,
                     sf.zeta):
            expected = _serial_first(call, s)
            if expected is None:
                call(np.array(s))
                continue
            with pytest.raises(MbzeroError) as err:
                call(np.array(s))
            assert (type(err.value), str(err.value)) == expected

    @settings(max_examples=100, deadline=None)
    @given(hst.sampled_from(["zeta", "beta"]),
           hst.lists(hst.floats(0.0, 200.0), max_size=8),
           hst.lists(hst.tuples(hst.integers(0, 8), _FAILING_T),
                     min_size=1, max_size=3))
    def test_hardy_rotation(self, function, heights, placed):
        t = _insert(heights, placed)
        call = functools.partial(sf.hardy_Z_vec, function)
        with pytest.raises(MbzeroError) as err:
            call(np.array(t))
        assert (type(err.value), str(err.value)) == _serial_first(call, t)

    @pytest.mark.parametrize("t, named", [
        ([math.nan, -1.0], "non-finite argument (0.5+nanj)"),
        ([2e4, -1.0], "|Im s| above 10000 at (0.5+20000j)"),
        ([-1.0, math.nan], "hardy_Z_vec defined for t >= 0")])
    def test_hardy_rotation_names_the_first_point(self, t, named):
        for function in ("zeta", "beta"):
            with pytest.raises(ArgumentDomain,
                               match=f"^{re.escape(named)}$"):
                sf.hardy_Z_vec(function, np.array(t))


class TestVonMangoldt:
    def test_small_table(self):
        table = sf.von_mangoldt_table(10)
        assert abs(table[8] - math.log(2)) < 1e-15
        assert 6 not in table
        assert abs(table[7] - math.log(7)) < 1e-15
        assert 1 not in table

    def test_psi_100(self):
        # direct prime-power enumeration: psi(100) = 94.04531122935739
        psi = math.fsum(sf.von_mangoldt_table(100).values())
        assert abs(psi - 94.04531122935739) < 1e-10

    def test_smallest(self):
        table = sf.von_mangoldt_table(2)
        assert set(table) == {2}
        assert abs(table[2] - math.log(2)) < 1e-15

    def test_limit_guards(self):
        with pytest.raises(ArgumentDomain):
            sf.von_mangoldt_table(1)
        with pytest.raises(ArgumentDomain, match="above ceiling"):
            sf.von_mangoldt_table(60_000_000)
