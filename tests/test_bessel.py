import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import oracles as oc
from mbzero import bessel as bs
from mbzero.errors import ArgumentDomain, NoConvergence


class TestSpectralParameter:
    def test_feeds_l2_classifier(self):
        # the order nu = 1/2 + iE/2 attached to the energy E = 14.1347
        from mbzero.operatorlab import eigenfunction_L2_classifier
        rep = eigenfunction_L2_classifier(complex(0.5, 0.5 * 14.1347))
        assert rep.verdict == "pass"


class TestBesselK:
    def test_half_order_closed_form(self):
        want = math.sqrt(math.pi / 2.0) * math.exp(-1.0)
        ev = bs.bessel_K(0.5, 1.0)
        assert abs(ev.value - want) < 1e-13 * want
        assert ev.abs_error_estimate < 1e-12

    def test_order_negation_example(self):
        k1 = bs.bessel_K(complex(0.5, 3.0), 2.0).value
        k2 = bs.bessel_K(complex(-0.5, -3.0), 2.0).value
        assert abs(k1 - k2) <= 1e-11 * abs(k1)

    def test_against_mb_representation_oracle(self):
        # frozen from the Mellin-Barnes-representation route at 30 digits
        want = complex(0.00016714909133596509, 0.0001154267995237568)
        got = bs.bessel_K(complex(0.5, 6.0209489047), 0.5).value
        assert abs(got - want) <= 1e-11 * abs(want)

    def test_domain_guards(self):
        with pytest.raises(ArgumentDomain):
            bs.bessel_K(0.5, -1.0)
        with pytest.raises(ArgumentDomain):
            bs.bessel_K(complex(0.5, 150.0), 1.0)

    def test_order_symmetry_random(self):
        rng = np.random.RandomState(7)
        for _ in range(100):
            nu = complex(rng.uniform(-2, 2), rng.uniform(-60, 60))
            x = rng.uniform(0.05, 20.0)
            k1 = bs.bessel_K(nu, x).value
            assert abs(k1 - bs.bessel_K(-nu, x).value) <= 1e-10 * abs(k1)

    def test_conjugation_random(self):
        rng = np.random.RandomState(8)
        for _ in range(100):
            nu = complex(rng.uniform(-2, 2), rng.uniform(-60, 60))
            x = rng.uniform(0.05, 20.0)
            k1 = bs.bessel_K(nu, x).value
            k2 = bs.bessel_K(nu.conjugate(), x).value
            assert abs(k2 - k1.conjugate()) <= 1e-10 * abs(k1)

    def test_ode_residual_50_points(self):
        rng = np.random.RandomState(9)
        for _ in range(50):
            nu = complex(rng.uniform(-1.5, 1.5), rng.uniform(-10, 10))
            x = rng.uniform(0.5, 10.0)
            assert oc.ode_residual(nu, x) < 1e-6


def _assert_same_as_two_pass(nu, x, tol=1e-12):
    """bessel_K equals the scratch-built passes bit for bit, or both fail
    with the same last delta; returns the oracle's halving count."""
    try:
        want, halvings = oc.bessel_K_two_pass(nu, x, tol)
    except NoConvergence as exc:
        with pytest.raises(NoConvergence) as got:
            bs.bessel_K(nu, x, tol)
        assert str(got.value).endswith(str(exc))
        return None
    got = bs.bessel_K(nu, x, tol)
    assert got.value == want.value
    assert got.abs_error_estimate == want.abs_error_estimate
    return halvings


def _pass_lengths(nu, x):
    """Spacing h and the half-lengths n and n_half of the h and h/2
    trapezoid grids."""
    beta, _ = bs._k_path(nu, x)
    delta = 0.5 * math.pi - beta if beta > 0.0 else 0.5 * math.pi
    h = min(0.1, 2.0 * math.pi / (abs(nu.imag) + 40.0 / delta))
    t_max = bs._k_reach(nu, x, beta)
    return h, int(t_max / h) + 1, int(t_max / (0.5 * h)) + 1


class TestNestedTrapezoid:
    """One evaluation on the h/2 grid serves the h and h/2 passes."""

    EIGEN_ORDER = complex(0.5, 7.0673)

    def test_eigenfunction_l2_points(self):
        # the 9,000 points of the eigenfunction_l2 claim
        for lo in (1e-3, 5e-4, 2.5e-4):
            for x in np.geomspace(lo, 40.0, 3000):
                got = bs.bessel_K(self.EIGEN_ORDER, float(x))
                want, _ = oc.bessel_K_two_pass(self.EIGEN_ORDER, float(x))
                assert got.value == want.value
                assert got.abs_error_estimate == want.abs_error_estimate

    @settings(max_examples=300, deadline=None)
    @given(hst.floats(-5.0, 5.0), hst.floats(-100.0, 100.0),
           hst.floats(0.05, 50.0))
    def test_order_box(self, re, im, x):
        _assert_same_as_two_pass(complex(re, im), x)

    @pytest.mark.parametrize("nu, x, tol", [
        (complex(-2.0, 30.0), 3.0, 1e-15),   # cached grid, 6 halvings
        (complex(0.3, 60.0), 70.0, 1e-15),   # x-dependent path, 2 halvings
        (complex(0.5, 7.0673), 20.0, 1e-16),  # x-dependent path, 4 halvings
    ])
    def test_further_halvings(self, nu, x, tol):
        assert _assert_same_as_two_pass(nu, x, tol) >= 2

    def test_stalled_quadrature_same_delta(self):
        assert _assert_same_as_two_pass(complex(1.5, 2.0), 0.1, 1e-16) is None

    @pytest.mark.parametrize("x, odd", [(0.1, False), (0.2, True)])
    def test_half_grid_end_index(self, x, odd):
        _, n, n_half = _pass_lengths(self.EIGEN_ORDER, x)
        assert n_half == (2 * n - 1 if odd else 2 * n)
        assert _assert_same_as_two_pass(self.EIGEN_ORDER, x) == 1

    def test_cached_grid_is_read_only(self):
        nu = self.EIGEN_ORDER
        bs._k_cached.cache_clear()
        bs.bessel_K(nu, 0.5)
        bs.bessel_K(nu, 0.51)
        assert bs._k_cached.cache_info()[:2] == (1, 1)  # hits, misses
        beta, fixed = bs._k_path(nu, 0.5)
        h, n, _ = _pass_lengths(nu, 0.5)
        cosh_t, nu_t = bs._k_cached(nu, beta, 0.5 * h, -(-2 * n // 64) * 64)
        assert bs._k_cached.cache_info()[:2] == (2, 1)
        for arr in (cosh_t, nu_t):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_path_fixed_below_saddle_cap(self):
        nu = self.EIGEN_ORDER
        assert bs._k_path(nu, 0.01) == bs._k_path(nu, 7.0)
        assert bs._k_path(nu, 7.0)[1]
        assert not bs._k_path(nu, 20.0)[1]
        assert bs._k_path(complex(1.0, 4.0), 30.0) == (0.0, True)


class TestBesselI:
    def test_small_argument_leading_term(self):
        assert abs(bs.bessel_I(0.0, 1e-9).value - 1.0) < 1e-12

    def test_half_order_closed_form(self):
        want = math.sqrt(2.0 / math.pi) * math.sinh(1.0)
        assert abs(bs.bessel_I(0.5, 1.0).value - want) < 1e-12 * want

    def test_against_miller_oracle(self):
        # frozen from the backward-recurrence oracle at 30 digits
        want = complex(8.62904695203994, -5.325804035437782)
        got = bs.bessel_I(complex(0.5, 2.0), 3.0).value
        assert abs(got - want) <= 1e-11 * abs(want)

    def test_series_guards(self):
        with pytest.raises(ArgumentDomain, match="series mode limited"):
            bs.bessel_I(0.5, 31.0)
        with pytest.raises(ArgumentDomain):
            bs.bessel_I(0.5, 0.0)


class TestWronskian:
    def test_half_order(self):
        assert bs.wronskian_check(0.5, 1.0) < 1e-9

    def test_spectral_order(self):
        assert bs.wronskian_check(complex(0.5, 5.0), 2.0) < 1e-7

    def test_zero_order_large_x(self):
        assert bs.wronskian_check(0.0, 10.0) < 1e-7

    def test_random_orders(self):
        rng = np.random.RandomState(10)
        for _ in range(20):
            nu = complex(rng.uniform(-1.5, 1.5), rng.uniform(-15, 15))
            x = rng.uniform(0.3, 12.0)
            assert bs.wronskian_check(nu, x) < 1e-7


class TestAsymptoticValidator:
    def test_small_x_power(self):
        rep = bs.small_x_power(complex(0.3, 0.0))
        assert rep.verdict == "pass"
        assert abs(rep.lhs.real - (-0.3)) <= 0.006

    def test_large_x_decay(self):
        rep = bs.large_x_decay(complex(0.5, 4.0))
        assert rep.verdict == "pass"
        assert abs(rep.lhs.real - (-1.0)) <= 0.02

    def test_zero_order_log_case(self):
        # K_0(x) ~ -log(x/2) - gamma_E as x -> 0: no power law at nu = 0
        for x in np.geomspace(1e-3, 1e-1, 9):
            profile = -math.log(x / 2.0) - 0.5772156649015329
            assert abs(bs.bessel_K(0.0, float(x)).value / profile - 1.0) < 0.02

    def test_strip_guard(self):
        with pytest.raises(ArgumentDomain):
            bs.small_x_power(complex(0.7, 0.0))
