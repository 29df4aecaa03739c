import math

import numpy as np
import pytest

import oracles as oc
from mbzero import bessel as bs
from mbzero.errors import ArgumentDomain, SeriesOverflow


class TestSpectralParameter:
    def test_order_on_critical_line(self):
        p = bs.SpectralParameter(energy=28.269)
        assert p.order.real == 0.5
        assert p.order.imag == 0.5 * 28.269

    def test_feeds_l2_classifier(self):
        from mbzero.operatorlab import eigenfunction_L2_classifier
        rep = eigenfunction_L2_classifier(bs.SpectralParameter(energy=14.1347))
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
        with pytest.raises(SeriesOverflow):
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
        rep = bs.asymptotic_validator(complex(0.3, 0.0), "small_x")
        assert rep.verdict == "pass"
        assert abs(rep.lhs.real - (-0.3)) <= 0.006

    def test_large_x_decay(self):
        rep = bs.asymptotic_validator(complex(0.5, 4.0), "large_x")
        assert rep.verdict == "pass"
        assert abs(rep.lhs.real - (-1.0)) <= 0.02

    def test_zero_order_log_case(self):
        rep = bs.asymptotic_validator(complex(0.0, 0.0), "small_x")
        assert rep.verdict == "pass"
        assert "log" in rep.notes

    def test_strip_guard(self):
        with pytest.raises(ArgumentDomain):
            bs.asymptotic_validator(complex(0.7, 0.0), "small_x")
