import math

import numpy as np
import pytest

import oracles as oc
from mbzero import operatorlab as ol
from mbzero.errors import ArgumentDomain
from mbzero.quadrature import rk_adaptive


class TestPruferIntegrate:
    def test_constant_potential_surrogate(self):
        # oracle: theta' = 1 - sin^2 theta has closed form tan(theta) = x - x0;
        # the -(1/x) sin cos term shifts the advance by at most
        # (1/2) log(1 + pi) ~ 0.72 on [1, 1 + pi]
        def rhs(x, th):
            s, c = math.sin(th), math.cos(th)
            return 1.0 - s * s - s * c / x
        advance = rk_adaptive(rhs, 1.0, 0.0, 1.0 + math.pi)
        oracle = math.atan(math.pi)
        assert abs(advance - oracle) < 0.5 * math.log(1.0 + math.pi)
        assert 0.5 < advance < math.pi

    def test_low_energy_no_nodes(self):
        states = ol.prufer_integrate(
            ol.RadialProblem(x_min=0.1, x_max=6.0, energy=0.5))
        assert oc.node_count(states) == 0

    def test_monotonicity_pair(self):
        lo = ol.phase_advance(ol.RadialProblem(0.1, 12.0, 3.0))
        hi = ol.phase_advance(ol.RadialProblem(0.1, 12.0, 5.0))
        assert hi >= lo

    @pytest.mark.parametrize("energy", [1.0, 2.5, 4.5, 9.0, 12.0])
    def test_phase_advance_is_trajectory_end(self, energy):
        prob = ol.RadialProblem(x_min=0.1, x_max=10.0, energy=energy)
        states = ol.prufer_integrate(prob)
        assert ol.phase_advance(prob) == states[-1].phase - states[0].phase

    def test_node_count_grows_with_energy(self):
        counts = [oc.node_count(ol.prufer_integrate(
            ol.RadialProblem(x_min=0.1, x_max=6.0, energy=e)))
            for e in (0.5, 4.0, 9.0)]
        assert counts[0] <= counts[1] <= counts[2]
        assert counts[2] > 0

    def test_trajectory_shape(self):
        states = ol.prufer_integrate(
            ol.RadialProblem(x_min=0.5, x_max=4.0, energy=2.0))
        assert states[0].x == 0.5
        assert abs(states[-1].x - 4.0) < 1e-9
        assert all(s.amplitude > 0 for s in states)

    def test_domain_guards(self):
        with pytest.raises(ArgumentDomain):
            ol.RadialProblem(x_min=1e-5, x_max=1.0, energy=1.0)
        with pytest.raises(ArgumentDomain):
            ol.RadialProblem(x_min=2.0, x_max=1.0, energy=1.0)

    def test_rk_against_closed_form(self):
        # y' = -2xy: y = exp(-x^2)
        got = rk_adaptive(lambda x, y: -2.0 * x * y, 0.0, 1.0, 2.0, tol=1e-12)
        assert abs(got - math.exp(-4.0)) < 1e-10


class TestFrobeniusClassify:
    def test_spectral_order_is_limit_point(self):
        assert ol.frobenius_classify(complex(0.5, 5.0)) == "limit_point"

    def test_subcritical_is_limit_circle(self):
        assert ol.frobenius_classify(complex(0.3, 0.0)) == "limit_circle"

    def test_boundary_is_limit_point_with_log_divergence(self):
        assert ol.frobenius_classify(complex(0.5, 0.0)) == "limit_point"
        profile = oc.frobenius_divergence_profile(complex(0.5, 0.0))
        # integrals grow by ln 10 per cutoff decade: the log signature
        increments = np.diff([v for _, v in profile])
        assert np.allclose(increments, math.log(10.0), rtol=1e-3)

    def test_fifty_point_grid(self):
        grid = list(np.linspace(0.02, 0.98, 25)) \
            + [complex(0.5, e) for e in np.linspace(1.0, 40.0, 25)]
        for nu in grid:
            nu = complex(nu)
            want = "limit_circle" if nu.real < 0.5 else "limit_point"
            assert ol.frobenius_classify(nu) == want


class TestDeficiencyDivergence:
    def test_log_slope_fit_passes(self):
        rep = ol.deficiency_divergence_check()
        assert rep.verdict == "pass"
        assert rep.abs_discrepancy <= 0.15

    def test_integral_strictly_increases(self):
        rep = ol.deficiency_divergence_check()
        vals = rep.extra["integrals"]
        assert vals[0] < vals[1] < vals[2]

    def test_envelope_slope_matches_one_over_x(self):
        # mean slope per log X equals the 1/x-envelope constant sqrt(2)/pi
        rep = ol.deficiency_divergence_check()
        assert abs(rep.lhs.real - math.sqrt(2.0) / math.pi) \
            < 0.05 * math.sqrt(2.0) / math.pi

    def test_complex_ray_growth_recorded(self):
        rep = ol.deficiency_divergence_check()
        rate = rep.extra["complex_ray_growth_rate"]
        assert abs(rate - 0.5) < 0.1


class TestJ0:
    def test_small_and_patch_region(self):
        # frozen mpmath references
        assert abs(ol.bessel_j0(5.0) - (-0.17759677131433830)) < 1e-12
        assert abs(ol.bessel_j0(30.0) - (-0.086367983581040142)) < 1e-7

    def test_complex_argument(self):
        want = complex(-3.366500829202176, -2.0954292210034464)
        assert abs(ol.bessel_j0(complex(3.0, 3.0)) - want) < 1e-10 * abs(want)


class TestL2Classifier:
    def test_critical_line_convergent(self):
        rep = ol.eigenfunction_L2_classifier(complex(0.5, 7.0673))
        assert rep.verdict == "pass"
        assert rep.extra["tail_increment"] < 1e-12

    def test_off_line_probes_converge(self):
        for re in (0.3, 0.7):
            assert ol.eigenfunction_L2_classifier(complex(re, 0.0)).verdict \
                == "pass"

    def test_supercritical_divergent(self):
        rep = ol.eigenfunction_L2_classifier(complex(1.2, 0.0))
        assert rep.verdict == "divergent"

    def test_order_negation_symmetry(self):
        r1 = ol.eigenfunction_L2_classifier(complex(0.5, 7.0673))
        r2 = ol.eigenfunction_L2_classifier(complex(-0.5, -7.0673))
        assert abs(r1.lhs - r2.lhs) <= 1e-10 * abs(r1.lhs)
