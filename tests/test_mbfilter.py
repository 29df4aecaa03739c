import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

import oracles as oc
from mbzero import mbfilter as mbf
from mbzero import specfun as sf
from mbzero import zerocensus as zc
from mbzero.errors import (
    ArgumentDomain,
    BasinEscape,
    ContourOnPole,
    NoConvergence,
    PoleInStrip,
)

A02 = mbf.KernelScale(0.2)
BETA_E1 = 2.0 * float(oc.BETA_ORDINATES[0][:18])


class TestMbIntegral:
    def test_beta_line_value_is_stable_under_panel_doubling(self):
        c = mbf.ContourSpec(abscissa=0.75, t_max=45.0, panel_count=120)
        ev = mbf.mb_integral("beta2s", BETA_E1, A02, c)
        fine = mbf._line_sum("beta2s", complex(0.5, 0.5 * BETA_E1), 0.2, c,
                             refine=2)
        assert abs(fine - ev.value) < 10.0 * ev.truncation_error

    def test_beta_line_value_frozen(self):
        # brute-force fine-quadrature oracle (mpmath tanh-sinh, 25 digits)
        want = complex(1.225750636385142e-05, 1.20832659994115e-04)
        c = mbf.ContourSpec(abscissa=0.75, t_max=45.0, panel_count=120)
        ev = mbf.mb_integral("beta2s", BETA_E1, A02, c)
        assert abs(ev.value - want) <= 1e-9 * abs(want)

    def test_spectral_filter_vanishes_at_paper_root(self):
        # the vanish-at-the-ordinate contract lives on the localized filter
        assert abs(mbf.spectral_filter("beta2s", BETA_E1, A02)) < 1e-8

    def test_conjugation_symmetry(self):
        c = mbf.ContourSpec(abscissa=0.6, t_max=45.0, panel_count=120)
        up = mbf.mb_integral("zeta2s", 9.0, A02, c).value
        down = mbf.mb_integral("zeta2s", -9.0, A02, c).value
        assert abs(down - up.conjugate()) <= 1e-12 * abs(up)

    def test_zeta_kernel_small_at_first_zero_energy(self, zeta_catalog_60):
        e = 2.0 * zeta_catalog_60[0].ordinate
        c = mbf.ContourSpec(abscissa=0.6, t_max=60.0, panel_count=160)
        ev = mbf.mb_integral("zeta2s", e, A02, c)
        assert abs(ev.value) < 1e-7
        fine = mbf._line_sum("zeta2s", complex(0.5, 0.5 * e), 0.2, c, refine=2)
        assert abs(fine - ev.value) < 10.0 * ev.truncation_error

    def test_contour_on_pole_guard(self):
        with pytest.raises(ContourOnPole):
            mbf.mb_integral("zeta2s", 5.0, A02,
                            mbf.ContourSpec(abscissa=0.5 + 1e-8, t_max=40,
                                            panel_count=100))

    def test_dd_precision_agrees_with_double(self):
        c = mbf.ContourSpec(abscissa=0.75, t_max=40.0, panel_count=100)
        d = mbf.mb_integral("beta2s", 10.0, A02, c).value
        dd = oc.mb_integral_hp("beta2s", 10.0, 0.2, c)
        assert abs(d - dd) <= 1e-12 * abs(d)


class TestKernelSet:
    def test_zeta_and_beta_only(self):
        assert mbf.KERNELS == ("zeta2s", "beta2s")

    def test_xi_kernel_is_unknown(self):
        with pytest.raises(ArgumentDomain):
            mbf.mb_integral("xi2s", 8.0, A02)
        with pytest.raises(ArgumentDomain):
            mbf.spectral_filter("xi2s", 8.0, A02)
        with pytest.raises(ArgumentDomain):
            mbf.contour_shift_delta("xi2s", 8.0, A02, 0.6, 0.9)


class TestSpectralFilter:
    @pytest.mark.parametrize("kernel", mbf.KERNELS)
    def test_agrees_with_circle_quadrature(self, kernel):
        for energy in (5.0, 17.3, 41.7, 60.0):
            direct = mbf.spectral_filter(kernel, energy, A02)
            circle = oc.spectral_filter_circle(kernel, energy, 0.2)
            assert abs(direct - circle) <= 1e-11 * abs(direct)


class TestContourShift:
    def test_example_pair(self):
        assert mbf.contour_shift_delta("zeta2s", 10.0, A02, 0.55, 0.70) < 1e-10

    def test_identical_abscissae(self):
        assert mbf.contour_shift_delta("zeta2s", 10.0, A02, 0.6, 0.6) == 0.0

    def test_twenty_random_pairs(self):
        rng = np.random.RandomState(11)
        for _ in range(20):
            energy = rng.uniform(5.0, 35.0)
            scale = mbf.KernelScale(rng.uniform(0.08, 0.45))
            g1, g2 = sorted(rng.uniform(0.54, 0.96, 2))
            assert mbf.contour_shift_delta("zeta2s", energy, scale,
                                           g1, g2) < 1e-10

    def test_pole_in_strip_raises_and_residue_corrects(self):
        energy = 10.0
        with pytest.raises(PoleInStrip) as err:
            mbf.contour_shift_delta("beta2s", energy, A02, 0.45, 0.70)
        assert err.value.pole == pytest.approx(0.5)
        # the residue-corrected difference closes the gap: the crossed pole
        # at s = nu contributes prefactor * 2 pi i * residue
        c_lo = mbf.ContourSpec(abscissa=0.45, t_max=50.0, panel_count=140)
        c_hi = mbf.ContourSpec(abscissa=0.70, t_max=50.0, panel_count=140)
        lo = mbf.mb_integral("beta2s", energy, A02, c_lo).value
        hi = mbf.mb_integral("beta2s", energy, A02, c_hi).value
        res = oc.residue_at_pole("beta2s", energy, A02,
                                  complex(0.5, 0.5 * energy))
        pred = mbf.kernel_prefactor("beta2s") * 2j * math.pi * res
        assert abs((hi - lo) - pred) < 1e-9


class TestNodeSetCache:
    def _bits(self, ev):
        return np.array([ev.value, complex(ev.truncation_error)]).view(np.uint64)

    def test_cold_and_warm_cache_give_identical_bits(self):
        c = mbf.ContourSpec(abscissa=0.6, t_max=45.0, panel_count=120)
        h = 1e-5 * 0.2
        for a in (0.2 - h, 0.2, 0.2 + h):
            mbf._node_set.cache_clear()
            cold = mbf.mb_integral("zeta2s", 12.0, mbf.KernelScale(a), c)
            warm = mbf.mb_integral("zeta2s", 12.0, mbf.KernelScale(a), c)
            assert np.array_equal(self._bits(cold), self._bits(warm))

    def test_cached_sum_matches_direct_integrand(self):
        c = mbf.ContourSpec(abscissa=0.75, t_max=45.0, panel_count=120)
        nu = complex(0.5, 0.5 * BETA_E1)
        edges = mbf._graded_edges("beta2s", nu, c)
        t, w = mbf.panel_nodes_from_edges(edges, 1)
        s = c.abscissa + 1j * t
        direct = complex(np.sum(mbf._kernel_integrand("beta2s", s, nu, 0.2) * w)) \
            * 1j * mbf.kernel_prefactor("beta2s")
        assert mbf.mb_integral("beta2s", BETA_E1, A02, c).value == direct

    def test_cached_arrays_are_read_only(self):
        c = mbf.ContourSpec(abscissa=0.6, t_max=45.0, panel_count=120)
        w, s, (lg, arith) = mbf._node_set("zeta2s", complex(0.5, 6.0), c, 0)
        with pytest.raises(ValueError):
            lg[0] = 0.0

    def test_contour_shift_delta_is_the_difference_of_mb_integrals(self):
        for energy, g1, g2 in ((10.0, 0.55, 0.70), (17.5, 0.62, 0.91)):
            got = mbf.contour_shift_delta("zeta2s", energy, A02, g1, g2)
            v1, v2 = (mbf.mb_integral("zeta2s", energy, A02,
                                      mbf.ContourSpec.default(g, energy)).value
                      for g in (g1, g2))
            assert got == abs(v1 - v2)


def _bits(values):
    return np.asarray(values, dtype=complex).view(np.uint64)


def _contour_shift_pairs():
    """The (energy, g1, g2) draws of the mb_contour_shift ledger claim."""
    rng = np.random.RandomState(8)
    pairs = []
    for _ in range(20):
        energy = rng.uniform(5.0, 35.0)
        pairs.append((energy, *sorted(rng.uniform(0.54, 0.96, 2))))
    return pairs


class TestMirroredFactors:
    """_node_set evaluates Gamma(s) and L(2s) once per conjugate pair of
    nodes; oc.scale_free_factors_unmirrored evaluates every node."""

    @staticmethod
    def _assert_matches_oracle(kernel, energy, contour, refine):
        nu = mbf.SpectralPoint(energy).nu
        _, s, factors = mbf._node_set(kernel, nu, contour, refine)
        want = oc.scale_free_factors_unmirrored(kernel, s, nu)
        for got, ref in zip(factors, want):
            assert np.array_equal(_bits(got), _bits(ref))

    # zeta2s on the ledger claim's own node sets; beta2s on their coarse sets
    @pytest.mark.parametrize("kernel, refine", [("zeta2s", 1), ("beta2s", 0)])
    def test_contour_shift_pairs(self, kernel, refine):
        for energy, g1, g2 in _contour_shift_pairs():
            for g in (g1, g2):
                contour = mbf.ContourSpec.default(g, energy)
                self._assert_matches_oracle(kernel, energy, contour, refine)

    @settings(max_examples=40, deadline=None)
    @given(hst.sampled_from(mbf.KERNELS), hst.floats(-2.9, 2.9),
           hst.floats(-40.0, 40.0), hst.floats(2.0, 40.0),
           hst.integers(1, 40), hst.integers(0, 1))
    # zeta(2s) at Re 2s = -5.75 cancels to Im +0 at a node and its mirror
    @example("zeta2s", -2.875, 0.0, 27.0, 1, 0)
    def test_random_contours(self, kernel, g, energy, t_max, panels, refine):
        contour = mbf.ContourSpec(abscissa=g, t_max=t_max, panel_count=panels)
        try:
            mbf.validate_contour(kernel, contour)
        except ContourOnPole:
            assume(False)
        self._assert_matches_oracle(kernel, energy, contour, refine)

    def test_most_nodes_are_mirrors_and_max_im_is_canonical(self):
        for energy, g1, g2 in _contour_shift_pairs()[:3]:
            contour = mbf.ContourSpec.default(g1, energy)
            _, s, _ = mbf._node_set("zeta2s", mbf.SpectralPoint(energy).nu,
                                    contour, 1)
            canon, mirror, partner = mbf._conjugate_split(s)
            assert mirror.size > 0.4 * s.size
            assert np.array_equal(_bits(s[mirror]), _bits(np.conj(s[partner])))
            assert np.all(np.isin(partner, canon))
            # the Euler-Maclaurin N comes from max |Im|, which canon keeps
            assert np.max(np.abs(s[canon].imag)) == np.max(np.abs(s.imag))

    def test_zeta_vec_sees_canonical_nodes_only(self, monkeypatch):
        seen = []
        zeta_vec = sf.zeta_vec
        monkeypatch.setattr(sf, "zeta_vec",
                            lambda z: seen.append(z.size) or zeta_vec(z))
        s = 0.6 + 1j * np.array([-3.0, -1.0, 1e-300, 1.0, 2.0, 3.0,
                                 -1e-300, 4.0])
        lg, arith = mbf._scale_free_factors("zeta2s", s, complex(0.5, 6.0))
        # -3 and -1 mirror 3 and 1; the 1e-300 pair is below the cut-off
        assert seen == [6]
        want = oc.scale_free_factors_unmirrored("zeta2s", s, complex(0.5, 6.0))
        assert np.array_equal(_bits(lg), _bits(want[0]))
        assert np.array_equal(_bits(arith), _bits(want[1]))


class TestResidueSimpleZero:
    def test_first_zero(self, zeta_catalog_60):
        s0 = complex(0.25, 0.5 * zeta_catalog_60[0].ordinate)
        val = oc.residue_simple_zero(s0, A02)
        assert abs(val) > 1e-6
        assert math.isfinite(abs(val))

    def test_not_a_zero(self):
        with pytest.raises(oc.NotAZero):
            oc.residue_simple_zero(complex(0.25, 5.0), A02)

    def test_conjugate_symmetry(self, zeta_catalog_60):
        s0 = complex(0.25, 0.5 * zeta_catalog_60[0].ordinate)
        v = oc.residue_simple_zero(s0, A02)
        vc = oc.residue_simple_zero(s0.conjugate(), A02)
        assert abs(vc - v.conjugate()) <= 1e-10 * abs(v)


class TestDoublePoleCircle:
    def test_constant_pair_integral_vanishes(self):
        s, w = mbf.circle_nodes(0.3 + 0.2j, 0.05)
        quad = complex(np.sum(2.0 * 3.0 / (s - (0.3 + 0.2j)) ** 2 * w))
        assert abs(quad) < 1e-13

    def test_full_residue_matches_on_ladder(self):
        rep = mbf.double_pole_circle(complex(0.3, 0.2))
        assert rep.verdict == "pass"
        assert all(g < 1e-10 for g in rep.extra["full_residue_gap"])

    def test_printed_form_misses_constant_offset(self):
        rep = mbf.double_pole_circle(complex(0.3, 0.2))
        gaps = rep.extra["printed_form_gap"]
        expected = abs(2.0 * math.pi * cmath.exp(0.3 + 0.2j)
                       * cmath.cosh(1.0))
        for g in gaps:
            assert abs(g - expected) <= 1e-8 * expected
        # the fitted-C bound still holds on the ladder (it absorbs the offset)
        c_fit = max(g / e for g, e in zip(gaps, rep.extra["ladder"]))
        for g, e in zip(gaps, rep.extra["ladder"]):
            assert g <= c_fit * e + 1e-12


class TestHadamardFinitePart:
    def test_pure_double_pole(self):
        val = mbf.hadamard_finite_part(lambda z: 1.0 / (z * z), 0j,
                                       [0.1, 0.05, 0.025])
        assert abs(val) < 1e-10

    def test_mixed_pole(self):
        # 1/z^2 piece has finite part 0; 1/z integrates to the symmetric PV
        val = mbf.hadamard_finite_part(lambda z: (1.0 + z) / (z * z), 0j,
                                       [0.1, 0.05, 0.025])
        assert abs(val) < 1e-10

    def test_ladder_independence(self):
        f = lambda z: (2.0 + cmath.sin(z)) / (z - 0.1) ** 2
        v1 = mbf.hadamard_finite_part(f, 0.1 + 0j, [0.2, 0.1, 0.05, 0.025])
        v2 = mbf.hadamard_finite_part(f, 0.1 + 0j, [0.27, 0.09, 0.03])
        assert abs(v1 - v2) < 1e-8

    def test_bad_ladder(self):
        with pytest.raises(ArgumentDomain):
            mbf.hadamard_finite_part(lambda z: 1.0 / z ** 2, 0j, [0.1, 0.2, 0.3])


class TestNewtonFilterRoot:
    def test_beta_first_root(self):
        e = mbf.newton_filter_root("beta2s", 12.0, A02)
        want = 2.0 * float(oc.BETA_ORDINATES[0][:20])
        assert abs(e - want) < 1e-8

    def test_beta_second_root(self):
        e = mbf.newton_filter_root("beta2s", 20.5, A02)
        assert abs(e - 20.487540608) < 1e-8

    def test_zeta_first_root(self, zeta_catalog_60):
        t1 = zeta_catalog_60[0].ordinate
        e = mbf.newton_filter_root("zeta2s", 28.3, A02)
        assert abs(e - 2.0 * t1) < 1e-7

    def test_double_double_tightens(self):
        e = float(mbf.newton_root_dd("beta2s", 12.0, A02))
        want = 2.0 * float(oc.BETA_ORDINATES[0][:22])
        assert abs(e - want) < 1e-10

    def test_dressed_filter_value_is_no_root_test(self):
        # at E = 60, far from any root, the dressing alone pushes |F| below
        # 1e-11 while |L(1/2 + 30i)| is about 0.6
        assert abs(mbf.spectral_filter("zeta2s", 60.0, A02)) < 1e-11
        with pytest.raises(NoConvergence, match="not a zero"):
            mbf._root_residual("zeta2s", 60.0)

    @pytest.mark.parametrize("precision", ["double", "double_double"])
    def test_residual_above_limit_is_no_convergence(self, precision,
                                                     monkeypatch):
        monkeypatch.setattr(zc, "RESIDUAL_LIMIT", 0.0)
        root = {"double": mbf.newton_filter_root,
                "double_double": mbf.newton_root_dd}[precision]
        with pytest.raises(NoConvergence, match="not a zero"):
            root("beta2s", 12.0, A02)

    def test_dd_root_keeps_full_precision(self):
        root = mbf.newton_root_dd("beta2s", 12.0, A02)
        with mp.workdps(31):
            assert abs(root - 2 * mp.mpf(oc.BETA_ORDINATES[0])) < 1e-20

    def test_dd_zeta_roots_match_zetazero(self):
        # the first ten 31-digit roots against mpmath's independent zeros
        with mp.workdps(40):
            for frozen in oc.ZETA_ORDINATES[:10]:
                want = 2 * mp.mpf(frozen)
                root = mbf.newton_root_dd("zeta2s", float(want) + 0.05, A02)
                assert abs(root - want) < 1e-30 * want

    def test_unreachable_guess(self):
        with pytest.raises((BasinEscape, NoConvergence)):
            mbf.newton_filter_root("beta2s", 1.0, A02)

    def test_filter_zero_equivalence_both_ways(self, beta_catalog):
        # every Newton root pairs with an ordinate, and conversely
        roots = [mbf.newton_filter_root("beta2s", 2 * r.ordinate + 0.05, A02)
                 for r in beta_catalog]
        for e, cat in zip(roots, beta_catalog):
            assert abs(e - 2.0 * cat.ordinate) < 1e-8


class TestScaleLimits:
    def test_a_to_zero_pole_free_band(self):
        mags = []
        for a in (0.1, 0.05, 0.025, 0.0125):
            c = mbf.ContourSpec(abscissa=0.25, t_max=45.0, panel_count=120)
            mags.append(abs(mbf.mb_integral("zeta2s", 10.0,
                                            mbf.KernelScale(a), c).value))
        assert all(x > y for x, y in zip(mags, mags[1:]))

    def test_negative_abscissa_plateau_matches_crossed_residue(self):
        # at g = -1/4 the Gamma(s) pole at s = 0 has been crossed; its
        # a-independent residue is the floor of the a -> 0 limit
        nu = complex(0.5, 5.0)
        floor = abs(mbf.kernel_prefactor("zeta2s") * 2j * math.pi
                    * (-0.5) * cmath.exp(sf.log_gamma(-nu)))
        c = mbf.ContourSpec(abscissa=-0.25, t_max=45.0, panel_count=120)
        val = abs(mbf.mb_integral("zeta2s", 10.0, mbf.KernelScale(0.001),
                                  c).value)
        assert abs(val - floor) < 0.05 * floor

    def test_scale_regularity(self):
        from mbzero.claims import claim_scale_regularity
        rep = claim_scale_regularity(None, None)
        assert rep.verdict == "pass"

    def test_scale_domain(self):
        with pytest.raises(ArgumentDomain):
            mbf.KernelScale(1.5)
        with pytest.raises(ArgumentDomain):
            mbf.KernelScale(0.0)
