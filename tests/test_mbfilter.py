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
from mbzero.errors import ArgumentDomain, NoConvergence

A02 = mbf.KernelScale(0.2)
BETA_E1 = 2.0 * float(oc.BETA_ORDINATES[0][:18])


def _refined_line_sum(energy, a, contour, refine):
    """mb_integral's line sum with each graded panel split `refine` times,
    every node evaluated on its own account."""
    w, s = oc.line_node_set(energy, contour, refine)
    vals = mbf._kernel_integrand(complex(0.5, 0.5 * energy), s, a)
    return complex(np.sum(vals * w)) * 1j * mbf.kernel_prefactor("zeta")


class TestMbIntegral:
    def test_spectral_filter_vanishes_at_paper_root(self):
        # the vanish-at-the-ordinate contract lives on the localized filter
        assert abs(mbf.spectral_filter("beta", BETA_E1, A02)) < 1e-8

    def test_conjugation_symmetry(self):
        c = mbf.ContourSpec(abscissa=0.6, t_max=45.0, panel_count=120)
        up = mbf.mb_integral(9.0, A02, c)
        down = mbf.mb_integral(-9.0, A02, c)
        assert abs(down - up.conjugate()) <= 1e-12 * abs(up)

    def test_zeta_kernel_small_at_first_zero_energy(self, zeta_catalog_60):
        # halving every panel again moves the value by less than ten times
        # the last halving plus the tail bound
        e = 2.0 * zeta_catalog_60[0].ordinate
        c = mbf.ContourSpec(abscissa=0.6, t_max=60.0, panel_count=160)
        value = mbf.mb_integral(e, A02, c)
        assert abs(value) < 1e-7
        coarse, fine = (_refined_line_sum(e, 0.2, c, r) for r in (0, 2))
        tail = mbf._tail_estimate(complex(0.5, 0.5 * e), 0.2, c)
        assert abs(fine - value) < 10.0 * (abs(value - coarse) + tail)

    def test_contour_on_pole_guard(self):
        with pytest.raises(ArgumentDomain, match="of a pole ladder"):
            mbf.mb_integral(5.0, A02,
                            mbf.ContourSpec(abscissa=0.5 + 1e-8, t_max=40,
                                            panel_count=100))

    def test_dd_precision_agrees_with_double(self):
        c = mbf.ContourSpec(abscissa=0.75, t_max=40.0, panel_count=100)
        d = mbf.mb_integral(10.0, A02, c)
        dd = oc.mb_integral_hp(10.0, 0.2, c)
        assert abs(d - dd) <= 1e-12 * abs(d)


class TestFunctionTag:
    def test_unknown_tag_raises(self):
        # a kernel name or an unknown function never reaches another kernel
        for root in (mbf.spectral_filter, mbf.newton_filter_root,
                     lambda tag, e, scale: mbf.newton_root_dd(tag, e, e,
                                                              scale)):
            for tag in ("zeta2s", "xi"):
                with pytest.raises(ArgumentDomain, match="unknown function"):
                    root(tag, 28.3, A02)


class TestSpectralFilter:
    # ids are the kernels' names, as the filter_roots.csv header prints them
    @pytest.mark.parametrize("function", ["zeta", "beta"],
                             ids=["zeta2s", "beta2s"])
    def test_agrees_with_circle_quadrature(self, function):
        for energy in (5.0, 17.3, 41.7, 60.0):
            direct = mbf.spectral_filter(function, energy, A02)
            circle = oc.spectral_filter_circle(function, energy, 0.2)
            assert abs(direct - circle) <= 1e-11 * abs(direct)


class TestContourShift:
    def test_example_pair(self):
        assert mbf.contour_shift_delta(10.0, A02, 0.55, 0.70) < 1e-10

    def test_identical_abscissae(self):
        assert mbf.contour_shift_delta(10.0, A02, 0.6, 0.6) == 0.0

    def test_twenty_random_pairs(self):
        rng = np.random.RandomState(11)
        for _ in range(20):
            energy = rng.uniform(5.0, 35.0)
            scale = mbf.KernelScale(rng.uniform(0.08, 0.45))
            g1, g2 = sorted(rng.uniform(0.54, 0.96, 2))
            assert mbf.contour_shift_delta(energy, scale, g1, g2) < 1e-10

    def test_pole_in_strip_raises_and_residue_corrects(self):
        energy = 10.0
        with pytest.raises(ArgumentDomain, match=r"Re s = 0\.5 inside"):
            mbf.contour_shift_delta(energy, A02, 0.45, 0.70)
        # the residue-corrected difference closes the gap: the strip crosses
        # the Gamma(s - nu) pole at s = nu and the zeta(2s) pole at s = 1/2,
        # each contributing prefactor * 2 pi i * residue
        c_lo = mbf.ContourSpec(abscissa=0.45, t_max=50.0, panel_count=140)
        c_hi = mbf.ContourSpec(abscissa=0.70, t_max=50.0, panel_count=140)
        lo = mbf.mb_integral(energy, A02, c_lo)
        hi = mbf.mb_integral(energy, A02, c_hi)
        res = sum(oc.residue_at_pole(energy, A02, pole)
                  for pole in (complex(0.5, 0.5 * energy), 0.5))
        pred = mbf.kernel_prefactor("zeta") * 2j * math.pi * res
        assert abs((hi - lo) - pred) < 1e-9


class TestNodeSetCache:
    def test_cold_and_warm_cache_give_identical_bits(self):
        c = mbf.ContourSpec(abscissa=0.6, t_max=45.0, panel_count=120)
        h = 1e-5 * 0.2
        for a in (0.2 - h, 0.2, 0.2 + h):
            mbf._node_set.cache_clear()
            cold = mbf.mb_integral(12.0, mbf.KernelScale(a), c)
            warm = mbf.mb_integral(12.0, mbf.KernelScale(a), c)
            assert np.array_equal(_bits([cold]), _bits([warm]))

    def test_cached_sum_matches_direct_integrand(self):
        c = mbf.ContourSpec(abscissa=0.75, t_max=45.0, panel_count=120)
        assert mbf.mb_integral(12.0, A02, c) == \
            _refined_line_sum(12.0, 0.2, c, 1)

    def test_cached_arrays_are_read_only(self):
        c = mbf.ContourSpec(abscissa=0.6, t_max=45.0, panel_count=120)
        w, s, (lg, arith) = mbf._node_set(complex(0.5, 6.0), c)
        with pytest.raises(ValueError):
            lg[0] = 0.0

    def test_contour_shift_delta_is_the_difference_of_mb_integrals(self):
        for energy, g1, g2 in ((10.0, 0.55, 0.70), (17.5, 0.62, 0.91)):
            got = mbf.contour_shift_delta(energy, A02, g1, g2)
            v1, v2 = (mbf.mb_integral(energy, A02, mbf.ContourSpec(g))
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


class TestContourShiftDeltas:
    """contour_shift_deltas, one zeta_lines call for all the lines, against
    the serial mb_integral loop: the same bits and the same first error."""

    def test_claim_pairs(self):
        pairs = _contour_shift_pairs()
        got = mbf.contour_shift_deltas(pairs, A02)
        assert [d.hex() for d in got] == \
            [d.hex() for d in oc.contour_shift_deltas_serial(pairs, A02)]
        assert max(got).hex() == "0x1.617398f2aaa48p-60"

    @settings(max_examples=12, deadline=None)
    @given(hst.lists(hst.tuples(hst.floats(-40.0, 40.0), hst.floats(-2.9, 2.9),
                                hst.floats(-2.9, 2.9)), min_size=1, max_size=3),
           hst.floats(0.01, 0.99))
    # a strip with a pole ladder after a good pair
    @example([(12.0, 0.6, 0.9), (10.0, 0.45, 0.7)], 0.2)
    # the first line's tail bound fails (NoConvergence, exit 3) before the
    # second line, on a pole ladder, fails to build (ArgumentDomain, exit 5)
    @example([(120.0, 0.2, 0.5 - 1e-9)], 0.2)
    # the first line fails to build: no line reaches zeta_lines
    @example([(10.0, 0.45, 0.7)], 0.2)
    def test_random_pairs(self, triples, a):
        scale = mbf.KernelScale(a)
        assert oc.outcome(mbf.contour_shift_deltas, triples, scale) == \
            oc.outcome(oc.contour_shift_deltas_serial, triples, scale)

    def test_no_pairs(self):
        assert mbf.contour_shift_deltas([], A02) == []

    def test_factors_line_by_line(self, monkeypatch):
        # g = -2.875 and -2.65 take the mirror fallback of zeta(2s): a
        # partner value there has no bit-exact conjugate
        seen = []
        line_integral = mbf._line_integral
        monkeypatch.setattr(mbf, "_line_integral", lambda nu, a, c, node_set:
                            seen.append((nu, node_set))
                            or line_integral(nu, a, c, node_set))
        triples = _contour_shift_pairs()[:2] + [(10.0, -2.875, -2.65)]
        mbf.contour_shift_deltas(triples, A02)
        assert len(seen) == 6
        for nu, (_, s, factors) in seen:
            want = oc.scale_free_factors_unmirrored("zeta", s, nu)
            for got, ref in zip(factors, want):
                assert np.array_equal(_bits(got), _bits(ref))
        for _, (_, s, (_, arith)) in seen[4:]:
            v = arith[mbf._conjugate_split(s)[2]]
            assert not np.all(np.isfinite(v) & (v.imag != 0.0))

    @pytest.mark.parametrize("bad", [
        (10.0, 0.45, 0.70),             # a pole ladder inside the strip
        (10.0, 0.5 + 1e-8, 0.70),       # a line on a pole ladder
        (math.nan, 0.6, 0.8),           # raised by the log-Gamma part
    ])
    def test_first_error_after_good_pairs(self, bad):
        triples = _contour_shift_pairs()[:2] + [bad, (12.0, 0.45, 0.7)]
        want = oc.outcome(oc.contour_shift_deltas_serial, triples, A02)
        assert want[0] is ArgumentDomain
        assert oc.outcome(mbf.contour_shift_deltas, triples, A02) == want


class TestMirroredFactors:
    """_node_set evaluates Gamma(s) and zeta(2s) once per conjugate pair of
    nodes; oc.scale_free_factors_unmirrored evaluates every node."""

    @staticmethod
    def _assert_matches_oracle(s, nu, factors):
        want = oc.scale_free_factors_unmirrored("zeta", s, nu)
        for got, ref in zip(factors, want):
            assert np.array_equal(_bits(got), _bits(ref))

    def test_contour_shift_pairs(self):
        # the ledger claim's own node sets
        for energy, g1, g2 in _contour_shift_pairs():
            nu = complex(0.5, 0.5 * energy)
            for g in (g1, g2):
                _, s, factors = mbf._node_set(nu, mbf.ContourSpec(g))
                self._assert_matches_oracle(s, nu, factors)

    @settings(max_examples=40, deadline=None)
    @given(hst.floats(-2.9, 2.9), hst.floats(-40.0, 40.0),
           hst.floats(2.0, 40.0), hst.integers(1, 40), hst.integers(0, 1))
    # zeta(2s) at Re 2s = -5.75 cancels to Im +0 at a node and its mirror
    @example(-2.875, 0.0, 27.0, 1, 0)
    def test_random_contours(self, g, energy, t_max, panels, refine):
        contour = mbf.ContourSpec(abscissa=g, t_max=t_max, panel_count=panels)
        try:
            _, s = oc.line_node_set(energy, contour, refine)
        except ArgumentDomain:
            assume(False)
        nu = complex(0.5, 0.5 * energy)
        self._assert_matches_oracle(s, nu, mbf._scale_free_factors(s, nu))

    def test_most_nodes_are_mirrors_and_max_im_is_canonical(self):
        for energy, g1, g2 in _contour_shift_pairs()[:3]:
            contour = mbf.ContourSpec(g1)
            _, s, _ = mbf._node_set(complex(0.5, 0.5 * energy), contour)
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
        lg, arith = mbf._scale_free_factors(s, complex(0.5, 6.0))
        # -3 and -1 mirror 3 and 1; the 1e-300 pair is below the cut-off
        assert seen == [6]
        want = oc.scale_free_factors_unmirrored("zeta", s, complex(0.5, 6.0))
        assert np.array_equal(_bits(lg), _bits(want[0]))
        assert np.array_equal(_bits(arith), _bits(want[1]))


class TestTailEstimate:
    """_tail_estimate's four probes, scalar Gamma and one zeta_vec call,
    against oc.tail_estimate_two_calls, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(hst.floats(-80.0, 80.0), hst.floats(0.01, 0.99),
           hst.floats(-2.9, 2.9), hst.floats(1.0, 120.0))
    # a contour-shift line of the ledger, and a line left of 1/2, where
    # log_gamma(s) takes its reflection branch
    @example(12.0, 0.2, 0.6, 60.0)
    @example(10.0, 0.2, -0.25, 45.0)
    def test_matches_two_call_form(self, energy, a, g, t_max):
        assume(np.min(np.abs(mbf.pole_abscissas(4.0) - g)) > 1e-3)
        nu, contour = complex(0.5, 0.5 * energy), mbf.ContourSpec(g, t_max)
        assert (mbf._tail_estimate(nu, a, contour).hex()
                == oc.tail_estimate_two_calls(nu, a, contour).hex())


class TestBatchedNewtonStep:
    """_filter_with_derivative's one critical_line_values call against
    oc.filter_with_derivative_scalar's three scalar L calls, bit for bit."""

    @staticmethod
    def _assert_same_step(function, energy, scale):
        got = mbf._filter_with_derivative(function, [energy], scale)[0]
        want = oc.filter_with_derivative_scalar(function, energy, scale)
        for g, w in zip(got, want):
            assert (g.real.hex(), g.imag.hex()) == (w.real.hex(), w.imag.hex())

    @settings(max_examples=200, deadline=None)
    @given(hst.sampled_from(["zeta", "beta"]),
           hst.floats(0.5, 420.0, exclude_min=True),
           hst.floats(1e-3, 0.9, exclude_min=True, exclude_max=True))
    def test_random_steps(self, function, energy, a):
        self._assert_same_step(function, energy, mbf.KernelScale(a))

    @pytest.mark.parametrize("function", ["zeta", "beta"])
    def test_truncation_boundaries(self, function):
        # N steps where 1.4 t crosses an integer; at t = k/1.4 +- 0.5e-6 the
        # points t and t +- h fall on different sides of the step
        for k in range(1, 600):
            for d in (0.0, 0.5e-6, -0.5e-6, 1.5e-6, -1.5e-6):
                self._assert_same_step(function, 2.0 * (k / 1.4 + d), A02)

    @pytest.mark.parametrize("function, catalog", [
        ("zeta", "zeta_catalog_60"), ("beta", "beta_catalog")])
    def test_newton_roots_match_scalar_steps(self, function, catalog,
                                             request, monkeypatch):
        guesses = [2.0 * r.ordinate + 0.05
                   for r in request.getfixturevalue(catalog)]
        roots = [mbf.newton_filter_root(function, g, A02) for g in guesses]
        monkeypatch.setattr(
            mbf, "_filter_with_derivative", lambda f, energies, scale: [
                oc.filter_with_derivative_scalar(f, e, scale)
                for e in energies])
        want = [mbf.newton_filter_root(function, g, A02) for g in guesses]
        assert [e.hex() for e in roots] == [e.hex() for e in want]

    @pytest.mark.parametrize("function", ["zeta", "beta"])
    def test_spectral_filter_is_the_normalised_backend(self, function):
        for energy in (5.0, 17.3, 41.7, 60.0):
            got = mbf.spectral_filter(function, energy, A02)
            want = oc.filter_with_derivative_normalised(function, energy, A02)
            assert (got.real.hex(), got.imag.hex()) \
                == (want[0].real.hex(), want[0].imag.hex())

    @pytest.mark.parametrize("function", ["zeta", "beta"])
    def test_non_finite_energy_is_argument_domain(self, function):
        # the dressing's log_gamma checks E before the unchecked vector call
        with pytest.raises(ArgumentDomain, match="non-finite"):
            mbf._filter_with_derivative(function, [math.nan], A02)
        with pytest.raises(ArgumentDomain, match="non-finite"):
            mbf.newton_filter_root(function, math.inf, A02)


class TestNewtonNormalisation:
    """The Newton backends leave out spectral_filter's prefactor * 2 pi i,
    0.5 + 0j for zeta and 1 + 0j for beta: an exact power of two scales F
    and dF/dE alike, so Newton on the oracle backends that keep it takes
    the same iterates."""

    @staticmethod
    def _guesses(function):
        frozen = oc.ZETA_ORDINATES if function == "zeta" else oc.BETA_ORDINATES
        return [float(2 * mp.mpf(o)) + 0.05 for o in frozen[:10]]

    @pytest.mark.parametrize("function", ["zeta", "beta"])
    def test_prefactor_is_a_power_of_two(self, function):
        norm = mbf.kernel_prefactor(function) * 2j * math.pi
        assert norm == {"zeta": 0.5, "beta": 1.0}[function] + 0j

    @pytest.mark.parametrize("function", ["zeta", "beta"])
    def test_double_roots(self, function):
        for g in self._guesses(function):
            got, want = (mbf._newton(backend, [g], 1e-12) for backend in (
                lambda es: mbf._filter_with_derivative(function, es, A02),
                lambda es: [oc.filter_with_derivative_normalised(
                    function, e, A02) for e in es]))
            assert got[1] is want[1] is None
            assert got[0][0].hex() == want[0][0].hex()

    @pytest.mark.parametrize("function", ["zeta", "beta"])
    def test_31_digit_roots(self, function):
        for g in self._guesses(function):
            start = mbf.newton_filter_root(function, g, A02)
            with mp.workdps(31):
                got, want = (
                    mp.nstr(mbf._newton(
                        lambda es: [backend(function, e, A02) for e in es],
                        [mp.mpf(g)], mp.mpf(10) ** -27,
                        [mp.mpf(start)])[0][0], 32)
                    for backend in (mbf._hp_filter_with_derivative,
                                    oc.hp_filter_with_derivative_normalised))
            assert got == want


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
        e = mbf.newton_filter_root("beta", 12.0, A02)
        want = 2.0 * float(oc.BETA_ORDINATES[0][:20])
        assert abs(e - want) < 1e-8

    def test_beta_second_root(self):
        e = mbf.newton_filter_root("beta", 20.5, A02)
        assert abs(e - 20.487540608) < 1e-8

    def test_zeta_first_root(self, zeta_catalog_60):
        t1 = zeta_catalog_60[0].ordinate
        e = mbf.newton_filter_root("zeta", 28.3, A02)
        assert abs(e - 2.0 * t1) < 1e-7

    def test_double_double_tightens(self):
        e = float(oc.newton_root_dd("beta", 12.0, A02))
        want = 2.0 * float(oc.BETA_ORDINATES[0][:22])
        assert abs(e - want) < 1e-10

    def test_dressed_filter_value_is_no_root_test(self):
        # at E = 60, far from any root, the dressing alone pushes |F| below
        # 1e-11 while |L(1/2 + 30i)| is about 0.6
        assert abs(mbf.spectral_filter("zeta", 60.0, A02)) < 1e-11
        with pytest.raises(NoConvergence, match="not a zero"):
            mbf._check_residuals("zeta", [60.0])

    @pytest.mark.parametrize("precision", ["double", "double_double"])
    def test_residual_above_limit_is_no_convergence(self, precision,
                                                     monkeypatch):
        monkeypatch.setattr(zc, "RESIDUAL_LIMIT", 0.0)
        root = {"double": mbf.newton_filter_root,
                "double_double": oc.newton_root_dd}[precision]
        with pytest.raises(NoConvergence, match="not a zero"):
            root("beta", 12.0, A02)

    def test_bijection_checks_reach_before_newton(self, zeta_catalog_60,
                                                  monkeypatch):
        def never(*args):
            raise AssertionError("Newton ran on an incomplete catalog")

        monkeypatch.setattr(mbf, "newton_filter_roots", never)
        with pytest.raises(ArgumentDomain, match="argument principle counts"):
            mbf.filter_bijection(zeta_catalog_60[:3], A02, 120.0)

    def test_dd_root_keeps_full_precision(self):
        root = oc.newton_root_dd("beta", 12.0, A02)
        with mp.workdps(31):
            assert abs(root - 2 * mp.mpf(oc.BETA_ORDINATES[0])) < 1e-20

    def test_dd_zeta_roots_match_zetazero(self):
        # the first ten 31-digit roots against mpmath's independent zeros
        with mp.workdps(40):
            for frozen in oc.ZETA_ORDINATES[:10]:
                want = 2 * mp.mpf(frozen)
                root = oc.newton_root_dd("zeta", float(want) + 0.05, A02)
                assert abs(root - want) < 1e-30 * want

    def test_dd_beta_roots_match_findroot(self):
        # the first ten 31-digit beta roots against the frozen mpmath zeros
        with mp.workdps(40):
            for frozen in oc.BETA_ORDINATES[:10]:
                want = 2 * mp.mpf(frozen)
                root = oc.newton_root_dd("beta", float(want) + 0.05, A02)
                assert abs(root - want) < 1e-30 * want

    @pytest.mark.parametrize("factor", [1 + 1e-8, 1 - 1e-8])
    def test_inexact_derivative_keeps_printed_roots(self, factor,
                                                    monkeypatch):
        # the 31-digit Newton takes dF/dE from the double backend: an error
        # in F' only slows it, and F alone sets the fixed point
        guesses = [(function, float(2 * mp.mpf(o)) + 0.05)
                   for function, frozen in (("zeta", oc.ZETA_ORDINATES),
                                            ("beta", oc.BETA_ORDINATES))
                   for o in frozen[:10]]
        exact = [mp.nstr(oc.newton_root_dd(f, g, A02), 32)
                 for f, g in guesses]
        filter_with_derivative = mbf._filter_with_derivative

        def scaled(*args):
            return [(f, df * factor)
                    for f, df in filter_with_derivative(*args)]

        monkeypatch.setattr(mbf, "_filter_with_derivative", scaled)
        assert [mp.nstr(oc.newton_root_dd(f, g, A02), 32)
                for f, g in guesses] == exact

    def test_unreachable_guess(self):
        with pytest.raises(NoConvergence):
            mbf.newton_filter_root("beta", 1.0, A02)

    def test_filter_zero_equivalence_both_ways(self, beta_catalog):
        # every Newton root pairs with an ordinate, and conversely
        roots = [mbf.newton_filter_root("beta", 2 * r.ordinate + 0.05, A02)
                 for r in beta_catalog]
        for e, cat in zip(roots, beta_catalog):
            assert abs(e - 2.0 * cat.ordinate) < 1e-8


def _serial_roots(function, guesses, scale):
    return [oc.newton_filter_root_serial(function, g, scale) for g in guesses]


# failing guesses: beta 1.0 escapes the basin, a non-finite guess is an
# ArgumentDomain at the first dressing, 0.5 meets no zero within +-1
_BAD_GUESSES = (1.0, 0.5, math.inf, -math.inf, math.nan)


class TestLockstepNewton:
    """newton_filter_roots, one backend call a step for all the roots,
    against oc.newton_filter_root_serial, one Newton loop a guess: the same
    bits and the same first error in input order."""

    @pytest.mark.parametrize("a", [0.2, 0.17, 1e-150, 1e-157])
    @pytest.mark.parametrize("function, catalog", [
        ("zeta", "zeta_catalog_full"), ("beta", "beta_catalog_60")])
    def test_filter_roots_guesses(self, function, catalog, a, request):
        # filter-roots' guesses for zeta E <= 400 and beta E <= 120; at
        # a = 1e-157 a guess in the middle of each list fails
        guesses = [2.0 * r.ordinate + 0.05
                   for r in request.getfixturevalue(catalog)]
        scale = mbf.KernelScale(a)
        want = oc.outcome(_serial_roots, function, guesses, scale)
        assert (want[0] is NoConvergence) == (a == 1e-157)
        assert oc.outcome(mbf.newton_filter_roots, function, guesses,
                              scale) == want

    @settings(max_examples=60, deadline=None)
    @given(hst.sampled_from(["zeta", "beta"]),
           hst.lists(hst.one_of(hst.integers(0, 9),
                                hst.sampled_from(_BAD_GUESSES),
                                hst.floats(0.5, 120.0)),
                     min_size=1, max_size=8),
           hst.sampled_from([0.2, 0.17, 1e-150, 1e-158]))
    @example("beta", [0, 1.0, 1], 0.2)
    @example("beta", [1.0, 0, 1], 0.2)
    @example("zeta", [0, 1, math.inf, 2], 0.2)
    def test_mixed_guesses(self, function, picks, a):
        # an integer k picks the guess 2 t_k + 0.05 from the frozen zeros
        frozen = oc.ZETA_ORDINATES if function == "zeta" else oc.BETA_ORDINATES
        guesses = [float(2 * mp.mpf(frozen[p])) + 0.05
                   if isinstance(p, int) else p for p in picks]
        scale = mbf.KernelScale(a)
        assert oc.outcome(mbf.newton_filter_roots, function, guesses,
                              scale) \
            == oc.outcome(_serial_roots, function, guesses, scale)

    def test_basin_escape_between_good_guesses(self):
        guesses = [BETA_E1 + 0.05, 1.0, BETA_E1 + 0.05]
        with pytest.raises(NoConvergence) as err:
            mbf.newton_filter_roots("beta", guesses, A02)
        with pytest.raises(NoConvergence) as want:
            oc.newton_filter_root_serial("beta", 1.0, A02)
        assert str(err.value) == str(want.value)

    def test_residual_before_a_later_newton_failure(self, monkeypatch):
        # the first root converges but fails its residual test: that error
        # comes before the basin escape of the guess after it
        monkeypatch.setattr(zc, "RESIDUAL_LIMIT", 0.0)
        with pytest.raises(NoConvergence, match="not a zero"):
            mbf.newton_filter_roots("beta", [BETA_E1 + 0.05, 1.0], A02)

    def test_one_backend_call_a_step(self, monkeypatch):
        calls = []
        backend = mbf._filter_with_derivative

        def counted(function, energies, scale):
            calls.append(len(energies))
            return backend(function, energies, scale)

        monkeypatch.setattr(mbf, "_filter_with_derivative", counted)
        guesses = [float(2 * mp.mpf(o)) + 0.05 for o in oc.BETA_ORDINATES]
        mbf.newton_filter_roots("beta", guesses, A02)
        # every root is active at the first step, and fewer at the last
        assert calls[0] == len(guesses) and calls[-1] < len(guesses)
        assert len(calls) < 10


def _forced_zeta_error(t):
    """|_hp_arithmetic zeta at 31 digits - mp.zeta at 45 digits| and
    |mp.zeta| at s = 1/2 + it."""
    with mp.workdps(31):
        got = mbf._hp_arithmetic("zeta", mp.mpc(0.5, t))
    with mp.workdps(45):
        want = mp.zeta(mp.mpc(0.5, t))
        return abs(got - want), abs(want)


class TestForcedBorweinZeta:
    """_hp_arithmetic forces mpmath's Borwein sum (the internal
    libmp.mpc_zeta with force=True) past mp.zeta's cut-off |s| > prec,
    which is near t = 106 at 31 digits.  That call was checked on mpmath
    1.3.0; CI installs mpmath unpinned, so this is the guard.  The bound is
    1e-31 relative; its 1e-36 absolute floor matters only where |zeta| <
    1e-5, next to a zero, as the sum carries about 1e-37 absolute error."""

    @pytest.mark.parametrize("t", [1e-3, 0.5, 14.0, 50.0, 100.0, 105.9,
                                   106.1, 124.5, 150.0, 199.9, 200.0])
    def test_grid_against_45_digit_zeta(self, t):
        err, size = _forced_zeta_error(t)
        assert err < 1e-31 * size + 1e-36

    @settings(max_examples=25, deadline=None)
    @given(hst.floats(min_value=0.0, max_value=200.0, exclude_min=True))
    def test_random_heights(self, t):
        err, size = _forced_zeta_error(t)
        assert err < 1e-31 * size + 1e-36


class TestScaleLimits:
    def test_a_to_zero_pole_free_band(self):
        mags = []
        for a in (0.1, 0.05, 0.025, 0.0125):
            c = mbf.ContourSpec(abscissa=0.25, t_max=45.0, panel_count=120)
            mags.append(abs(mbf.mb_integral(10.0, mbf.KernelScale(a), c)))
        assert all(x > y for x, y in zip(mags, mags[1:]))

    def test_negative_abscissa_plateau_matches_crossed_residue(self):
        # at g = -1/4 the Gamma(s) pole at s = 0 has been crossed; its
        # a-independent residue is the floor of the a -> 0 limit
        nu = complex(0.5, 5.0)
        floor = abs(mbf.kernel_prefactor("zeta") * 2j * math.pi
                    * (-0.5) * cmath.exp(sf.log_gamma(-nu)))
        c = mbf.ContourSpec(abscissa=-0.25, t_max=45.0, panel_count=120)
        val = abs(mbf.mb_integral(10.0, mbf.KernelScale(0.001), c))
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
