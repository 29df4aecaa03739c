import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import oracles as oc
from mbzero import spectrostats as st
from mbzero import zerocensus as zc
from mbzero.errors import ArgumentDomain, NoConvergence


class TestUnfold:
    def test_mean_spacing_near_one(self, zeta_catalog_full):
        unfolded = st.unfold(zeta_catalog_full)
        mean = float(np.mean(np.diff(unfolded)))
        assert 0.9 <= mean <= 1.1
        assert len(unfolded) == len(zeta_catalog_full) >= 50

    def test_translation_acts_through_smooth_term(self, zeta_catalog_110):
        delta = 1e-6
        shifted = [r.ordinate + delta for r in zeta_catalog_110]
        diffs_orig = np.diff(st.unfold(zeta_catalog_110))
        diffs_shift = np.diff([st.smooth_count(t) for t in shifted])
        # translation changes unfolded differences only at O(delta rho-bar')
        assert float(np.max(np.abs(diffs_shift - diffs_orig))) < 1e-6

    def test_smooth_term_is_the_census_one(self):
        assert st.smooth_count is zc.smooth_count

    def test_sparse_window(self, zeta_catalog_110):
        with pytest.raises(ArgumentDomain, match="need 20"):
            st.unfold([r for r in zeta_catalog_110 if r.ordinate <= 30.0])


class TestSpacingVsGue:
    def test_synthetic_gue_sample(self):
        sample = oc.wigner_dyson_sample(10_000)
        rep = st.spacing_vs_gue(sample)
        assert rep.lhs.real < 0.02
        assert rep.verdict == "pass"

    def test_poisson_sample_rejected(self):
        rng = np.random.Generator(np.random.PCG64(99))
        rep = st.spacing_vs_gue(rng.exponential(size=10_000))
        assert rep.verdict == "fail"

    def test_real_zeros_sample_limited(self, zeta_catalog_full):
        rep = st.spacing_vs_gue(np.diff(st.unfold(zeta_catalog_full)))
        assert rep.verdict in ("pass", "inconclusive")
        assert "sample-limited" in rep.notes

    def test_wigner_dyson_cdf_properties(self):
        s = np.linspace(0.0, 6.0, 200)
        cdf = st.wigner_dyson_cdf(s)
        assert abs(float(cdf[-1]) - 1.0) < 1e-9
        assert np.all(np.diff(cdf) >= 0)
        # unit mean of the surmise
        mean = np.trapezoid(s * st.wigner_dyson_pdf(s), s)
        assert abs(mean - 1.0) < 1e-6

    def test_deterministic_sampling(self):
        assert np.array_equal(oc.wigner_dyson_sample(500),
                              oc.wigner_dyson_sample(500))


class TestPairCorrelation:
    def test_level_repulsion_near_zero(self, zeta_catalog_full):
        est = st.pair_correlation_estimate(st.unfold(zeta_catalog_full),
                                           [0.05])
        assert est[0] < 0.35

    def test_large_separation_tends_to_one(self, zeta_catalog_full):
        est = st.pair_correlation_estimate(st.unfold(zeta_catalog_full),
                                           [2.5, 3.0])
        assert np.all(np.abs(est - 1.0) < 0.45)

    def test_report_against_sine_kernel(self, zeta_catalog_full):
        rep = st.pair_correlation(st.unfold(zeta_catalog_full))
        assert rep.verdict == "pass"
        assert rep.lhs.real < 0.2

    def test_picket_fence_sanity(self):
        est = st.pair_correlation_estimate(np.arange(240.0),
                                           [0.5, 1.0, 1.5, 2.0])
        assert est[0] < 1e-3 and est[2] < 1e-3
        assert est[1] > 2.0 and est[3] > 2.0


@functools.lru_cache(maxsize=None)
def _grid_and_peaks(lo, hi, sigma, prime_limit=100_000):
    """The 4000-point grid on [lo, hi] and its full-grid density peaks."""
    grid = np.linspace(lo, hi, 4000)
    return grid, oc.density_peaks(grid, prime_limit, sigma)


class TestOscillatoryDensity:
    def test_peak_alignment_first_ordinates(self, zeta_catalog_60):
        _, peaks = _grid_and_peaks(12.0, 34.0, 0.3)
        for r in zeta_catalog_60:
            if 13.0 < r.ordinate < 33.0:
                assert float(np.min(np.abs(peaks - r.ordinate))) < 0.2

    def test_single_prime_cosine_train(self):
        grid = np.linspace(5.0, 30.0, 5000)
        vals = st.oscillatory_density(grid, 2, sigma=0.05)
        # only p = 2 contributes: minima of -cos(E log 2) repeat at 2pi/log 2
        idx = np.flatnonzero((vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:])) + 1
        gaps = np.diff(grid[idx])
        assert np.allclose(gaps, 2.0 * math.pi / math.log(2.0), atol=0.05)

    def test_sigma_stability(self, zeta_catalog_60):
        _, p1 = _grid_and_peaks(12.0, 27.0, 0.3)
        _, p2 = _grid_and_peaks(12.0, 27.0, 0.6)
        t1 = zeta_catalog_60[0].ordinate
        near1 = p1[np.argmin(np.abs(p1 - t1))]
        near2 = p2[np.argmin(np.abs(p2 - t1))]
        assert abs(near1 - near2) < 0.05

    def test_prime_limit_guard(self):
        with pytest.raises(ArgumentDomain, match="prime_limit above"):
            st.oscillatory_density([10.0], 2_000_000)

    # prime_limit 2 gives 79 prime powers, one block of _DENSITY_BLOCK =
    # 256; from prime_limit 300 on there are several blocks
    @settings(max_examples=25, deadline=None)
    @given(hst.integers(0, 600), hst.floats(0.5, 200.0),
           hst.floats(0.0, 100.0), hst.integers(2, 100_000),
           hst.floats(0.05, 0.6))
    @example(0, 10.0, 1.0, 100_000, 0.3)
    @example(257, 12.0, 48.0, 2, 0.05)
    @example(600, 12.0, 48.0, 100_000, 0.3)
    def test_equals_serial_loop(self, n, lo, width, prime_limit, sigma):
        grid = np.linspace(lo, lo + width, n)
        got = st.oscillatory_density(grid, prime_limit, sigma)
        want = oc.oscillatory_density(grid, prime_limit, sigma)
        assert [v.hex() for v in got.tolist()] \
            == [v.hex() for v in want.tolist()]

    def test_keeps_the_grid_shape(self):
        grid = np.linspace(12.0, 60.0, 24).reshape(4, 6)
        got = st.oscillatory_density(grid, 1000)
        assert got.shape == (4, 6)
        assert np.array_equal(got.view(np.uint64), oc.oscillatory_density(
            grid, 1000).view(np.uint64))


def _hex_distances(targets, peaks):
    return [float(np.min(np.abs(peaks - t))).hex() for t in targets]


def _count_rounds(monkeypatch) -> list:
    """A list that gains the points of each oscillatory_density call."""
    rounds, density = [], st.oscillatory_density
    monkeypatch.setattr(st, "oscillatory_density",
                        lambda e, *args: rounds.append(e) or density(e, *args))
    return rounds


class TestPeakDistances:
    """The window search against the full-grid reference, bit for bit."""

    def test_claim_grid(self, zeta_catalog_full):
        grid, peaks = _grid_and_peaks(12.0, 60.0, 0.3)
        ts = [r.ordinate for r in zeta_catalog_full if 13.0 < r.ordinate < 59.0]
        got = st.peak_distances(grid, ts, 100_000)
        assert [float(d).hex() for d in got] == _hex_distances(ts, peaks)
        assert len(ts) == 12

    @pytest.mark.parametrize("hi", [34.0, 27.0])
    @pytest.mark.parametrize("sigma", [0.3, 0.6])
    def test_sigma_grids(self, zeta_catalog_60, hi, sigma):
        # every ordinate to 60, those above the grid included: their
        # windows end at the grid's last point and grow to the whole grid
        grid, peaks = _grid_and_peaks(12.0, hi, sigma)
        ts = [r.ordinate for r in zeta_catalog_60]
        got = st.peak_distances(grid, ts, 100_000, sigma)
        assert [float(d).hex() for d in got] == _hex_distances(ts, peaks)

    def test_window_grows(self, monkeypatch):
        # p = 2 alone puts peaks about 8.4 apart near 6.8 and 15.2; a
        # target halfway between them is about 4.2 from both, so r doubles
        # from the grid spacing h = 25/4999 until h 2^10 = 5.12 covers that
        # distance before a peak stands: eleven evaluation rounds
        grid = np.linspace(5.0, 30.0, 5000)
        peaks = oc.density_peaks(grid, 2, sigma=0.05)
        target = 0.5 * (peaks[0] + peaks[1])
        rounds = _count_rounds(monkeypatch)
        got = st.peak_distances(grid, [target], 2, sigma=0.05)
        assert len(rounds) == 11
        assert [float(got[0]).hex()] == _hex_distances([target], peaks)
        assert 4.0 < got[0] < 4.4

    def test_grid_end_in_reach_grows_to_whole_grid(self, monkeypatch):
        # the peak near 6.8 is about 1.3 from the target 5.5, but the
        # grid's first point, 5.0, is 0.5 away, so the window grows to the
        # whole grid before the peak stands: from the grid spacing
        # h = 25/4999, r = h 2^13 = 41 first reaches the last point, 30,
        # 24.5 away (h 2^12 = 20.5 falls short), and every round adds points
        # on the right: fourteen evaluation rounds
        grid = np.linspace(5.0, 30.0, 5000)
        rounds = _count_rounds(monkeypatch)
        got = st.peak_distances(grid, [5.5], 2, sigma=0.05)
        assert len(rounds) == 14
        peaks = oc.density_peaks(grid, 2, sigma=0.05)
        assert [float(got[0]).hex()] == _hex_distances([5.5], peaks)

    @settings(max_examples=60, deadline=None)
    @given(hst.integers(3, 3000),
           hst.lists(hst.floats(0.0, 40.0), min_size=1, max_size=6),
           hst.sampled_from([2, 3, 30, 1000]), hst.floats(0.05, 0.6))
    def test_each_point_once(self, n, targets, prime_limit, sigma):
        grid = np.linspace(5.0, 30.0, n)
        peaks = oc.density_peaks(grid, prime_limit, sigma)
        with pytest.MonkeyPatch.context() as patch:
            rounds = _count_rounds(patch)
            if peaks.size == 0:
                with pytest.raises(ArgumentDomain, match="no density peak"):
                    st.peak_distances(grid, targets, prime_limit, sigma)
            else:
                got = st.peak_distances(grid, targets, prime_limit, sigma)
                assert [float(d).hex() for d in got] \
                    == _hex_distances(targets, peaks)
        seen = np.concatenate([np.empty(0), *rounds])
        assert np.unique(seen).size == seen.size
        assert all(e.size for e in rounds)

    def test_claim_grid_takes_one_round(self, monkeypatch, zeta_catalog_full):
        # each of the ledger claim's ten ordinates has its peak within one
        # grid step, so the first window, a few points a target, settles all
        grid = np.linspace(12.0, 60.0, 4000)
        ts = [r.ordinate for r in zeta_catalog_full[:10]]
        rounds = _count_rounds(monkeypatch)
        st.peak_distances(grid, ts, 100_000)
        assert len(rounds) == 1 and rounds[0].size <= 5 * len(ts)

    @pytest.mark.parametrize("target", [math.inf, -math.inf, math.nan])
    def test_non_finite_target_named_before_evaluation(self, monkeypatch,
                                                       target):
        # r would double to inf and the window go NaN: the search would
        # not end
        rounds = _count_rounds(monkeypatch)
        grid = np.linspace(12.0, 60.0, 400)
        with pytest.raises(ArgumentDomain,
                           match=f"non-finite target {target!r}"):
            st.peak_distances(grid, [14.0, target, math.nan], 100)
        assert rounds == []

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_grid_too_short_for_a_peak(self, n):
        grid = np.linspace(12.0, 60.0, n)
        with pytest.raises(ArgumentDomain, match="no density peak"):
            st.peak_distances(grid, [14.0], 100)
        assert st.peak_distances(grid, [], 100).size == 0

    def test_no_peak_on_grid(self):
        # after the p = 2 peak near 15.2 the total falls to a trough near
        # 18.1 and rises again: no interior maximum on [15.5, 18.5]
        grid = np.linspace(15.5, 18.5, 400)
        assert oc.density_peaks(grid, 2, sigma=0.05).size == 0
        with pytest.raises(ArgumentDomain, match="no density peak"):
            st.peak_distances(grid, [17.0], 2, sigma=0.05)


class TestTraceAudits:
    def test_trace_I_even_part_converges(self, zeta_catalog_full):
        rep = st.trace_I_of_a(0.2, zeta_catalog_full)
        assert rep.verdict == "pass"
        tail = rep.extra["even_partial_tail"]
        assert all(b > a for a, b in zip(tail, tail[1:]))  # monotone increasing

    def test_trace_I_log_a_vanishes_at_one(self, zeta_catalog_full):
        r1 = st.trace_I_of_a(1.0, zeta_catalog_full)
        r2 = st.trace_I_of_a(0.2, zeta_catalog_full)
        gap = r1.extra["bracket_value"] - r2.extra["bracket_value"]
        assert abs(gap - (-math.log(0.2))) < 1e-12

    def test_trace_I_odd_part_symmetrized_zero(self, zeta_catalog_full):
        rep = st.trace_I_of_a(0.2, zeta_catalog_full)
        assert rep.extra["odd_symmetrized"] == 0.0

    def test_trace_I_reorder_invariance(self, zeta_catalog_full):
        shuffled = list(zeta_catalog_full)
        rng = np.random.RandomState(0)
        rng.shuffle(shuffled)
        a = st.trace_I_of_a(0.2, zeta_catalog_full)
        b = st.trace_I_of_a(0.2, shuffled)
        assert a.lhs == b.lhs

    def test_weil_prime_side_divergence_rate(self, zeta_catalog_full):
        rep = st.weil_prime_side(1_000_000, zeta_catalog_full)
        assert rep.verdict == "divergent"
        # fitted growth per log X matches the pi/2 prediction within 2%
        assert abs(rep.rel_discrepancy - 1.0) < 0.02

    def test_trace_class_p2(self, zeta_catalog_full):
        rep = st.trace_class_audit(2.0, 0.2, zeta_catalog_full)
        assert rep.verdict == "fail"  # printed closed form disagrees
        want = -(0.4 ** 2) * math.pi ** 2 / 6.0
        assert abs(rep.rhs - want) < 1e-12

    def test_trace_class_p4_rhs(self, zeta_catalog_full):
        rep = st.trace_class_audit(4.0, 0.2, zeta_catalog_full)
        assert abs(rep.rhs - (0.4 ** 4) * math.pi ** 4 / 90.0) < 1e-12

    def test_trace_class_slow_convergence_flagged(self, zeta_catalog_full):
        rep = st.trace_class_audit(1.01, 0.2, zeta_catalog_full)
        assert rep.verdict == "inconclusive"
        assert "slow" in rep.notes

    def test_fredholm_branch_flag(self):
        rep = st.fredholm_audit(0.4, 0.2)
        assert rep.verdict == "fail"
        assert abs(rep.rhs.imag - math.pi) < 1e-12  # log of negative real
        assert "branch" in rep.notes or "sign" in rep.notes

    def test_fredholm_kmax_stability(self):
        a = st.fredholm_audit(0.4, 0.2, k_max=40)
        b = st.fredholm_audit(0.4, 0.2, k_max=80)
        assert abs(a.lhs - b.lhs) < 1e-14

    def test_fredholm_divergence_guard(self):
        with pytest.raises(NoConvergence, match=">= 1"):
            st.fredholm_audit(3.0, 0.9)

    def test_reports_deterministic(self, zeta_catalog_full):
        a = st.trace_I_of_a(0.2, zeta_catalog_full).to_json_dict()
        b = st.trace_I_of_a(0.2, zeta_catalog_full).to_json_dict()
        assert a == b
