"""Tail cutoff, Hill and OLS exponent estimators, Pareto-Levy verdict."""

import math

import numpy as np
import pytest
from scipy import stats

from washdetect.errors import EstimationError, InsufficientDataError
from washdetect.tailfit import (
    TailFit,
    fit_hill,
    fit_ols,
    fit_tail,
    TAIL_BIN_MIN_COUNT,
    log_binned_density,
    pareto_levy_p,
    power_law_ols,
    tail_cutoff,
)


def pareto_sample(rng, alpha, n, x_min=1.0):
    """Inverse-CDF draws with survival exponent alpha: P(X > x) = (x/x_min)^-alpha."""
    return x_min * rng.uniform(size=n) ** (-1.0 / alpha)


class TestTailCutoff:
    def test_nearest_rank_on_uniform_ranks(self):
        sizes = np.arange(1, 501, dtype=float)
        x_min = tail_cutoff(sizes)
        assert x_min == 450.0
        assert (sizes >= x_min).sum() == 51

    def test_pareto_quantile(self):
        rng = np.random.default_rng(101)
        x = pareto_sample(rng, 1.5, 100_000)
        x_min = tail_cutoff(x)
        assert x_min == pytest.approx(10 ** (2 / 3), rel=0.02)

    def test_too_few_observations(self):
        with pytest.raises(InsufficientDataError):
            tail_cutoff(np.ones(400))

    def test_degenerate_tail_rejected_by_hill(self):
        sizes = np.full(1000, 7.0)
        x_min = tail_cutoff(sizes)
        assert x_min == 7.0
        with pytest.raises(EstimationError, match="degenerate"):
            fit_hill(sizes, x_min)


class TestHill:
    def test_exact_value_at_e_ratio(self):
        # sum(log(x/x_min)) = n exactly, so the MLE value is exactly 2.
        x = np.full(500, math.e * 3.0)
        fit = fit_hill(x, 3.0)
        assert fit.pdf_exponent == pytest.approx(2.0, abs=1e-12)
        assert fit.alpha == pytest.approx(1.0, abs=1e-12)

    def test_exact_value_at_e_squared_ratio(self):
        x = np.full(500, math.e**2 * 3.0)
        fit = fit_hill(x, 3.0)
        assert fit.pdf_exponent == pytest.approx(1.5, abs=1e-12)

    def test_recovers_pareto_tail_exponent(self):
        # Pareto draws are memoryless above any cutoff, so both the full
        # sample (x_min = 1) and the top decile recover the same exponent.
        rng = np.random.default_rng(55)
        x = pareto_sample(rng, 1.5, 100_000)
        full = fit_hill(x, 1.0)
        assert full.alpha == pytest.approx(1.5, abs=0.02)
        assert full.stderr == pytest.approx(1.5 / math.sqrt(100_000), abs=5e-4)
        x_min = tail_cutoff(x)
        decile = fit_hill(x[x >= x_min], x_min)
        assert decile.alpha == pytest.approx(1.5, abs=0.05)
        assert decile.stderr == pytest.approx(decile.alpha / math.sqrt(decile.n_tail))

    def test_consistency_across_seeds(self):
        # |alpha_hat - alpha| < 3 SE in at least 99 of 100 seeds.
        for alpha in (1.2, 1.5, 1.8):
            hits = 0
            for seed in range(100):
                rng = np.random.default_rng(1000 + seed)
                x = pareto_sample(rng, alpha, 10_000)
                fit = fit_hill(x, 1.0)
                if abs(fit.alpha - alpha) < 3 * fit.stderr:
                    hits += 1
            assert hits >= 99, f"alpha={alpha}: only {hits}/100 within 3 SE"

    def test_rejects_sizes_below_cutoff(self):
        with pytest.raises(EstimationError):
            fit_hill(np.array([0.5] * 100), 1.0)

    def test_scale_invariance_is_exact(self):
        rng = np.random.default_rng(8)
        ints = rng.integers(90, 5000, size=5000)
        x = ints.astype(float)
        f1 = fit_hill(x, 90.0)
        f2 = fit_hill(x * 1000, 90_000.0)  # integers scale exactly in float64
        assert f1.alpha == f2.alpha


class TestOls:
    def test_noiseless_power_law_recovered_to_1e9(self):
        centers = np.geomspace(10, 1e4, 40)
        densities = 7.3 * centers**-2.5
        line = power_law_ols(np.log(centers), np.log(densities))
        assert line.slope == pytest.approx(-2.5, abs=1e-9)
        assert -line.slope - 1.0 == pytest.approx(1.5, abs=1e-9)
        assert line.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_binned_density_integrates_to_one(self):
        rng = np.random.default_rng(77)
        x = pareto_sample(rng, 1.5, 50_000)
        centers, density = log_binned_density(x, 1.0)
        edges_mass = 0.0
        # reconstruct bin widths from the full binning to check normalization
        x_max = float(x.max())
        n_bins = math.ceil(math.log10(x_max) * 10)
        edges = np.geomspace(1.0, x_max, n_bins + 1)
        counts, _ = np.histogram(x, bins=edges)
        widths = np.diff(edges)
        edges_mass = float(np.sum(counts / (x.size * widths) * widths))
        assert edges_mass == pytest.approx(1.0, abs=1e-9)
        assert (density > 0).all()

    def test_pareto_sample_recovered(self):
        rng = np.random.default_rng(56)
        x = pareto_sample(rng, 1.5, 100_000)
        x_min = tail_cutoff(x)
        fit = fit_ols(x[x >= x_min], x_min)
        assert fit.alpha == pytest.approx(1.5, abs=0.1)
        assert fit.r_squared > 0.95

    def test_exponential_tail_flagged(self):
        # No power tail: the top decile of an exponential spans well under
        # one decade, so the fit is refused rather than reported.
        rng = np.random.default_rng(57)
        x = rng.exponential(scale=1.0, size=100_000)
        x_min = tail_cutoff(x)
        tail = x[x >= x_min]
        assert math.log10(tail.max() / x_min) < 1.0
        with pytest.raises(InsufficientDataError, match="span"):
            fit_ols(tail, x_min)
        # Forcing a fit from the median (1.2 decades) still shows the
        # curvature: R^2 below any straight power law's, frozen at this seed.
        med = float(np.median(x))
        centers, density = log_binned_density(x[x >= med], med, last_bin_min_count=TAIL_BIN_MIN_COUNT)
        forced = power_law_ols(np.log(centers), np.log(density))
        assert forced.r_squared == pytest.approx(0.9163, abs=0.001)
        assert forced.r_squared < 0.92

    def test_scale_invariance_within_1e9(self):
        rng = np.random.default_rng(58)
        x = pareto_sample(rng, 1.4, 50_000)
        x_min = tail_cutoff(x)
        f1 = fit_ols(x[x >= x_min], x_min)
        f2 = fit_ols(x[x >= x_min] * 1e3, x_min * 1e3)
        assert f1.alpha == pytest.approx(f2.alpha, abs=1e-9)


class TestVerdict:
    def _fit(self, alpha_ols, alpha_hill, n_tail=10_000):
        hill_se = alpha_hill / math.sqrt(n_tail)
        p_outside, anomaly_p = pareto_levy_p(alpha_hill, hill_se)
        return TailFit(
            x_min=1.0,
            n_tail=n_tail,
            alpha_hill=alpha_hill,
            hill_pdf_exponent=alpha_hill + 1,
            hill_se=hill_se,
            alpha_ols=alpha_ols,
            ols_slope=-(alpha_ols + 1),
            ols_intercept=0.0,
            ols_r_squared=0.99,
            n_bins=20,
            p_outside=p_outside,
            anomaly_p=anomaly_p,
        )

    def test_reference_pass_and_fail_rows(self):
        assert self._fit(1.763, 1.191).in_pareto_levy
        assert not self._fit(0.620, 0.663).in_pareto_levy

    def test_verdict_equals_interval_check(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a_ols, a_hill = rng.uniform(0.3, 3.0, size=2)
            fit = self._fit(float(a_ols), float(a_hill))
            assert fit.in_pareto_levy == ((1 < a_ols < 2) and (1 < a_hill < 2))

    def test_p_outside_limits(self):
        p_outside, anomaly_p = pareto_levy_p(1.5, 1.5 / math.sqrt(10**6))
        assert p_outside < 1e-9
        assert anomaly_p == pytest.approx(1.0)
        p_outside, anomaly_p = pareto_levy_p(0.5, 0.5 / math.sqrt(10**6))
        assert anomaly_p < 1e-9
        assert p_outside == pytest.approx(1.0)

    def test_inside_probability_equals_scipy_stats_norm(self):
        for a_hill in np.linspace(0.2, 3.5, 34):
            for n_tail in (50, 1_000, 10**6):
                a_hill = float(a_hill)
                se = a_hill / math.sqrt(n_tail)
                inside = float(stats.norm.cdf((2.0 - a_hill) / se) - stats.norm.cdf((1.0 - a_hill) / se))
                outside = float(stats.norm.cdf((1.0 - a_hill) / se) + stats.norm.sf((2.0 - a_hill) / se))
                p_outside, anomaly_p = pareto_levy_p(a_hill, se)
                assert anomaly_p == pytest.approx(max(1e-300, inside), rel=1e-12, abs=0)
                assert p_outside == pytest.approx(max(1e-300, outside), rel=1e-12, abs=0)

    def test_p_outside_far_inside_is_not_floored(self):
        # R1 of the bench market at seed 0: 1 - inside cancels to 0 here
        import mpmath

        alpha_hill, hill_se = 1.2946, 0.01495
        with mpmath.workdps(40):
            a, se = mpmath.mpf(alpha_hill), mpmath.mpf(hill_se)
            want = mpmath.ncdf((1 - a) / se) + mpmath.ncdf((a - 2) / se)
        p_outside, anomaly_p = pareto_levy_p(alpha_hill, hill_se)
        assert p_outside == pytest.approx(float(want), rel=1e-12, abs=0)
        assert 9e-87 < p_outside < 1e-86
        assert anomaly_p == 1.0

    def test_p_floor(self):
        p_outside, _ = pareto_levy_p(1.5, 1.5 / math.sqrt(10**8))
        assert p_outside >= 1e-300


class TestFitTail:
    def test_full_pipeline_on_pareto(self):
        rng = np.random.default_rng(60)
        x = pareto_sample(rng, 1.5, 120_000)
        fit = fit_tail(x)
        assert fit.in_pareto_levy
        assert fit.alpha_hill == pytest.approx(1.5, abs=0.05)
        assert fit.alpha_ols == pytest.approx(1.5, abs=0.1)
        assert fit.n_tail >= 11_000
        assert (fit.p_outside, fit.anomaly_p) == pareto_levy_p(fit.alpha_hill, fit.hill_se)

    def test_bounded_sizes_fail_the_range_check(self):
        rng = np.random.default_rng(61)
        x = rng.uniform(4.0, 9.0, size=50_000)
        fit = fit_tail(x)
        assert not fit.in_pareto_levy
