"""Integer-df probability kernels: domain, edge values and the large-argument path.

Their accuracy against mpmath on the battery's grids is acceptance
criterion 02.
"""

import math

import pytest

from washdetect.distributions import chi2_isf, chi2_sf, norm_cdf, t_cdf


@pytest.mark.parametrize("kernel", [chi2_sf, t_cdf])
@pytest.mark.parametrize("df", [0, -1])
def test_df_below_one_is_rejected(kernel, df):
    with pytest.raises(ValueError, match="degrees of freedom"):
        kernel(df, 1.0)


@pytest.mark.parametrize("df,alpha", [(0, 0.05), (3, 0.05), (2, 0.0), (2, 1.0), (2, math.nan)])
def test_chi2_isf_domain(df, alpha):
    with pytest.raises(ValueError):
        chi2_isf(df, alpha)


@pytest.mark.parametrize("x,expected", [(-1.0, 1.0), (-math.inf, 1.0), (0.0, 1.0), (math.inf, 0.0)])
def test_chi2_sf_edges(x, expected):
    for df in (1, 2, 8, 41):
        assert chi2_sf(df, x) == expected


@pytest.mark.parametrize("t,expected", [(-math.inf, 0.0), (0.0, 0.5), (math.inf, 1.0)])
def test_t_cdf_edges(t, expected):
    for df in (1, 2, 515):
        assert t_cdf(df, t) == expected


def test_nan_gives_nan():
    assert math.isnan(chi2_sf(8, math.nan))
    assert math.isnan(t_cdf(8, math.nan))
    assert math.isnan(norm_cdf(math.nan))


def test_norm_cdf_edges():
    assert norm_cdf(-math.inf) == 0.0
    assert norm_cdf(0.0) == 0.5
    assert norm_cdf(math.inf) == 1.0


def test_chi2_sf_past_the_scaled_series():
    # Above x = 2800, e^{-x/4} underflows and the terms are summed in log space.
    import mpmath

    with mpmath.workdps(40):
        for df in (2000, 3000, 3001):
            for x in (2900.0, 3000.0, 3300.0, 3800.0):
                reference = mpmath.gammainc(mpmath.mpf(df) / 2, x / 2, mpmath.inf, regularized=True)
                assert chi2_sf(df, x) == pytest.approx(float(reference), rel=1e-12, abs=0), (df, x)


def test_chi2_isf_inverts_chi2_sf():
    for df in (2, 8, 40, 200):
        for alpha in (1e-300, 1e-12, 0.05, 0.999):
            assert chi2_sf(df, chi2_isf(df, alpha)) == pytest.approx(alpha, rel=1e-12, abs=0), (df, alpha)


def test_chi2_sf_near_one_is_within_two_ulps():
    # Fisher's -2 ln p of a p-value near 1 keeps its relative precision only
    # if p is right to the last bits, so the upper tail comes from 1 - P there.
    import mpmath

    with mpmath.workdps(40):
        for df in range(1, 41):
            for x in (df * 1e-3, df * 0.01, df * 0.1, df * 0.3):
                reference = mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2, mpmath.inf, regularized=True)
                assert abs(chi2_sf(df, x) - reference) <= 2.0**-52, (df, x)
