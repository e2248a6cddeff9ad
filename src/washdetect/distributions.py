"""Chi-squared, Student t and normal probabilities for integer degrees of freedom.

Every probability the battery reports has an integer number of degrees of
freedom, and at integer df each one has a closed form, a finite series or a
short continued fraction (Abramowitz & Stegun 26.2, 26.4, 26.5 and 26.7).
These kernels need only the standard library, and each returns its tail
directly rather than as one minus a number near one, so small probabilities
keep their relative accuracy down to the smallest positive doubles.
"""

from __future__ import annotations

import math
import operator

_EPS = 2.220446049250313e-16
_TINY = 1e-300
# Above this half-argument e^{-y/2} leaves the normal doubles.
_SCALED_SERIES_MAX_Y = 1400.0


def _check_df(df: int) -> int:
    df = operator.index(df)
    if df < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {df}")
    return df


def _gamma_terms(a: float, y: float):
    """e^{-y} y^{a+j} / Gamma(a+j+1) for j = 0, 1, 2, ...; they sum to P(a, y)."""
    if y > _SCALED_SERIES_MAX_Y:
        log_y = math.log(y)
        j = 0
        while True:
            yield math.exp((a + j) * log_y - y - math.lgamma(a + j + 1.0))
            j += 1
    # e^{-y} is applied as two factors e^{-y/2}, so that no unscaled term
    # (at most e^{y/2}) leaves the range of doubles.
    half = math.exp(-0.5 * y)
    term = half * (2.0 * math.sqrt(y / math.pi) if a else 1.0)
    j = 0
    while True:
        yield term * half
        j += 1
        term *= y / (j + a)


def chi2_sf(df: int, x: float) -> float:
    """Upper tail P(X > x) of a chi-squared variable with ``df`` degrees of freedom.

    With y = x/2, k = df // 2 and a = 0 for even df or 1/2 for odd df,
    Q(a + k, y) = Q(a, y) + sum_{j<k} tau_j and P(a + k, y) = sum_{j>=k} tau_j
    for the terms tau_j of ``_gamma_terms``, where Q(0, y) = 0 and
    Q(1/2, y) = erfc(sqrt y) (Abramowitz & Stegun 26.4.4 and 26.4.5). Where
    Q > 1/2 it is returned as 1 - P, so that values near 1 round correctly.
    Negative x lies below the support and gets 1.0.
    """
    df = _check_df(df)
    if math.isnan(x):
        return math.nan
    if x <= 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    y, k, a = 0.5 * x, df // 2, 0.5 * (df % 2)
    terms = _gamma_terms(a, y)
    head = sum(next(terms) for _ in range(k))
    if y >= k + a:
        return head + (math.erfc(math.sqrt(y)) if a else 0.0)
    lower = 0.0
    for term in terms:  # falling from the first, since y < k + a
        lower += term
        if term <= 1e-17 * lower:
            break
    return 1.0 - lower


def _chi2_pdf(df: int, x: float) -> float:
    k = 0.5 * df
    return 0.5 * math.exp((k - 1.0) * math.log(0.5 * x) - 0.5 * x - math.lgamma(k))


def _norm_isf_guess(p: float) -> float:
    """Upper normal quantile to about 4.5e-4 (A&S 26.2.23), for 0 < p < 1."""
    q = min(p, 1.0 - p)
    t = math.sqrt(-2.0 * math.log(q))
    z = t - (2.515517 + 0.802853 * t + 0.010328 * t * t) / (
        1.0 + 1.432788 * t + 0.189269 * t * t + 0.001308 * t * t * t
    )
    return z if p < 0.5 else -z


def chi2_isf(df: int, alpha: float) -> float:
    """The x with ``chi2_sf(df, x) == alpha``, for even df and 0 < alpha < 1.

    Newton's method on log Q from the Wilson-Hilferty start, kept inside a
    bracket that every evaluation narrows and falling back to bisection when
    a step would leave it.
    """
    df = _check_df(df)
    if df % 2:
        raise ValueError(f"chi2_isf takes even degrees of freedom, got {df}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    c = 2.0 / (9.0 * df)
    x = max(df * (1.0 - c + _norm_isf_guess(alpha) * math.sqrt(c)) ** 3, _TINY)
    lo, hi = 0.0, math.inf
    log_alpha = math.log(alpha)
    for _ in range(200):
        q = chi2_sf(df, x)
        if q == alpha:
            return x
        if q > alpha:
            lo = x
        else:
            hi = x
        pdf = _chi2_pdf(df, x) if q > 0.0 else 0.0
        step = (math.log(q) - log_alpha) * q / pdf if pdf > 0.0 else math.nan
        new = x + step
        if not lo < new < hi:
            new = 2.0 * x if hi == math.inf else 0.5 * (lo + hi)
        if abs(new - x) <= 2.0 * _EPS * x:
            return new
        x = new
    return x


def _stirling_correction(z: float) -> float:
    """lgamma(z) - ((z - 1/2) ln z - z + ln(2 pi)/2), to 2e-15 for z >= 20."""
    w = 1.0 / (z * z)
    return (1.0 / 12.0 - w * (1.0 / 360.0 - w * (1.0 / 1260.0 - w / 1680.0))) / z


def _log_gamma_ratio_half(a: float) -> float:
    """ln(Gamma(a + 1/2) / Gamma(a)) without the cancellation of two lgammas."""
    if a < 20.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    return (
        0.5 * math.log(a)
        + a * math.log1p(0.5 / a)
        - 0.5
        + _stirling_correction(a + 0.5)
        - _stirling_correction(a)
    )


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) (A&S 26.5.8), by modified Lentz."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, 10_000):
        m2 = 2 * m
        for num in (
            m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _TINY else _TINY
            delta = c * d
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h


def t_cdf(df: int, t: float) -> float:
    """P(T <= t) for Student's t with ``df`` degrees of freedom.

    The lower tail P(T <= -|t|) = I_x(df/2, 1/2) / 2 with x = df / (df + t^2)
    is computed directly; the upper half is one minus that tail.
    """
    df = _check_df(df)
    if math.isnan(t):
        return math.nan
    if math.isinf(t):
        return 0.0 if t < 0.0 else 1.0
    if t == 0.0:
        return 0.5
    a, b = 0.5 * df, 0.5
    u = t * t / df  # x = 1 / (1 + u)
    if u < 1e300:
        x, one_minus_x = 1.0 / (1.0 + u), u / (1.0 + u)
        log_x, log_1mx = -math.log1p(u), math.log(u) - math.log1p(u)
    else:  # t^2 overflows or nearly: ln x from sqrt(df) / |t| instead
        w = math.sqrt(df) / abs(t)
        x, one_minus_x = w * w, 1.0
        log_x, log_1mx = 2.0 * math.log(w), 0.0
    # x^a (1 - x)^b / B(a, b), with ln B(a, 1/2) = ln sqrt(pi) - ln(Gamma(a + 1/2) / Gamma(a)).
    log_front = a * log_x + b * log_1mx - 0.5 * math.log(math.pi) + _log_gamma_ratio_half(a)
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        tail = 0.5 * front * _beta_continued_fraction(a, b, x) / a
    else:
        tail = 0.5 * (1.0 - front * _beta_continued_fraction(b, a, one_minus_x) / b)
    return tail if t < 0.0 else 1.0 - tail


def norm_cdf(x: float) -> float:
    """Standard normal P(Z <= x); the lower tail comes from erfc directly."""
    return 0.5 * math.erfc(-x * math.sqrt(0.5))
