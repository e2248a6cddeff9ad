"""Power-law tail estimation of trade-size distributions.

The tail starts at the 90th percentile of trade size (nearest rank,
``trades.SortedAmounts.percentile``). Two estimators of the tail exponent
alpha (the survival-function exponent) are fitted: an OLS line through the
log-binned empirical PDF, whose slope is -(alpha + 1), and the Hill
maximum-likelihood estimator. Authentic trade
sizes in financial markets carry tail exponents in the Pareto-Levy range
(1, 2); the verdict checks both estimates against that interval.

The Hill MLE in PDF form is ``1 + n / sum(log(x_i / x_min))`` and estimates
the PDF exponent alpha + 1; both faces are reported (``pdf_exponent`` and
``alpha``) so interval checks and exactness identities stay unambiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import norm_cdf
from .errors import EstimationError, InsufficientDataError
from .trades import SortedAmounts
from .verdicts import P_FLOOR

MIN_TAIL_SIZE = 50
BINS_PER_DECADE = 10
# Sparse trailing bins (where lone draws land) carry O(1) multiplicative
# noise plus a survivor bias that flattens the fitted slope; the fit stops at
# the last bin holding this many points.
TAIL_BIN_MIN_COUNT = 30
# Fewer bins or a narrower span than this cannot pin an OLS slope.
MIN_TAIL_BINS = 5
MIN_TAIL_DECADES = 1.0
TAIL_PERCENTILE = 90.0


def _tail(amounts: SortedAmounts) -> tuple[float, np.ndarray]:
    """``(x_min, tail)``: the nearest-rank ``TAIL_PERCENTILE`` of trade size
    and the sizes at or above it, both in base units. The tail is in trade
    order, which fixes the order, and so the last bits, of the Hill sum."""
    x = amounts.trade_order
    if x.size < 10 * MIN_TAIL_SIZE:
        raise InsufficientDataError(f"insufficient data: {x.size} sizes, need at least {10 * MIN_TAIL_SIZE}")
    cutoff, unit = amounts.percentile(TAIL_PERCENTILE), amounts.spec.subunits_per_base_unit
    # float(cutoff) rounds as numpy rounds the tail, so no tail size falls below x_min
    return float(cutoff) / unit, x[x >= cutoff] / unit


def _hill(tail: np.ndarray, x_min: float) -> float:
    """Hill maximum-likelihood PDF exponent (alpha + 1) of the tail."""
    log_sum = float(np.sum(np.log(tail / x_min)))
    if log_sum <= 0.0:
        raise EstimationError("degenerate tail: all sizes at the cutoff")
    return 1.0 + tail.size / log_sum


def _power_law_ols(log_x: np.ndarray, log_y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line ``(slope, intercept, r_squared)`` through (log x, log y) points."""
    slope, intercept = np.polyfit(log_x, log_y, 1)
    ss_res = float(np.sum((log_y - (intercept + slope * log_x)) ** 2))
    ss_tot = float(np.sum((log_y - log_y.mean()) ** 2))
    return float(slope), float(intercept), 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot


def _log_binned_density(
    tail: np.ndarray, x_min: float, *, last_bin_min_count: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical PDF of the tail on logarithmically spaced bins.

    There are ``BINS_PER_DECADE`` bins per decade. Bin centers are geometric
    means of the edges; density is count over (n_tail * linear bin width).
    Empty bins are dropped, and with ``last_bin_min_count`` > 1 the binning
    stops at the last bin holding that many points.
    """
    x_max = float(tail.max())
    n_bins = max(1, math.ceil(math.log10(x_max / x_min) * BINS_PER_DECADE))
    edges = np.geomspace(x_min, x_max, n_bins + 1)
    counts, _ = np.histogram(tail, bins=edges)
    widths = np.diff(edges)
    centers = np.sqrt(edges[:-1] * edges[1:])
    if last_bin_min_count > 1:
        populated = np.nonzero(counts >= last_bin_min_count)[0]
        if populated.size:
            last = populated.max() + 1
            counts, widths, centers = counts[:last], widths[:last], centers[:last]
    keep = counts > 0
    density = counts[keep] / (tail.size * widths[keep])
    return centers[keep], density


def _fit_ols(tail: np.ndarray, x_min: float) -> tuple[float, float, float, int]:
    """``(slope, intercept, r_squared, n_bins)`` of the OLS power-law fit of
    the log-binned tail PDF.

    The PDF of a tail with survival exponent alpha falls as x**-(alpha + 1),
    so alpha = -slope - 1. Requires the tail to span at least one decade and
    populate at least ``MIN_TAIL_BINS`` bins; otherwise the span cannot pin a
    slope and InsufficientDataError is raised.
    """
    if math.log10(float(tail.max()) / x_min) < MIN_TAIL_DECADES:
        raise InsufficientDataError("insufficient tail span: less than one decade")
    centers, density = _log_binned_density(tail, x_min, last_bin_min_count=TAIL_BIN_MIN_COUNT)
    if centers.size < MIN_TAIL_BINS:
        raise InsufficientDataError(f"insufficient tail span: only {centers.size} non-empty bins")
    return *_power_law_ols(np.log(centers), np.log(density)), centers.size


def pareto_levy_p(alpha_hill: float, hill_se: float) -> tuple[float, float]:
    """``(p_outside, anomaly_p)`` of a Hill exponent against (1, 2).

    ``p_outside`` is the probability, under Normal(alpha_hill, hill_se), that
    the exponent lies outside the interval: near 0 when safely inside, near 1
    when far outside. ``anomaly_p`` = 1 - p_outside is the orientation used
    for combined testing (large when the tail looks authentic).
    ``p_outside`` sums the two tails directly, because 1 - inside cancels to 0
    below about 1e-16.
    """
    inside = norm_cdf((2.0 - alpha_hill) / hill_se) - norm_cdf((1.0 - alpha_hill) / hill_se)
    outside = norm_cdf((1.0 - alpha_hill) / hill_se) + norm_cdf((alpha_hill - 2.0) / hill_se)
    return max(P_FLOOR, outside), max(P_FLOOR, inside)


@dataclass(frozen=True)
class TailFit:
    """Joint tail diagnosis for one trade group (sizes in base units)."""

    x_min: float
    n_tail: int
    alpha_hill: float
    hill_pdf_exponent: float
    hill_se: float
    alpha_ols: float | None
    ols_slope: float | None
    ols_intercept: float | None
    ols_r_squared: float | None
    n_bins: int
    p_outside: float
    anomaly_p: float
    flags: tuple[str, ...] = ()

    @property
    def in_pareto_levy(self) -> bool:
        """Both exponents inside the Pareto-Levy interval (1, 2)."""
        return 1.0 < self.alpha_hill < 2.0 and self.alpha_ols is not None and 1.0 < self.alpha_ols < 2.0


def fit_tail(amounts: SortedAmounts) -> TailFit:
    """Cut the top decile and fit both tail-exponent estimators."""
    x_min, tail = _tail(amounts)
    pdf_exponent = _hill(tail, x_min)
    alpha = pdf_exponent - 1.0
    hill_se = alpha / math.sqrt(tail.size)
    try:
        slope, intercept, r_squared, n_bins = _fit_ols(tail, x_min)
        ols, flags = (-slope - 1.0, slope, intercept, r_squared), ()
    except InsufficientDataError as exc:
        ols, n_bins, flags = (None,) * 4, 0, (str(exc),)
    p_outside, anomaly_p = pareto_levy_p(alpha, hill_se)
    return TailFit(x_min, tail.size, alpha, pdf_exponent, hill_se, *ols, n_bins, p_outside, anomaly_p, flags)


def tail_rows(fit: TailFit, amounts: SortedAmounts) -> list[list]:
    """Plot-ready CSV rows, header first: the binned density of the tail of
    ``amounts`` with both lines of ``fit``, its fit, in log10."""
    x_min, tail = _tail(amounts)
    centers, density = _log_binned_density(tail, x_min)
    ln10 = math.log(10.0)
    rows: list[list] = [["log10_size", "log10_density", "fitted_ols", "fitted_hill"]]
    for c, d in zip(centers, density):
        if fit.ols_slope is not None:
            fitted_ols = (fit.ols_intercept + fit.ols_slope * math.log(c)) / ln10
        else:
            fitted_ols = math.nan
        # Pareto PDF implied by the Hill fit, normalized over the tail.
        a = fit.alpha_hill
        fitted_hill = (math.log(a / fit.x_min) - (a + 1.0) * math.log(c / fit.x_min)) / ln10
        rows.append([repr(math.log10(c)), repr(math.log10(d)), repr(fitted_ols), repr(fitted_hill)])
    return rows
