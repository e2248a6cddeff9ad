"""Power-law tail estimation of trade-size distributions.

The tail starts at the 90th percentile of trade size (nearest rank). Two
estimators of the tail exponent alpha (the survival-function exponent) are
fitted: an OLS line through the log-binned empirical PDF, whose slope is
-(alpha + 1), and the Hill maximum-likelihood estimator. Authentic trade
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


def tail_cutoff(sizes: np.ndarray) -> float:
    """Nearest-rank 90th percentile; the tail is everything >= the cutoff."""
    x = np.asarray(sizes, dtype=np.float64)
    if x.size < 10 * MIN_TAIL_SIZE:
        raise InsufficientDataError(
            f"insufficient data: {x.size} sizes, need at least {10 * MIN_TAIL_SIZE}"
        )
    s = np.sort(x)
    rank = max(1, math.ceil(0.9 * s.size))
    return float(s[rank - 1])


@dataclass(frozen=True)
class HillFit:
    """Hill MLE of the tail exponent with its asymptotic standard error."""

    alpha: float  # tail (survival) exponent
    pdf_exponent: float  # alpha + 1, the direct MLE value
    stderr: float  # alpha / sqrt(n)
    n_tail: int
    x_min: float


def fit_hill(tail_sizes: np.ndarray, x_min: float) -> HillFit:
    """Hill maximum-likelihood fit on sizes at or above the cutoff."""
    x = np.asarray(tail_sizes, dtype=np.float64)
    if x.size < MIN_TAIL_SIZE:
        raise InsufficientDataError(f"tail of {x.size} sizes, need at least {MIN_TAIL_SIZE}")
    if x_min <= 0:
        raise EstimationError(f"x_min must be positive, got {x_min}")
    if (x < x_min).any():
        raise EstimationError("tail sizes must all be at or above x_min")
    log_sum = float(np.sum(np.log(x / x_min)))
    if log_sum <= 0.0:
        raise EstimationError("degenerate tail: all sizes at the cutoff")
    pdf_exponent = 1.0 + x.size / log_sum
    alpha = pdf_exponent - 1.0
    return HillFit(alpha, pdf_exponent, alpha / math.sqrt(x.size), int(x.size), float(x_min))


@dataclass(frozen=True)
class OlsFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


def power_law_ols(log_x: np.ndarray, log_y: np.ndarray) -> OlsFit:
    """Least-squares line through (log x, log y) points."""
    lx = np.asarray(log_x, dtype=np.float64)
    ly = np.asarray(log_y, dtype=np.float64)
    if lx.size < 2:
        raise InsufficientDataError("need at least 2 points for a line")
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = intercept + slope * lx
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return OlsFit(float(slope), float(intercept), r2, int(lx.size))


def log_binned_density(
    tail_sizes: np.ndarray, x_min: float, *, last_bin_min_count: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical PDF of the tail on logarithmically spaced bins.

    There are ``BINS_PER_DECADE`` bins per decade. Bin centers are geometric
    means of the edges; density is count over (n_tail * linear bin width).
    Empty bins are dropped, and with ``last_bin_min_count`` > 1 the binning
    stops at the last bin holding that many points.
    """
    x = np.asarray(tail_sizes, dtype=np.float64)
    x_max = float(x.max())
    if x_max <= x_min:
        raise EstimationError("degenerate tail: no spread above x_min")
    decades = math.log10(x_max / x_min)
    n_bins = max(1, math.ceil(decades * BINS_PER_DECADE))
    edges = np.geomspace(x_min, x_max, n_bins + 1)
    counts, _ = np.histogram(x, bins=edges)
    widths = np.diff(edges)
    centers = np.sqrt(edges[:-1] * edges[1:])
    if last_bin_min_count > 1:
        populated = np.nonzero(counts >= last_bin_min_count)[0]
        if populated.size:
            last = populated.max() + 1
            counts, widths, centers = counts[:last], widths[:last], centers[:last]
    keep = counts > 0
    density = counts[keep] / (x.size * widths[keep])
    return centers[keep], density


@dataclass(frozen=True)
class OlsTailFit:
    alpha: float  # tail exponent: -(slope) - 1
    slope: float
    intercept: float
    r_squared: float
    n_bins: int


def fit_ols(tail_sizes: np.ndarray, x_min: float) -> OlsTailFit:
    """OLS power-law fit of the log-binned tail PDF.

    The PDF of a tail with survival exponent alpha falls as x**-(alpha + 1),
    so alpha = -slope - 1. Requires the tail to span at least one decade and
    populate at least ``MIN_TAIL_BINS`` bins; otherwise the span cannot pin a
    slope and InsufficientDataError is raised.
    """
    x = np.asarray(tail_sizes, dtype=np.float64)
    if x.size == 0:
        raise InsufficientDataError("empty tail")
    if math.log10(float(x.max()) / x_min) < MIN_TAIL_DECADES:
        raise InsufficientDataError("insufficient tail span: less than one decade")
    centers, density = log_binned_density(x, x_min, last_bin_min_count=TAIL_BIN_MIN_COUNT)
    if centers.size < MIN_TAIL_BINS:
        raise InsufficientDataError(f"insufficient tail span: only {centers.size} non-empty bins")
    line = power_law_ols(np.log(centers), np.log(density))
    return OlsTailFit(-line.slope - 1.0, line.slope, line.intercept, line.r_squared, line.n_points)


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


def fit_tail(sizes: np.ndarray) -> TailFit:
    """Cut the top decile and fit both tail-exponent estimators."""
    x = np.asarray(sizes, dtype=np.float64)
    x_min = tail_cutoff(x)
    tail = x[x >= x_min]
    hill = fit_hill(tail, x_min)
    flags: list[str] = []
    try:
        ols = fit_ols(tail, x_min)
    except InsufficientDataError as exc:
        ols = None
        flags.append(str(exc))
    p_outside, anomaly_p = pareto_levy_p(hill.alpha, hill.stderr)
    return TailFit(
        x_min=x_min,
        n_tail=hill.n_tail,
        alpha_hill=hill.alpha,
        hill_pdf_exponent=hill.pdf_exponent,
        hill_se=hill.stderr,
        alpha_ols=None if ols is None else ols.alpha,
        ols_slope=None if ols is None else ols.slope,
        ols_intercept=None if ols is None else ols.intercept,
        ols_r_squared=None if ols is None else ols.r_squared,
        n_bins=0 if ols is None else ols.n_bins,
        p_outside=p_outside,
        anomaly_p=anomaly_p,
        flags=tuple(flags),
    )


def tail_rows(fit: TailFit, tail_sizes: np.ndarray) -> list[list]:
    """Plot-ready CSV rows, header first: binned density with both fitted lines, in log10."""
    centers, density = log_binned_density(np.asarray(tail_sizes, float), fit.x_min)
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
