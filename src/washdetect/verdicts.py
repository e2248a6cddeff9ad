"""Aggregate test results: Fisher combination, failure rates, rank effects.

Fisher's method turns the per-test probabilities (oriented so authentic
behavior gives values near 1) into one joint statistic per exchange-pair.
The failure rate counts individually failed tests over completed ones, a
regression relates failure rates to estimated wash fractions, and the
volume-rank model translates a wash percentage into the ranking positions an
exchange gained by inflating volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .distributions import chi2_isf, t_cdf
from .errors import EstimationError, InsufficientDataError

P_FLOOR = 1e-300


@dataclass(frozen=True)
class FisherResult:
    chi2: float
    df: int
    critical_value: float
    reject: bool


def fisher_combine(p_values: Sequence[float], alpha: float = 0.05) -> FisherResult:
    """Fisher's combined probability test: chi2 = -2 * sum(log p), df = 2n.

    Inputs are floored at 1e-300 before the log, so degenerate tests (whose
    survival probabilities underflow to exactly zero) cannot produce
    infinities. Negative or above-one values are a caller bug and raise.
    """
    ps = [float(p) for p in p_values]
    if not ps:
        raise InsufficientDataError("no p-values to combine")
    floored = []
    for p in ps:
        if p < 0 or p > 1:
            raise EstimationError(f"p-value {p} is not in [0, 1]")
        floored.append(max(P_FLOOR, p))
    chi2 = -2.0 * sum(math.log(p) for p in floored)
    df = 2 * len(floored)
    critical = chi2_isf(df, alpha)
    return FisherResult(chi2, df, critical, chi2 > critical)


def failure_rate(outcomes: Iterable[bool | None]) -> float:
    """Fraction of failed tests among completed ones (None marks a skip)."""
    completed = [o for o in outcomes if o is not None]
    if not completed:
        raise InsufficientDataError("no completed tests")
    return sum(bool(o) for o in completed) / len(completed)


@dataclass(frozen=True)
class WashFailureFit:
    """OLS of wash fraction on test failure rate across exchanges."""

    slope: float
    intercept: float
    adj_r_squared: float
    slope_p: float  # two-sided
    n: int


def wash_failure_regression(
    failure_rates: Sequence[float], wash_fractions: Sequence[float]
) -> WashFailureFit:
    x = np.asarray(failure_rates, dtype=np.float64)
    y = np.asarray(wash_fractions, dtype=np.float64)
    if x.size != y.size:
        raise EstimationError("input lengths differ")
    n = x.size
    if n < 3:
        raise InsufficientDataError(f"need at least 3 points, got {n}")
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx == 0.0:
        raise EstimationError("singular regression: all failure rates equal")
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - 2)
    sigma2 = ss_res / (n - 2)
    slope_se = math.sqrt(sigma2 / sxx)
    if slope_se == 0.0:  # a perfect fit: an infinite t, or none for a flat line
        slope_p = 0.0 if slope else 1.0
    else:
        slope_t = slope / slope_se
        slope_p = 2.0 * t_cdf(n - 2, -abs(slope_t))
    return WashFailureFit(slope, intercept, adj_r2, slope_p, n)


def spearman_rank_correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rho with average ranks for ties."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.size != ya.size:
        raise EstimationError("input lengths differ")
    if xa.size < 3:
        raise InsufficientDataError(f"need at least 3 observations, got {xa.size}")
    if np.all(xa == xa[0]) or np.all(ya == ya[0]):
        raise EstimationError("spearman correlation undefined for a constant list")
    return float(np.corrcoef(_average_ranks(xa), _average_ranks(ya))[0, 1])


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their mean rank, bit for bit scipy's
    ``rankdata(a)``; any nan makes every rank nan."""
    if np.isnan(a).any():
        return np.full(a.size, np.nan)
    order = np.argsort(a, kind="stable")
    sorted_a = a[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_a[1:] != sorted_a[:-1])))
    counts = np.diff(starts, append=a.size)
    group_ranks = (starts + 1).astype(np.float64) + (counts - 1) / 2
    ranks = np.empty(a.size)
    ranks[order] = np.repeat(group_ranks, counts)
    return ranks


@dataclass(frozen=True)
class RankCoeffs:
    """Linear volume-rank model: rank = a + b * ln(volume)."""

    a: float = 416.269
    b: float = -19.202


DEFAULT_RANK_COEFFS = RankCoeffs()


@dataclass(frozen=True)
class RankResult:
    improvement: int  # positions gained by reporting the inflated volume
    improvement_raw: float
    counterfactual_rank: float | None  # reported rank + improvement, if given


def counterfactual_rank(
    reported_volume: float,
    wash_percent: float,
    *,
    coeffs: RankCoeffs = DEFAULT_RANK_COEFFS,
    reported_rank: float | None = None,
) -> RankResult:
    """Ranking positions an exchange gained by reporting inflated volume.

    The real volume is reported * (1 - wash/100); the improvement is the gap
    between the model rank at the real volume and at the reported volume,
    which reduces to b * ln(1 - wash/100). A model fitted on another log base
    has its b divided by ln(base).
    """
    if not 0 < reported_volume < math.inf:
        raise EstimationError(f"volume must be positive and finite, got {reported_volume}")
    if reported_rank is not None and not math.isfinite(reported_rank):
        raise EstimationError(f"reported rank must be finite, got {reported_rank}")
    if reported_rank is not None and (reported_rank < 1 or reported_rank != math.floor(reported_rank)):
        raise EstimationError(f"reported rank must be a whole number of at least 1, got {reported_rank:g}")
    if not 0.0 <= wash_percent < 100.0:
        raise EstimationError(f"wash percent must be in [0, 100), got {wash_percent}")
    model_rank = coeffs.a + coeffs.b * math.log(reported_volume)
    counter_rank = coeffs.a + coeffs.b * math.log(reported_volume * (1.0 - wash_percent / 100.0))
    raw = counter_rank - model_rank
    if not math.isfinite(raw):
        raise EstimationError(f"rank improvement is not finite under coefficients a={coeffs.a}, b={coeffs.b}")
    improvement = int(math.floor(raw + 0.5))
    return RankResult(
        improvement=improvement,
        improvement_raw=raw,
        counterfactual_rank=None if reported_rank is None else reported_rank + improvement,
    )
