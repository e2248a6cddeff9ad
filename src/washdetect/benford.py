"""First-significant-digit analysis against Benford's law.

Provides the expected digit law, exact digit histograms with per-digit volume
accumulators, Pearson chi-squared conformity tests, and a counterfactual
lower bound on fabricated volume built from per-digit anchors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import chi2_sf
from .errors import AmountError, EstimationError, InsufficientDataError
from .trades import SUBUNITS_PER_UNIT, SortedAmounts, exact_sum

DIGITS = tuple(range(1, 10))

_BENFORD_P = np.array([math.log10(1.0 + 1.0 / d) for d in DIGITS])
# The least amount with each first digit in each decade: 1, 2, ..., 9, 10,
# 20, ..., 9 * 10**18. The last is below 2**63, so every int64 amount lies in
# the run one of them starts.
_DIGIT_STARTS = np.array([d * 10**k for k in range(19) for d in DIGITS], dtype=np.int64)


def benford_expected() -> np.ndarray:
    """Expected first-digit probabilities log10(1 + 1/d) for d = 1..9."""
    return _BENFORD_P.copy()


@dataclass(frozen=True)
class DigitHistogram:
    """Exact counts and volumes of trades by first significant digit."""

    counts: tuple[int, ...]  # 9 entries, digit 1 first
    volume_subunits: tuple[int, ...]  # exact per-digit volume

    @property
    def n(self) -> int:
        return sum(self.counts)

    def frequencies(self) -> np.ndarray:
        return np.array(self.counts, dtype=np.float64) / self.n

    def mean_sizes(self) -> np.ndarray:
        """Per-digit mean trade size in native units (nan where count is 0)."""
        counts = np.array(self.counts, dtype=np.float64)
        vols = np.array([v / SUBUNITS_PER_UNIT for v in self.volume_subunits])
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(counts > 0, vols / counts, np.nan)


def digit_histogram(amounts: SortedAmounts) -> DigitHistogram:
    """Histogram the first significant digits of a non-empty group's amounts.

    The sorted amounts fall in one run per first digit and decade, cut at
    ``_DIGIT_STARTS``, so each run's count and exact volume come from its
    bounds alone.
    """
    x = amounts.values
    if x.size == 0:
        raise InsufficientDataError("insufficient data: empty trade group")
    if x[0] <= 0:
        raise AmountError("first significant digit undefined for non-positive amount")
    starts = np.searchsorted(x, _DIGIT_STARTS)
    sizes = np.diff(starts, append=x.size)
    held = np.flatnonzero(sizes)
    volumes = [0] * 9
    for cell, volume in zip(held.tolist(), exact_sum(x, starts[held])):
        volumes[cell % 9] += volume
    counts = sizes.reshape(-1, 9).sum(axis=0)
    return DigitHistogram(tuple(int(c) for c in counts), tuple(volumes))


@dataclass(frozen=True)
class ChiSquaredResult:
    """A Pearson chi-squared test outcome; reject means p < alpha."""

    statistic: float
    df: int
    p_value: float
    effective_n: float
    reject: bool


def chi_squared_gof(
    observed_freq: np.ndarray,
    expected_prob: np.ndarray,
    effective_n: float,
    alpha: float = 0.05,
) -> ChiSquaredResult:
    """Pearson chi-squared of observed frequencies against expected probabilities.

    The statistic is computed on counts rescaled to ``effective_n``, which
    lets callers decouple test power from raw sample size.
    """
    if effective_n <= 0:
        raise EstimationError(f"effective n must be positive, got {effective_n}")
    f = np.asarray(observed_freq, dtype=np.float64)
    p = np.asarray(expected_prob, dtype=np.float64)
    if f.shape != p.shape:
        raise EstimationError("observed and expected shapes differ")
    if f.size < 2:
        raise EstimationError("need at least 2 cells")
    if (p <= 0).any():
        raise EstimationError("expected probabilities must all be positive")
    statistic = float(effective_n * np.sum((f - p) ** 2 / p))
    df = f.size - 1
    p_value = chi2_sf(df, statistic)
    return ChiSquaredResult(statistic, df, p_value, float(effective_n), p_value < alpha)


def chi_squared_benford(
    hist: DigitHistogram,
    effective_n: float | None = None,
    alpha: float = 0.05,
) -> ChiSquaredResult:
    """Test a digit histogram against Benford's law (df = 8).

    ``effective_n`` defaults to the raw count. Passing a fixed value (10000
    is the conventional choice here) makes statistics comparable across
    groups of very different sizes and keeps huge tapes from flagging
    economically irrelevant deviations.
    """
    if hist.n <= 0:
        raise InsufficientDataError("insufficient data: empty histogram")
    n_eff = float(hist.n if effective_n is None else effective_n)
    return chi_squared_gof(hist.frequencies(), _BENFORD_P, n_eff, alpha)


def counterfactual_wash_benford(hist: DigitHistogram) -> float:
    """Median per-anchor lower bound on the fabricated share of volume.

    For each anchor digit X, assume all digit-X trades are authentic and
    scale the Benford law through that anchor: the counterfactual tape has
    counts[X]/p(X) trades distributed by Benford, each digit class keeping
    its observed mean size. Volume in excess of that counterfactual is
    attributed to fabrication, floored at zero per anchor, and the median
    over the nine anchors is returned.
    """
    counts = np.array(hist.counts, dtype=np.float64)
    if (counts <= 0).any():
        raise EstimationError("degenerate histogram: every digit class must be populated")
    means = hist.mean_sizes()
    actual_volume = float(counts @ means)
    per_digit_expected = float(_BENFORD_P @ means)
    diffs = []
    for i in range(9):
        counterfactual_n = counts[i] / _BENFORD_P[i]
        counterfactual_volume = counterfactual_n * per_digit_expected
        diffs.append(max(0.0, (actual_volume - counterfactual_volume) / actual_volume))
    return float(np.median(diffs))


def histogram_rows(hist: DigitHistogram) -> list[list]:
    """Plot-ready CSV rows, header first: digit, count, frequency, benford_expected."""
    rows: list[list] = [["digit", "count", "frequency", "benford_expected"]]
    freqs = hist.frequencies()
    for i, d in enumerate(DIGITS):
        rows.append([d, hist.counts[i], repr(float(freqs[i])), repr(float(_BENFORD_P[i]))])
    return rows
