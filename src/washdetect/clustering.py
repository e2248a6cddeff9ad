"""Round-size clustering detection.

Human traders favor round trade sizes; bots do not. For windows centered on
multiples of 100 base units (radius 50) or 500 base units (radius 100), the
frequency of trades exactly at the round center is compared against the best
competing integer size in the window, and a paired one-sided t-test asks
whether the round sizes win on average.

Sizes are matched exactly on the fixed-point grid: a trade counts at integer
size i only when it equals i base units exactly. Sub-base-unit sizes still
count in window denominators. Windows are half-open [center - r, center + r)
so neighboring windows never share a size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import t_cdf
from .errors import InsufficientDataError
from .trades import PairSpec
from .verdicts import P_FLOOR

STEP_RADIUS = {100: 50, 500: 100}
MIN_WINDOWS = 10
# Trades a window needs to be tested, and the size percentile that caps the
# window centers (the sparse top percent holds no testable windows).
MIN_WINDOW_SUPPORT = 50
CAP_PERCENTILE = 99.0


@dataclass(frozen=True)
class WindowPair:
    """One window: frequency at the round center vs the best unrounded size."""

    center: int  # base units, multiple of the step
    round_freq: float
    max_unrounded_freq: float
    window_count: int

    @property
    def difference(self) -> float:
        return self.round_freq - self.max_unrounded_freq


@dataclass(frozen=True)
class ClusterTestResult:
    """Paired one-sided t-test of round-size frequency dominance.

    ``p_value`` is for H1: mean(round - best unrounded) > 0, so a SMALL p
    means clustering is present. ``reject``, aligned with the other detection
    tests, is True when clustering is ABSENT at the given level (p >= alpha).
    ``anomaly_p`` is the complementary (left) tail used for combined testing.
    """

    mean_difference: float
    t_statistic: float
    p_value: float
    anomaly_p: float
    n_pairs: int
    step: int
    alpha: float
    reject: bool
    insufficient: bool = False


def _percentile_nearest_rank(sorted_values: np.ndarray, q: float) -> int:
    rank = max(1, math.ceil(q / 100.0 * sorted_values.size))
    return int(sorted_values[rank - 1])


def _candidate_centers(sizes_units_int: np.ndarray, step: int, radius: int, cap: int) -> np.ndarray:
    """Multiples of ``step`` whose window could contain any trade.

    Enumerating every multiple up to the cap explodes on heavy-tailed tapes;
    a window holds a trade only if some trade size is within the radius of
    the center, so candidates come from the occupied step-cells.
    """
    q, r = np.divmod(sizes_units_int, step)
    cands = [q[r < radius], q[r >= step - radius] + 1]
    centers = np.unique(np.concatenate(cands)) * step
    return centers[(centers >= step) & (centers <= cap)]


def cluster_pairs(
    amounts_subunits: np.ndarray,
    spec: PairSpec,
    step: int = 100,
    *,
    min_support: int = MIN_WINDOW_SUPPORT,
) -> list[WindowPair]:
    """Round-vs-unrounded frequency pairs for every supported window.

    Centers run over multiples of ``step`` (100 or 500) up to the
    ``CAP_PERCENTILE`` of trade size; windows with fewer than ``min_support``
    trades are skipped. The unrounded competitor is the most frequent integer
    size in the window that is not a multiple of 100 base units, so the
    500-step test never compares round against round.
    """
    if step not in STEP_RADIUS:
        raise ValueError(f"step must be one of {sorted(STEP_RADIUS)}, got {step}")
    radius = STEP_RADIUS[step]
    unit = spec.subunits_per_base_unit
    x = np.sort(np.asarray(amounts_subunits, dtype=np.int64))
    if x.size == 0:
        return []

    cap_units = _percentile_nearest_rank(x, CAP_PERCENTILE) // unit
    q, r = np.divmod(x, unit)
    int_sizes = q[r == 0]
    int_vals, int_counts = np.unique(int_sizes, return_counts=True)
    competitor_ok = int_vals % 100 != 0

    # Window bounds are integer unit counts, so floored sizes locate windows exactly.
    centers = _candidate_centers(q, step, radius, int(cap_units))
    if centers.size == 0:
        return []

    win_lo = np.searchsorted(x, (centers - radius) * unit, side="left")
    win_hi = np.searchsorted(x, (centers + radius) * unit, side="left")
    counts = win_hi - win_lo

    iv_lo = np.searchsorted(int_vals, centers - radius, side="left")
    iv_hi = np.searchsorted(int_vals, centers + radius, side="left")
    center_pos = np.searchsorted(int_vals, centers, side="left")

    pairs: list[WindowPair] = []
    for i in range(centers.size):
        total = int(counts[i])
        if total < min_support:
            continue
        c = int(centers[i])
        pos = int(center_pos[i])
        at_center = int(int_counts[pos]) if pos < int_vals.size and int_vals[pos] == c else 0
        lo_i, hi_i = int(iv_lo[i]), int(iv_hi[i])
        mask = competitor_ok[lo_i:hi_i]
        best = int(int_counts[lo_i:hi_i][mask].max()) if mask.any() else 0
        pairs.append(WindowPair(c, at_center / total, best / total, total))
    return pairs


def clustering_t_test(pairs: list[WindowPair], step: int = 100, alpha: float = 0.05) -> ClusterTestResult:
    """Paired one-sided t-test on round minus best-unrounded frequencies."""
    if len(pairs) < 2:
        raise InsufficientDataError(f"need at least 2 window pairs, got {len(pairs)}")
    d = np.array([p.difference for p in pairs])
    n = d.size
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        # Degenerate: identical differences carry no sampling variance.
        if mean > 0:
            t_stat, p_value, anomaly_p = math.inf, P_FLOOR, 1.0
        elif mean < 0:
            t_stat, p_value, anomaly_p = -math.inf, 1.0, P_FLOOR
        else:
            t_stat, p_value, anomaly_p = 0.0, 1.0, 1.0
    else:
        t_stat = mean / (sd / math.sqrt(n))
        p_value = max(P_FLOOR, t_cdf(n - 1, -t_stat))
        anomaly_p = max(P_FLOOR, t_cdf(n - 1, t_stat))
    return ClusterTestResult(
        mean_difference=mean,
        t_statistic=t_stat,
        p_value=p_value,
        anomaly_p=anomaly_p,
        n_pairs=n,
        step=step,
        alpha=alpha,
        reject=p_value >= alpha,
    )


def run_cluster_test(
    amounts_subunits: np.ndarray,
    spec: PairSpec,
    step: int = 100,
    *,
    alpha: float = 0.05,
    min_support: int = MIN_WINDOW_SUPPORT,
) -> ClusterTestResult:
    """Full clustering test; flags insufficiency instead of raising.

    Fewer than MIN_WINDOWS supported windows means frequency comparisons are
    noise, so the result is flagged and the test is not run.
    """
    pairs = cluster_pairs(amounts_subunits, spec, step, min_support=min_support)
    if len(pairs) < MIN_WINDOWS:
        return ClusterTestResult(
            mean_difference=math.nan,
            t_statistic=math.nan,
            p_value=math.nan,
            anomaly_p=math.nan,
            n_pairs=len(pairs),
            step=step,
            alpha=alpha,
            reject=False,
            insufficient=True,
        )
    return clustering_t_test(pairs, step, alpha)


def size_histogram_rows(
    amounts_subunits: np.ndarray,
    spec: PairSpec,
    *,
    lo_units: int = 1,
    hi_units: int = 1000,
    step: int = 100,
) -> list[list]:
    """Plot-ready CSV rows, header first, of 1-base-unit size bins.

    Bin i counts trades with size in [i, i+1) base units; ``is_round_bin``
    marks multiples of 5 * step, the strongest expected clustering points.
    """
    unit = spec.subunits_per_base_unit
    sizes = np.asarray(amounts_subunits, dtype=np.int64) // unit
    in_range = (sizes >= lo_units) & (sizes < hi_units)
    counts = np.bincount((sizes[in_range] - lo_units).astype(np.int64), minlength=hi_units - lo_units)
    rows: list[list] = [["size_base_units", "count", "is_round_bin"]]
    for i in range(lo_units, hi_units):
        rows.append([i, int(counts[i - lo_units]), int(i % (5 * step) == 0)])
    return rows
