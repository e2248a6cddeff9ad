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

The windows of a grid are computed together as arrays: the centers are read
off the sorted floored sizes, ``searchsorted`` sizes each window, and one
``np.maximum.reduceat`` over the interleaved window bounds finds every best
competitor. Only the array of frequency differences reaches the t-test. The
sort, the floored sizes and the integer-size runs come from a group's
``trades.SortedAmounts``, derived once for every detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import t_cdf
from .errors import InsufficientDataError
from .trades import PairSpec, SortedAmounts
from .verdicts import P_FLOOR

STEP_RADIUS = {100: 50, 500: 100}
MIN_WINDOWS = 10
# Trades a window needs to be tested, and the size percentile that caps the
# window centers (the sparse top percent holds no testable windows).
MIN_WINDOW_SUPPORT = 50
CAP_PERCENTILE = 99.0


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
    reject: bool
    insufficient: bool = False


def cluster_windows(
    amounts: SortedAmounts, step: int = 100, *, min_support: int = MIN_WINDOW_SUPPORT
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every supported window as int64 arrays ``(centers, counts, at_center, best)``.

    ``centers`` are the multiples of ``step`` (100 or 500) up to the
    ``CAP_PERCENTILE`` of trade size whose window holds at least
    ``min_support`` trades, ascending; ``counts`` are those trades.
    ``at_center`` counts the trades exactly at the center, and ``best`` those
    at the most frequent integer size in the window that is not a multiple of
    100 base units, so the 500-step test never compares round against round.
    """
    if step not in STEP_RADIUS:
        raise ValueError(f"step must be one of {sorted(STEP_RADIUS)}, got {step}")
    radius = STEP_RADIUS[step]
    if amounts.values.size == 0:
        return (np.zeros(0, dtype=np.int64),) * 4

    cap_units = amounts.percentile(CAP_PERCENTILE) // amounts.spec.subunits_per_base_unit
    # Window bounds are integer unit counts, so floored sizes locate windows
    # exactly. The sentinel that closes the integer sizes makes each position
    # searchsorted returns in them an index.
    q, sizes, size_counts = amounts.floored, amounts.sizes, amounts.size_counts

    # Centers come from the sizes, not from every multiple of step up to the
    # cap, which would explode on heavy-tailed tapes. Size q lies in the window
    # of center c exactly when 0 <= q + radius - c < 2 * radius, and the cells
    # come out sorted, as q is, so the first of each run is a center.
    shifted = q + radius
    cells = shifted[shifted % step < 2 * radius] // step
    centers = cells[np.diff(cells, prepend=-1) != 0] * step
    centers = centers[(centers >= step) & (centers <= cap_units)]
    counts = np.searchsorted(q, centers + radius) - np.searchsorted(q, centers - radius)
    supported = counts >= min_support
    centers, counts = centers[supported], counts[supported]

    at = np.searchsorted(sizes, centers)
    at_center = np.where(sizes[at] == centers, size_counts[at], 0)
    # Each window's lo and hi size positions, interleaved: reduceat takes the
    # maximum over [lo, hi), or the one count at lo, zeroed here, when the
    # window holds no integer size.
    bounds = np.searchsorted(sizes, np.stack([centers - radius, centers + radius], axis=1).ravel())
    best = np.maximum.reduceat(np.where(sizes % 100 != 0, size_counts, 0), bounds)[::2]
    return centers, counts, at_center, np.where(bounds[::2] < bounds[1::2], best, 0)


def clustering_t_test(differences: np.ndarray, step: int = 100, alpha: float = 0.05) -> ClusterTestResult:
    """Paired one-sided t-test on round minus best-unrounded frequencies, one per window."""
    d = np.asarray(differences, dtype=np.float64)
    if d.size < 2:
        raise InsufficientDataError(f"need at least 2 window pairs, got {d.size}")
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
        reject=p_value >= alpha,
    )


def run_cluster_test(amounts: SortedAmounts, step: int = 100, *, alpha: float = 0.05) -> ClusterTestResult:
    """Full clustering test; flags insufficiency instead of raising.

    Fewer than MIN_WINDOWS supported windows means frequency comparisons are
    noise, so the result is flagged and the test is not run.
    """
    _, counts, at_center, best = cluster_windows(amounts, step)
    if counts.size < MIN_WINDOWS:
        return ClusterTestResult(
            mean_difference=math.nan,
            t_statistic=math.nan,
            p_value=math.nan,
            anomaly_p=math.nan,
            n_pairs=counts.size,
            step=step,
            reject=False,
            insufficient=True,
        )
    return clustering_t_test(at_center / counts - best / counts, step, alpha)


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
