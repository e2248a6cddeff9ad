"""Seeded synthetic trade tapes with per-trade ground-truth labels.

Two flows are generated. Authentic flow draws sizes from a geometric random
walk of trader wealth (a multiplicative process, so first digits follow
Benford's law), snaps a fraction of trades to round grids of 100/500/1000
base units (trade-size clustering), and mixes in Pareto draws for the upper
tail (a Pareto-Levy tail). Wash-bot flow draws sizes uniformly over a
sub-decade band at full 8-decimal precision: concentrated first digits,
essentially never round, no power tail; trades are emitted as buy/sell
bursts a few milliseconds apart.

Everything is driven by one numpy Generator seeded from the config, so a
(seed, config) pair fully determines the tape, byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .errors import ConfigError
from .ingest import MS_PER_DAY, TradeDataset, make_group, CSV_HEADER
from .trades import MAX_AMOUNT_SUBUNITS, PairRegistry, PairSpec, exact_sum, format_amount

MS_PER_WEEK = 7 * MS_PER_DAY
# Monday 2019-07-08 00:00:00 UTC
START_MS = 1_562_544_000_000
BASE_PRICE = 9000.0
# sd of the log weekly activity level: some weeks are busier than others
WEEKLY_VOLUME_SD = 0.5
# the two legs of a wash burst are this many milliseconds apart, inclusive
BURST_GAP_MS = (1, 100)


@dataclass(frozen=True)
class AuthenticParams:
    """Size law of authentic flow, in base units of the pair.

    The wealth walk runs in log space: each simulated trader starts at a
    level drawn from Normal(log10_size_mean, log10_size_sd) decades and takes
    ``walk_length`` multiplicative steps of ``walk_step_sd`` (natural log).
    The starting spread keeps log-mantissas uniform, which is what makes the
    digit law exact; the walk supplies the multiplicative texture.

    Snapping applies only when the size is at least ``snap_min_multiples``
    grid steps: rounding 130 units to the nearest 100 would rewrite the
    leading digit, rounding 13,000 units barely moves it.

    The Pareto tail arm jitters its scale over one full decade, which leaves
    first digits exactly Benford while preserving the tail exponent.
    """

    log10_size_mean: float = 3.5
    log10_size_sd: float = 1.1
    walk_step_sd: float = 0.05
    walk_length: int = 64
    rounding_propensity: float = 0.3
    grid_weights: tuple[tuple[int, float], ...] = ((100, 0.6), (500, 0.25), (1000, 0.15))
    snap_min_multiples: float = 12.0
    tail_weight: float = 0.32
    tail_alpha: float = 1.5
    tail_scale_log10: float = 5.25
    # Optional dampers for weekly-volume stability: resample walker starts
    # beyond this many sd (one extreme walker otherwise contributes a whole
    # run of extreme trades), and truncate the Pareto arm this many decades
    # above its scale. Both leave first digits exactly Benford.
    start_truncate_sd: float | None = None
    tail_cap_decades: float | None = None

    def mean_size_units(self) -> float:
        """Closed-form expected trade size in base units."""
        s = self.walk_step_sd
        ln10 = math.log(10.0)
        bulk = 10.0**self.log10_size_mean * math.exp((self.log10_size_sd * ln10) ** 2 / 2.0)
        if s > 0 and self.walk_length > 1:
            half = s * s / 2.0
            bulk *= (math.exp(self.walk_length * half) - 1.0) / (
                self.walk_length * (math.exp(half) - 1.0)
            )
        a = self.tail_alpha
        tail = 10.0**self.tail_scale_log10 * (9.0 / ln10) * a / (a - 1.0)
        return (1.0 - self.tail_weight) * bulk + self.tail_weight * tail


# Low-dispersion authentic profile for weekly-volume-panel experiments.
#
# Under the default profile the few largest trades carry 10-40% of a week's
# volume, so weekly round/unrounded ratios wobble by factors of 2-3 at any
# feasible tape size and volume-relation estimates inherit that noise. This
# profile narrows the bulk (still comfortably Benford) and softens the tail
# (still Pareto-Levy) so weekly volumes concentrate; use it wherever the
# object of study is the weekly volume panel rather than the tail itself.
STABLE_PANEL_PARAMS = AuthenticParams(
    log10_size_sd=1.0,
    walk_length=8,
    tail_weight=0.15,
    tail_alpha=1.8,
    tail_scale_log10=4.9,
    start_truncate_sd=3.0,
    tail_cap_decades=2.0,
)


@dataclass(frozen=True)
class WashParams:
    """Size law of wash-bot flow, in base units.

    Sizes are uniform over [size_low_units, size_high_units) at full
    8-decimal precision, so when the band spans less than a decade the first
    digits remain concentrated.
    """

    size_low_units: float = 4e5
    size_high_units: float = 9e5

    def __post_init__(self) -> None:
        if not 0 < self.size_low_units < self.size_high_units:
            raise ConfigError("wash size band must satisfy 0 < low < high")

    def mean_size_units(self) -> float:
        return (self.size_low_units + self.size_high_units) / 2.0


# The wash band of the stable-panel profile (``synth --profile stable-panel``).
STABLE_PANEL_WASH = WashParams(size_low_units=4e4, size_high_units=9e4)


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 0
    exchange_id: str = "X1"
    pair: str = "BTC/USD"
    n_trades: int = 100_000
    wash_fraction: float = 0.0
    n_weeks: int = 12
    authentic: AuthenticParams = AuthenticParams()
    wash: WashParams = WashParams()

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    @property
    def spec(self) -> PairSpec:
        """The built-in base unit of ``pair``; PairConfigError for another pair."""
        return PairRegistry().get(self.pair)


@dataclass
class LabeledTape:
    """A generated dataset plus per-trade ground truth (True = wash)."""

    dataset: TradeDataset
    labels: np.ndarray
    realized_wash_fraction: float
    n_authentic: int
    n_wash: int
    config: GeneratorConfig
    flags: tuple[str, ...] = ()

    @property
    def group(self):
        return self.dataset.group(self.config.exchange_id, self.config.pair)


def _weekly_weights(rng: np.random.Generator, cfg: GeneratorConfig) -> np.ndarray:
    w = np.exp(rng.normal(0.0, WEEKLY_VOLUME_SD, cfg.n_weeks))
    return w / w.sum()


def _draw_timestamps(
    rng: np.random.Generator, cfg: GeneratorConfig, weights: np.ndarray, n: int
) -> np.ndarray:
    weeks = rng.choice(cfg.n_weeks, size=n, p=weights)
    offsets = rng.integers(0, MS_PER_WEEK, size=n)
    return START_MS + weeks.astype(np.int64) * MS_PER_WEEK + offsets


def _authentic_size_log10(
    rng: np.random.Generator, p: AuthenticParams, n: int
) -> np.ndarray:
    n_walkers = max(1, math.ceil(n / p.walk_length))
    starts = rng.normal(p.log10_size_mean, p.log10_size_sd, size=n_walkers)
    if p.start_truncate_sd is not None:
        for _ in range(64):
            out = np.abs(starts - p.log10_size_mean) > p.start_truncate_sd * p.log10_size_sd
            if not out.any():
                break
            starts[out] = rng.normal(p.log10_size_mean, p.log10_size_sd, size=int(out.sum()))
    steps = rng.normal(0.0, p.walk_step_sd / math.log(10.0), size=(n_walkers, p.walk_length))
    walks = starts[:, None] + np.cumsum(steps, axis=1)
    log10_sizes = walks.reshape(-1)[:n].copy()

    tail_mask = rng.uniform(size=n) < p.tail_weight
    k = int(tail_mask.sum())
    if k:
        jitter = rng.uniform(0.0, 1.0, size=k)
        u = rng.uniform(size=k)
        if p.tail_cap_decades is not None:
            # inverse CDF of the Pareto truncated tail_cap_decades above scale
            u = u * (1.0 - 10.0 ** (-p.tail_alpha * p.tail_cap_decades))
        log10_sizes[tail_mask] = (
            p.tail_scale_log10 + jitter - np.log10(1.0 - u) / p.tail_alpha
        )
    return log10_sizes


def _snap_round(
    rng: np.random.Generator, p: AuthenticParams, sizes_units: np.ndarray, unit: int
) -> np.ndarray:
    """Convert float sizes to sub-units, snapping a fraction to round grids."""
    n = sizes_units.size
    grids = np.array([g for g, _ in p.grid_weights], dtype=np.int64)
    weights = np.array([w for _, w in p.grid_weights], dtype=np.float64)
    weights = weights / weights.sum()
    wants_round = rng.uniform(size=n) < p.rounding_propensity
    grid_idx = rng.choice(grids.size, size=n, p=weights)
    grid = grids[grid_idx]
    eligible = sizes_units >= p.snap_min_multiples * grid
    snap = wants_round & eligible

    subs = np.rint(sizes_units * unit).astype(np.int64)
    grid_steps = np.rint(sizes_units[snap] / grid[snap]).astype(np.int64)
    subs[snap] = grid_steps * (grid[snap] * unit)
    return np.clip(subs, 1, MAX_AMOUNT_SUBUNITS - 1)


def _wash_subunits(rng: np.random.Generator, p: WashParams, unit: int, n: int) -> np.ndarray:
    lo = int(p.size_low_units * unit)
    hi = int(p.size_high_units * unit)
    return rng.integers(lo, hi, size=n, dtype=np.int64)


def _price_path(rng: np.random.Generator, n: int) -> np.ndarray:
    walk = np.clip(np.cumsum(rng.normal(0.0, 0.002, size=n)), -0.15, 0.15)
    return BASE_PRICE * np.exp(walk)


def _finish_group(cfg, timestamps, subunits, labels, rng):
    order = np.argsort(timestamps, kind="stable")
    ts, subs, lab = timestamps[order], subunits[order], labels[order]
    prices = _price_path(rng, ts.size)
    ds = TradeDataset()
    ds.groups[(cfg.exchange_id, cfg.pair)] = make_group(cfg.exchange_id, cfg.pair, ts, subs, prices)
    return ds, lab


def _gen_authentic_arrays(rng, cfg, weights, n):
    log10_sizes = _authentic_size_log10(rng, cfg.authentic, n)
    sizes_units = 10.0**log10_sizes
    subs = _snap_round(rng, cfg.authentic, sizes_units, cfg.spec.subunits_per_base_unit)
    ts = _draw_timestamps(rng, cfg, weights, n)
    return ts, subs


def _gen_wash_arrays(rng, cfg, weights, n):
    n_bursts = (n + 1) // 2
    sizes = _wash_subunits(rng, cfg.wash, cfg.spec.subunits_per_base_unit, n_bursts)
    anchor_ts = _draw_timestamps(rng, cfg, weights, n_bursts)
    lo, hi = BURST_GAP_MS
    gaps = rng.integers(lo, hi + 1, size=n_bursts)
    ts = np.empty(2 * n_bursts, dtype=np.int64)
    subs = np.empty(2 * n_bursts, dtype=np.int64)
    ts[0::2] = anchor_ts
    ts[1::2] = anchor_ts + gaps
    subs[0::2] = sizes
    subs[1::2] = sizes  # the matching leg of each self-trade
    return ts[:n], subs[:n]


def _split_counts(cfg: GeneratorConfig) -> tuple[int, int]:
    """Allocate the trade budget so the expected wash volume share is w."""
    w = cfg.wash_fraction
    if not 0.0 <= w <= 1.0:
        raise ConfigError(f"wash fraction must be in [0, 1], got {w}")
    if cfg.n_trades < 1 or cfg.n_weeks < 1:
        raise ConfigError(f"need at least one trade and one week, got {cfg.n_trades} and {cfg.n_weeks}")
    if w == 0.0:
        return cfg.n_trades, 0
    if w == 1.0:
        return 0, cfg.n_trades
    ratio = (w / (1.0 - w)) * (cfg.authentic.mean_size_units() / cfg.wash.mean_size_units())
    n_wash = int(round(cfg.n_trades * ratio / (1.0 + ratio)))
    n_wash = min(max(n_wash, 1), cfg.n_trades - 1)
    return cfg.n_trades - n_wash, n_wash


def gen_exchange(cfg: GeneratorConfig) -> LabeledTape:
    """Interleave authentic and wash flow at the configured volume share."""
    n_auth, n_wash = _split_counts(cfg)
    rng = np.random.default_rng(cfg.seed)
    weights = _weekly_weights(rng, cfg)
    flags: list[str] = []
    parts_ts, parts_subs, parts_lab = [], [], []
    if n_auth:
        ts, subs = _gen_authentic_arrays(rng, cfg, weights, n_auth)
        parts_ts.append(ts)
        parts_subs.append(subs)
        parts_lab.append(np.zeros(n_auth, dtype=bool))
    else:
        flags.append("no_authentic_flow")
    if n_wash:
        ts, subs = _gen_wash_arrays(rng, cfg, weights, n_wash)
        parts_ts.append(ts)
        parts_subs.append(subs)
        parts_lab.append(np.ones(n_wash, dtype=bool))
    ts = np.concatenate(parts_ts)
    subs = np.concatenate(parts_subs)
    labels = np.concatenate(parts_lab)
    ds, sorted_labels = _finish_group(cfg, ts, subs, labels, rng)
    wash_volume = exact_sum(subs[labels])
    total_volume = exact_sum(subs)
    return LabeledTape(
        dataset=ds,
        labels=sorted_labels,
        realized_wash_fraction=wash_volume / total_volume,
        n_authentic=n_auth,
        n_wash=n_wash,
        config=cfg,
        flags=tuple(flags),
    )


# Rows formatted per write: bounds the transient strings of a large tape.
_WRITE_ROWS = 1 << 16


def _column_chunks(tape: LabeledTape):
    """Timestamps, prices, amounts and labels as Python lists, in row chunks.

    Plain Python values, because converting numpy scalars one by one costs
    more than formatting them.
    """
    g = tape.group
    for lo in range(0, g.n, _WRITE_ROWS):
        rows = slice(lo, lo + _WRITE_ROWS)
        yield g.timestamps[rows].tolist(), g.prices[rows].tolist(), g.amounts[rows].tolist(), tape.labels[rows].tolist()


def write_tape(tape: LabeledTape, out: TextIO, fmt: str = "csv", include_labels: bool = False) -> None:
    """Emit a tape in the ingestion schema, optionally with a label column.

    The label column exists for oracle workflows only; detector-input files
    should be written without it.
    """
    g = tape.group
    if fmt == "csv":
        header = ",".join(CSV_HEADER) + (",label" if include_labels else "")
        out.write(header + "\n")
        prefix = f"{g.exchange_id},{g.pair},"
        ends = (",authentic\n", ",wash\n") if include_labels else ("\n", "\n")
        for ts, prices, amounts, labels in _column_chunks(tape):
            out.write(
                "".join(
                    f"{prefix}{t},{price!r},{format_amount(amount)}{ends[label]}"
                    for t, price, amount, label in zip(ts, prices, amounts, labels)
                )
            )
    elif fmt == "jsonl":
        import json

        for ts, prices, amounts, labels in _column_chunks(tape):
            for t, price, amount, label in zip(ts, prices, amounts, labels):
                obj = {
                    "exchange": g.exchange_id,
                    "pair": g.pair,
                    "timestamp_ms": t,
                    "price": price,
                    "amount": format_amount(amount),
                }
                if include_labels:
                    obj["label"] = "wash" if label else "authentic"
                out.write(json.dumps(obj, sort_keys=True) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")
