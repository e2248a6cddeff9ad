"""Quantify wash trading from the round/unrounded volume relation.

Regulated exchanges anchor the benchmark: a log-log regression of weekly
unrounded volume on round volume (optionally with exchange covariates) pins
how much unrounded flow legitimate trading produces per unit of round flow.
Unrounded volume in excess of that prediction on a target exchange is the
wash estimate. A row bootstrap over the benchmark panel gives standard
errors, and leave-one-out cross-validation over the regulated exchanges
checks that the method reads near zero where no wash trading is expected.

Roundness-level distributions (Pearson chi-squared against a pooled
regulated benchmark) give a complementary distribution-shape test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .benford import ChiSquaredResult, chi_squared_gof
from .errors import ConfigError, EstimationError, InsufficientDataError
from .ingest import WeeklyVolumeSplit
from .trades import CONTROL_FIELDS, ExchangeMeta, PairSpec, read_json_object, roundness_level_indices

MIN_BENCHMARK_OBS = 8


# ---------------------------------------------------------------------------
# Roundness distributions


def roundness_distribution(amounts_subunits: np.ndarray, spec: PairSpec) -> np.ndarray:
    """Counts over the eight roundness-level buckets (least round first)."""
    x = np.asarray(amounts_subunits, dtype=np.int64)
    if x.size == 0:
        raise InsufficientDataError("empty trade group")
    idx = roundness_level_indices(x, spec)
    return np.bincount(idx, minlength=8).astype(np.int64)


def _merge_zero_benchmark_buckets(
    bench_probs: np.ndarray, target_freqs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pool buckets so every cell has positive benchmark probability.

    Zero-probability buckets merge forward into the next populated bucket
    (trailing zeros fold into the last cell), keeping the partition ordered
    and deterministic.
    """
    cells_b: list[float] = []
    cells_t: list[float] = []
    pend_b = pend_t = 0.0
    for b, t in zip(bench_probs, target_freqs):
        pend_b += float(b)
        pend_t += float(t)
        if pend_b > 0:
            cells_b.append(pend_b)
            cells_t.append(pend_t)
            pend_b = pend_t = 0.0
    if pend_b > 0 or pend_t > 0:
        if not cells_b:
            raise EstimationError("benchmark roundness distribution is empty")
        cells_b[-1] += pend_b
        cells_t[-1] += pend_t
    if len(cells_b) < 2:
        raise EstimationError("benchmark roundness distribution has a single bucket")
    return np.array(cells_b), np.array(cells_t)


def roundness_chi_squared(
    target_counts: np.ndarray,
    benchmark_counts: np.ndarray,
    effective_n: float | None = None,
    alpha: float = 0.05,
) -> ChiSquaredResult:
    """Pearson chi-squared of a roundness distribution against a benchmark.

    ``benchmark_counts`` is the pooled regulated distribution for the same
    pair (counts or probabilities). ``effective_n`` defaults to the target's
    raw count.
    """
    target = np.asarray(target_counts, dtype=np.float64)
    bench = np.asarray(benchmark_counts, dtype=np.float64)
    n_target = target.sum()
    if n_target <= 0:
        raise InsufficientDataError("empty target roundness distribution")
    if bench.sum() <= 0:
        raise EstimationError("benchmark roundness distribution is empty")
    bench_probs, target_freqs = _merge_zero_benchmark_buckets(bench / bench.sum(), target / n_target)
    n_eff = float(n_target if effective_n is None else effective_n)
    return chi_squared_gof(target_freqs, bench_probs, n_eff, alpha)


# ---------------------------------------------------------------------------
# Benchmark regression (log unrounded on log round volume)


@dataclass(frozen=True)
class BenchmarkModel:
    """Fitted log-log relation between unrounded and round weekly volume."""

    feature_names: tuple[str, ...]
    coefficients: tuple[float, ...]
    resid_se: float
    scope: str  # "per-pair" or "pooled"
    n_obs: int
    n_dropped: int
    controls_used: bool
    pair_levels: tuple[str, ...] = ()

    @property
    def intercept(self) -> float:
        return self.coefficients[self.feature_names.index("const")]

    @property
    def slope(self) -> float:
        return self.coefficients[self.feature_names.index("ln_round")]

    def to_json(self) -> dict:
        return {
            "feature_names": list(self.feature_names),
            "coefficients": list(self.coefficients),
            "resid_se": self.resid_se,
            "scope": self.scope,
            "n_obs": self.n_obs,
            "n_dropped": self.n_dropped,
            "controls_used": self.controls_used,
            "pair_levels": list(self.pair_levels),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BenchmarkModel":
        return cls(
            feature_names=tuple(obj["feature_names"]),
            coefficients=tuple(float(c) for c in obj["coefficients"]),
            resid_se=float(obj["resid_se"]),
            scope=obj["scope"],
            n_obs=int(obj["n_obs"]),
            n_dropped=int(obj["n_dropped"]),
            controls_used=bool(obj["controls_used"]),
            pair_levels=tuple(obj.get("pair_levels", ())),
        )


def dump_models(models: dict[str, BenchmarkModel]) -> dict[str, dict]:
    """The benchmark-model file format: ``{scope: model.to_json()}``.

    A scope is a pair code or ``"pooled"``. ``report.json`` carries the same
    mapping under ``benchmark_models``.
    """
    return {scope: m.to_json() for scope, m in sorted(models.items())}


def load_models(path: str | Path) -> dict[str, BenchmarkModel]:
    """Read a benchmark-model file, the JSON of :func:`dump_models`."""
    models = {}
    for scope, obj in read_json_object(path).items():
        try:
            models[scope] = BenchmarkModel.from_json(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: model {scope!r}: missing or bad field: {exc}") from None
    return models


def _control_vector(meta: ExchangeMeta) -> list[float]:
    missing = [f for f in CONTROL_FIELDS if getattr(meta, f) is None]
    if missing:
        raise EstimationError(f"exchange {meta.exchange_id} missing controls: {', '.join(missing)}")
    return [float(getattr(meta, f)) for f in CONTROL_FIELDS]


def _design_row(
    row: WeeklyVolumeSplit,
    feature_names: Sequence[str],
    meta: dict[str, ExchangeMeta] | None,
) -> list[float]:
    values = []
    for name in feature_names:
        if name == "const":
            values.append(1.0)
        elif name == "ln_round":
            values.append(math.log(row.round_volume))
        elif name.startswith("pair="):
            values.append(1.0 if row.pair == name[5:] else 0.0)
        else:
            if meta is None or row.exchange_id not in meta:
                raise EstimationError(f"no covariates for exchange {row.exchange_id}")
            value = getattr(meta[row.exchange_id], name)
            if value is None:
                raise EstimationError(f"exchange {row.exchange_id} missing control {name}")
            values.append(float(value))
    return values


def _find_collinear_columns(x: np.ndarray, names: Sequence[str]) -> list[str]:
    bad = []
    rank = 0
    kept = np.empty((x.shape[0], 0))
    for j, name in enumerate(names):
        trial = np.column_stack([kept, x[:, j]])
        trial_rank = np.linalg.matrix_rank(trial)
        if trial_rank > rank:
            kept, rank = trial, trial_rank
        else:
            bad.append(name)
    return bad


def fit_benchmark(
    rows: Iterable[WeeklyVolumeSplit],
    *,
    meta: dict[str, ExchangeMeta] | None = None,
    use_controls: bool = False,
    pool_pairs: bool = False,
) -> BenchmarkModel:
    """Fit ln(unrounded volume) on ln(round volume) over exchange-weeks.

    Rows with a zero on either side are dropped (their logs are undefined)
    and counted. With ``pool_pairs`` the panel may span pairs and gets pair
    indicator terms; otherwise all rows must share one pair. Controls add the
    four exchange covariates and require metadata for every exchange.
    """
    all_rows = list(rows)
    usable = [r for r in all_rows if r.round_subunits > 0 and r.unrounded_subunits > 0]
    n_dropped = len(all_rows) - len(usable)
    if len(usable) < MIN_BENCHMARK_OBS:
        raise InsufficientDataError(
            f"insufficient benchmark data: {len(usable)} usable exchange-weeks, need {MIN_BENCHMARK_OBS}"
        )
    pairs = sorted({r.pair for r in usable})
    if not pool_pairs and len(pairs) > 1:
        raise EstimationError(f"panel spans pairs {pairs}; fit per pair or set pool_pairs")

    feature_names: list[str] = ["const", "ln_round"]
    if use_controls:
        feature_names.extend(CONTROL_FIELDS)
    pair_levels: tuple[str, ...] = ()
    if pool_pairs and len(pairs) > 1:
        pair_levels = tuple(pairs)
        feature_names.extend(f"pair={p}" for p in pairs[1:])

    x = np.array([_design_row(r, feature_names, meta) for r in usable])
    y = np.array([math.log(r.unrounded_volume) for r in usable])
    if np.linalg.matrix_rank(x) < x.shape[1]:
        bad = _find_collinear_columns(x, feature_names)
        raise EstimationError(f"singular design matrix: collinear columns {', '.join(bad)}")
    beta, _, _, _ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ beta
    dof = max(1, x.shape[0] - x.shape[1])
    resid_se = float(math.sqrt(float(resid @ resid) / dof))
    return BenchmarkModel(
        feature_names=tuple(feature_names),
        coefficients=tuple(float(b) for b in beta),
        resid_se=resid_se,
        scope="pooled" if pair_levels else "per-pair",
        n_obs=len(usable),
        n_dropped=n_dropped,
        controls_used=use_controls,
        pair_levels=pair_levels,
    )


def predict_unrounded(
    model: BenchmarkModel, row: WeeklyVolumeSplit, meta: dict[str, ExchangeMeta] | None = None
) -> float:
    """Legitimate unrounded volume implied by the benchmark for one week."""
    if row.round_subunits <= 0:
        raise EstimationError("prediction undefined for a zero-round week")
    x = np.array(_design_row(row, model.feature_names, meta))
    return float(math.exp(float(x @ np.array(model.coefficients))))


# ---------------------------------------------------------------------------
# Wash estimates


@dataclass(frozen=True)
class WashEstimate:
    """Estimated wash volume for one exchange under one benchmark model."""

    exchange_id: str
    scope: str  # pair code or "aggregate"
    wash_volume: float  # native units
    wash_percent: float
    total_volume: float
    n_weeks: int
    controls_used: bool
    bootstrap_sd: float | None = None
    flags: tuple[str, ...] = ()


def estimate_wash(
    rows: Iterable[WeeklyVolumeSplit],
    model: BenchmarkModel,
    *,
    meta: dict[str, ExchangeMeta] | None = None,
) -> WashEstimate:
    """Excess unrounded volume of one exchange over the benchmark prediction.

    Week by week, the non-negative excess of observed unrounded volume over
    the predicted legitimate level counts as wash; flooring per week keeps
    legitimate weeks from offsetting fabricated ones. Weeks with zero round
    volume have no defined prediction, so their entire unrounded volume
    counts as excess and the estimate is flagged.
    """
    panel = list(rows)
    if not panel:
        raise InsufficientDataError("empty target panel")
    exchanges = {r.exchange_id for r in panel}
    if len(exchanges) != 1:
        raise EstimationError(f"target panel spans exchanges {sorted(exchanges)}")
    flags: list[str] = []
    wash_volume = 0.0
    total = 0.0
    for row in panel:
        total += row.round_volume + row.unrounded_volume
        if row.round_subunits == 0:
            wash_volume += row.unrounded_volume
            if "zero_round_weeks" not in flags:
                flags.append("zero_round_weeks")
            continue
        predicted = predict_unrounded(model, row, meta)
        wash_volume += max(0.0, row.unrounded_volume - predicted)
    pairs = sorted({r.pair for r in panel})
    return WashEstimate(
        exchange_id=next(iter(exchanges)),
        scope=pairs[0] if len(pairs) == 1 else "aggregate",
        wash_volume=wash_volume,
        wash_percent=100.0 * wash_volume / total,
        total_volume=total,
        n_weeks=len(panel),
        controls_used=model.controls_used,
        flags=tuple(flags),
    )


def bootstrap_wash_sd(
    target_rows: Sequence[WeeklyVolumeSplit],
    benchmark_rows: Sequence[WeeklyVolumeSplit],
    *,
    n_boot: int = 1000,
    seed: int = 0,
    meta: dict[str, ExchangeMeta] | None = None,
    use_controls: bool = False,
    pool_pairs: bool = False,
) -> float:
    """Bootstrap standard deviation of the wash percentage.

    Benchmark exchange-week rows are resampled with replacement, the model
    refitted, and the target re-estimated. Replicates with a singular or
    underdetermined refit are redrawn (at most 10x the replicate budget).
    Deterministic under a fixed seed.
    """
    if n_boot < 100:
        raise EstimationError(f"need at least 100 bootstrap replicates, got {n_boot}")
    bench = list(benchmark_rows)
    rng = np.random.default_rng(seed)
    replicates = []
    attempts = 0
    while len(replicates) < n_boot:
        attempts += 1
        if attempts > 10 * n_boot:
            raise EstimationError("too many singular replicates")
        idx = rng.integers(0, len(bench), len(bench))
        sample = [bench[i] for i in idx]
        try:
            model = fit_benchmark(
                sample, meta=meta, use_controls=use_controls, pool_pairs=pool_pairs
            )
            est = estimate_wash(target_rows, model, meta=meta)
        except (EstimationError, InsufficientDataError):
            continue
        replicates.append(est.wash_percent)
    return float(np.std(replicates, ddof=1))


@dataclass(frozen=True)
class CrossValidationResult:
    estimates: dict[str, WashEstimate] = field(default_factory=dict)

    @property
    def mean_percent(self) -> float:
        return float(np.mean([e.wash_percent for e in self.estimates.values()]))

    @property
    def max_percent(self) -> float:
        return float(np.max([e.wash_percent for e in self.estimates.values()]))


def cross_validate_regulated(
    rows_by_exchange: dict[str, Sequence[WeeklyVolumeSplit]],
    *,
    meta: dict[str, ExchangeMeta] | None = None,
    use_controls: bool = False,
    pool_pairs: bool = False,
) -> CrossValidationResult:
    """Leave-one-out wash estimates across regulated exchanges.

    Each exchange is scored against a benchmark fitted on the others; on
    genuinely clean exchanges every estimate should sit near zero.
    """
    if len(rows_by_exchange) < 3:
        raise InsufficientDataError(
            f"cross-validation needs at least 3 regulated exchanges, got {len(rows_by_exchange)}"
        )
    result = CrossValidationResult()
    for held_out in sorted(rows_by_exchange):
        train: list[WeeklyVolumeSplit] = []
        for ex, rows in rows_by_exchange.items():
            if ex != held_out:
                train.extend(rows)
        model = fit_benchmark(train, meta=meta, use_controls=use_controls, pool_pairs=pool_pairs)
        result.estimates[held_out] = estimate_wash(rows_by_exchange[held_out], model, meta=meta)
    return result
