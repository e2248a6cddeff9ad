"""Quantify wash trading from the round/unrounded volume relation.

Regulated exchanges anchor the benchmark: a log-log regression of weekly
unrounded volume on round volume (optionally with exchange covariates) pins
how much unrounded flow legitimate trading produces per unit of round flow.
The excess of unrounded volume over that prediction, floored per week, is a
target's wash. Standard errors come from a row bootstrap over the benchmark,
fitted once per scope for all its targets; leave-one-out over the regulated
exchanges checks that the method reads near zero where wash is not expected.

Roundness-level distributions (Pearson chi-squared against a pooled
regulated benchmark) give a complementary distribution-shape test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .benford import ChiSquaredResult, chi_squared_gof
from .errors import AmountError, ConfigError, EstimationError, InsufficientDataError
from .ingest import WeeklyVolumeSplit
from .trades import AMOUNT_DECIMALS, CONTROL_FIELDS, ExchangeMeta, SortedAmounts, fields_json, read_json_object

MIN_BENCHMARK_OBS = 8


# ---------------------------------------------------------------------------
# Roundness distributions


def roundness_distribution(amounts: SortedAmounts) -> np.ndarray:
    """Counts over the eight roundness-level buckets (least round first).

    A size's place is the power of ten, in base units, of its last non-zero
    digit. Bucket ``place + 3`` holds it, the extreme places pooled into the
    two boundary buckets: 0 thousandths or less, 1 hundredths, 2 tenths,
    3 ones, 4 tens, 5 hundreds, 6 thousands, 7 ten-thousands or more.

    Bucket 1 starts at ``lo`` trailing zeros, a hundredth of a base unit,
    and each bucket after it at one more, so the counts follow from how many
    amounts have at least ``lo``, ``lo + 1``, ..., ``lo + 6`` trailing zeros.
    Each of those filters only the amounts the one before kept, divided down.
    """
    x = amounts.values
    if x.size == 0:
        raise InsufficientDataError("empty trade group")
    if x[0] <= 0:
        raise AmountError("trailing zeros undefined for non-positive amount")
    lo = AMOUNT_DECIMALS + amounts.spec.base_unit_exponent - 2
    kept, stripped = [x.size], 0
    for zeros in range(lo, lo + 7):
        if zeros > stripped:
            scale = 10 ** (zeros - stripped)
            x = x[x % scale == 0] // scale
            stripped = zeros
        kept.append(x.size)
    return -np.diff(np.array(kept, dtype=np.int64), append=0)


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
    """The benchmark-model file format: ``{scope: model}``, each model the
    JSON object of its fields.

    A scope is a pair code or ``"pooled"``. ``report.json`` carries the same
    mapping under ``benchmark_models``.
    """
    return {scope: fields_json(m) for scope, m in sorted(models.items())}


def load_models(path: str | Path) -> dict[str, BenchmarkModel]:
    """Read a benchmark-model file, the JSON of :func:`dump_models`.

    Each model must give one finite coefficient per feature name, name only
    regressors that :func:`fit_benchmark` makes, the four controls exactly
    when ``controls_used``, and list its pairs as strings; else
    :class:`ConfigError` names the file and the scope.
    """
    models = {}
    for scope, obj in read_json_object(path).items():
        try:
            model = models[scope] = BenchmarkModel.from_json(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: model {scope!r}: missing or bad field: {exc}") from None
        names, levels = model.feature_names, obj.get("pair_levels", [])
        known = ("const", "ln_round", *CONTROL_FIELDS)
        if len(model.coefficients) != len(names):
            problem = f"{len(model.coefficients)} coefficients for {len(names)} feature names"
        elif not all(map(math.isfinite, model.coefficients)):
            problem = "a coefficient is not finite"
        elif bad := [n for n in names if n not in known and not (isinstance(n, str) and n[:5] == "pair=" and n[5:])]:
            problem = f"unknown feature name {bad[0]!r}"
        elif not isinstance(levels, list) or not all(isinstance(p, str) for p in levels):
            problem = "pair_levels is not a list of strings"
        elif model.controls_used != (set(CONTROL_FIELDS) <= set(names)):
            problem = "controls_used does not match the feature names"
        else:
            continue
        raise ConfigError(f"{path}: model {scope!r}: {problem}")
    return models


def _feature_names(pairs: Sequence[str], use_controls: bool) -> list[str]:
    """Regressors of a fit whose usable rows span the sorted ``pairs``."""
    names = ["const", "ln_round"]
    if use_controls:
        names.extend(CONTROL_FIELDS)
    if len(pairs) > 1:
        names.extend(f"pair={p}" for p in pairs[1:])
    return names


def _design_matrix(
    rows: Sequence[WeeklyVolumeSplit],
    feature_names: Sequence[str],
    meta: dict[str, ExchangeMeta] | None,
) -> np.ndarray:
    """One design row per exchange-week; every row needs positive round volume.

    ``const`` is 1, ``ln_round`` the log round volume, ``pair=<code>`` a 0/1
    indicator, and any other name that covariate of the row's exchange.
    """
    covariates = [n for n in feature_names if n not in ("const", "ln_round") and not n.startswith("pair=")]
    by_exchange: dict[str, dict[str, float]] = {}
    if covariates:
        for ex in dict.fromkeys(r.exchange_id for r in rows):
            if meta is None or ex not in meta:
                raise EstimationError(f"no covariates for exchange {ex}")
            values = {name: getattr(meta[ex], name) for name in covariates}
            missing = [name for name, value in values.items() if value is None]
            if missing:
                raise EstimationError(f"exchange {ex} missing control {missing[0]}")
            by_exchange[ex] = {name: float(value) for name, value in values.items()}
    x = np.empty((len(rows), len(feature_names)))
    for j, name in enumerate(feature_names):
        if name == "const":
            x[:, j] = 1.0
        elif name == "ln_round":
            x[:, j] = [math.log(r.round_volume) for r in rows]
        elif name.startswith("pair="):
            x[:, j] = [r.pair == name[5:] for r in rows]
        else:
            x[:, j] = [by_exchange[r.exchange_id][name] for r in rows]
    return x


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


def _usable(row: WeeklyVolumeSplit) -> bool:
    """Whether a fit can use the week: both its logs are defined."""
    return row.round_subunits > 0 and row.unrounded_subunits > 0


def fit_benchmark(
    rows: Iterable[WeeklyVolumeSplit],
    *,
    meta: dict[str, ExchangeMeta] | None = None,
    use_controls: bool = False,
) -> BenchmarkModel:
    """Fit ln(unrounded volume) on ln(round volume) over exchange-weeks.

    Rows with a zero on either side are dropped (their logs are undefined)
    and counted. The model lists the pairs of the usable rows as its
    ``pair_levels``. A panel whose usable rows span more than one pair is
    pooled: it gets an indicator term for each pair after the first.
    Controls add the four exchange covariates and require metadata for every
    exchange.
    """
    all_rows = list(rows)
    usable = [r for r in all_rows if _usable(r)]
    n_dropped = len(all_rows) - len(usable)
    if len(usable) < MIN_BENCHMARK_OBS:
        raise InsufficientDataError(
            f"insufficient benchmark data: {len(usable)} usable exchange-weeks, need {MIN_BENCHMARK_OBS}"
        )
    pairs = sorted({r.pair for r in usable})
    feature_names = _feature_names(pairs, use_controls)
    x = _design_matrix(usable, feature_names, meta)
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
        scope="pooled" if len(pairs) > 1 else "per-pair",
        n_obs=len(usable),
        n_dropped=n_dropped,
        controls_used=use_controls,
        pair_levels=tuple(pairs),
    )


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


def _target_exchange(panel: Sequence[WeeklyVolumeSplit]) -> str:
    """The one exchange of a target panel."""
    if not panel:
        raise InsufficientDataError("empty target panel")
    exchanges = {r.exchange_id for r in panel}
    if len(exchanges) != 1:
        raise EstimationError(f"target panel spans exchanges {sorted(exchanges)}")
    return next(iter(exchanges))


def _wash_volumes(
    panel: Sequence[WeeklyVolumeSplit],
    feature_names: Sequence[str],
    coefficients: np.ndarray,
    meta: dict[str, ExchangeMeta] | None,
) -> tuple[np.ndarray, float]:
    """The panel's wash volume under each row of ``coefficients``, and its
    total volume. A week's wash is its unrounded volume's excess over the
    prediction, floored at zero, or all of it if the week has no round
    volume and so no prediction."""
    _target_exchange(panel)
    positive = [r for r in panel if r.round_subunits > 0]
    x = _design_matrix(positive, feature_names, meta)
    unrounded = np.array([r.unrounded_volume for r in positive])
    excess = np.maximum(0.0, unrounded[:, None] - np.exp(x @ coefficients.T)).sum(axis=0)
    zero_round = sum(r.unrounded_volume for r in panel if r.round_subunits <= 0)
    return zero_round + excess, sum(r.round_volume + r.unrounded_volume for r in panel)


def estimate_wash(
    rows: Iterable[WeeklyVolumeSplit],
    model: BenchmarkModel,
    *,
    meta: dict[str, ExchangeMeta] | None = None,
) -> WashEstimate:
    """Excess unrounded volume of one exchange over the benchmark prediction.

    Flooring it per week keeps legitimate weeks from offsetting fabricated
    ones; a week with no round volume flags the estimate. A pair outside the
    model's ``pair_levels`` raises :class:`EstimationError`; a model file
    that lists no pairs, as files written before models recorded them, is
    taken to cover any pair.
    """
    panel = list(rows)
    pairs = sorted({r.pair for r in panel})
    if model.pair_levels and not set(pairs) <= set(model.pair_levels):
        raise EstimationError("no benchmark model covers this pair")
    wash, total = _wash_volumes(panel, model.feature_names, np.array([model.coefficients]), meta)
    wash_volume = float(wash[0])
    return WashEstimate(
        exchange_id=panel[0].exchange_id,
        scope=pairs[0] if len(pairs) == 1 else "aggregate",
        wash_volume=wash_volume,
        wash_percent=100.0 * wash_volume / total,
        total_volume=total,
        n_weeks=len(panel),
        controls_used=model.controls_used,
        flags=("zero_round_weeks",) if any(r.round_subunits <= 0 for r in panel) else (),
    )


def replicate_sd(
    target_rows: Sequence[WeeklyVolumeSplit],
    fit: tuple[list[str], np.ndarray, dict[str, np.ndarray], int],
    *,
    meta: dict[str, ExchangeMeta] | None = None,
) -> float:
    """Standard deviation of the target's wash percentage over the replicates of a fit
    that fitted every pair of the target; EstimationError if fewer than ``MIN_REPLICATES`` did."""
    names, coefficients, fitted, _ = fit
    pairs = sorted({r.pair for r in target_rows})
    scored = np.ones(len(coefficients), dtype=bool)
    for pair in pairs:
        scored &= fitted.get(pair, False)
    if (k := np.count_nonzero(scored)) < MIN_REPLICATES:
        raise EstimationError(f"only {k} of {len(scored)} replicates fitted {', '.join(pairs)}, need {MIN_REPLICATES}")
    wash, total = _wash_volumes(list(target_rows), names, coefficients[scored], meta)
    return float(np.std(100.0 * wash / total, ddof=1))


MIN_REPLICATES = 100
BOOTSTRAP_GATHER_BYTES = 1 << 21  # cap on the design rows gathered for one chunk of replicates


def fit_bootstrap(
    benchmark_rows: Sequence[WeeklyVolumeSplit],
    *,
    n_boot: int = 1000,
    seed: int = 0,
    meta: dict[str, ExchangeMeta] | None = None,
    use_controls: bool = False,
) -> tuple[list[str], np.ndarray, dict[str, np.ndarray], int]:
    """The benchmark refitted on ``n_boot`` resamples of its rows, for every
    target of a scope: the regressor names, with an indicator for each pair
    of the usable rows; the kept replicates' coefficients, a row each in draw
    order, zero where the replicate's own fit has no term; per pair, which
    kept replicates had a usable row of it to fit; and the draws made. Draw
    ``i`` is the ``i``-th ``integers(0, n, n)`` of the seeded stream. A
    replicate is kept exactly when :func:`fit_benchmark` on its rows would
    succeed, else redrawn, up to 10x ``n_boot`` draws. Draws are refitted a
    chunk at a time, one stacked SVD per set of pairs present.
    """
    if n_boot < MIN_REPLICATES:
        raise EstimationError(f"need at least {MIN_REPLICATES} bootstrap replicates, got {n_boot}")
    bench = list(benchmark_rows)
    usable = np.array([_usable(r) for r in bench], dtype=bool)
    rows = [r for r, ok in zip(bench, usable) if ok]
    pairs = sorted({r.pair for r in rows})
    base = _feature_names((), use_controls)
    names = base + [f"pair={p}" for p in pairs]
    x = np.zeros((len(bench), len(names)))
    x[usable] = _design_matrix(rows, names, meta)
    y = np.zeros(len(bench))
    y[usable] = [math.log(r.unrounded_volume) for r in rows]
    pair_of = x[:, len(base):] > 0

    def refit(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The coefficients of each draw whose refit succeeds, and the pairs it fitted."""
        n_usable = usable[idx].sum(axis=1)
        beta = np.zeros((len(idx), len(names)))
        fitted = np.zeros((len(idx), len(pairs)), dtype=bool)  # the pairs each draw fitted, none if it failed
        fits = np.flatnonzero(n_usable >= MIN_BENCHMARK_OBS)
        pair_sets, which = np.unique(pair_of[idx[fits]].any(axis=1), axis=0, return_inverse=True)
        for s, pair_set in enumerate(pair_sets):
            sel = fits[which.reshape(-1) == s]
            cols = list(range(len(base))) + [len(base) + j for j in np.flatnonzero(pair_set)[1:]]
            u, sv, vt = np.linalg.svd(x[:, cols][idx[sel]], full_matrices=False)
            tol = sv.max(axis=1) * np.maximum(n_usable[sel], len(cols)) * np.finfo(np.float64).eps
            ok = np.count_nonzero(sv > tol[:, None], axis=1) == len(cols)
            u, sv, vt, sel = u[ok], sv[ok], vt[ok], sel[ok]
            uty = np.einsum("rnk,rn->rk", u, y[idx[sel]])
            beta[np.ix_(sel, cols)] = np.einsum("rkj,rk->rj", vt, uty / sv)
            fitted[sel] = pair_set
        kept = fitted.any(axis=1)
        return beta[kept], fitted[kept]

    rng = np.random.default_rng(seed)
    n = len(bench)
    chunk = max(1, BOOTSTRAP_GATHER_BYTES // (8 * max(n, 1) * len(names)))
    kept: list[tuple[np.ndarray, np.ndarray]] = []
    n_kept = attempts = 0
    while n_kept < n_boot:
        m = min(chunk, n_boot - n_kept, 10 * n_boot - attempts)
        if m == 0:
            raise EstimationError("too many singular replicates")
        kept.append(refit(rng.integers(0, n, (m, n))))
        attempts += m
        n_kept += len(kept[-1][0])
    beta, fitted = (np.concatenate(part) for part in zip(*kept))
    return names, beta, dict(zip(pairs, fitted.T)), attempts


def cross_validate_regulated(
    rows_by_exchange: dict[str, Sequence[WeeklyVolumeSplit]],
    *,
    meta: dict[str, ExchangeMeta] | None = None,
    use_controls: bool = False,
) -> tuple[dict[str, WashEstimate], dict[str, list[str]]]:
    """Leave-one-out wash estimates across regulated exchanges.

    Each exchange is scored against a benchmark fitted on the others; on
    genuinely clean exchanges every estimate should sit near zero. An
    exchange that trades a pair in which none of the others has a usable
    week is left out, since no fit on the others covers that pair; it still
    trains the others' benchmarks. Returns the estimates, and the pairs that
    left each left-out exchange out.
    """
    if len(rows_by_exchange) < 3:
        raise InsufficientDataError(
            f"cross-validation needs at least 3 regulated exchanges, got {len(rows_by_exchange)}"
        )
    estimates = {}
    left_out = {}
    for held_out in sorted(rows_by_exchange):
        train: list[WeeklyVolumeSplit] = []
        for ex, rows in rows_by_exchange.items():
            if ex != held_out:
                train.extend(rows)
        covered = {r.pair for r in train if _usable(r)}
        missing = sorted({r.pair for r in rows_by_exchange[held_out]} - covered)
        if missing:
            left_out[held_out] = missing
            continue
        model = fit_benchmark(train, meta=meta, use_controls=use_controls)
        estimates[held_out] = estimate_wash(rows_by_exchange[held_out], model, meta=meta)
    return estimates, left_out
