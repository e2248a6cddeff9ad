"""Full detection battery over a dataset, with JSON/CSV report emission.

For every (exchange, pair) group the battery runs the Benford chi-squared
test (at the configured effective N and at the raw count), round-size
clustering t-tests at the 100- and 500-unit grids, the power-law tail fit
with its Pareto-Levy range verdict, and, when regulated exchanges are
present, the roundness-distribution chi-squared against the pooled regulated
benchmark. Per pair, Fisher's method combines the Benford, clustering-100,
and tail probabilities (all oriented so authentic behavior gives values near
one). Wash volume is then estimated per pair against a benchmark fitted on
the regulated exchanges, with optional bootstrap standard errors, and the
failure rate and counterfactual rank improvement summarize each exchange.

The groups are tested side by side, on as many threads as a parse runs
(``ingest._WORKERS``), and their results assembled in sorted key order, so
the report is the same on any number of threads. Each group's amounts are
sorted once (``trades.SortedAmounts``) for every detector, and its
roundness counts, taken once, serve both its own roundness test and the
pooled regulated benchmark of its pair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from . import benford as bf
from . import clustering as cl
from . import tailfit as tf
from . import verdicts as vd
from . import washest as we
from .errors import ConfigError, EstimationError, InsufficientDataError
from .ingest import TradeDataset, WeeklyVolumeSplit, _side_by_side, weekly_split
from .trades import ExchangeMeta, PairRegistry, SortedAmounts, fields_json

SCHEMA_VERSION = "1"
BENFORD_EMULATION_N = 10_000


@dataclass
class RunConfig:
    """Knobs shared by the battery and the CLI front end."""

    alpha: float = 0.05
    effective_n: int | None = BENFORD_EMULATION_N  # None = raw counts
    bootstrap: int = 0
    seed: int = 0
    estimate_wash: bool = True
    pool_pairs: bool = False
    use_controls: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 0.5:
            raise ConfigError(f"alpha must be in (0, 0.5], got {self.alpha}")
        if self.effective_n is not None and self.effective_n <= 0:
            raise ConfigError(f"effective_n must be positive or None (raw), got {self.effective_n}")
        if self.bootstrap and self.bootstrap < we.MIN_REPLICATES:
            raise ConfigError(f"bootstrap must be 0 or >= {we.MIN_REPLICATES}, got {self.bootstrap}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass
class PairReport:
    exchange_id: str
    pair: str
    n_trades: int
    benford: bf.ChiSquaredResult | None = None
    benford_raw: bf.ChiSquaredResult | None = None
    benford_counterfactual_wash: float | None = None
    cluster_100: cl.ClusterTestResult | None = None
    cluster_500: cl.ClusterTestResult | None = None
    tail: tf.TailFit | None = None
    roundness: bf.ChiSquaredResult | None = None
    fisher: vd.FisherResult | None = None
    flags: list[str] = field(default_factory=list)

    def test_outcomes(self) -> dict[str, bool | None]:
        """Failure indicator per detection test; None marks a skipped test."""
        return {
            "benford": None if self.benford is None else self.benford.reject,
            "cluster_100": (
                None
                if self.cluster_100 is None or self.cluster_100.insufficient
                else self.cluster_100.reject
            ),
            "cluster_500": (
                None
                if self.cluster_500 is None or self.cluster_500.insufficient
                else self.cluster_500.reject
            ),
            "tail": None if self.tail is None else not self.tail.in_pareto_levy,
        }


@dataclass
class ExchangeReport:
    exchange_id: str
    regulatory_class: str | None
    pairs: list[PairReport] = field(default_factory=list)
    failure_rate: float | None = None
    tests_failed: int = 0
    tests_completed: int = 0
    wash_by_pair: list[we.WashEstimate] = field(default_factory=list)
    wash_aggregate: we.WashEstimate | None = None
    rank_improvement: int | None = None
    flags: list[str] = field(default_factory=list)


@dataclass
class BatteryReport:
    config: RunConfig
    exchanges: list[ExchangeReport] = field(default_factory=list)
    benchmark_models: dict[str, we.BenchmarkModel] = field(default_factory=dict)
    cross_validation: dict[str, float] | None = None
    failure_rate_by_pair: dict[str, float] = field(default_factory=dict)
    wash_summary: dict[str, dict[str, float]] = field(default_factory=dict)
    wash_failure_fit: vd.WashFailureFit | None = None
    warnings: list[str] = field(default_factory=list)

    @property
    def has_flags(self) -> bool:
        """Whether a test, an exchange or a wash estimate carries a flag."""
        return any(
            ex.flags or any(p.flags for p in ex.pairs) or any(e.flags for e in ex.wash_by_pair)
            for ex in self.exchanges
        )


def _pair_battery(group, spec, config: RunConfig) -> tuple[PairReport, np.ndarray]:
    """One group's tests, and its roundness counts (all zero for an empty
    group) for the roundness test, which needs every group's counts."""
    rep = PairReport(group.exchange_id, group.pair, group.n)
    amounts = SortedAmounts.of(group.amounts, spec)
    try:
        hist = bf.digit_histogram(amounts)
        rep.benford = bf.chi_squared_benford(hist, config.effective_n, config.alpha)
        rep.benford_raw = bf.chi_squared_benford(hist, None, config.alpha)
        try:
            rep.benford_counterfactual_wash = bf.counterfactual_wash_benford(hist)
        except EstimationError:
            rep.flags.append("benford counterfactual undefined: empty digit class")
    except InsufficientDataError as exc:
        rep.flags.append(f"benford skipped: {exc}")

    for step, attr in ((100, "cluster_100"), (500, "cluster_500")):
        result = cl.run_cluster_test(amounts, step, alpha=config.alpha)
        setattr(rep, attr, result)
        if result.insufficient:
            rep.flags.append(f"clustering-{step} skipped: insufficient windows ({result.n_pairs})")

    try:
        rep.tail = tf.fit_tail(amounts)
        if rep.tail.flags:
            rep.flags.extend(f"tail: {f}" for f in rep.tail.flags)
    except (InsufficientDataError, EstimationError) as exc:
        rep.flags.append(f"tail skipped: {exc}")

    if (
        rep.benford is not None
        and rep.cluster_100 is not None
        and not rep.cluster_100.insufficient
        and rep.tail is not None
    ):
        rep.fisher = vd.fisher_combine(
            [rep.benford.p_value, rep.cluster_100.anomaly_p, rep.tail.anomaly_p],
            config.alpha,
        )
    roundness = we.roundness_distribution(amounts) if group.n else np.zeros(8, dtype=np.int64)
    return rep, roundness


def _wash_section(
    report: BatteryReport,
    dataset: TradeDataset,
    registry: PairRegistry,
    meta: dict[str, ExchangeMeta] | None,
    regulated: set[str],
    config: RunConfig,
    external_models: dict[str, we.BenchmarkModel] | None,
) -> None:
    # Keys in sorted (exchange, pair) order, weeks ascending within a key, as
    # weekly_split yields them; that order reaches the fits and the bootstrap.
    panel: dict[tuple[str, str], list[WeeklyVolumeSplit]] = {}
    for row in weekly_split(dataset, registry):
        panel.setdefault((row.exchange_id, row.pair), []).append(row)

    def rows_of(exchanges: set[str], scope: str = "pooled") -> list[WeeklyVolumeSplit]:
        """The rows of ``exchanges`` in one pair, or in every pair for ``pooled``."""
        keys = [(ex, pair) for ex, pair in panel if ex in exchanges and scope in (pair, "pooled")]
        return [r for key in keys for r in panel[key]]

    use_controls = config.use_controls
    if use_controls and meta is not None:
        lacking = [ex for ex in regulated if not meta[ex].has_all_controls()]
        if lacking:
            report.warnings.append(
                f"controls disabled: missing covariates for {', '.join(sorted(lacking))}"
            )
            use_controls = False

    models: dict[str, we.BenchmarkModel] = dict(external_models or {})
    if not models:
        # pooled: one fit over every pair, with pair indicator terms
        scopes = ["pooled"] if config.pool_pairs else sorted({pair for _, pair in panel})
        for scope in scopes:
            try:
                models[scope] = we.fit_benchmark(
                    rows_of(regulated, scope), meta=meta, use_controls=use_controls
                )
            except (InsufficientDataError, EstimationError) as exc:
                report.warnings.append(f"benchmark for {scope} not fitted: {exc}")
    report.benchmark_models = models

    fits: dict[str, Any] = {}  # each scope's bootstrap fit, or the flag its targets get instead

    def with_sd(est: we.WashEstimate, rows: list[WeeklyVolumeSplit], fit) -> we.WashEstimate:
        """``est`` with the replicate sd of ``rows`` on ``fit``, or with the flag that says why it has none."""
        if not isinstance(fit, str):
            try:
                return replace(est, bootstrap_sd=we.replicate_sd(rows, fit, meta=meta))
            except EstimationError as exc:
                fit = f"bootstrap failed: {exc}"
        return replace(est, flags=tuple(dict.fromkeys((*est.flags, fit))))  # an aggregate has its pairs' flags

    for ex_rep in report.exchanges:
        if ex_rep.exchange_id in regulated:
            continue
        per_pair: list[we.WashEstimate] = []
        scored: dict[str, list[WeeklyVolumeSplit]] = {}  # the rows of the estimated pairs, by scope
        for pair_rep in ex_rep.pairs:
            target = panel.get((ex_rep.exchange_id, pair_rep.pair))
            if not target:
                continue
            scope = pair_rep.pair if pair_rep.pair in models else "pooled"
            try:
                if scope not in models:
                    raise EstimationError("no benchmark model covers this pair")
                est = we.estimate_wash(target, models[scope], meta=meta)
            except (InsufficientDataError, EstimationError) as exc:
                ex_rep.flags.append(f"wash estimate failed for {pair_rep.pair}: {exc}")
                continue
            if config.bootstrap and scope not in fits:  # one fit serves every target of a scope
                bench = rows_of(regulated, scope)
                try:
                    fits[scope] = we.fit_bootstrap(
                        bench, n_boot=config.bootstrap, seed=config.seed, meta=meta,
                        use_controls=models[scope].controls_used,
                    ) if bench else "bootstrap skipped: no benchmark rows"
                except EstimationError as exc:
                    fits[scope] = f"bootstrap failed: {exc}"
            if config.bootstrap:
                est = with_sd(est, target, fits[scope])
            per_pair.append(est)
            scored.setdefault(scope, []).extend(target)
        ex_rep.wash_by_pair = per_pair
        wash_volume = sum(e.wash_volume for e in per_pair)
        total_volume = sum(e.total_volume for e in per_pair)
        if total_volume > 0:
            # Pairs scored on one scope's fit share its draws, so their summed
            # wash has a replicate sd; the fits of several scopes draw apart.
            (scope, rows), *others = scored.items()
            ex_rep.wash_aggregate = we.WashEstimate(
                exchange_id=ex_rep.exchange_id,
                scope="aggregate",
                wash_volume=wash_volume,
                wash_percent=100.0 * wash_volume / total_volume,
                total_volume=total_volume,
                n_weeks=sum(e.n_weeks for e in per_pair),
                controls_used=any(e.controls_used for e in per_pair),
                flags=tuple(sorted({f for e in per_pair for f in e.flags})),
            )
            if not others and scope in fits:
                ex_rep.wash_aggregate = with_sd(ex_rep.wash_aggregate, rows, fits[scope])
            if ex_rep.wash_aggregate.wash_percent < 100.0:
                ex_rep.rank_improvement = vd.counterfactual_rank(
                    total_volume, ex_rep.wash_aggregate.wash_percent
                ).improvement

    if len(regulated) >= 3:
        traded = sorted(regulated & {ex for ex, _ in panel})
        try:
            cv, left_out = we.cross_validate_regulated(
                {ex: rows_of({ex}) for ex in traded}, meta=meta, use_controls=use_controls
            )
            report.cross_validation = {ex: est.wash_percent for ex, est in cv.items()}
            for ex, pairs in left_out.items():
                report.warnings.append(
                    f"regulated cross-validation left out {ex}: no other regulated exchange "
                    f"has a usable week in {', '.join(pairs)}"
                )
        except (InsufficientDataError, EstimationError) as exc:
            report.warnings.append(f"regulated cross-validation failed: {exc}")

    _wash_summaries(report, meta)
    _wash_failure_relation(report)


def _summary_cell(estimates: list[we.WashEstimate]) -> dict[str, float]:
    total = sum(e.total_volume for e in estimates)
    return {
        "equal_weighted": float(np.mean([e.wash_percent for e in estimates])),
        "volume_weighted": 100.0 * sum(e.wash_volume for e in estimates) / total,
        "n_exchanges": len(estimates),
    }


def _wash_summaries(report: BatteryReport, meta: dict[str, ExchangeMeta] | None) -> None:
    """Equal- and volume-weighted wash percentages per regulatory category."""
    scored = [ex for ex in report.exchanges if ex.wash_aggregate is not None]
    if not scored:
        return
    report.wash_summary["all_scored"] = _summary_cell([ex.wash_aggregate for ex in scored])
    if meta:
        for cls_value in ("unregulated_tier1", "unregulated_tier2"):
            members = [
                ex.wash_aggregate for ex in scored if ex.regulatory_class == cls_value
            ]
            if members:
                report.wash_summary[cls_value] = _summary_cell(members)


def _wash_failure_relation(report: BatteryReport) -> None:
    """Regress estimated wash fraction on the detection-failure rate."""
    points = [
        (ex.failure_rate, ex.wash_aggregate.wash_percent / 100.0)
        for ex in report.exchanges
        if ex.failure_rate is not None and ex.wash_aggregate is not None
    ]
    if len(points) < 3:
        return
    try:
        report.wash_failure_fit = vd.wash_failure_regression(
            [p[0] for p in points], [p[1] for p in points]
        )
    except (InsufficientDataError, EstimationError) as exc:
        report.warnings.append(f"wash-failure fit skipped: {exc}")


def run_battery(
    dataset: TradeDataset,
    registry: PairRegistry,
    meta: dict[str, ExchangeMeta] | None = None,
    config: RunConfig | None = None,
    benchmark_models: dict[str, we.BenchmarkModel] | None = None,
) -> BatteryReport:
    """Run every detection test and, where possible, the wash estimator."""
    config = config or RunConfig()
    report = BatteryReport(config=config)
    regulated = {ex for ex, m in (meta or {}).items() if m.is_regulated}

    keys = dataset.sorted_keys()
    groups = [dataset.groups[key] for key in keys]
    done = list(_side_by_side(lambda i: _pair_battery(groups[i], registry.get(keys[i][1]), config), len(keys)))

    # each pair's regulated roundness benchmark pools its regulated groups' counts
    pooled_roundness: dict[str, np.ndarray] = {}
    for (ex, pair), group, (_, counts) in zip(keys, groups, done):
        if ex in regulated and group.n:
            pooled_roundness[pair] = pooled_roundness.get(pair, 0) + counts

    by_exchange: dict[str, ExchangeReport] = {}
    for (ex, pair), (pair_rep, counts) in zip(keys, done):
        if ex not in regulated and pair in pooled_roundness:
            try:
                pair_rep.roundness = we.roundness_chi_squared(
                    counts, pooled_roundness[pair], config.effective_n, config.alpha
                )
            except (InsufficientDataError, EstimationError) as exc:
                pair_rep.flags.append(f"roundness skipped: {exc}")
        ex_rep = by_exchange.setdefault(
            ex,
            ExchangeReport(
                exchange_id=ex,
                regulatory_class=(
                    meta[ex].regulatory_class.value if meta and ex in meta else None
                ),
            ),
        )
        ex_rep.pairs.append(pair_rep)

    report.exchanges = [by_exchange[ex] for ex in sorted(by_exchange)]

    pair_outcomes: dict[str, list[bool]] = {}
    for ex_rep in report.exchanges:
        outcomes: list[bool | None] = []
        for pair_rep in ex_rep.pairs:
            per_test = pair_rep.test_outcomes()
            outcomes.extend(per_test.values())
            for o in per_test.values():
                if o is not None:
                    pair_outcomes.setdefault(pair_rep.pair, []).append(o)
        completed = [o for o in outcomes if o is not None]
        ex_rep.tests_completed = len(completed)
        ex_rep.tests_failed = sum(completed)
        if completed:
            ex_rep.failure_rate = vd.failure_rate(outcomes)
        else:
            ex_rep.flags.append("failure rate undefined: no completed tests")
    report.failure_rate_by_pair = {
        pair: sum(v) / len(v) for pair, v in sorted(pair_outcomes.items())
    }

    if config.estimate_wash:
        if regulated or benchmark_models:
            _wash_section(report, dataset, registry, meta, regulated, config, benchmark_models)
        else:
            raise EstimationError(
                "wash estimation needs a regulated exchange in the metadata or a "
                "benchmark model file (report --no-wash skips it)"
            )
    return report


# ---------------------------------------------------------------------------
# Serialization


def _chi_json(r: bf.ChiSquaredResult | None) -> dict | None:
    if r is None:
        return None
    return {
        "statistic": r.statistic,
        "df": r.df,
        "p": r.p_value,
        "effective_n": r.effective_n,
        "pass": not r.reject,
    }


def _cluster_json(r: cl.ClusterTestResult | None) -> dict | None:
    if r is None:
        return None
    if r.insufficient:
        return {"skipped": "insufficient windows", "n_windows": r.n_pairs, "step": r.step}
    return {
        "mean_difference": r.mean_difference,
        "statistic": r.t_statistic if np.isfinite(r.t_statistic) else None,
        "p": r.p_value,
        "n_windows": r.n_pairs,
        "step": r.step,
        "pass": not r.reject,
    }


def _tail_json(t: tf.TailFit | None) -> dict | None:
    if t is None:
        return None
    return {
        "x_min": t.x_min,
        "n_tail": t.n_tail,
        "alpha_hill": t.alpha_hill,
        "hill_pdf_exponent": t.hill_pdf_exponent,
        "hill_se": t.hill_se,
        "alpha_ols": t.alpha_ols,
        "ols_r_squared": t.ols_r_squared,
        "pass": t.in_pareto_levy,
        "p_outside_range": t.p_outside,
    }


def report_to_json(report: BatteryReport) -> dict[str, Any]:
    """The ``report.json`` document; both CSV tables are flattened from it."""
    return {
        "schema_version": SCHEMA_VERSION,
        "alpha": report.config.alpha,
        "effective_n": report.config.effective_n,
        "exchanges": [
            {
                "exchange_id": ex.exchange_id,
                "regulatory_class": ex.regulatory_class,
                "failure_rate": ex.failure_rate,
                "tests_failed": ex.tests_failed,
                "tests_completed": ex.tests_completed,
                "rank_improvement": ex.rank_improvement,
                "wash_aggregate": fields_json(ex.wash_aggregate, "exchange_id"),
                "wash_by_pair": [fields_json(e, "exchange_id") for e in ex.wash_by_pair],
                "flags": list(ex.flags),
                "pairs": [
                    {
                        "pair": p.pair,
                        "n_trades": p.n_trades,
                        "benford": _chi_json(p.benford),
                        "benford_raw_n": _chi_json(p.benford_raw),
                        "benford_counterfactual_wash": p.benford_counterfactual_wash,
                        "clustering_100": _cluster_json(p.cluster_100),
                        "clustering_500": _cluster_json(p.cluster_500),
                        "tail": _tail_json(p.tail),
                        "roundness": _chi_json(p.roundness),
                        "fisher": fields_json(p.fisher),
                        "flags": list(p.flags),
                    }
                    for p in ex.pairs
                ],
            }
            for ex in report.exchanges
        ],
        "failure_rate_by_pair": report.failure_rate_by_pair,
        "benchmark_models": we.dump_models(report.benchmark_models),
        "regulated_cross_validation": report.cross_validation,
        "wash_summary": report.wash_summary,
        "wash_failure_fit": fields_json(report.wash_failure_fit),
        "warnings": list(report.warnings),
    }


def json_text(obj: Any) -> str:
    """The one JSON layout the toolkit writes: sorted keys, two-space indent,
    a final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def dump_report_json(report: BatteryReport) -> str:
    return json_text(report_to_json(report))


# report_tests.csv: a row per test that ran, as (test, key of its object in
# a pair of report.json, statistic key, p key); fisher has no p
_TEST_ROWS = (
    ("benford", "benford", "statistic", "p"),
    ("cluster_100", "clustering_100", "statistic", "p"),
    ("cluster_500", "clustering_500", "statistic", "p"),
    ("pareto_levy", "tail", "alpha_hill", "p_outside_range"),
    ("roundness", "roundness", "statistic", "p"),
    ("fisher", "fisher", "chi2", None),
)
_WASH_COLUMNS = ("wash_volume", "wash_percent", "bootstrap_sd", "controls_used")


def report_test_rows(doc: dict[str, Any]) -> list[list]:
    """Flat spreadsheet rows of a :func:`report_to_json` document: one line
    per exchange-pair-test."""
    rows: list[list] = [["exchange", "pair", "test", "statistic", "p_value", "passed"]]
    for ex in doc["exchanges"]:
        for p in ex["pairs"]:
            for test, key, stat, prob in _TEST_ROWS:
                obj = p[key]
                if obj is not None and "skipped" not in obj:
                    passed = obj["pass"] if "pass" in obj else not obj["reject"]
                    rows.append([ex["exchange_id"], p["pair"], test, obj[stat], obj.get(prob), passed])
    return rows


def wash_estimate_rows(doc: dict[str, Any]) -> list[list]:
    """Flat spreadsheet rows of a :func:`report_to_json` document: one line
    per wash estimate, each exchange's pairs and then its aggregate."""
    rows: list[list] = [["exchange", "pair", *_WASH_COLUMNS, "flags"]]
    for ex in doc["exchanges"]:
        for e in ex["wash_by_pair"] + ([ex["wash_aggregate"]] if ex["wash_aggregate"] else []):
            rows.append([ex["exchange_id"], e["scope"], *(e[c] for c in _WASH_COLUMNS), ";".join(e["flags"])])
    return rows
