"""Statistical forensics for exchange trade tapes.

Detects fabricated volume by testing trade-size distributions against
Benford's law, round-size clustering, and Pareto-Levy power-law tails, and
quantifies it from the round/unrounded volume relation of regulated
benchmark exchanges.
"""

from .benford import (
    ChiSquaredResult,
    DigitHistogram,
    benford_expected,
    chi_squared_benford,
    counterfactual_wash_benford,
    digit_histogram,
)
from .clustering import ClusterTestResult, clustering_t_test, run_cluster_test
from .errors import (
    AmountError,
    ConfigError,
    EstimationError,
    InsufficientDataError,
    PairConfigError,
    ParseError,
    WashdetectError,
)
from .ingest import (
    ParseReport,
    TradeDataset,
    TradeGroup,
    WeeklyVolumeSplit,
    parse_trades,
    unrounded_subset,
    week_index,
    weekly_split,
)
from .tailfit import TailFit, fit_tail, pareto_levy_p
from .trades import (
    BUILTIN_PAIR_SPECS,
    ExchangeMeta,
    PairRegistry,
    PairSpec,
    RegulatoryClass,
    SortedAmounts,
)
from .verdicts import (
    FisherResult,
    RankCoeffs,
    counterfactual_rank,
    failure_rate,
    fisher_combine,
    spearman_rank_correlation,
    wash_failure_regression,
)
from .report import BatteryReport, RunConfig, run_battery
from .synth import (
    GeneratorConfig,
    LabeledTape,
    gen_exchange,
    write_tape,
)
from .washest import (
    BenchmarkModel,
    WashEstimate,
    cross_validate_regulated,
    estimate_wash,
    fit_benchmark,
    roundness_chi_squared,
    roundness_distribution,
)

__version__ = "0.1.0"
