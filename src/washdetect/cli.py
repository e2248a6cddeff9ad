"""Command-line front end.

Subcommands: ingest-check, benford, cluster, tail, roundness, fit-benchmark,
estimate-wash, fisher, report, synth, plot-data, rank. The analysis
subcommands are views of ``report``: each runs ``report.run_battery`` with
the configuration its flags give and prints its slice of the result; only
plot-data writes the battery's fits to files. Each subcommand accepts only
the flags it reads. Exit codes: 0 on success, 1 on a fatal error (an input,
setting or output path that cannot be used), 2 when a test or estimate that
the subcommand prints was skipped or flagged.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
from pathlib import Path

from . import benford as bf
from . import clustering as cl
from . import report as rp
from . import synth
from . import tailfit as tf
from . import verdicts as vd
from . import washest as we
from .errors import ConfigError, WashdetectError
from .ingest import TradeDataset, parse_each, parse_trades, unrounded_subset
from .trades import PairRegistry, RegulatoryClass, load_exchange_meta

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_FLAGGED = 2

# Most 1-base-unit bins plot-data --which sizes writes a group
MAX_SIZE_BINS = 1_000_000


# Flags several subcommands share; each subcommand declares those it reads.
_SHARED_FLAGS = {
    "--pairs": dict(help="JSON file of pair -> base-unit exponent overrides"),
    "--alpha": dict(type=float, default=rp.RunConfig.alpha, help="significance level"),
    "--effective-n": dict(
        default=str(rp.RunConfig.effective_n), help="chi-squared effective sample size: an integer or 'raw'"
    ),
    "--bootstrap": dict(type=int, default=rp.RunConfig.bootstrap, help="bootstrap replicates (0 = off)"),
    "--seed": dict(type=int, default=rp.RunConfig.seed),
    "--out": dict(help="output directory"),
}


def _subcommand(
    sub, command: str | None, name: str, func, help: str, flags: str, inputs: bool = True, unrounded: bool = False
) -> argparse.ArgumentParser | None:
    """Register a subcommand by name and help; only when it is ``command``,
    declare its flags, with the shared ones it reads named in ``flags``, and
    return its parser for the rest.

    Abbreviated flags are refused, so that a flag a subcommand does not take
    (``synth --out``) is a usage error and not a prefix of another one.
    """
    p = sub.add_parser(name, help=help, allow_abbrev=False)
    p.set_defaults(func=func)
    if name != command:
        return None
    if unrounded:
        p.add_argument(
            "--unrounded-only",
            action="store_true",
            help="run the test on the unrounded subset (validation mode)",
        )
    if inputs:
        p.add_argument("inputs", nargs="+", help="trade files (CSV or JSONL)")
        p.add_argument("--format", choices=["csv", "jsonl"], default="csv")
        p.add_argument("--strict", action="store_true", help="abort on the first bad row")
        p.add_argument("--dedupe", action="store_true", help="drop exact duplicate rows")
    for flag in flags.split():
        p.add_argument(flag, **_SHARED_FLAGS[flag])
    return p


def _load(args) -> tuple[TradeDataset, PairRegistry]:
    """The inputs as one dataset (restricted to unrounded trades under
    --unrounded-only); a warning counts the rows rejected."""
    ds, parsed = parse_trades(args.inputs, args.format, strict=args.strict, dedupe=args.dedupe)
    if parsed.n_rejected:
        print(f"warning: {parsed.n_rejected} row(s) rejected and skipped; ingest-check lists them", file=sys.stderr)
    if ds.n_trades == 0:
        raise WashdetectError("no trades ingested")
    registry = PairRegistry.from_file(args.pairs) if args.pairs else PairRegistry()
    if getattr(args, "unrounded_only", False):
        ds = unrounded_subset(ds, registry)
        if ds.n_trades == 0:
            raise WashdetectError("no unrounded trades ingested")
    return ds, registry


def _battery(
    args, ds: TradeDataset, registry: PairRegistry, estimate_wash: bool = False
) -> rp.BatteryReport:
    """Run the battery with the configuration the subcommand's flags give."""
    meta = load_exchange_meta(args.meta) if getattr(args, "meta", None) else None
    models = we.load_models(args.model) if getattr(args, "model", None) else None
    text = getattr(args, "effective_n", str(rp.RunConfig.effective_n))
    try:
        effective_n = None if text == "raw" else int(text)
    except ValueError:
        raise ConfigError(f"--effective-n must be an integer or 'raw', got {text!r}") from None
    config = rp.RunConfig(
        alpha=getattr(args, "alpha", rp.RunConfig.alpha),
        effective_n=effective_n,
        bootstrap=getattr(args, "bootstrap", rp.RunConfig.bootstrap),
        seed=getattr(args, "seed", rp.RunConfig.seed),
        estimate_wash=estimate_wash,
        pool_pairs=getattr(args, "pooled", False),
        use_controls=getattr(args, "controls", False),
    )
    report = rp.run_battery(ds, registry, meta, config, benchmark_models=models)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return report


def _flags(p: rp.PairReport, prefix: str) -> str:
    return "; ".join(f for f in p.flags if f.startswith(prefix))


def _print_pairs(report: rp.BatteryReport, line, skip_regulated: bool = False) -> int:
    """Print ``line(p)`` for each exchange-pair; exit 2 if one was flagged.

    ``line`` returns the text and whether the test it shows was skipped or
    flagged.
    """
    flagged = False
    for ex in report.exchanges:
        if skip_regulated and ex.regulatory_class == RegulatoryClass.REGULATED.value:
            continue
        for p in ex.pairs:
            text, flag = line(p)
            print(f"{ex.exchange_id} {p.pair}: {text}")
            flagged = flagged or flag
    return EXIT_FLAGGED if flagged else EXIT_OK


def _outdir(args) -> Path | None:
    if not args.out:
        return None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_rows(path: Path, rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _plot_path(out: Path, which: str, exchange_id: str, pair: str) -> Path:
    return out / f"{which}_{exchange_id}_{pair}.csv".replace("/", "-")


def _export_fits(out: Path, ds: TradeDataset, registry: PairRegistry, report: rp.BatteryReport, which: str) -> list[str]:
    """Write ``{which}_{exchange}_{pair}.csv`` for each group the battery
    fitted: the digit histogram (``benford``) or the log-log tail (``tail``).

    Returns an ``exchange pair: reason`` line for each group it skipped.
    """
    skipped = []
    for ex in report.exchanges:
        for p in ex.pairs:
            fit = getattr(p, which)
            if fit is None:
                skipped.append(f"{ex.exchange_id} {p.pair}: {_flags(p, which + ' skipped')}")
                continue
            g = ds.groups[(ex.exchange_id, p.pair)]
            if which == "benford":
                rows = bf.histogram_rows(bf.digit_histogram(g.amounts))
            else:
                sizes = g.amounts / registry.get(p.pair).subunits_per_base_unit
                rows = tf.tail_rows(fit, sizes[sizes >= fit.x_min])
            _write_rows(_plot_path(out, which, ex.exchange_id, p.pair), rows)
    return skipped


def cmd_ingest_check(args) -> int:
    stems: dict[str, str] = {}
    for path in args.inputs if args.out else []:
        stem = Path(path).stem
        if stem in stems:
            raise ConfigError(f"{stems[stem]} and {path} would both write their reject log to rejected_{stem}.csv")
        stems[stem] = path
    total_rejected = 0
    out = _outdir(args)
    # the files are parsed side by side, and each reported as it comes in the
    # list; a file that failed raises after the ones before it are printed
    parsed = parse_each(args.inputs, args.format, strict=args.strict, dedupe=args.dedupe)
    for path, (ds, report) in zip(args.inputs, parsed):
        total_rejected += report.n_rejected
        print(f"{path}: {report.n_accepted} accepted, {report.n_rejected} rejected", end="")
        if args.dedupe:
            print(f", {report.n_deduplicated} duplicates dropped", end="")
        print()
        for key in ds.sorted_keys():
            g = ds.groups[key]
            print(f"  {g.exchange_id} {g.pair}: {g.n} trades")
        if out and report.rejected:
            _write_rows(out / f"rejected_{Path(path).stem}.csv", report.rejected_rows())
    return EXIT_OK if total_rejected == 0 else EXIT_FLAGGED


def cmd_benford(args) -> int:
    def line(p: rp.PairReport) -> tuple[str, bool]:
        if p.benford is None:
            return _flags(p, "benford skipped"), True
        return (
            f"chi2={p.benford.statistic:.3f} p={p.benford.p_value:.4f} "
            f"(raw-n chi2={p.benford_raw.statistic:.3f}) -> {'FAIL' if p.benford.reject else 'PASS'}"
        ), False

    return _print_pairs(_battery(args, *_load(args)), line)


def cmd_cluster(args) -> int:
    def line(p: rp.PairReport) -> tuple[str, bool]:
        res = getattr(p, f"cluster_{args.step}")
        if res.insufficient:
            return f"insufficient windows ({res.n_pairs})", True
        return (
            f"step={args.step} diff={res.mean_difference:+.4f} t={res.t_statistic:.2f} "
            f"p={res.p_value:.3e} -> {'NO clustering' if res.reject else 'clustering present'}"
        ), False

    return _print_pairs(_battery(args, *_load(args)), line)


def cmd_tail(args) -> int:
    def line(p: rp.PairReport) -> tuple[str, bool]:
        if p.tail is None:
            return _flags(p, "tail skipped"), True
        ols = "n/a" if p.tail.alpha_ols is None else f"{p.tail.alpha_ols:.3f}"
        return (
            f"alpha_ols={ols} alpha_hill={p.tail.alpha_hill:.3f} n_tail={p.tail.n_tail} -> "
            f"{'Pareto-Levy' if p.tail.in_pareto_levy else 'OUTSIDE range'}"
        ), bool(_flags(p, "tail"))

    return _print_pairs(_battery(args, *_load(args)), line)


def cmd_roundness(args) -> int:
    def line(p: rp.PairReport) -> tuple[str, bool]:
        if p.roundness is None:
            skipped = _flags(p, "roundness")
            return skipped or "no regulated benchmark for this pair", bool(skipped)
        return (
            f"chi2={p.roundness.statistic:.3f} p={p.roundness.p_value:.4f} -> "
            f"{'DIFFERS from regulated benchmark' if p.roundness.reject else 'consistent'}"
        ), False

    return _print_pairs(_battery(args, *_load(args)), line, skip_regulated=True)


def cmd_fisher(args) -> int:
    def line(p: rp.PairReport) -> tuple[str, bool]:
        if p.fisher is None:
            return f"fisher skipped ({'; '.join(p.flags)})", True
        return (
            f"chi2={p.fisher.chi2:.3f} df={p.fisher.df} critical={p.fisher.critical_value:.3f} -> "
            f"{'REJECT authenticity' if p.fisher.reject else 'consistent'}"
        ), False

    return _print_pairs(_battery(args, *_load(args)), line)


def cmd_fit_benchmark(args) -> int:
    report = _battery(args, *_load(args), estimate_wash=True)
    models = report.benchmark_models
    if not models:
        raise WashdetectError("no benchmark model could be fitted")
    Path(args.out_model).write_text(rp.json_text(we.dump_models(models)))
    for scope, m in sorted(models.items()):
        print(
            f"{scope}: intercept={m.intercept:.4f} slope={m.slope:.4f} "
            f"resid_se={m.resid_se:.4f} n={m.n_obs}"
        )
    print(f"model written to {args.out_model}")
    return EXIT_FLAGGED if report.warnings else EXIT_OK


def cmd_estimate_wash(args) -> int:
    report = _battery(args, *_load(args), estimate_wash=True)
    flagged = False
    for ex in report.exchanges:
        for est in ex.wash_by_pair:
            sd = "" if est.bootstrap_sd is None else f" (sd {est.bootstrap_sd:.2f})"
            note = f" [{'; '.join(est.flags)}]" if est.flags else ""
            print(f"{ex.exchange_id} {est.scope}: wash {est.wash_percent:.2f}%{sd} of {est.total_volume:.4f}{note}")
            flagged = flagged or bool(est.flags)
        for failure in (f for f in ex.flags if f.startswith("wash estimate failed")):
            print(f"{ex.exchange_id}: {failure}")
            flagged = True
    out = _outdir(args)
    if out:
        _write_rows(out / "wash_estimates.csv", rp.wash_estimate_rows(rp.report_to_json(report)))
    return EXIT_FLAGGED if flagged else EXIT_OK


def cmd_report(args) -> int:
    report = _battery(args, *_load(args), estimate_wash=not args.no_wash)
    out = _outdir(args)
    text = rp.dump_report_json(report)
    if out:
        (out / "report.json").write_text(text)
        doc = rp.report_to_json(report)
        _write_rows(out / "report_tests.csv", rp.report_test_rows(doc))
        if not args.no_wash:
            _write_rows(out / "wash_estimates.csv", rp.wash_estimate_rows(doc))
        print(f"report written to {out}")
    else:
        sys.stdout.write(text)
    for ex in report.exchanges:
        rate = "n/a" if ex.failure_rate is None else f"{ex.failure_rate:.0%}"
        wash = (
            f" wash={ex.wash_aggregate.wash_percent:.1f}%"
            if ex.wash_aggregate is not None
            else ""
        )
        print(
            f"{ex.exchange_id}: {ex.tests_failed}/{ex.tests_completed} tests failed "
            f"(rate {rate}){wash}",
            file=sys.stderr,
        )
    return EXIT_FLAGGED if report.has_flags else EXIT_OK


def cmd_synth(args) -> int:
    cfg = synth.GeneratorConfig(
        seed=args.seed,
        exchange_id=args.exchange_id,
        pair=args.pair,
        n_trades=args.n,
        wash_fraction=args.wash,
        n_weeks=args.weeks,
        profile=args.profile,
    )
    tape = synth.gen_exchange(cfg)
    if tape.flags:
        print(f"warning: {', '.join(tape.flags)}", file=sys.stderr)
    with open(args.out_file, "w", newline="") as fh:
        synth.write_tape(tape, fh, fmt=args.format, include_labels=args.labels)
    print(
        f"wrote {tape.group.n} trades to {args.out_file} "
        f"(wash volume fraction {tape.realized_wash_fraction:.4f})"
    )
    return EXIT_OK


def _size_range(text: str | None) -> tuple[int, int]:
    """``--range lo:hi`` as two integers with 0 <= lo < hi and at most
    ``MAX_SIZE_BINS`` bins between them; (1, 1000) when absent."""
    if text is None:
        return 1, 1000
    try:
        lo, hi = (int(x) for x in text.split(":"))
    except ValueError:
        raise ConfigError(f"--range must be lo:hi with integer bounds, got {text!r}") from None
    if lo >= hi:
        raise ConfigError(f"--range needs lo < hi, got {text!r}")
    if lo < 0 or hi - lo > MAX_SIZE_BINS:
        raise ConfigError(f"--range needs 0 <= lo and at most {MAX_SIZE_BINS:,} bins, got {text!r}")
    return lo, hi


def cmd_plot_data(args) -> int:
    lo, hi = _size_range(args.range)
    if args.step < 1:
        raise ConfigError(f"--step must be positive, got {args.step}")
    ds, registry = _load(args)
    out = _outdir(args) or Path(".")
    skipped = []
    if args.which == "sizes":
        for key in ds.sorted_keys():
            g = ds.groups[key]
            rows = cl.size_histogram_rows(g.amounts, registry.get(g.pair), lo_units=lo, hi_units=hi, step=args.step)
            _write_rows(_plot_path(out, "sizes", g.exchange_id, g.pair), rows)
    else:
        skipped = _export_fits(out, ds, registry, _battery(args, ds, registry), args.which)
        for line in skipped:
            print(line, file=sys.stderr)
    print(f"plot data written to {out}")
    return EXIT_FLAGGED if skipped else EXIT_OK


def cmd_rank(args) -> int:
    res = vd.counterfactual_rank(
        args.volume,
        args.wash_percent,
        coeffs=vd.RankCoeffs(a=args.coeff_a, b=args.coeff_b),
        reported_rank=args.rank,
    )
    print(f"rank improvement from inflated volume: {res.improvement} positions")
    if res.counterfactual_rank is not None:
        print(f"counterfactual rank without wash trading: {res.counterfactual_rank:.0f}")
    return EXIT_OK


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of ``washdetect``, with the flags of the subcommand ``command`` only.

    Every subcommand is registered with its help, so that ``--help`` lists
    them all and an unknown one is a usage error that names them; declaring
    the flags of the one called alone halves the parser's cost.
    """
    parser = argparse.ArgumentParser(
        prog="washdetect",
        description="Detect and quantify wash trading in exchange trade tapes.",
    )
    add = functools.partial(_subcommand, parser.add_subparsers(dest="command", required=True), command)

    battery = "--pairs --alpha --effective-n"
    add("ingest-check", cmd_ingest_check, "parse inputs and report rejected rows", "--out")

    add("benford", cmd_benford, "first-digit chi-squared test per group", battery, unrounded=True)

    if p := add("cluster", cmd_cluster, "round-size clustering t-test per group", "--pairs --alpha"):
        p.add_argument("--step", type=int, choices=[100, 500], default=100)

    add("tail", cmd_tail, "power-law tail fit per group", "--pairs", unrounded=True)

    if p := add("roundness", cmd_roundness, "roundness distribution vs regulated benchmark", battery):
        p.add_argument("--meta", required=True, help="exchange metadata JSON")

    if p := add("fit-benchmark", cmd_fit_benchmark, "fit the round/unrounded volume relation", "--pairs"):
        p.add_argument("--meta", required=True)
        p.add_argument("--pooled", action="store_true", help="pool pairs with indicator terms")
        p.add_argument("--controls", action="store_true", help="include exchange covariates")
        p.add_argument("--out-model", required=True, help="where to write the model JSON")

    wash = "--bootstrap --seed --out"
    if p := add("estimate-wash", cmd_estimate_wash, "estimate wash volume per exchange", f"--pairs {wash}"):
        p.add_argument("--meta")
        p.add_argument("--model", help="benchmark model JSON from fit-benchmark")

    add("fisher", cmd_fisher, "combined test per exchange-pair", battery)

    if p := add("report", cmd_report, "full battery plus wash estimation", f"{battery} {wash}"):
        p.add_argument("--meta")
        p.add_argument("--model", help="benchmark model JSON (skip refitting)")
        p.add_argument("--no-wash", action="store_true", help="battery only")
        p.add_argument("--pooled", action="store_true")
        p.add_argument("--controls", action="store_true")

    if p := add("synth", cmd_synth, "generate a synthetic labeled tape", "--seed", inputs=False):
        p.add_argument("--wash", type=float, default=0.0, help="wash volume fraction in [0, 1]")
        p.add_argument("--n", type=int, default=100_000)
        p.add_argument("--pair", default="BTC/USD")
        p.add_argument("--exchange-id", default="X1")
        p.add_argument("--weeks", type=int, default=12)
        p.add_argument("--profile", choices=list(synth.PROFILES), default="default")
        p.add_argument("--labels", action="store_true", help="emit the ground-truth label column")
        p.add_argument("--format", choices=["csv", "jsonl"], default="csv")
        p.add_argument("--out-file", required=True)

    if p := add("plot-data", cmd_plot_data, "emit plot-ready CSVs", "--pairs --out", unrounded=True):
        p.add_argument("--which", choices=["benford", "sizes", "tail"], required=True)
        p.add_argument("--range", help="size histogram range in base units, lo:hi")
        p.add_argument("--step", type=int, default=100)

    if p := add("rank", cmd_rank, "counterfactual ranking improvement", "", inputs=False):
        p.add_argument("--volume", type=float, required=True, help="reported volume")
        p.add_argument("--wash-percent", type=float, required=True)
        p.add_argument("--rank", type=float, help="reported rank, for the absolute counterfactual")
        p.add_argument("--coeff-a", type=float, default=vd.DEFAULT_RANK_COEFFS.a)
        p.add_argument("--coeff-b", type=float, default=vd.DEFAULT_RANK_COEFFS.b)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the subcommand is the first word that is not an option: the top-level parser takes none with a value
    args = build_parser(next((a for a in argv if not a.startswith("-")), None)).parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe fails here and not at exit
        return code
    except WashdetectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    except BrokenPipeError:
        # the reader of stdout has gone: as the Python signal docs advise,
        # point stdout at devnull, so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FATAL
    except OSError as exc:
        # an output path that cannot be written: a missing directory, or a file in its way
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
