#!/usr/bin/env python3
"""Calibration of the detection battery on synthetic markets.

Each seed builds one market with ``synth.gen_exchange`` and runs
``report.run_battery`` on it once, as ``washdetect report`` does. The market:

- a regulated trio R1-R3 on the stable-panel profile (400k, 250k and 150k
  trades), the benchmark of the wash estimate;
- five targets U0-U4 on the stable-panel profile with injected wash
  fractions 0, 0.25, 0.5, 0.75 and 0.9;
- a clean tape C and a wash-heavy tape W on the default profile.

Two tables are read from the report. Detector closure: the Benford,
clustering-100 and tail verdicts of C and W. Clean tapes should pass all
three and wash tapes fail at least two; a test the battery skipped counts as
not passing on C and as failing on W. Wash recovery: the aggregate wash
percentage of each target against the injected fraction, and the mean
leave-one-out estimate of the regulated trio, which should read near zero.

Usage:
    python scripts/calibrate.py --seeds 5 --n 250000
"""

import argparse
import time

from washdetect.ingest import TradeDataset
from washdetect.report import run_battery
from washdetect.synth import GeneratorConfig, STABLE_PANEL_PARAMS, STABLE_PANEL_WASH, gen_exchange
from washdetect.trades import ExchangeMeta, PairRegistry, RegulatoryClass

BENCH_SIZES = (400_000, 250_000, 150_000)
LADDER = (0.0, 0.25, 0.5, 0.75, 0.9)
FAMILIES = ("benford", "cluster_100", "tail")
REGULATED = {f"R{i + 1}": ExchangeMeta(f"R{i + 1}", RegulatoryClass.REGULATED) for i in range(3)}


def market(seed: int, n: int, wash: float) -> TradeDataset:
    stable = dict(authentic=STABLE_PANEL_PARAMS, wash=STABLE_PANEL_WASH)
    configs = [
        GeneratorConfig(seed=2000 * seed + i, exchange_id=ex, n_trades=size, **stable)
        for i, (ex, size) in enumerate(zip(REGULATED, BENCH_SIZES))
    ]
    configs += [
        GeneratorConfig(seed=9000 * seed + 100 + j, exchange_id=f"U{j}", n_trades=n, wash_fraction=w, **stable)
        for j, w in enumerate(LADDER)
    ]
    configs += [
        GeneratorConfig(seed=seed, exchange_id="C", n_trades=n),
        GeneratorConfig(seed=10_000 + seed, exchange_id="W", n_trades=n, wash_fraction=wash),
    ]
    ds = TradeDataset()
    for cfg in configs:
        ds.groups.update(gen_exchange(cfg).dataset.groups)
    return ds


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--n", type=int, default=250_000, help="trades per target and per closure tape")
    ap.add_argument("--wash", type=float, default=0.8, help="wash fraction of the closure tape W")
    args = ap.parse_args()

    t0 = time.time()
    closure = [f"{'seed':>5} {'tape':>6} {'benford':>8} {'cluster':>8} {'tail':>6}  verdict"]
    recovery = [f"{'seed':>5}  {'  '.join(f'w={w:.2f}' for w in LADDER)}   loo-mean"]
    clean_all = wash_majority = 0
    for seed in range(args.seeds):
        report = run_battery(market(seed, args.n, args.wash), PairRegistry(), REGULATED)
        exchanges = {ex.exchange_id: ex for ex in report.exchanges}
        for ex, label in (("C", "clean"), ("W", f"w={args.wash}")):
            outcomes = exchanges[ex].pairs[0].test_outcomes()
            passed = [outcomes[f] is False for f in FAMILIES]
            if ex == "C":
                clean_all += all(passed)
            else:
                wash_majority += passed.count(False) >= 2
            marks = ["PASS" if ok else "fail" for ok in passed]
            verdict = "authentic-like" if all(passed) else "anomalous"
            closure.append(f"{seed:>5} {label:>6} {marks[0]:>8} {marks[1]:>8} {marks[2]:>6}  {verdict}")
        cells = []
        for j in range(len(LADDER)):
            agg = exchanges[f"U{j}"].wash_aggregate
            cells.append("  n/a " if agg is None else f"{agg.wash_percent:5.1f}%")
        cv = report.cross_validation
        loo = "    n/a" if cv is None else f"{sum(cv.values()) / len(cv):6.2f}%"
        recovery.append(f"{seed:>5}  {'  '.join(cells)}   {loo}")
    print("\n".join(closure))
    print(
        f"\nclean tapes passing all families: {clean_all}/{args.seeds}; "
        f"wash tapes failing >= 2: {wash_majority}/{args.seeds}\n"
    )
    print("\n".join(recovery))
    print(f"\ninjected fractions: {', '.join(f'{100 * w:.0f}%' for w in LADDER)} ({time.time() - t0:.0f}s)")


if __name__ == "__main__":
    main()
