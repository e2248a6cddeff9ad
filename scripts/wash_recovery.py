#!/usr/bin/env python3
"""Wash-volume recovery experiment.

Builds a three-exchange synthetic regulated benchmark, injects known wash
fractions into target tapes, and compares the volume-relation estimates
against the injected ground truth. Also reports the leave-one-out
cross-validation of the regulated trio (should read near zero).

Usage:
    python scripts/wash_recovery.py --seeds 5
"""

import argparse
import time

from washdetect.ingest import weekly_split
from washdetect.synth import GeneratorConfig, STABLE_PANEL_PARAMS, STABLE_PANEL_WASH, gen_exchange
from washdetect.trades import PairRegistry
from washdetect.washest import cross_validate_regulated, estimate_wash, fit_benchmark

REG = PairRegistry()
BENCH_SIZES = (400_000, 250_000, 150_000)
LADDER = (0.0, 0.25, 0.5, 0.75, 0.9)


def panel(exchange_id, seed, n, wash=0.0):
    cfg = GeneratorConfig(
        seed=seed,
        exchange_id=exchange_id,
        n_trades=n,
        wash_fraction=wash,
        authentic=STABLE_PANEL_PARAMS,
        wash=STABLE_PANEL_WASH,
    )
    return weekly_split(gen_exchange(cfg).dataset, REG)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--target-n", type=int, default=250_000)
    args = ap.parse_args()

    t0 = time.time()
    header = "  ".join(f"w={w:.2f}" for w in LADDER)
    print(f"{'seed':>5}  {header}   loo-mean")
    for seed in range(args.seeds):
        bench_rows, by_exchange = [], {}
        for i, scale in enumerate(BENCH_SIZES):
            rows = panel(f"R{i+1}", 2000 * seed + i, scale)
            bench_rows.extend(rows)
            by_exchange[f"R{i+1}"] = rows
        model = fit_benchmark(bench_rows)
        estimates = []
        for j, w in enumerate(LADDER):
            rows = panel("U1", 9000 * seed + 100 + j, args.target_n, w)
            estimates.append(estimate_wash(rows, model).wash_percent)
        loo = cross_validate_regulated(by_exchange).mean_percent
        cells = "  ".join(f"{p:5.1f}%" for p in estimates)
        print(f"{seed:>5}  {cells}   {loo:6.2f}%")
    print(f"\ninjected fractions: {', '.join(f'{100*w:.0f}%' for w in LADDER)} ({time.time()-t0:.0f}s)")


if __name__ == "__main__":
    main()
