"""Acceptance criteria for the whole toolkit.

Each test implements one criterion at its stated tolerance and prints one
PASS line on success (run with -s or -rP to see them); a failure raises
before the line is printed.
"""

import math
import time

import numpy as np
import pytest

from washdetect.benford import benford_expected, chi_squared_benford, chi_squared_pvalue, digit_histogram
from washdetect.clustering import run_cluster_test
from washdetect.distributions import chi2_isf, chi2_sf, norm_cdf, t_cdf
from washdetect.ingest import parse_trades, weekly_split
from washdetect.synth import GeneratorConfig, gen_exchange
from washdetect.tailfit import fit_hill, fit_ols, fit_tail, power_law_ols, tail_cutoff
from washdetect.trades import BUILTIN_PAIR_SPECS, PairRegistry, PairSpec, is_round_mask
from washdetect.verdicts import P_FLOOR, counterfactual_rank, fisher_combine, spearman_rank_correlation
from washdetect.washest import bootstrap_wash_sd, cross_validate_regulated, estimate_wash, fit_benchmark

REG = PairRegistry()


def _passed(n, detail):
    print(f"[criterion {n:2d}] PASS: {detail}")


def test_criterion_01_benford_constants():
    p = benford_expected()
    for d in range(1, 10):
        assert abs(p[d - 1] - math.log10(1 + 1 / d)) < 1e-12
    assert p[0] == pytest.approx(0.30103, abs=5e-6)
    _passed(1, "benford expectations match log10(1 + 1/d) to 1e-12; P(1) = 0.30103")


def _last_above(f, lo, hi, level):
    """The largest x in [lo, hi], to double precision, with f(x) > level
    (f decreasing, above level at lo and not at hi)."""
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) > level else (lo, mid)
    return lo


def test_criterion_02_chi_squared_survival():
    import mpmath

    assert chi_squared_pvalue(12.592, 6) == pytest.approx(0.05, abs=1e-4)
    assert chi_squared_pvalue(15.507, 8) == pytest.approx(0.05, abs=1e-4)
    # Every kernel against 40-digit mpmath at 1e-12, down to P_FLOOR tails.
    half = mpmath.mpf(1) / 2
    with mpmath.workdps(40):
        for df in range(1, 41):
            def q(x):
                return mpmath.gammainc(df * half, x * half, mpmath.inf, regularized=True)

            x_floor = _last_above(q, 0.0, 3000.0, P_FLOOR)
            for x in (1e-8, 0.5, df / 2, float(df), 2.0 * df, x_floor / 4, x_floor / 2, x_floor):
                assert chi2_sf(df, x) == pytest.approx(float(q(x)), rel=1e-12, abs=0), (df, x)
            if df % 2 == 0:
                for alpha in (1e-6, 0.01, 0.05, 0.5):
                    x = chi2_isf(df, alpha)
                    root = mpmath.findroot(lambda z: q(z) - alpha, x)
                    assert x == pytest.approx(float(root), rel=1e-12, abs=0), (df, alpha)
        for nu in (*range(1, 41), 100, 515, 2000):
            def tail(t):  # P(T <= -|t|)
                return mpmath.betainc(nu * half, half, 0, nu / (nu + mpmath.mpf(t) ** 2), regularized=True) / 2

            t_floor = math.exp(_last_above(lambda s: tail(math.exp(s)), -5.0, 700.0, P_FLOOR))
            for t in (1e-3, 0.3, 1.0, 2.0, 4.0, math.sqrt(t_floor), t_floor / 4, t_floor / 2, t_floor):
                lower = tail(t)
                assert t_cdf(nu, -t) == pytest.approx(float(lower), rel=1e-12, abs=0), (nu, -t)
                assert t_cdf(nu, t) == pytest.approx(float(1 - lower), rel=1e-12, abs=0), (nu, t)
        for x in np.linspace(-37.0, 37.0, 297):
            assert norm_cdf(float(x)) == pytest.approx(float(mpmath.ncdf(float(x))), rel=1e-12, abs=0), x
    _passed(
        2,
        "chi-squared survival gives p = 0.05 at (12.592, df 6) and (15.507, df 8); chi2_sf, chi2_isf, "
        "t_cdf and norm_cdf agree with 40-digit mpmath to 1e-12 down to P_FLOOR tails",
    )


def test_criterion_03_hill_exactness_and_recovery():
    t0 = time.time()
    x = np.full(1000, math.e * 7.0)
    fit = fit_hill(x, 7.0)
    assert fit.pdf_exponent == pytest.approx(2.0, abs=1e-12)

    rng = np.random.default_rng(20190709)
    sample = rng.uniform(size=100_000) ** (-1.0 / 1.5)  # survival exponent 1.5, x_min 1
    recovered = fit_hill(sample, 1.0)
    assert 1.48 <= recovered.alpha <= 1.52
    _passed(3, f"Hill MLE exactly 2 at ratio e; Pareto(1.5) gives {recovered.alpha:.4f} ({time.time()-t0:.1f}s)")


def test_criterion_04_ols_tail_fit():
    t0 = time.time()
    centers = np.geomspace(5.0, 5e3, 35)
    densities = 2.0 * centers**-2.5
    line = power_law_ols(np.log(centers), np.log(densities))
    assert -line.slope - 1.0 == pytest.approx(1.5, abs=1e-9)

    rng = np.random.default_rng(20190710)
    sample = rng.uniform(size=100_000) ** (-1.0 / 1.5)
    x_min = tail_cutoff(sample)
    fit = fit_ols(sample[sample >= x_min], x_min)
    assert 1.4 <= fit.alpha <= 1.6
    _passed(4, f"noiseless OLS alpha exactly 1.5; Pareto(1.5) sample gives {fit.alpha:.4f} ({time.time()-t0:.1f}s)")


def test_criterion_05_fisher():
    marginal = fisher_combine([0.05, 0.05, 0.05], alpha=0.05)
    assert marginal.chi2 == pytest.approx(17.97, abs=0.01)
    assert marginal.chi2 > 12.592 and marginal.reject
    clean = fisher_combine([1.0, 1.0, 1.0], alpha=0.05)
    assert clean.chi2 == pytest.approx(0.0, abs=1e-12)
    assert not clean.reject
    _passed(5, "fisher combination: {0.05 x3} -> 17.97 rejected; {1 x3} -> 0 not rejected")


def _families(tape):
    """Pass/fail of the three detector families at alpha 0.05, n_eff 10000."""
    g = tape.group
    spec = tape.config.spec
    benford_ok = not chi_squared_benford(
        digit_histogram(g.amounts), effective_n=10_000, alpha=0.05
    ).reject
    cluster = run_cluster_test(g.amounts, spec, 100, alpha=0.05)
    cluster_ok = not cluster.insufficient and not cluster.reject
    try:
        tail_ok = fit_tail(g.amounts / spec.subunits_per_base_unit).in_pareto_levy
    except Exception:
        tail_ok = False
    return benford_ok, cluster_ok, tail_ok


def test_criterion_06_detector_closure():
    t0 = time.time()
    clean_pass = 0
    wash_fail = 0
    n_seeds = 20
    for seed in range(n_seeds):
        clean = gen_exchange(GeneratorConfig(seed=seed, n_trades=1_000_000, wash_fraction=0.0))
        if all(_families(clean)):
            clean_pass += 1
        washy = gen_exchange(
            GeneratorConfig(seed=10_000 + seed, n_trades=1_000_000, wash_fraction=0.8)
        )
        if sum(not ok for ok in _families(washy)) >= 2:
            wash_fail += 1
    assert clean_pass >= 19, f"only {clean_pass}/20 clean tapes passed all families"
    assert wash_fail >= 19, f"only {wash_fail}/20 wash tapes failed >= 2 families"
    _passed(6, f"clean tapes pass 3/3 families {clean_pass}/20, w=0.8 tapes fail >=2 {wash_fail}/20 ({time.time()-t0:.0f}s)")


def _panel(exchange_id, seed, n, wash=0.0):
    cfg = GeneratorConfig(
        seed=seed,
        exchange_id=exchange_id,
        n_trades=n,
        wash_fraction=wash,
        profile="stable-panel",
    )
    return weekly_split(gen_exchange(cfg).dataset, REG)


def test_criterion_07_wash_recovery():
    t0 = time.time()
    ladder = (0.0, 0.25, 0.5, 0.75, 0.9)
    good_seeds = 0
    n_seeds = 20
    for seed in range(n_seeds):
        bench = []
        for i, scale in enumerate((400_000, 250_000, 150_000)):
            bench.extend(_panel(f"R{i+1}", 2000 * seed + i, scale))
        model = fit_benchmark(bench)
        estimates = []
        for j, w in enumerate(ladder):
            rows = _panel("U1", 9000 * seed + 100 + j, 250_000, w)
            estimates.append(estimate_wash(rows, model).wash_percent)
        monotone = all(b > a for a, b in zip(estimates, estimates[1:]))
        within = all(
            abs(est / 100.0 - w) <= 0.10 for w, est in zip(ladder, estimates) if w >= 0.25
        )
        if monotone and within:
            good_seeds += 1
    assert good_seeds >= 18, f"only {good_seeds}/20 seeds recovered the wash ladder"
    _passed(7, f"injected wash recovered monotone and within 0.10: {good_seeds}/20 seeds ({time.time()-t0:.0f}s)")


def test_criterion_08_regulated_cross_validation():
    t0 = time.time()
    good_seeds = 0
    n_seeds = 20
    for seed in range(n_seeds):
        panels = {
            f"R{i+1}": _panel(f"R{i+1}", 1000 * seed + i, scale)
            for i, scale in enumerate((400_000, 250_000, 150_000))
        }
        estimates = cross_validate_regulated(panels)[0].values()
        if np.mean([e.wash_percent for e in estimates]) < 5.0:
            good_seeds += 1
    assert good_seeds >= 18, f"only {good_seeds}/20 seeds read below 5%"
    _passed(8, f"leave-one-out regulated estimates < 5% in {good_seeds}/20 seeds ({time.time()-t0:.0f}s)")


def test_criterion_09_bootstrap_determinism():
    t0 = time.time()
    bench = []
    for i, scale in enumerate((300_000, 200_000, 150_000)):
        bench.extend(_panel(f"R{i+1}", 77 + i, scale))
    target = _panel("U1", 99, 200_000, wash=0.5)
    sd1 = bootstrap_wash_sd(target, bench, n_boot=1000, seed=42)
    sd2 = bootstrap_wash_sd(target, bench, n_boot=1000, seed=42)
    assert sd1 == sd2  # bit-exact reproduction
    assert sd1 > 0.0
    _passed(9, f"1000-replicate bootstrap SD reproduces bit-exactly: {sd1!r} ({time.time()-t0:.0f}s)")


def test_criterion_10_rank_arithmetic():
    assert counterfactual_rank(1e9, 0.0).improvement == 0
    assert counterfactual_rank(1e9, 70.0).improvement == 23
    rho = spearman_rank_correlation([1.0, 2.0, 3.0, 4.0], [3.0, 5.0, 7.0, 9.0])
    assert rho == pytest.approx(1.0)
    rho_inv = spearman_rank_correlation([1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0])
    assert rho_inv == pytest.approx(-1.0)
    _passed(10, "rank improvement 0 at 0% and 23 at 70% wash; inverse-list spearman is -1")


def _string_reference_is_round(text: str, exponent: int) -> bool:
    """Pure string-level roundness check: multiple of 10**(exponent + 2) units."""
    if "." in text:
        int_part, frac_part = text.split(".", 1)
    else:
        int_part, frac_part = text, ""
    place = exponent + 2  # round trades are multiples of 10**place native units
    if place <= 0:
        # fractional digits below the place must vanish
        return all(c == "0" for c in frac_part[-place:])
    if any(c != "0" for c in frac_part):
        return False
    digits = int_part.lstrip("0")
    return all(c == "0" for c in digits[-place:]) if digits else True


def test_criterion_11_roundness_exactness():
    t0 = time.time()
    rng = np.random.default_rng(1234)
    specs = [
        BUILTIN_PAIR_SPECS["BTC/USD"],
        BUILTIN_PAIR_SPECS["XRP/USD"],
        PairSpec("HI/USD", 2),
        PairSpec("LO/USD", -8),
    ]
    n = 1_000_000
    int_digits = rng.integers(1, 10**9, size=n)
    frac_len = rng.integers(0, 9, size=n)
    frac_digits = rng.integers(0, 10**8, size=n)
    zero_pad = rng.integers(0, 9, size=n)
    spec_idx = rng.integers(0, len(specs), size=n)

    texts = []
    lines = ["exchange,pair,timestamp_ms,price,amount"]
    for i in range(n):
        k = int(frac_len[i])
        frac = str(int(frac_digits[i]) % (10**k)).rjust(k, "0") if k else ""
        # adversarial trailing zeros without exceeding 8 decimals
        pad = min(int(zero_pad[i]), 8 - len(frac))
        text = str(int(int_digits[i])) + (("." + frac + "0" * pad) if frac or pad else "")
        texts.append(text)
        lines.append(f"X,{specs[int(spec_idx[i])].pair},{i},1,{text}")

    # one tape, timestamp = index, read and classified by the battery's own code
    registry = PairRegistry({spec.pair: spec for spec in specs})
    dataset, _ = parse_trades("\n".join(lines).encode() + b"\n")
    checked = 0
    for (_, pair), group in dataset.groups.items():
        spec = registry.get(pair)
        rounds = is_round_mask(group.amounts, spec).tolist()
        for i, rounded in zip(group.timestamps.tolist(), rounds):
            assert rounded == _string_reference_is_round(texts[i], spec.base_unit_exponent), (texts[i], pair)
        checked += group.n
    assert checked > 990_000
    _passed(11, f"{checked} adversarial strings classified identically to the string reference ({time.time()-t0:.0f}s)")
