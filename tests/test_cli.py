"""Command-line interface: subcommands, exit codes, output files."""

import ast
import csv
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from unittest import mock

import jsonschema
import pytest
from test_synth import first_difference

import washdetect
from washdetect import ingest
from washdetect.cli import EXIT_FATAL, EXIT_FLAGGED, EXIT_OK, build_parser, main
from washdetect.ingest import parse_trades, unrounded_subset, weekly_split
from washdetect.trades import PairRegistry, load_exchange_meta
from washdetect.washest import cross_validate_regulated


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic regulated trio plus one wash-heavy exchange, via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    meta = {
        "R1": {"regulatory_class": "regulated"},
        "R2": {"regulatory_class": "regulated"},
        "R3": {"regulatory_class": "regulated"},
        "U1": {"regulatory_class": "tier2"},
    }
    (root / "meta.json").write_text(json.dumps(meta))
    tapes = []
    for ex, seed, n, wash in [
        ("R1", 1, 150_000, 0.0),
        ("R2", 2, 100_000, 0.0),
        ("R3", 3, 80_000, 0.0),
        ("U1", 4, 100_000, 0.8),
    ]:
        path = root / f"{ex.lower()}.csv"
        code = main(
            [
                "synth",
                "--seed",
                str(seed),
                "--n",
                str(n),
                "--wash",
                str(wash),
                "--exchange-id",
                ex,
                "--profile",
                "stable-panel",
                "--out-file",
                str(path),
            ]
        )
        assert code == EXIT_OK
        tapes.append(str(path))
    return root, tapes


def synth_market(root, specs, meta):
    """One stable-panel tape per (exchange, pair, seed, n, wash), plus meta.json."""
    (root / "meta.json").write_text(json.dumps(meta))
    tapes = []
    for ex, pair, seed, n, wash in specs:
        path = root / f"{ex}_{pair.replace('/', '-')}.csv"
        argv = ["synth", "--seed", str(seed), "--n", str(n), "--wash", str(wash), "--exchange-id", ex]
        argv += ["--pair", pair, "--profile", "stable-panel", "--out-file", str(path)]
        assert main(argv) == EXIT_OK
        tapes.append(str(path))
    return tapes


class TestSynth:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["synth", "--wash", "0.7", "--seed", "7", "--n", "20000"]
        assert main(argv + ["--out-file", str(a)]) == EXIT_OK
        assert main(argv + ["--out-file", str(b)]) == EXIT_OK
        assert first_difference(a.read_bytes(), b.read_bytes()) is None

    def test_full_wash_warns_but_writes(self, tmp_path, capsys):
        path = tmp_path / "w.csv"
        code = main(["synth", "--wash", "1.0", "--seed", "1", "--n", "5000", "--out-file", str(path)])
        assert code == EXIT_OK
        assert path.exists()
        assert "no_authentic_flow" in capsys.readouterr().err

    def test_labels_flag(self, tmp_path):
        path = tmp_path / "l.csv"
        main(["synth", "--wash", "0.5", "--seed", "2", "--n", "2000", "--labels", "--out-file", str(path)])
        assert path.read_text().splitlines()[0].endswith(",label")


class TestIndividualTests:
    def test_benford_passes_regulated(self, workspace, capsys):
        root, tapes = workspace
        assert main(["benford", tapes[0]]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_benford_fails_wash(self, workspace, capsys):
        root, tapes = workspace
        main(["benford", tapes[3]])
        assert "FAIL" in capsys.readouterr().out

    def test_cluster(self, workspace, capsys):
        root, tapes = workspace
        assert main(["cluster", tapes[0], "--step", "500"]) == EXIT_OK
        assert "clustering present" in capsys.readouterr().out

    def test_tail(self, workspace, capsys):
        root, tapes = workspace
        assert main(["tail", tapes[0]]) == EXIT_OK
        assert "Pareto-Levy" in capsys.readouterr().out

    def test_roundness(self, workspace, capsys):
        root, tapes = workspace
        code = main(["roundness", *tapes, "--meta", str(root / "meta.json")])
        assert code == EXIT_OK
        assert "DIFFERS" in capsys.readouterr().out

    def test_fisher(self, workspace, capsys):
        root, tapes = workspace
        assert main(["fisher", tapes[3]]) == EXIT_OK
        assert "REJECT" in capsys.readouterr().out

    def test_benford_unrounded_validation_mode(self, workspace, capsys):
        root, tapes = workspace
        assert main(["benford", tapes[0], "--unrounded-only"]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_ingest_check_reports_rejects(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "exchange,pair,timestamp_ms,price,amount\n"
            "X,BTC/USD,1,1.0,0.5\n"
            "X,BTC/USD,2,1.0,0.123456789\n"
        )
        code = main(["ingest-check", str(bad), "--out", str(tmp_path / "rep")])
        assert code == EXIT_FLAGGED
        assert "1 rejected" in capsys.readouterr().out
        report = (tmp_path / "rep" / "rejected_bad.csv").read_text()
        assert "precision overflow" in report


def tiny_tape(root):
    """30 rows of one group: too few for the battery, so a report on it exits 2."""
    path = root / "tiny.csv"
    rows = ["exchange,pair,timestamp_ms,price,amount"]
    rows += [f"X,BTC/USD,{i},1.0,0.0{213 + i}" for i in range(30)]
    path.write_text("\n".join(rows) + "\n")
    return path


class TestReport:
    def test_full_report(self, workspace, tmp_path):
        root, tapes = workspace
        out = tmp_path / "out"
        code = main(["report", *tapes, "--meta", str(root / "meta.json"), "--out", str(out)])
        assert code == EXIT_OK
        rep = json.loads((out / "report.json").read_text())
        u1 = next(e for e in rep["exchanges"] if e["exchange_id"] == "U1")
        assert all(p["fisher"]["reject"] for p in u1["pairs"])
        assert u1["wash_aggregate"]["wash_percent"] == pytest.approx(80, abs=10)
        assert (out / "report_tests.csv").exists()
        assert (out / "wash_estimates.csv").exists()

    def test_report_deterministic(self, workspace, tmp_path):
        root, tapes = workspace
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        argv = ["report", *tapes, "--meta", str(root / "meta.json")]
        main(argv + ["--out", str(out1)])
        main(argv + ["--out", str(out2)])
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_no_wash_without_regulated(self, workspace, tmp_path):
        root, tapes = workspace
        code = main(["report", tapes[3], "--no-wash", "--out", str(tmp_path / "o")])
        assert code == EXIT_OK

    def test_wash_without_regulated_is_fatal(self, workspace, capsys):
        root, tapes = workspace
        code = main(["report", tapes[3]])
        assert code == EXIT_FATAL
        assert "--no-wash" in capsys.readouterr().err

    def test_empty_input_is_fatal(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("exchange,pair,timestamp_ms,price,amount\n")
        code = main(["report", str(empty), "--no-wash"])
        assert code == EXIT_FATAL
        assert "no trades ingested" in capsys.readouterr().err

    def test_small_group_flagged_exit_2(self, tmp_path):
        code = main(["report", str(tiny_tape(tmp_path)), "--no-wash"])
        assert code == EXIT_FLAGGED

    def test_dedupe_counts_a_repeated_input_once(self, tmp_path):
        path = tmp_path / "a.csv"
        assert main(["synth", "--seed", "5", "--n", "20000", "--out-file", str(path)]) == EXIT_OK
        reports = []
        for inputs in ([path], [path, path]):
            out = tmp_path / f"out{len(inputs)}"
            assert main(["report", *map(str, inputs), "--dedupe", "--no-wash", "--out", str(out)]) == EXIT_OK
            reports.append((out / "report.json").read_text())
        assert json.loads(reports[1])["exchanges"][0]["pairs"][0]["n_trades"] == 20_000
        assert reports[1] == reports[0]

    def test_a_reject_in_the_second_input_is_one_warning(self, tmp_path, capsys):
        tiny, bad = tiny_tape(tmp_path), tmp_path / "bad.csv"
        bad.write_text("exchange,pair,timestamp_ms,price,amount\nX,BTC/USD,31,1.0,0.123456789\n")
        code = main(["report", str(tiny), "--no-wash"])
        clean = capsys.readouterr()
        assert main(["report", str(tiny), str(bad), "--no-wash"]) == code
        dirty = capsys.readouterr()
        assert dirty.out == clean.out
        assert dirty.err == "warning: 1 row(s) rejected and skipped; ingest-check lists them\n" + clean.err


def test_csv_tables_hold_the_report_json_values(workspace, tmp_path):
    """Every cell of report_tests.csv and wash_estimates.csv is the value
    report.json holds, a null as an empty cell. The market has a clustering
    test skipped for too few windows (Y, Z), Fisher rows, a flagged wash
    aggregate (Y, whose only week has no round trade), and an all-round tape
    (Z: 15 sizes of 0.01-0.15 BTC, 60 trades each) whose every window has the
    same frequency difference, so its clustering t is infinite."""
    root, tapes = workspace
    header = "exchange,pair,timestamp_ms,price,amount\n"
    z_rows = (f"Z,BTC/USD,{1000 * i},9000.00,{(i % 15 + 1) / 100:.2f}\n" for i in range(900))
    (tmp_path / "z.csv").write_text(header + "".join(z_rows))
    (tmp_path / "y.csv").write_text(header + "".join(f"Y,BTC/USD,{i},1.0,0.0{213 + i}\n" for i in range(30)))
    meta = json.loads((root / "meta.json").read_text())
    (tmp_path / "meta.json").write_text(json.dumps({**meta, "Y": meta["U1"], "Z": meta["U1"]}))
    out = tmp_path / "out"
    argv = ["report", *tapes, str(tmp_path / "y.csv"), str(tmp_path / "z.csv"), "--meta", str(tmp_path / "meta.json")]
    assert main(argv + ["--out", str(out)]) == EXIT_FLAGGED
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, json.loads(Path(washdetect.__file__).with_name("report_schema.json").read_text()))
    assert report["wash_failure_fit"] is not None and report["benchmark_models"]

    def cells(*values):
        return ["" if v is None else str(v) for v in values]

    # test -> (its object in a pair of report.json, statistic key, p key)
    columns = {
        "benford": ("benford", "statistic", "p"),
        "cluster_100": ("clustering_100", "statistic", "p"),
        "cluster_500": ("clustering_500", "statistic", "p"),
        "pareto_levy": ("tail", "alpha_hill", "p_outside_range"),
        "roundness": ("roundness", "statistic", "p"),
        "fisher": ("fisher", "chi2", None),
    }
    pairs = {(ex["exchange_id"], p["pair"]): p for ex in report["exchanges"] for p in ex["pairs"]}
    ran = {(*key, test) for key, p in pairs.items() for test, (obj, _, _) in columns.items()
           if p[obj] is not None and "skipped" not in p[obj]}
    with open(out / "report_tests.csv", newline="") as fh:
        header_row, *rows = list(csv.reader(fh))
    assert header_row == ["exchange", "pair", "test", "statistic", "p_value", "passed"]
    assert {tuple(r[:3]) for r in rows} == ran and len(rows) == len(ran)
    for ex, pair, test, *values in rows:
        obj, stat, prob = columns[test]
        o = pairs[ex, pair][obj]
        passed = o["pass"] if test != "fisher" else not o["reject"]
        assert values == cells(o[stat], o.get(prob), passed), (ex, pair, test)
    assert ["Z", "BTC/USD", "cluster_100", ""] in [r[:4] for r in rows]
    assert pairs["Z", "BTC/USD"]["clustering_100"]["statistic"] is None
    assert "skipped" in pairs["Z", "BTC/USD"]["clustering_500"]
    assert any(r[2] == "fisher" and r[4] == "" for r in rows)

    with open(out / "wash_estimates.csv", newline="") as fh:
        header_row, *rows = list(csv.reader(fh))
    assert header_row == ["exchange", "pair", "wash_volume", "wash_percent", "bootstrap_sd", "controls_used", "flags"]
    expected = []
    for ex in report["exchanges"]:
        for e in ex["wash_by_pair"] + ([ex["wash_aggregate"]] if ex["wash_aggregate"] else []):
            values = (e[k] for k in ("scope", "wash_volume", "wash_percent", "bootstrap_sd", "controls_used"))
            expected.append([ex["exchange_id"], *cells(*values), ";".join(e["flags"])])
    assert rows == expected
    assert any(r[:2] == ["Y", "aggregate"] and r[6] == "zero_round_weeks" for r in rows)


class TestBenchmarkModelFlow:
    def test_fit_then_estimate_with_model_file(self, workspace, tmp_path, capsys):
        root, tapes = workspace
        model_path = tmp_path / "model.json"
        code = main(
            ["fit-benchmark", *tapes[:3], "--meta", str(root / "meta.json"), "--out-model", str(model_path)]
        )
        assert code == EXIT_OK
        assert "BTC/USD" in json.loads(model_path.read_text())
        capsys.readouterr()
        code = main(
            ["estimate-wash", tapes[3], "--model", str(model_path), "--out", str(tmp_path / "w")]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "U1 BTC/USD: wash" in out
        rows = (tmp_path / "w" / "wash_estimates.csv").read_text().splitlines()
        assert rows[0].startswith("exchange,pair,wash_volume,wash_percent,bootstrap_sd")


class TestViewsOfReport:
    def test_fit_benchmark_writes_the_report_models(self, workspace, tmp_path):
        root, tapes = workspace
        meta, model = str(root / "meta.json"), tmp_path / "model.json"
        assert main(["fit-benchmark", *tapes, "--meta", meta, "--out-model", str(model)]) == EXIT_OK
        assert main(["report", *tapes, "--meta", meta, "--out", str(tmp_path / "r")]) == EXIT_OK
        report = json.loads((tmp_path / "r" / "report.json").read_text())
        assert json.loads(model.read_text()) == report["benchmark_models"]
        layout = json.dumps(report["benchmark_models"], indent=2, sort_keys=True) + "\n"
        assert model.read_bytes() == layout.encode()

    def test_estimate_wash_writes_the_report_estimates(self, workspace, tmp_path):
        root, tapes = workspace
        argv = [*tapes, "--meta", str(root / "meta.json"), "--bootstrap", "100", "--seed", "3"]
        assert main(["estimate-wash", *argv, "--out", str(tmp_path / "e")]) == EXIT_OK
        assert main(["report", *argv, "--out", str(tmp_path / "r")]) == EXIT_OK
        estimates = (tmp_path / "e" / "wash_estimates.csv").read_text()
        assert estimates == (tmp_path / "r" / "wash_estimates.csv").read_text()
        assert "U1,aggregate," in estimates

    def test_bootstrap_without_benchmark_rows_is_flagged(self, workspace, tmp_path, capsys):
        root, tapes = workspace
        model = str(tmp_path / "model.json")
        main(["fit-benchmark", *tapes[:3], "--meta", str(root / "meta.json"), "--out-model", model])
        argv = [tapes[3], "--model", model, "--bootstrap", "200"]
        assert main(["report", *argv, "--out", str(tmp_path / "r")]) == EXIT_FLAGGED
        report = json.loads((tmp_path / "r" / "report.json").read_text())
        (est,) = report["exchanges"][0]["wash_by_pair"]
        assert est["bootstrap_sd"] is None
        assert est["flags"] == ["bootstrap skipped: no benchmark rows"]
        capsys.readouterr()
        assert main(["estimate-wash", *argv]) == EXIT_FLAGGED
        assert "[bootstrap skipped: no benchmark rows]" in capsys.readouterr().out

    def test_failed_bootstrap_is_a_flag_on_the_estimate(self, workspace, tmp_path):
        # R9 has 5 exchange-weeks, too few to refit the benchmark on any resample
        root, tapes = workspace
        model, r9, meta = tmp_path / "model.json", tmp_path / "r9.csv", tmp_path / "m2.json"
        main(["fit-benchmark", *tapes[:3], "--meta", str(root / "meta.json"), "--out-model", str(model)])
        argv = ["synth", "--seed", "9", "--n", "20000", "--weeks", "5", "--exchange-id", "R9"]
        assert main(argv + ["--profile", "stable-panel", "--out-file", str(r9)]) == EXIT_OK
        meta.write_text(json.dumps({"R9": {"regulatory_class": "regulated"}, "U1": {"regulatory_class": "tier2"}}))
        argv = ["report", str(r9), tapes[3], "--meta", str(meta), "--model", str(model), "--bootstrap", "100"]
        assert main(argv + ["--out", str(tmp_path / "r")]) == EXIT_FLAGGED
        report = json.loads((tmp_path / "r" / "report.json").read_text())
        u1 = next(ex for ex in report["exchanges"] if ex["exchange_id"] == "U1")
        (est,) = u1["wash_by_pair"]
        assert est["bootstrap_sd"] is None
        assert est["flags"] == ["bootstrap failed: too many singular replicates"]


@pytest.fixture(scope="module")
def two_pair_market(tmp_path_factory):
    root = tmp_path_factory.mktemp("pairs")
    meta = {f"R{i}": {"regulatory_class": "regulated"} for i in (1, 2, 3)}
    meta["U1"] = {"regulatory_class": "tier2"}
    specs = [
        (ex, pair, 10 * i + j + 1, 20_000, 0.8 if ex == "U1" else 0.0)
        for i, ex in enumerate(meta)
        for j, pair in enumerate(["BTC/USD", "ETH/USD"])
    ]
    return root, synth_market(root, specs, meta)


class TestPooled:
    def run(self, market, out, *extra):
        root, tapes = market
        argv = ["report", *tapes, "--meta", str(root / "meta.json"), "--bootstrap", "100", "--out", str(out)]
        assert main(argv + list(extra)) == EXIT_OK
        return json.loads((out / "report.json").read_text())

    def test_pooled_reports_one_model_with_pair_terms(self, two_pair_market, tmp_path):
        report = self.run(two_pair_market, tmp_path, "--pooled")
        (scope, model), = report["benchmark_models"].items()
        assert scope == "pooled" and model["scope"] == "pooled"
        assert model["feature_names"] == ["const", "ln_round", "pair=ETH/USD"]
        u1 = next(ex for ex in report["exchanges"] if ex["exchange_id"] == "U1")
        assert [e["scope"] for e in u1["wash_by_pair"]] == ["BTC/USD", "ETH/USD"]
        assert all(e["bootstrap_sd"] > 0 for e in u1["wash_by_pair"])

    def test_default_fits_one_model_per_pair(self, two_pair_market, tmp_path):
        models = self.run(two_pair_market, tmp_path)["benchmark_models"]
        assert sorted(models) == ["BTC/USD", "ETH/USD"]
        assert all(m["scope"] == "per-pair" for m in models.values())

    @pytest.mark.parametrize("pooled", [[], ["--pooled"]], ids=["per-pair", "pooled"])
    def test_a_pair_without_a_benchmark_is_flagged(self, two_pair_market, tmp_path, pooled):
        # no regulated exchange trades XRP/USD, so no model may score it
        root, tapes = two_pair_market
        meta = json.loads((root / "meta.json").read_text())
        tapes = tapes + synth_market(tmp_path, [("U1", "XRP/USD", 31, 20_000, 0.8)], meta)
        argv = ["report", *tapes, "--meta", str(root / "meta.json"), "--out", str(tmp_path / "out")]
        assert main(argv + pooled) == EXIT_FLAGGED
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        u1 = next(ex for ex in report["exchanges"] if ex["exchange_id"] == "U1")
        assert u1["flags"] == ["wash estimate failed for XRP/USD: no benchmark model covers this pair"]
        assert [e["scope"] for e in u1["wash_by_pair"]] == ["BTC/USD", "ETH/USD"]
        assert u1["wash_aggregate"]["n_weeks"] == 24


_CONTROLS = {"age_years": 3, "rank": 5, "traffic_pct": 2, "unique_visitors": 40}
_CONTROLS_MODEL = {
    "feature_names": ["const", "ln_round", "age_years", "rank", "traffic_pct", "unique_visitors"],
    "coefficients": [0.5, 1.0, 0.0, 0.0, 0.0, 0.0],
    "resid_se": 0.1,
    "scope": "per-pair",
    "n_obs": 36,
    "n_dropped": 0,
    "controls_used": True,
}
# Each case runs `report` on the two-pair market with its changes:
# per-pair: U1 also trades XRP/USD, which no regulated exchange trades, R4 is a
#   regulated exchange without trades, and --controls meets no covariates;
# pooled: R3 is regulated but its tapes are left out, so two of the three
#   regulated exchanges have rows and the cross-validation cannot run;
# controls-model: a BTC/USD model file with the four controls, covariates for
#   R1-R3 only, so U1's estimate and the controls cross-validation both fail,
#   and U1's ETH/USD has no model.
# Estimates are (scope, n_weeks, wash_percent, bootstrap_sd, flags), U1's
# aggregate last.
_WASH_BRANCHES = {
    "per-pair": dict(
        argv=["--controls", "--bootstrap", "100"],
        warnings=[
            "controls disabled: missing covariates for R1, R2, R3, R4",
            "benchmark for XRP/USD not fitted: insufficient benchmark data: 0 usable exchange-weeks, need 8",
        ],
        models={"BTC/USD": "per-pair", "ETH/USD": "per-pair"},
        u1_flags=["wash estimate failed for XRP/USD: no benchmark model covers this pair"],
        estimates=[
            ("BTC/USD", 12, 80.08976738915504, 1.8444031275528026, []),
            ("ETH/USD", 12, 76.40536761441231, 2.1825260922632475, []),
            ("aggregate", 24, 76.74127672054642, None, []),
        ],
        cross_validation={"R1": 3.519105650948835, "R2": 0.5798719123855571, "R3": 16.01394406143419},
    ),
    "pooled": dict(
        argv=["--pooled", "--bootstrap", "100"],
        warnings=["regulated cross-validation failed: cross-validation needs at least 3 regulated exchanges, got 2"],
        models={"pooled": "pooled"},
        u1_flags=[],
        estimates=[
            ("BTC/USD", 12, 77.12191808317883, 1.8654489593588115, []),
            ("ETH/USD", 12, 77.3295326622237, 2.0057834310752733, []),
            ("aggregate", 24, 77.31060430701496, 1.9796598621362396, []),
        ],
        cross_validation=None,
    ),
    "controls-model": dict(
        argv=["--controls"],
        warnings=[
            "regulated cross-validation failed: singular design matrix: "
            "collinear columns age_years, rank, traffic_pct, unique_visitors"
        ],
        models={"BTC/USD": "per-pair"},
        u1_flags=[
            "wash estimate failed for BTC/USD: exchange U1 missing control age_years",
            "wash estimate failed for ETH/USD: no benchmark model covers this pair",
        ],
        estimates=[],
        cross_validation=None,
    ),
}


@pytest.mark.parametrize("case", sorted(_WASH_BRANCHES))
def test_wash_section_branches(two_pair_market, tmp_path, case):
    root, tapes = two_pair_market
    meta = json.loads((root / "meta.json").read_text())
    options = ["--meta", str(tmp_path / "meta.json"), "--out", str(tmp_path / "out")]
    if case == "per-pair":
        meta["R4"] = {"regulatory_class": "regulated"}
        tapes = tapes + synth_market(tmp_path, [("U1", "XRP/USD", 31, 20_000, 0.8)], meta)
    elif case == "pooled":
        tapes = [t for t in tapes if not Path(t).name.startswith("R3_")]
    else:
        for ex in ("R1", "R2", "R3"):
            meta[ex].update(_CONTROLS)
        (tmp_path / "model.json").write_text(json.dumps({"BTC/USD": _CONTROLS_MODEL}))
        options += ["--model", str(tmp_path / "model.json")]
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    want = _WASH_BRANCHES[case]
    main(["report", *tapes, *options, *want["argv"]])
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    u1 = next(ex for ex in report["exchanges"] if ex["exchange_id"] == "U1")
    assert report["warnings"] == want["warnings"]
    assert {scope: m["scope"] for scope, m in report["benchmark_models"].items()} == want["models"]
    assert u1["flags"] == want["u1_flags"]
    estimates = u1["wash_by_pair"] + [u1["wash_aggregate"]] * (u1["wash_aggregate"] is not None)
    assert len(estimates) == len(want["estimates"])
    for e, (scope, n_weeks, percent, sd, flags) in zip(estimates, want["estimates"]):
        assert (e["scope"], e["n_weeks"], e["flags"]) == (scope, n_weeks, flags)
        assert e["wash_percent"] == pytest.approx(percent, rel=1e-12)
        assert e["bootstrap_sd"] == (sd and pytest.approx(sd, rel=1e-12))
    cv = want["cross_validation"]
    assert report["regulated_cross_validation"] == (cv and pytest.approx(cv, rel=1e-12))


def test_report_cross_validates_the_controls_model(tmp_path):
    meta = {
        f"R{i}": {"regulatory_class": "regulated", "age_years": i, "rank": 3 * i % 7 + 1,
                  "traffic_pct": i * i % 5 + 1, "unique_visitors": 10 + i**3 % 11}
        for i in range(1, 7)
    }
    # six regulated exchanges: a leave-one-out fit on five identifies the four controls
    specs = [(ex, "BTC/USD", 20 + i, 20_000, 0.0) for i, ex in enumerate(meta)]
    tapes = synth_market(tmp_path, specs, meta)
    out = tmp_path / "out"
    code = main(["report", *tapes, "--meta", str(tmp_path / "meta.json"), "--controls", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["benchmark_models"]["BTC/USD"]["controls_used"]
    rows = {ex: weekly_split(parse_trades(t)[0], PairRegistry()) for ex, t in zip(meta, tapes)}
    exchange_meta = load_exchange_meta(tmp_path / "meta.json")
    for controls in (True, False):
        cv, _ = cross_validate_regulated(rows, meta=exchange_meta, use_controls=controls)
        direct = {ex: est.wash_percent for ex, est in cv.items()}
        assert (report["regulated_cross_validation"] == direct) == controls


def test_cross_validation_leaves_out_a_pair_the_other_regulated_exchanges_lack(tmp_path):
    # R2 alone trades ETH/USD, so a fit on R1 and R3 would score it with
    # BTC/USD's intercept
    meta = {ex: {"regulatory_class": "regulated"} for ex in ("R1", "R2", "R3")}
    meta["U1"] = {"regulatory_class": "tier2"}
    specs = [("R1", "BTC/USD", 11, 10_000, 0.0), ("R2", "ETH/USD", 12, 10_000, 0.0),
             ("R3", "BTC/USD", 13, 10_000, 0.0), ("U1", "BTC/USD", 14, 10_000, 0.8)]
    tapes = synth_market(tmp_path, specs, meta)
    out = tmp_path / "out"
    assert main(["report", *tapes, "--meta", str(tmp_path / "meta.json"), "--out", str(out)]) == EXIT_FLAGGED
    report = json.loads((out / "report.json").read_text())
    assert report["warnings"] == [
        "regulated cross-validation left out R2: no other regulated exchange has a usable week in ETH/USD"
    ]
    assert sorted(report["regulated_cross_validation"]) == ["R1", "R3"]


def test_report_does_not_depend_on_the_hash_seed(tmp_path):
    """The wash section groups rows in a dict and holds the regulated
    exchanges in a set; two processes with different string hashes must
    write the same report."""
    meta = {"R1": {"regulatory_class": "regulated"}, "R2": {"regulatory_class": "regulated"},
            "R3": {"regulatory_class": "regulated"}, "U1": {"regulatory_class": "tier2"}}
    specs = [("R1", "BTC/USD", 1, 10_000, 0.0), ("R2", "ETH/USD", 2, 10_000, 0.0),
             ("R3", "BTC/USD", 3, 10_000, 0.0), ("U1", "BTC/USD", 4, 10_000, 0.8)]
    tapes = synth_market(tmp_path, specs, meta)
    src = Path(washdetect.__file__).resolve().parents[1]
    reports = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"out{hash_seed}"
        argv = ["report", *tapes, "--meta", str(tmp_path / "meta.json"), "--bootstrap", "100", "--out", str(out)]
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed}
        done = subprocess.run([sys.executable, "-m", "washdetect", *argv], env=env, capture_output=True, text=True)
        assert done.returncode in (EXIT_OK, EXIT_FLAGGED), done.stderr
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_report_is_a_function_of_the_rows(tmp_path):
    """Shuffling each file's rows, splitting a regulated tape across two
    files and listing the files in another order leave report.json
    byte-identical."""
    meta = {"R1": {"regulatory_class": "regulated"}, "R2": {"regulatory_class": "regulated"},
            "R3": {"regulatory_class": "regulated"}, "U1": {"regulatory_class": "tier2"}}
    specs = [("R1", "BTC/USD", 1, 4_000, 0.0), ("R2", "BTC/USD", 2, 3_000, 0.0),
             ("R3", "BTC/USD", 3, 3_000, 0.0), ("U1", "BTC/USD", 4, 4_000, 0.8)]
    tapes = synth_market(tmp_path, specs, meta)
    rng = random.Random(0)
    moved = []
    for path in tapes:
        header, *rows = Path(path).read_text().splitlines(keepends=True)
        rng.shuffle(rows)
        parts = [rows[: len(rows) // 2], rows[len(rows) // 2 :]] if Path(path).name.startswith("R1_") else [rows]
        for k, part in enumerate(parts):
            moved.append(tmp_path / f"moved{k}_{Path(path).name}")
            moved[-1].write_text(header + "".join(part))
    codes, reports = [], []
    for inputs in (tapes, moved[::-1]):
        out = tmp_path / f"out{len(reports)}"
        argv = ["report", *map(str, inputs), "--meta", str(tmp_path / "meta.json"), "--bootstrap", "200", "--out", str(out)]
        codes.append(main(argv))
        reports.append((out / "report.json").read_bytes())
    u1 = next(ex for ex in json.loads(reports[0])["exchanges"] if ex["exchange_id"] == "U1")
    assert u1["wash_by_pair"][0]["bootstrap_sd"] > 0
    assert codes[1] == codes[0] and reports[1] == reports[0]


class TestPlotData:
    def test_benford_csv_has_nine_rows(self, workspace, tmp_path):
        root, tapes = workspace
        out = tmp_path / "plots"
        assert main(["plot-data", tapes[0], "--which", "benford", "--out", str(out)]) == EXIT_OK
        lines = (out / "benford_R1_BTC-USD.csv").read_text().strip().splitlines()
        assert len(lines) == 10

    def test_sizes_csv_highlights_round_bins(self, workspace, tmp_path):
        root, tapes = workspace
        out = tmp_path / "plots"
        code = main(
            ["plot-data", tapes[0], "--which", "sizes", "--range", "1:1200", "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = (out / "sizes_R1_BTC-USD.csv").read_text().strip().splitlines()
        assert lines[0] == "size_base_units,count,is_round_bin"
        marked = [l for l in lines[1:] if l.endswith(",1")]
        assert [int(l.split(",")[0]) for l in marked] == [500, 1000]

    def test_tail_csv_fitted_columns_match_exponents(self, workspace, tmp_path):
        root, tapes = workspace
        out = tmp_path / "plots"
        assert main(["plot-data", tapes[0], "--which", "tail", "--out", str(out)]) == EXIT_OK
        lines = (out / "tail_R1_BTC-USD.csv").read_text().strip().splitlines()
        assert lines[0] == "log10_size,log10_density,fitted_ols,fitted_hill"
        import numpy as np

        data = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
        # fitted columns are straight lines in log10 with the reported slopes
        ols_slope = np.polyfit(data[:, 0], data[:, 2], 1)[0]
        hill_slope = np.polyfit(data[:, 0], data[:, 3], 1)[0]
        assert ols_slope == pytest.approx(hill_slope, abs=1.0)
        assert -2.0 > ols_slope > -4.0

    def test_tail_skips_a_group_too_small_to_fit(self, tmp_path, capsys):
        big, tiny, out = tmp_path / "big.csv", tmp_path / "tiny.csv", tmp_path / "pd"
        assert main(["synth", "--n", "20000", "--out-file", str(big)]) == EXIT_OK
        tiny.write_text("exchange,pair,timestamp_ms,price,amount\nT1,BTC/USD,1,1.0,0.0213\n")
        capsys.readouterr()
        assert main(["plot-data", str(big), str(tiny), "--which", "tail", "--out", str(out)]) == EXIT_FLAGGED
        assert sorted(p.name for p in out.iterdir()) == ["tail_X1_BTC-USD.csv"]
        assert capsys.readouterr().err.startswith("T1 BTC/USD: tail skipped: insufficient data")

    def test_unrounded_only_plots_the_unrounded_subset(self, workspace, tmp_path):
        root, tapes = workspace
        ds, _ = parse_trades([tapes[0]])
        out = tmp_path / "plots"
        argv = ["plot-data", tapes[0], "--which", "benford", "--unrounded-only", "--out", str(out)]
        assert main(argv) == EXIT_OK
        rows = (out / "benford_R1_BTC-USD.csv").read_text().strip().splitlines()[1:]
        assert sum(int(r.split(",")[1]) for r in rows) == unrounded_subset(ds, PairRegistry()).n_trades < ds.n_trades


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--alpha", "0.01", "--out-file", "{tmp}/s.csv"],
            ["synth", "--out", "{tmp}", "--out-file", "{tmp}/s.csv"],
            ["cluster", "{tmp}/t.csv", "--out", "{tmp}"],
            ["benford", "{tmp}/t.csv", "--out", "{tmp}/d"],
            ["tail", "{tmp}/t.csv", "--out", "{tmp}/d"],
            ["cluster", "{tmp}/t.csv", "--min-support", "5"],
            ["rank", "--volume", "1e9", "--wash-percent", "70", "--log-base", "10"],
            ["ingest-check", "{tmp}/t.csv", "--bootstrap", "500"],
            ["fit-benchmark", "{tmp}/t.csv", "--meta", "{tmp}/m.json", "--out-model", "{tmp}/m", "--bootstrap", "100"],
            ["tail", "{tmp}/t.csv", "--alpha", "0.01"],
            ["plot-data", "{tmp}/t.csv", "--which", "benford", "--seed", "1"],
            ["fit-benchmark", "{tmp}/t.csv", "--meta", "{tmp}/m.json", "--out-model", "{tmp}/m", "--alpha", "0.01"],
            ["estimate-wash", "{tmp}/t.csv", "--effective-n", "raw"],
        ],
        ids=[
            "synth-alpha",
            "synth-out",
            "cluster-out",
            "benford-out",
            "tail-out",
            "cluster-min-support",
            "rank-log-base",
            "ingest-bootstrap",
            "fit-bootstrap",
            "tail-alpha",
            "plot-seed",
            "fit-alpha",
            "estimate-effective-n",
        ],
    )
    def test_removed_flags_are_usage_errors(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([a.format(tmp=tmp_path) for a in argv])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            "report t.csv --meta m.json --bootstrap 100 --seed 1 --out o",
            "synth --seed 1 --n 5 --exchange-id X --pair BTC/USD --profile stable-panel --wash 0.5 --labels --out-file t.csv",
            "ingest-check --dedupe --out o t.csv",
        ],
        ids=["report", "synth", "ingest-check"],
    )
    def test_kept_flags_still_parse(self, argv):
        build_parser().parse_args(argv.split())

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "{tape}", "--model", "{tmp}/bad_model.json"],
            ["estimate-wash", "{tape}", "--model", "{tmp}/model_count.json"],
            ["estimate-wash", "{tape}", "--model", "{tmp}/model_nan.json"],
            ["estimate-wash", "{tape}", "--model", "{tmp}/model_feature.json"],
            ["estimate-wash", "{tape}", "--model", "{tmp}/model_levels.json"],
            ["estimate-wash", "{tape}", "--model", "{tmp}/model_controls.json"],
            ["benford", "{tape}", "--effective-n", "abc"],
            ["report", "{tape}", "--meta", "{tmp}/no_class.json"],
            ["benford", "{tape}", "--pairs", "{tmp}/not_json.json"],
            ["report", "{tape}", "--meta", "{tmp}/not_json.json"],
            ["report", "{tape}", "--meta", "{tmp}/missing.json"],
            ["synth", "--wash", "2", "--out-file", "{tmp}/s.csv"],
            ["synth", "--n", "0", "--out-file", "{tmp}/s.csv"],
            ["synth", "--pair", "DOGE/USD", "--out-file", "{tmp}/s.csv"],
            ["plot-data", "{tape}", "--which", "sizes", "--range", "abc", "--out", "{tmp}/o"],
            ["plot-data", "{tape}", "--which", "sizes", "--range", "1:2:3", "--out", "{tmp}/o"],
            ["plot-data", "{tape}", "--which", "sizes", "--range", "50:10", "--out", "{tmp}/o"],
            ["plot-data", "{tape}", "--which", "sizes", "--range", "1:100000000000", "--out", "{tmp}/o"],
            ["plot-data", "{tape}", "--which", "sizes", "--range=-5:10", "--out", "{tmp}/o"],
            ["plot-data", "{tape}", "--which", "sizes", "--step", "0", "--out", "{tmp}/o"],
            ["rank", "--volume", "inf", "--wash-percent", "70"],
            ["rank", "--volume", "1e9", "--wash-percent", "70", "--rank", "nan"],
            ["rank", "--volume", "1e9", "--wash-percent", "70", "--rank", "inf"],
            ["rank", "--volume", "1e9", "--wash-percent", "70", "--rank", "-5"],
            ["rank", "--volume", "1e9", "--wash-percent", "70", "--rank", "0"],
            ["rank", "--volume", "1e9", "--wash-percent", "70", "--rank", "2.5"],
            ["rank", "--volume", "1e9", "--wash-percent", "70", "--coeff-a", "inf"],
            ["synth", "--seed", "-1", "--out-file", "{tmp}/s.csv"],
            ["synth", "--exchange-id", "", "--out-file", "{tmp}/s.csv"],
            ["report", "{tape}", "--no-wash", "--bootstrap", "100", "--seed", "-1"],
            ["ingest-check", "{tmp}/missing.csv"],
        ],
        ids=[
            "model-key",
            "model-coefficient-count",
            "model-coefficient-nan",
            "model-feature-name",
            "model-pair-levels",
            "model-controls",
            "effective-n",
            "meta-key",
            "pairs-json",
            "meta-json",
            "meta-missing",
            "synth-wash",
            "synth-n",
            "synth-pair",
            "plot-range-text",
            "plot-range-parts",
            "plot-range-order",
            "plot-range-bins",
            "plot-range-negative",
            "plot-step",
            "rank-volume-inf",
            "rank-nan",
            "rank-inf",
            "rank-negative",
            "rank-zero",
            "rank-fraction",
            "rank-coeff-inf",
            "synth-seed",
            "synth-exchange-id",
            "report-seed",
            "input-missing",
        ],
    )
    def test_bad_side_files_and_values_are_errors(self, argv, tmp_path, capsys):
        tape = tmp_path / "u1.csv"
        tape.write_text("exchange,pair,timestamp_ms,price,amount\nU1,BTC/USD,1,1.0,0.0213\n")
        (tmp_path / "bad_model.json").write_text('{"BTC/USD": {}}')
        model = {"feature_names": ["const", "ln_round"], "coefficients": [0.5, 1.0], "resid_se": 0.1,
                 "scope": "per-pair", "n_obs": 9, "n_dropped": 0, "controls_used": False}
        for name, bad in {
            "count": {"coefficients": [1.0]},
            "nan": {"coefficients": [float("nan"), 1.0]},
            "feature": {"feature_names": ["const", "volume"]},
            "levels": {"pair_levels": "BTC/USD"},
            "controls": {"controls_used": True},
        }.items():
            (tmp_path / f"model_{name}.json").write_text(json.dumps({"BTC/USD": {**model, **bad}}))
        (tmp_path / "no_class.json").write_text('{"U1": {"name": "U1"}}')
        (tmp_path / "not_json.json").write_text("{not json")
        assert main([a.format(tmp=tmp_path, tape=tape) for a in argv]) == EXIT_FATAL
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,side,line",
        [
            (
                ["report", "{tape}", "--meta", "{side}"],
                '{"U1": {"regulatory_class": "bogus"}}',
                "error: unknown regulatory class 'bogus'",
            ),
            (
                ["benford", "{tape}", "--pairs", "{side}"],
                '{"DOGE/USD": 9}',
                "error: base unit exponent 9 for DOGE/USD outside [-8, 4]",
            ),
        ],
        ids=["regulatory-class", "pair-exponent"],
    )
    def test_pair_config_errors_print_unquoted(self, argv, side, line, tmp_path, capsys):
        tape = tmp_path / "u1.csv"
        tape.write_text("exchange,pair,timestamp_ms,price,amount\nU1,BTC/USD,1,1.0,0.0213\n")
        (tmp_path / "side.json").write_text(side)
        assert main([a.format(tape=tape, side=tmp_path / "side.json") for a in argv]) == EXIT_FATAL
        assert capsys.readouterr().err == line + "\n"

    @pytest.mark.parametrize("subcommand", ["fit-benchmark", "report"])
    @pytest.mark.parametrize(
        "value", ['"3"', "NaN", "-Infinity", "true", "[1]", "1" + "0" * 400],
        ids=["string", "nan", "infinity", "bool", "list", "past-float"],
    )
    def test_a_covariate_must_be_a_finite_number(self, subcommand, value, tmp_path, capsys):
        tape, meta = tmp_path / "r1.csv", tmp_path / "meta.json"
        tape.write_text("exchange,pair,timestamp_ms,price,amount\nR1,BTC/USD,1,1.0,0.0213\n")
        meta.write_text(f'{{"R1": {{"regulatory_class": "regulated", "age_years": 2, "rank": {value}}}}}')
        argv = [subcommand, str(tape), "--meta", str(meta), "--controls"]
        argv += ["--out-model", str(tmp_path / "m.json")] if subcommand == "fit-benchmark" else []
        assert main(argv) == EXIT_FATAL
        assert capsys.readouterr().err == (
            f"error: {meta}: exchange 'R1': rank must be a finite number or null, got {json.loads(value)!r}\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["benford", "{tape}", "--unrounded-only"],
            ["tail", "{tape}", "--unrounded-only"],
            ["plot-data", "{tape}", "--which", "benford", "--unrounded-only", "--out", "{tmp}/o"],
        ],
        ids=["benford", "tail", "plot-data"],
    )
    def test_unrounded_only_without_an_unrounded_trade_is_an_error(self, argv, tmp_path, capsys):
        tape = tmp_path / "round.csv"  # 1 BTC is 10,000 base units: round
        tape.write_text("exchange,pair,timestamp_ms,price,amount\nU1,BTC/USD,1,1.0,1\n")
        assert main([a.format(tape=tape, tmp=tmp_path) for a in argv]) == EXIT_FATAL
        assert capsys.readouterr() == ("", "error: no unrounded trades ingested\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv,path",
        [
            (["synth", "--n", "1000", "--out-file", "{tmp}/nodir/s.csv"], "{tmp}/nodir/s.csv"),
            (["ingest-check", "{tape}", "--out", "{tape}/sub"], "{tape}/sub"),
            (["report", "{tape}", "--no-wash", "--out", "{tape}"], "{tape}"),
            (["fit-benchmark", "{r1}", "{r2}", "{r3}", "--meta", "{meta}", "--out-model", "{tmp}/nodir/m.json"],
             "{tmp}/nodir/m.json"),
            (["plot-data", "{tape}", "--which", "sizes", "--out", "{tape}"], "{tape}"),
        ],
        ids=["synth", "ingest-check", "report", "fit-benchmark", "plot-data"],
    )
    def test_an_output_path_that_cannot_be_written_is_an_error(self, argv, path, workspace, tmp_path, capsys):
        root, tapes = workspace
        tape = tmp_path / "t.csv"
        tape.write_text("exchange,pair,timestamp_ms,price,amount\nU1,BTC/USD,1,1.0,0.0213\n")
        fields = dict(tmp=tmp_path, tape=tape, r1=tapes[0], r2=tapes[1], r3=tapes[2], meta=root / "meta.json")
        assert main([a.format(**fields) for a in argv]) == EXIT_FATAL
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert [line for line in lines if line.startswith("error:")] == lines[-1:]
        assert lines[-1].startswith(f"error: {path.format(**fields)}: ")
        assert "Traceback" not in err

    def test_ingest_check_refuses_two_reject_logs_of_one_name(self, tmp_path, capsys):
        tapes = []
        for d in "ab":
            (tmp_path / d).mkdir()
            tapes.append(tmp_path / d / "t.csv")
            tapes[-1].write_text("exchange,pair,timestamp_ms,price,amount\nX,BTC/USD,1,1.0,0.123456789\n")
        out = tmp_path / "rej"
        assert main(["ingest-check", "--out", str(out), *map(str, tapes)]) == EXIT_FATAL
        assert capsys.readouterr() == (
            "", f"error: {tapes[0]} and {tapes[1]} would both write their reject log to rejected_t.csv\n"
        )
        assert not out.exists()

    def test_strict_error_names_the_file(self, tmp_path, capsys):
        ok, bad = tmp_path / "ok.csv", tmp_path / "bad.csv"
        ok.write_text("exchange,pair,timestamp_ms,price,amount\nU1,BTC/USD,1,1.0,0.0213\n")
        bad.write_text("exchange,pair,timestamp_ms,price,amount\nU1,BTC/USD,1,1.0,-1\n")
        assert main(["ingest-check", str(ok), str(bad), "--strict"]) == EXIT_FATAL
        assert capsys.readouterr().err == f"error: {bad}: line 2: malformed amount '-1'\n"

    def test_ingest_check_is_the_same_at_worker_caps_one_and_three(self, tmp_path, capsys):
        header = "exchange,pair,timestamp_ms,price,amount\n"
        texts = {
            "a": header + "U1,BTC/USD,1,1.0,0.0213\nU1,BTC/USD,1,1.0,0.0213\nU1,ETH/USD,2,1.0,-1\n",
            "b": header + "R1,BTC/USD,1,1.0,0.5\n",
            "c": header + "U2,BTC/USD,1,1.0,0.123456789\nU2,BTC/USD,3,1.0,1\nU1,BTC/USD,1,1.0,0.0213\n",
        }
        paths = []
        for name, text in texts.items():
            paths.append(str(tmp_path / f"{name}.csv"))
            Path(paths[-1]).write_text(text)
        runs = []
        for workers in (1, 3):
            out = tmp_path / f"rejects{workers}"
            with mock.patch.object(ingest, "_WORKERS", workers):
                code = main(["ingest-check", "--dedupe", "--out", str(out), *paths])
            logs = {log.name: log.read_text() for log in sorted(out.iterdir())}
            runs.append((code, capsys.readouterr(), logs))
        assert runs[0] == runs[1]
        code, (stdout, stderr), logs = runs[0]
        assert code == EXIT_FLAGGED and stderr == ""
        assert stdout == (
            f"{paths[0]}: 1 accepted, 1 rejected, 1 duplicates dropped\n  U1 BTC/USD: 1 trades\n"
            f"{paths[1]}: 1 accepted, 0 rejected, 0 duplicates dropped\n  R1 BTC/USD: 1 trades\n"
            f"{paths[2]}: 2 accepted, 1 rejected, 0 duplicates dropped\n  U1 BTC/USD: 1 trades\n  U2 BTC/USD: 1 trades\n"
        )
        assert list(logs) == ["rejected_a.csv", "rejected_c.csv"]

    def test_strict_failure_prints_the_files_before_it_first(self, tmp_path, capsys):
        header = "exchange,pair,timestamp_ms,price,amount\n"
        paths = [tmp_path / f"{k}.csv" for k in range(3)]
        paths[0].write_text(header + "U1,BTC/USD,1,1.0,0.0213\n")
        paths[1].write_text(header + "U1,BTC/USD,1,1.0,-1\n")
        paths[2].write_text(header + "U2,BTC/USD,1,1.0,0.0213\n")
        for workers in (1, 3):
            with mock.patch.object(ingest, "_WORKERS", workers):
                assert main(["ingest-check", "--strict", *map(str, paths)]) == EXIT_FATAL
            assert capsys.readouterr() == (
                f"{paths[0]}: 1 accepted, 0 rejected\n  U1 BTC/USD: 1 trades\n",
                f"error: {paths[1]}: line 2: malformed amount '-1'\n",
            )


@pytest.mark.parametrize(
    "argv",
    [["ingest-check", "{tape}"], ["plot-data", "{tape}", "--which", "sizes", "--out", "{tmp}"]],
    ids=["ingest-check", "plot-data"],
)
def test_a_closed_pipe_exits_1_without_a_traceback(argv, tmp_path):
    tape = tmp_path / "t.csv"
    tape.write_text("exchange,pair,timestamp_ms,price,amount\nU1,BTC/USD,1,1.0,0.0213\n")
    env = {**os.environ, "PYTHONPATH": str(Path(washdetect.__file__).resolve().parents[1])}
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the first write
    try:
        done = subprocess.run(
            [sys.executable, "-m", "washdetect", *(a.format(tape=tape, tmp=tmp_path) for a in argv)],
            stdout=write, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (EXIT_FATAL, "")


def test_cli_import_leaves_out_scipy_stats():
    """No scipy module at all: the runtime needs numpy alone."""
    src = Path(washdetect.__file__).resolve().parents[1]
    code = "import sys, washdetect.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_cli_import_leaves_out_the_thread_pool_and_logging():
    """The parse and the battery import concurrent.futures, which imports
    logging, when they first run, so that a bare import stays short."""
    src = Path(washdetect.__file__).resolve().parents[1]
    code = "import sys, washdetect.cli; print([m for m in ('concurrent.futures', 'logging') if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


# Runs the CLI with an import hook that refuses every scipy module.
_WITHOUT_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}")
        return None

sys.meta_path.insert(0, RefuseScipy())
from washdetect.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_synth_and_report_run_without_scipy(tmp_path):
    src = Path(washdetect.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}

    def cli(*argv):
        return subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, *argv], env=env, capture_output=True, text=True)

    meta = {"R1": {"regulatory_class": "regulated"}, "U1": {"regulatory_class": "tier2"}}
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    tapes = []
    for ex, seed, wash in (("R1", 1, "0.0"), ("U1", 2, "0.8")):
        tapes.append(str(tmp_path / f"{ex}.csv"))
        argv = ["--seed", str(seed), "--n", "20000", "--wash", wash, "--exchange-id", ex, "--profile", "stable-panel"]
        done = cli("synth", *argv, "--out-file", tapes[-1])
        assert done.returncode == EXIT_OK, done.stderr
    out = tmp_path / "out"
    done = cli("report", *tapes, "--meta", str(tmp_path / "meta.json"), "--bootstrap", "100", "--out", str(out))
    assert done.returncode in (EXIT_OK, EXIT_FLAGGED), done.stderr
    schema = json.loads(Path(washdetect.__file__).with_name("report_schema.json").read_text())
    jsonschema.validate(json.loads((out / "report.json").read_text()), schema)


def test_every_public_name_has_a_program_caller():
    """Each top-level public function and class of the package is referenced
    by a module of it other than ``__init__.py``, or by a script."""
    # acceptance criteria 1 and 10 check the paper's digit law and rank
    # correlation through these two, which the battery itself does not need
    test_only = {"benford_expected", "spearman_rank_correlation"}
    package = Path(washdetect.__file__).parent
    modules = sorted(package.glob("*.py"))
    scripts = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))
    referenced = set()
    for path in [p for p in modules if p.name != "__init__.py"] + scripts:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    public = {
        node.name
        for path in modules
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assert scripts
    assert public - referenced == test_only


def test_cli_and_scripts_leave_the_detectors_to_the_battery():
    """The subcommands and experiment scripts read ``report.run_battery``;
    none of them runs a detector or estimator of its own."""
    detectors = {
        "fit_tail",
        "chi_squared_benford",
        "run_cluster_test",
        "fit_benchmark",
        "estimate_wash",
        "fit_bootstrap",
        "replicate_sd",
        "cross_validate_regulated",
    }
    root = Path(__file__).resolve().parents[1]
    files = [Path(washdetect.__file__).with_name("cli.py"), *sorted((root / "scripts").glob("*.py"))]
    calls = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name in detectors:
                    calls.append(f"{path.name}:{node.lineno} {name}")
    assert len(files) > 1
    assert calls == []


class TestRank:
    def test_improvement(self, capsys):
        assert main(["rank", "--volume", "1e9", "--wash-percent", "70"]) == EXIT_OK
        assert "23 positions" in capsys.readouterr().out

    def test_with_reported_rank(self, capsys):
        main(["rank", "--volume", "1e9", "--wash-percent", "70", "--rank", "40"])
        assert "63" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        ["--vol 1e9 --wash 70 --ra 40", "--volume 1e9 --wash-percent 70 --ra 40"],
        ids=["all-abbreviated", "rank-abbreviated"],
    )
    def test_abbreviated_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rank", *argv.split()])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("usage: washdetect")
