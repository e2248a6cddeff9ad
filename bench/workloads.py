"""The benchmark's workloads: seeded inputs, the CLI calls of one pass, checks.

Each workload writes its inputs under a work directory with ``washdetect
synth`` (untimed), defines the argv lists one pass hands to
``washdetect.cli.main``, gathers what each pass wrote, and checks it against
the reference computations in ``reference.py`` and against properties the
method must have. The check functions are pure functions of the gathered
outputs, so ``selftest.py`` can feed them corrupted copies.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import traceback
from pathlib import Path

import reference as ref

REL_TOL = 1e-9


def call(cli, argv: list[str]) -> tuple[int, str]:
    """Run one CLI call in-process; return its exit code and its stdout.

    An exception that escapes ``main`` is a failed operation: its traceback
    goes to stderr and the code reads -1.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # the benchmark must keep running to report the failure
        traceback.print_exc()
        rc = -1
    return rc, out.getvalue()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def _validate(report: dict, schema: dict) -> list[str]:
    import jsonschema

    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as exc:
        return [f"report.json does not match report_schema.json: {exc.message}"]
    return []


def _same_across_passes(reports: list[str]) -> list[str]:
    if any(text != reports[0] for text in reports[1:]):
        return ["report.json is not byte-identical across passes"]
    return []


class Workload:
    name = ""
    rows_per_pass = 0

    def __init__(self, work: Path, seed: int, schema: dict | None = None, out_root: Path | None = None):
        """Inputs live under `work`; what a pass writes, under `out_root` (default `work`)."""
        self.work = work
        self.seed = seed
        self.schema = schema
        self.out_root = out_root or work
        self.expect: dict = {}

    def prepare(self, cli) -> None:
        """Write the inputs and compute the reference; untimed."""
        raise NotImplementedError

    def calls(self) -> list[list[str]]:
        raise NotImplementedError

    def make_output_dirs(self) -> None:
        """Create the directories a pass writes into but does not create itself."""

    def collect(self, stdouts: list[str]) -> None:
        """Keep what one pass wrote, for the checks at the end of the run."""
        raise NotImplementedError

    def verify(self) -> list[str]:
        """Every failed check, as one line each; empty when all hold."""
        raise NotImplementedError

    def notes(self) -> list[str]:
        return []

    def _synth(self, cli, argv: list[str]) -> None:
        rc, _ = call(cli, ["synth", *argv])
        if rc != 0:
            raise RuntimeError(f"synth {' '.join(argv)} exited {rc}")


# ---------------------------------------------------------------------------
# quickstart: the README market at a quarter of its rows, with bootstrap errors


QUICKSTART_TAPES = (("R1", 75_000, 0.0), ("R2", 50_000, 0.0), ("R3", 37_500, 0.0), ("U1", 50_000, 0.8))
QUICKSTART_META = {ex: {"regulatory_class": "regulated" if ex[0] == "R" else "tier2"} for ex, _, _ in QUICKSTART_TAPES}
QUICKSTART_PAIR = "BTC/USD"
QUICKSTART_BOOTSTRAP = 1000


class Quickstart(Workload):
    name = "quickstart"
    rows_per_pass = sum(n for _, n, _ in QUICKSTART_TAPES)

    def __init__(self, work, seed, schema=None, out_root=None):
        super().__init__(work, seed, schema, out_root)
        self.tapes = [work / f"{ex.lower()}.csv" for ex, _, _ in QUICKSTART_TAPES]
        self.meta = work / "meta.json"
        self.out = self.out_root / "out"
        self.reports: list[str] = []

    def _synth_args(self, k: int, labels: bool = False) -> list[str]:
        ex, n, wash = QUICKSTART_TAPES[k]
        path = self.work / f"{ex.lower()}{'_labels' if labels else ''}.csv"
        # seed 0 gives the README's synth seeds 1..4
        args = ["--seed", str(4 * self.seed + k + 1), "--n", str(n), "--exchange-id", ex,
                "--profile", "stable-panel", "--wash", str(wash), "--out-file", str(path)]
        return args + (["--labels"] if labels else [])

    def prepare(self, cli):
        for k in range(len(QUICKSTART_TAPES)):
            self._synth(cli, self._synth_args(k))
        self._synth(cli, self._synth_args(3, labels=True))
        self.meta.write_text(json.dumps(QUICKSTART_META))
        labelled = self.work / "u1_labels.csv"
        with open(labelled, newline="") as fh:
            stripped = [row[:5] for row in csv.reader(fh)]
        if stripped[1:] != ref.read_rows(self.tapes[3]):
            raise RuntimeError("labelled U1 tape differs from the unlabelled one")
        regulated = {ex for ex, _, wash in QUICKSTART_TAPES if wash == 0}
        sums = ref.weekly_sums(self.tapes)
        coef = ref.refit(sums, regulated, QUICKSTART_PAIR)
        self.expect = {
            "counts": ref.group_counts(self.tapes),
            "digits": ref.digit_counts(self.tapes),
            "wash_share": {"U1": ref.labelled_wash_share(labelled)},
            "coefficients": {QUICKSTART_PAIR: coef},
            "wash_volume": {("U1", QUICKSTART_PAIR): ref.wash_volume(sums, "U1", QUICKSTART_PAIR, coef)},
        }

    def calls(self):
        return [["report", *map(str, self.tapes), "--meta", str(self.meta), "--bootstrap",
                 str(QUICKSTART_BOOTSTRAP), "--seed", str(self.seed), "--out", str(self.out)]]

    def collect(self, stdouts):
        self.reports.append((self.out / "report.json").read_text())

    def verify(self):
        return check_quickstart(self.reports, self.expect, self.schema)

    def notes(self):
        if not self.reports:
            return []
        report = json.loads(self.reports[0])
        cells = [f"{ex['exchange_id']} {ex['tests_failed']}/{ex['tests_completed']}" for ex in report["exchanges"]]
        return ["tests failed per exchange: " + ", ".join(cells)]


def check_quickstart(reports: list[str], expect: dict, schema: dict) -> list[str]:
    errors = _same_across_passes(reports)
    report = json.loads(reports[0])
    errors += _validate(report, schema)
    seen = set()
    for ex in report["exchanges"]:
        for p in ex["pairs"]:
            key = (ex["exchange_id"], p["pair"])
            seen.add(key)
            if p["n_trades"] != expect["counts"].get(key):
                errors.append(f"{key}: n_trades {p['n_trades']}, reference {expect['counts'].get(key)}")
            digits = expect["digits"][key]
            for field, n_eff in (("benford", 10_000), ("benford_raw_n", None)):
                want = ref.benford_chi2(digits, n_eff)
                got = p[field]["statistic"]
                if not _close(got, want):
                    errors.append(f"{key}: {field} statistic {got!r}, reference {want!r}")
    if seen != set(expect["counts"]):
        errors.append(f"groups {sorted(seen)}, reference {sorted(expect['counts'])}")
    for ex in report["exchanges"]:
        if ex["exchange_id"] not in expect["wash_share"]:
            continue
        if ex["tests_completed"] != 4 or ex["tests_failed"] < 2:
            errors.append(f"{ex['exchange_id']}: {ex['tests_failed']}/{ex['tests_completed']} tests failed, want >= 2/4")
        share = expect["wash_share"][ex["exchange_id"]]
        if ex["wash_aggregate"] is None:
            errors.append(f"{ex['exchange_id']}: no wash estimate")
            continue
        got = ex["wash_aggregate"]["wash_percent"] / 100.0
        if abs(got - share) > 0.10:
            errors.append(f"{ex['exchange_id']}: wash share {got:.4f}, labels say {share:.4f}")
    return errors + _check_wash_estimates(reports, report, expect)


def _check_wash_estimates(reports: list[str], report: dict, expect: dict) -> list[str]:
    """Benchmark refit and per-pair wash volumes against the reference; bootstrap sd."""
    errors = []
    for pair, want in expect["coefficients"].items():
        model = report["benchmark_models"].get(pair)
        if model is None or model["feature_names"] != ["const", "ln_round"]:
            errors.append(f"{pair}: no per-pair const + ln_round benchmark model")
            continue
        if not all(_close(g, w) for g, w in zip(model["coefficients"], want)):
            errors.append(f"{pair}: coefficients {model['coefficients']}, reference refit {list(want)}")
    seen = set()
    for ex in report["exchanges"]:
        for e in ex["wash_by_pair"]:
            key = (ex["exchange_id"], e["scope"])
            seen.add(key)
            want = expect["wash_volume"].get(key)
            if want is None or not _close(e["wash_volume"], want):
                errors.append(f"{key}: wash volume {e['wash_volume']!r}, reference {want!r}")
            if not 0.0 <= e["wash_volume"] <= e["total_volume"]:
                errors.append(f"{key}: wash volume {e['wash_volume']} outside [0, {e['total_volume']}]")
            sd = e["bootstrap_sd"]
            if sd is None or not (math.isfinite(sd) and sd > 0):
                errors.append(f"{key}: bootstrap sd {sd!r} is not finite and positive")
    if seen != set(expect["wash_volume"]):
        errors.append(f"wash estimates for {sorted(seen)}, reference {sorted(expect['wash_volume'])}")
    sds = [
        [float(e["bootstrap_sd"]).hex() for ex in json.loads(text)["exchanges"] for e in ex["wash_by_pair"]]
        for text in reports
    ]
    if any(s != sds[0] for s in sds[1:]):
        errors.append("bootstrap sd is not bit-identical across passes")
    return errors


# ---------------------------------------------------------------------------
# tape-roundtrip: synth writes tapes, ingest-check reads dirtied copies back


ROUNDTRIP_TAPES = (("X1", "BTC/USD", 0.0), ("X2", "ETH/USD", 0.3), ("X3", "LTC/USD", 0.0), ("X4", "XRP/USD", 0.5))
ROUNDTRIP_ROWS = 25_000


def _corrupt(fields: list[str], kind: int) -> tuple[str, str]:
    """One malformed row from a valid one, and the reject reason it must get."""
    ex, pair, ts, price, amount = fields
    whole, _, frac = amount.partition(".")
    amounts = (
        (f"{whole}.{frac.ljust(8, '0')}5", "precision overflow: {!r} has more than 8 decimals"),
        ("0", "non-positive amount {!r}"),
        ("-" + amount, "malformed amount {!r}"),
        (f"{float(amount):.3e}", "malformed amount {!r}"),
        ("99999999999", "amount overflow {!r}"),
    )
    if kind < len(amounts):
        bad, reason = amounts[kind]
        return ",".join([ex, pair, ts, price, bad]), reason.format(bad)
    kind -= len(amounts)
    others = (
        ([ex, pair, ts + "x", price, amount], f"bad timestamp {ts + 'x'!r}"),
        ([ex, pair, ts, "p" + price, amount], f"bad price {'p' + price!r}"),
        ([ex, pair, ts, "-" + price, amount], f"non-positive price {'-' + price!r}"),
        (["", pair, ts, price, amount], "missing exchange id"),
        ([ex, "", ts, price, amount], "missing pair"),
        ([ex, pair, ts, price], "expected 5 columns, got 4"),
        ([ex, pair, ts, price, amount, amount], "expected 5 columns, got 6"),
    )
    bad, reason = others[kind]
    return ",".join(bad), reason


N_CORRUPTIONS = 12


def _quote(fields: list[str], style: int) -> str:
    """A valid row written with CSV quoting; it must parse to the same trade."""
    ex, pair, ts, price, amount = fields
    if style == 0:
        return ",".join(f'"{f}"' for f in fields)
    if style == 1:
        return f'{ex},{pair},{ts},{price}," {amount} "'
    return f'"{ex}","{pair}",{ts},"{price}",{amount}'


def seed_dirt(text: str, rng: random.Random) -> tuple[str, list[tuple[int, str]]]:
    """Add ~1% dirt to a clean tape: malformed rows, quoted rows, duplicates.

    Returns the dirty tape and the (line, reason) rejects it must produce.
    Quoted rows replace their clean originals; duplicates follow theirs.
    """
    header, *rows = text.splitlines()
    n_bad, n_quoted, n_dup = len(rows) // 200, len(rows) // 400, len(rows) // 400
    picks = rng.sample(range(len(rows)), n_bad + n_quoted + n_dup)
    quoted = set(picks[:n_quoted])
    duplicated = set(picks[n_quoted : n_quoted + n_dup])
    bad_after: dict[int, list[tuple[str, str]]] = {}
    for k, source in enumerate(picks[n_quoted + n_dup :]):
        bad = _corrupt(rows[source].split(","), k % N_CORRUPTIONS)
        bad_after.setdefault(rng.randrange(len(rows)), []).append(bad)
    out, expected = [header], []
    for i, row in enumerate(rows):
        out.append(_quote(row.split(","), i % 3) if i in quoted else row)
        if i in duplicated:
            out.append(row)
        for bad, reason in bad_after.get(i, ()):
            out.append(bad)
            expected.append((len(out), reason))  # out[0] is line 1
    return "\n".join(out) + "\n", expected


class TapeRoundtrip(Workload):
    name = "tape-roundtrip"

    def __init__(self, work, seed, schema=None, out_root=None):
        super().__init__(work, seed, schema, out_root)
        self.clean = [self.out_root / "clean" / f"{ex}.csv" for ex, _, _ in ROUNDTRIP_TAPES]
        self.dirty = [work / "dirty" / f"{ex}.csv" for ex, _, _ in ROUNDTRIP_TAPES]
        self.out = self.out_root / "out"
        self.passes: list[dict] = []
        self.volumes: dict[str, dict] = {}

    def _synth_calls(self) -> list[list[str]]:
        return [
            ["synth", "--seed", str(10 * self.seed + k), "--n", str(ROUNDTRIP_ROWS), "--exchange-id", ex,
             "--pair", pair, "--wash", str(wash), "--out-file", str(self.clean[k])]
            for k, (ex, pair, wash) in enumerate(ROUNDTRIP_TAPES)
        ]

    def make_output_dirs(self):
        self.clean[0].parent.mkdir(parents=True, exist_ok=True)

    def prepare(self, cli):
        self.make_output_dirs()
        self.dirty[0].parent.mkdir(parents=True, exist_ok=True)
        for argv in self._synth_calls():
            self._synth(cli, argv[1:])
        rejects, parsed, sha = {}, {}, {}
        for k, (clean, dirty) in enumerate(zip(self.clean, self.dirty)):
            sha[clean.name] = _sha256(clean)
            text, rejects[dirty.name] = seed_dirt(clean.read_text(), random.Random(f"{self.seed}:{k}"))
            dirty.write_text(text)
            parsed[dirty.name] = ref.parse_tape(dirty)
            if parsed[dirty.name]["rejected"] != [line for line, _ in rejects[dirty.name]]:
                raise RuntimeError(f"{dirty}: reference parse disagrees with the seeded rejects")
        self.expect = {"rejects": rejects, "parsed": parsed, "synth_sha256": sha}
        read = sum(len(p["rejected"]) + p["accepted"] + p["deduplicated"] for p in parsed.values())
        self.rows_per_pass = ROUNDTRIP_ROWS * len(ROUNDTRIP_TAPES) + read

    def calls(self):
        return self._synth_calls() + [["ingest-check", "--dedupe", "--out", str(self.out), *map(str, self.dirty)]]

    def collect(self, stdouts):
        rejects = {}
        for dirty in self.dirty:
            path = self.out / f"rejected_{dirty.stem}.csv"
            rejects[dirty.name] = path.read_text() if path.exists() else ""
            path.unlink(missing_ok=True)
        self.passes.append({
            "stdout": stdouts[-1],
            "rejects": rejects,
            "synth_sha256": {clean.name: _sha256(clean) for clean in self.clean},
        })

    def verify(self):
        from washdetect.ingest import parse_trades

        for dirty in self.dirty:
            ds, _ = parse_trades(dirty, dedupe=True)
            self.volumes[dirty.name] = {
                key: [g.n, int(g.total_volume_subunits)] for key, g in ds.groups.items()
            }
        return check_roundtrip(self.passes, self.expect, self.volumes)


def _ingest_summary(stdout: str) -> dict[str, dict]:
    """Per-file counts from ingest-check's printed summary."""
    files: dict[str, dict] = {}
    current = None
    for line in stdout.splitlines():
        if line.startswith("  "):
            ex, pair, n = line.split()[0], line.split()[1].rstrip(":"), int(line.split()[2])
            current["groups"][(ex, pair)] = n
            continue
        path, _, rest = line.rpartition(": ")
        counts = [int(part.split()[0]) for part in rest.split(", ")]
        current = files[Path(path).name] = {"counts": counts, "groups": {}}
    return files


def check_roundtrip(passes: list[dict], expect: dict, volumes: dict) -> list[str]:
    errors = []
    for i, p in enumerate(passes):
        if p["synth_sha256"] != expect["synth_sha256"]:
            errors.append(f"pass {i}: synth tapes differ from the first write")
        summary = _ingest_summary(p["stdout"])
        for name, want_rejects in expect["rejects"].items():
            rows = list(csv.reader(io.StringIO(p["rejects"][name])))
            got = [(int(line), reason) for line, reason in rows[1:]]
            if got != want_rejects:
                missing = sorted(set(want_rejects) - set(got))[:3]
                extra = sorted(set(got) - set(want_rejects))[:3]
                errors.append(f"pass {i}: {name} rejects differ from the seeded list "
                              f"(missing {missing}, unexpected {extra})")
            parsed = expect["parsed"][name]
            want = [parsed["accepted"], len(parsed["rejected"]), parsed["deduplicated"]]
            got_file = summary.get(name, {"counts": None, "groups": None})
            if got_file["counts"] != want:
                errors.append(f"pass {i}: {name} accepted/rejected/deduplicated {got_file['counts']}, reference {want}")
            want_groups = {key: cell[0] for key, cell in parsed["groups"].items()}
            if got_file["groups"] != want_groups:
                errors.append(f"pass {i}: {name} group counts {got_file['groups']}, reference {want_groups}")
    for name, parsed in expect["parsed"].items():
        want = {key: list(cell) for key, cell in parsed["groups"].items()}
        if volumes.get(name) != want:
            errors.append(f"{name}: parsed counts and exact volumes {volumes.get(name)}, reference {want}")
    return errors


WORKLOADS = {w.name: w for w in (Quickstart, TapeRoundtrip)}
