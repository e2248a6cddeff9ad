"""Self-tests of the benchmark's checks; not part of the tier-1 suite.

    python3 bench/selftest.py

Each workload runs two passes at seed 0. Its checks must pass on the real
outputs and fail on each deliberately corrupted copy: a digit count off by
one, a dropped reject line, a perturbed model coefficient, a changed
bootstrap sd, and a few more. Exits 1 if any expectation is not met.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import sys

import run


def main() -> int:
    cli = run.import_program()
    import reference as ref
    import workloads as wl

    schema = json.loads((run.SRC / "washdetect" / "report_schema.json").read_text())
    failures: list[str] = []

    def expect(name: str, errors: list[str], should_fail: bool, mention: str = "") -> None:
        """The check must fail exactly when it should, with an error naming `mention`."""
        ok = bool(errors) == should_fail and (not mention or any(mention in e for e in errors))
        detail = f": {errors[-1][:160]}" if errors else ""
        print(f"{'ok  ' if ok else 'FAIL'} {name}{detail}")
        if not ok:
            failures.append(name)

    def edited(text: str, edit) -> str:
        report = json.loads(text)
        edit(report)
        return json.dumps(report, indent=2, sort_keys=True) + "\n"  # the program's own layout

    def unit(report: dict, exchange: str) -> dict:
        return next(ex for ex in report["exchanges"] if ex["exchange_id"] == exchange)

    work = run.WORK / f"selftest-p{os.getpid()}"
    try:
        outputs = {}
        for cls in (wl.Quickstart, wl.TapeRoundtrip):
            (work / cls.name).mkdir(parents=True)
            w = cls(work / cls.name, 0, schema)
            w.prepare(cli)
            for _ in range(2):
                _, stdouts, failed = run.run_pass(cli, w)
                if failed:
                    raise RuntimeError(f"{cls.name}: a CLI call failed")
                w.collect(stdouts)
            expect(f"{cls.name}: real outputs pass", w.verify(), False)
            outputs[cls.name] = w

        q = outputs["quickstart"]
        if edited(q.reports[0], lambda r: None) != q.reports[0]:
            raise RuntimeError("re-serialising report.json changes its bytes; corruptions would be unfair")
        key = ("R1", "BTC/USD")

        def digit_off_by_one(report):
            digits = list(q.expect["digits"][key])
            digits[0] += 1
            pair = unit(report, "R1")["pairs"][0]
            pair["benford"]["statistic"] = ref.benford_chi2(digits, 10_000)

        def row_count_off_by_one(report):
            unit(report, "R2")["pairs"][0]["n_trades"] += 1

        def wash_share_off(report):
            unit(report, "U1")["wash_aggregate"]["wash_percent"] += 15.0

        for name, edit in (("a digit count off by one", digit_off_by_one),
                           ("a row count off by one", row_count_off_by_one),
                           ("a wash share 0.15 off its labels", wash_share_off),
                           ("a report outside the schema", lambda r: r.pop("schema_version"))):
            text = edited(q.reports[0], edit)
            expect(f"quickstart: {name}", wl.check_quickstart([text, text], q.expect, schema), True)
        expect("quickstart: report.json differing between passes",
               wl.check_quickstart([q.reports[0], q.reports[0] + " "], q.expect, schema), True)

        def coefficient(report):
            report["benchmark_models"]["BTC/USD"]["coefficients"][1] *= 1 + 1e-7

        def wash_volume(report):
            unit(report, "U1")["wash_by_pair"][0]["wash_volume"] *= 1 + 1e-7

        for name, edit in (("a perturbed model coefficient", coefficient),
                           ("a perturbed wash volume", wash_volume)):
            text = edited(q.reports[0], edit)
            expect(f"quickstart: {name}", wl.check_quickstart([text, text], q.expect, schema), True)

        def sd_one_ulp_up(report):
            e = unit(report, "U1")["wash_by_pair"][0]
            e["bootstrap_sd"] = math.nextafter(e["bootstrap_sd"], math.inf)

        changed = edited(q.reports[1], sd_one_ulp_up)
        expect("quickstart: a changed bootstrap sd in one pass",
               wl.check_quickstart([q.reports[0], changed], q.expect, schema), True,
               "bootstrap sd is not bit-identical")

        r = outputs["tape-roundtrip"]
        tape = r.dirty[0].name

        def corrupted_passes(edit):
            passes = copy.deepcopy(r.passes)
            edit(passes[1])
            return passes

        def drop_reject_line(pass_):
            lines = pass_["rejects"][tape].splitlines(keepends=True)
            pass_["rejects"][tape] = "".join(lines[:5] + lines[6:])

        def accepted_off_by_one(pass_):
            head, _, rest = pass_["stdout"].partition(" accepted")
            path, _, n = head.rpartition(": ")
            pass_["stdout"] = f"{path}: {int(n) + 1} accepted{rest}"

        def synth_changed(pass_):
            pass_["synth_sha256"][r.clean[2].name] = "0" * 64

        for name, edit in (("a dropped reject line", drop_reject_line),
                           ("an accepted count off by one", accepted_off_by_one),
                           ("a synth tape that changed", synth_changed)):
            expect(f"tape-roundtrip: {name}", wl.check_roundtrip(corrupted_passes(edit), r.expect, r.volumes), True)
        volumes = copy.deepcopy(r.volumes)
        group = next(iter(volumes[tape]))
        volumes[tape][group][1] += 1
        expect("tape-roundtrip: a volume sum one sub-unit off", wl.check_roundtrip(r.passes, r.expect, volumes), True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} self-test expectations not met" if failures else "all self-tests met")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
