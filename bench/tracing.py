"""Spans and counters around washdetect's public functions, from outside it.

``Tracer.install`` wraps every public function of each washdetect module and
rebinds every reference to it inside the package, including names imported
with ``from x import f``; the returned callable puts the originals back.
A span is ``[name, start, end, parent, raised]``; spans stay in memory and
are written once, at the end of a run. A handful of per-row or per-week
scalar functions are counted instead of timed, so the trace stays cheap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("trades", "ingest", "benford", "clustering", "tailfit", "washest", "verdicts", "report", "synth", "cli")
COUNT_ONLY = frozenset({"trades.parse_amount", "trades.format_amount", "washest.predict_unrounded"})


def _parse_counts(counts: Counter, args, result) -> None:
    ds, rep = result
    counts["ingest.rows_accepted"] += rep.n_accepted
    counts["ingest.rows_rejected"] += rep.n_rejected
    counts["ingest.rows_deduplicated"] += rep.n_deduplicated
    counts["ingest.kept_bytes"] += sum(
        g.timestamps.nbytes + g.amounts.nbytes + g.prices.nbytes for g in ds.groups.values()
    )


HOOKS = {
    "ingest.parse_trades": _parse_counts,
    "clustering.run_cluster_test": lambda c, a, r: c.update({"clustering.windows_tested": r.n_pairs}),
    "tailfit.fit_tail": lambda c, a, r: c.update({"tailfit.tail_points": r.n_tail}),
    "report.dump_report_json": lambda c, a, r: c.update({"report.json_bytes": len(r)}),
    "synth.write_tape": lambda c, a, r: c.update({"synth.rows_written": a[0].group.n}),
}


def _package_modules() -> list:
    return [m for name, m in sys.modules.items() if name == "washdetect" or name.startswith("washdetect.")]


def patch(replacements: dict[int, object]):
    """Rebind every package attribute whose id is a key; return the undo."""
    undo = []
    for mod in _package_modules():
        for attr, obj in list(vars(mod).items()):
            new = replacements.get(id(obj))
            if new is not None:
                setattr(mod, attr, new)
                undo.append((mod, attr, obj))

    def restore() -> None:
        for mod, attr, obj in undo:
            setattr(mod, attr, obj)

    return restore


def public_functions():
    """(layer.name, function) for every public function defined in a layer."""
    for layer in LAYERS:
        mod = sys.modules[f"washdetect.{layer}"]
        for attr, obj in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                yield f"{layer}.{attr}", obj


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _timed(self, name: str, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, True]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[4] = False
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts, key = self.counts, f"{name}_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        replacements = {
            id(fn): self._counted(name, fn) if name in COUNT_ONLY else self._timed(name, fn, HOOKS.get(name))
            for name, fn in public_functions()
        }
        return patch(replacements)

    def write(self, path: Path, passes: list[tuple[int, int]]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "raised"],
                                    "passes": passes, "spans": self.spans}))


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (name, start, end, _, _), c in zip(spans, child)]


def pass_metrics(spans: list[list], counts: Counter) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced pass, and the self time of each layer.

    ``spans`` holds this pass's spans only, with parents indexed within it.
    """
    incl: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    layer_self: dict[str, float] = defaultdict(float)
    for (name, start, end, _, _), self_s in zip(spans, self_times(spans)):
        incl[name] += end - start
        own[name] += self_s
        calls[name] += 1
        layer_self[name.split(".")[0]] += self_s
    under_boot = [s for s in spans if s[3] >= 0 and spans[s[3]][0] == "washest.bootstrap_wash_sd"]
    refits = sum(1 for s in under_boot if s[0] == "washest.fit_benchmark")
    kept = sum(1 for s in under_boot if s[0] == "washest.estimate_wash" and not s[4])
    rows_parsed = counts["ingest.rows_accepted"] + counts["ingest.rows_rejected"] + counts["ingest.rows_deduplicated"]

    def per(numerator: float, seconds: float) -> float:
        return numerator / seconds if seconds > 0 else 0.0

    m = {
        "ingest.parse_trades_s": incl["ingest.parse_trades"],
        "ingest.parse_rows_per_s": per(rows_parsed, incl["ingest.parse_trades"]),
        "ingest.kept_bytes_per_row": per(counts["ingest.kept_bytes"], counts["ingest.rows_accepted"]),
        "ingest.rows_accepted": counts["ingest.rows_accepted"],
        "ingest.rows_rejected": counts["ingest.rows_rejected"],
        "ingest.rows_deduplicated": counts["ingest.rows_deduplicated"],
        "ingest.weekly_split_s": incl["ingest.weekly_split"],
        "trades.parse_amount_calls": counts["trades.parse_amount_calls"],
        "trades.format_amount_calls": counts["trades.format_amount_calls"],
        "benford.digit_histogram_s": incl["benford.digit_histogram"],
        "benford.chi_squared_benford_s": incl["benford.chi_squared_benford"],
        "clustering.run_cluster_test_s": incl["clustering.run_cluster_test"],
        "clustering.windows_tested": counts["clustering.windows_tested"],
        "tailfit.fit_tail_s": incl["tailfit.fit_tail"],
        "tailfit.tail_points": counts["tailfit.tail_points"],
        "washest.roundness_distribution_s": incl["washest.roundness_distribution"],
        "washest.roundness_chi_squared_s": incl["washest.roundness_chi_squared"],
        "washest.fit_benchmark_s": incl["washest.fit_benchmark"],
        "washest.fit_benchmark_calls": calls["washest.fit_benchmark"],
        "washest.estimate_wash_s": incl["washest.estimate_wash"],
        "washest.bootstrap_wash_sd_s": incl["washest.bootstrap_wash_sd"],
        "washest.bootstrap_replicates_per_s": per(kept, incl["washest.bootstrap_wash_sd"]),
        "washest.bootstrap_useful_ratio": kept / refits if refits else 0.0,
        "washest.cross_validate_regulated_s": incl["washest.cross_validate_regulated"],
        "verdicts.fisher_combine_s": incl["verdicts.fisher_combine"],
        "report.run_battery_s": incl["report.run_battery"],
        "report.run_battery_self_s": own["report.run_battery"],
        "report.serialize_s": incl["report.dump_report_json"] + incl["report.report_test_rows"]
        + incl["report.wash_estimate_rows"],
        "report.json_bytes": counts["report.json_bytes"],
        "cli.self_s": layer_self["cli"],
        "synth.gen_exchange_s": incl["synth.gen_exchange"],
        "synth.write_tape_s": incl["synth.write_tape"],
        "synth.write_rows_per_s": per(counts["synth.rows_written"], incl["synth.write_tape"]),
    }
    return m, dict(layer_self)


def parse_peak_bytes_per_row(run_pass) -> float:
    """tracemalloc peak of the pass's first parse_trades call, per row it read.

    Allocations are traced only inside that call, so the rest of the pass
    runs at full speed.
    """
    import washdetect.ingest as ingest

    original = ingest.parse_trades
    ratios = []

    def measured(*args, **kwargs):
        if ratios:
            return original(*args, **kwargs)
        tracemalloc.start()
        try:
            ds, rep = original(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ratios.append(peak / max(rep.n_accepted + rep.n_rejected + rep.n_deduplicated, 1))
        return ds, rep

    restore = patch({id(original): measured})
    try:
        run_pass()
    finally:
        restore()
    return ratios[0] if ratios else 0.0


def import_times(stderr: str) -> dict[str, float]:
    """Seconds from ``python -X importtime``.

    numpy and scipy are charged with every subtree rooted at one of their
    modules, so what they pull in counts; washdetect with the self time of
    its own modules. washdetect uses scipy only through ``scipy.stats``.
    """
    lines = []  # (depth, name, self_us, cumulative_us), in the order printed
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            name = fields[2].rstrip()
            depth = len(name) - len(name.lstrip())
            lines.append((depth, name.strip(), int(fields[0]), int(fields[1])))

    def under(name: str, package: str) -> bool:
        return name == package or name.startswith(package + ".")

    def subtrees(package: str) -> float:
        total = 0
        for i, (depth, name, _, cumulative) in enumerate(lines):
            # a module's importer is the next line printed with a smaller indent
            parent = next((n for d, n, _, _ in lines[i + 1 :] if d < depth), "")
            if under(name, package) and not under(parent, package):
                total += cumulative
        return total / 1e6

    return {
        "setup.import_numpy_s": subtrees("numpy"),
        "setup.import_scipy_stats_s": subtrees("scipy"),
        "setup.import_washdetect_s": sum(s for _, n, s, _ in lines if under(n, "washdetect")) / 1e6,
    }
