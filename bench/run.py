"""Benchmark of washdetect: one workload, one seed, one run.

    python3 bench/run.py --workload quickstart --seed 1 --seconds 45 --trace 0

Builds the workload's inputs from the seed with ``washdetect synth``, makes
one untimed warm-up pass, then repeats passes of the workload's CLI calls
through ``washdetect.cli.main`` in-process for ``--seconds`` seconds and
reports medians, so that the host's drift over seconds averages out. The
last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (median
of fresh ``python -c "import washdetect.cli"`` interpreters spread over the
run), ``wall_s`` (median pass), ``rows_per_s`` (rows a pass handles per
``wall_s``) and ``peak_rss_mb`` (one pass in a fresh process). With
``--trace 1`` untraced and traced passes alternate and the metrics are the
per-layer ones from ``tracing.py``; the spans are written to
``.bench_work/trace/``. Lines before the last one are diagnostics,
including the speed of a fixed stdlib reference loop timed before each pass.

The program is imported from ``src/`` next to this directory and nowhere
else; without it the run exits 1 before printing a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_PASSES = 5
SETUP_SAMPLES = 3
IMPORTTIME_SAMPLES = 3


def import_program():
    sys.path.insert(0, str(SRC))
    import washdetect
    import washdetect.cli

    if not Path(washdetect.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"washdetect came from {washdetect.__file__}, not {SRC}")
    return washdetect.cli


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def child(argv: list[str]) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on the program in src/; wait for it to end."""
    return subprocess.run([sys.executable, *argv], env=child_env(), check=True, capture_output=True, text=True)


def fresh_import_s() -> float:
    start = time.perf_counter()
    child(["-c", "import washdetect.cli"])
    return time.perf_counter() - start


def reference_loop_ms() -> float:
    """A fixed pure-Python loop: how fast the host runs right now."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return (time.perf_counter() - start) * 1e3


def run_pass(cli, workload) -> tuple[float, list[str], int]:
    """One pass: the CLI calls in order. Returns seconds inside the calls,
    their stdouts and the number of calls that failed (exit code 1 or a
    traceback; 2 means flagged groups or rejected rows and is expected)."""
    seconds, stdouts, failed = 0.0, [], 0
    for argv in workload.calls():
        start = time.perf_counter()
        rc, out = workloads.call(cli, argv)
        seconds += time.perf_counter() - start
        stdouts.append(out)
        failed += rc not in (0, 2)
    return seconds, stdouts, failed


def spread(values: list[float]) -> str:
    listed = " ".join(f"{v:.3f}" for v in values)
    return f"median {statistics.median(values):.4f} min {min(values):.4f} max {max(values):.4f} n {len(values)}: {listed}"


class Run:
    def __init__(self, args, cli, units: dict[str, str]):
        self.args = args
        self.units = units
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.ref_ms: list[float] = []
        self.phases: dict[str, float] = {}

    def timed(self, phase: str, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.phases[phase] = self.phases.get(phase, 0.0) + time.perf_counter() - start

    def one_pass(self, workload, collect: bool = True, reference: bool = True) -> float:
        if reference:
            self.ref_ms.append(reference_loop_ms())
        gc.collect()  # every pass starts from the same collector state
        seconds, stdouts, failed = run_pass(self.cli, workload)
        self.attempted += len(stdouts)
        self.failed += failed
        if collect and not failed:
            workload.collect(stdouts)
        return seconds

    def end_to_end(self, workload, work: Path) -> dict:
        # The fresh-process pass writes its outputs apart and runs beside the
        # untimed warm-up; only its memory is measured.
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload.name, "--seed", str(self.args.seed),
                "--rss-child", str(work)]
        start = time.perf_counter()
        with subprocess.Popen(argv, env=child_env(), stdout=subprocess.PIPE, text=True) as proc:
            self.one_pass(workload, reference=False)  # warm-up
            stdout, _ = proc.communicate()
        self.phases["warm-up beside fresh-process pass"] = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"fresh-process pass exited {proc.returncode}")
        peak_rss_mb = json.loads(stdout.splitlines()[-1])["peak_rss_mb"]
        walls, setups = [], []
        start = time.perf_counter()
        setup_due = [start + self.args.seconds * (j + 0.5) / SETUP_SAMPLES for j in range(SETUP_SAMPLES)]
        while True:
            now = time.perf_counter()
            if setup_due and now >= setup_due[0]:
                setups.append(fresh_import_s())
                setup_due.pop(0)
            elif setup_due or now - start < self.args.seconds or len(walls) < MIN_PASSES:
                walls.append(self.one_pass(workload))
            else:
                break
        self.phases["window"] = time.perf_counter() - start
        print(f"wall_s per pass: {spread(walls)}")
        print(f"setup_s per interpreter: {spread(setups)}")
        wall = statistics.median(walls)
        return {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "rows_per_s": {"value": workload.rows_per_pass / wall, "unit": "rows/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    def per_layer(self, workload) -> dict:
        import tracing

        imports = []
        for _ in range(IMPORTTIME_SAMPLES):
            out = self.timed("importtime", child, ["-X", "importtime", "-c", "import washdetect.cli"])
            imports.append(tracing.import_times(out.stderr))
        self.timed("warm-up", lambda: self.one_pass(workload, reference=False))
        peak = self.timed("tracemalloc pass", tracing.parse_peak_bytes_per_row,
                          lambda: self.one_pass(workload, collect=False, reference=False))
        tracer = tracing.Tracer()
        untraced, traced, per_pass, layer_self, bounds = [], [], [], [], []
        start = time.perf_counter()
        while time.perf_counter() - start < self.args.seconds or len(traced) < MIN_PASSES:
            untraced.append(self.one_pass(workload))
            first = len(tracer.spans)
            tracer.counts.clear()
            restore = tracer.install()
            try:
                traced.append(self.one_pass(workload))
            finally:
                restore()
            bounds.append((first, len(tracer.spans)))
            spans = [[n, s, e, p - first if p >= 0 else -1, r] for n, s, e, p, r in tracer.spans[first:]]
            metrics, layers = tracing.pass_metrics(spans, tracer.counts)
            per_pass.append(metrics)
            layer_self.append(layers)
        self.phases["window"] = time.perf_counter() - start
        overhead = statistics.median(traced) - statistics.median(untraced)
        tracer.write(WORK / "trace" / f"{workload.name}-s{self.args.seed}.json", bounds)
        print(f"untraced wall_s per pass: {spread(untraced)}")
        print(f"traced wall_s per pass: {spread(traced)}")
        layers = {name: statistics.median(ls.get(name, 0.0) for ls in layer_self) for name in tracing.LAYERS}
        print("layer self time per traced pass, median s: "
              + ", ".join(f"{k} {v:.4f}" for k, v in layers.items() if v))
        print(f"layer self times sum to {statistics.median(sum(ls.values()) for ls in layer_self):.4f} s "
              f"per traced pass; untraced wall_s {statistics.median(untraced):.4f} s; "
              f"trace.overhead_s {overhead:.4f} s")
        metrics = {name: statistics.median(i[name] for i in imports) for name in imports[0]}
        metrics.update({name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]})
        metrics["ingest.parse_peak_bytes_per_row"] = peak
        metrics["trace.overhead_s"] = overhead
        return {name: {"value": value, "unit": self.units[name]} for name, value in sorted(metrics.items())}


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def rss_child(args, cli) -> int:
    """One pass in this fresh process; print its peak resident set."""
    work = Path(args.rss_child)
    workload = workloads.WORKLOADS[args.workload](work, args.seed, out_root=work / "fresh-process")
    workload.make_output_dirs()
    _, _, failed = run_pass(cli, workload)
    if failed:
        return 1
    print(json.dumps({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--rss-child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        cli = import_program()
    except ImportError as exc:
        print(f"error: cannot import washdetect from {SRC}: {exc}", file=sys.stderr)
        return 1

    if args.rss_child:
        return rss_child(args, cli)

    schema = json.loads((SRC / "washdetect" / "report_schema.json").read_text())
    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](work, args.seed, schema)
        run = Run(args, cli, per_layer_units())
        run.timed("prepare", workload.prepare, cli)
        metrics = run.per_layer(workload) if args.trace else run.end_to_end(workload, work)
        errors = run.timed("verify", workload.verify) if not run.failed else ["some CLI calls failed"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed}: {workload.rows_per_pass} rows per pass")
    print(f"reference loop ms: {spread(run.ref_ms)}")
    print("phase seconds: " + ", ".join(f"{k} {v:.2f}" for k, v in run.phases.items()))
    for line in workload.notes():
        print(line)
    for line in errors:
        print(f"CHECK FAILED: {line}")
    print(json.dumps({"correct": not errors, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
