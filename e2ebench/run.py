"""End-to-end benchmark of the repro system: one command, three workloads.

    python3 e2ebench/run.py --workload paper --seed 7 --seconds 8 --trace 0

Run it from the root of a checkout. Workloads (see ``e2ebench/README.md``):

* ``paper``: a cold analyst process on an empty cache renders all 16
  experiments, then fresh warm processes render them again over the
  cache the cold one left;
* ``serve_read``: the real ``repro serve`` over a pre-warmed cache,
  driven by two closed-loop clients with single lookups, lockfile
  batches and graph queries;
* ``serve_ingest``: the same, plus a writer thread in the server that
  applies seeded event batches on a fixed schedule, and a client
  tailing ``/v1/feed``.

Every end-to-end metric is printed by name with its unit and sample
count. With ``--trace 1`` the span wrappers are installed in the child
processes and the per-layer metrics are printed instead; the Chrome
trace is written under ``.e2ebench_run/``. ``--workload all`` runs each
workload untraced and traced, and also reports the tracing overhead.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is non-zero
when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

from common import BENCH_DIR, DEFAULT_SEED, SCALE, cpu_split, source_root

WORKLOADS = ("paper", "serve_read", "serve_ingest")

#: end-to-end metrics each workload measures (the BENCHMARK.json set plus
#: the workload's own metrics, which are printed but not gated)
WORKLOAD_METRICS = {
    "paper": ("setup_s", "cold_s", "warm_s", "peak_rss_mb", "error_rate"),
    "serve_read": (
        "setup_s", "cold_s", "peak_rss_mb", "rps", "enrich_p50_ms",
        "enrich_tail_ms", "batch_p50_ms", "batch_tail_ms", "query_p50_ms", "error_rate",
    ),
    "serve_ingest": (
        "setup_s", "cold_s", "peak_rss_mb", "rps", "enrich_p50_ms",
        "enrich_tail_ms", "batch_p50_ms", "batch_tail_ms", "query_p50_ms",
        "publish_lag_s", "error_rate",
    ),
}


def run_one(root: Path, workload: str, seed: int, seconds: int, trace: bool, scale: float,
            system_cpus=None):
    """Run one workload; returns (outcome, per-layer metrics or None)."""
    from layers import Spans, layer_metrics
    from tracing import write_chrome_trace
    from workloads import Runner, run_paper, run_serve

    base = root / ".e2ebench_run"
    workdir = base / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    runner = Runner(root, workdir, seed, scale, seconds, trace, system_cpus)
    try:
        if workload == "paper":
            outcome, extras = run_paper(runner), {}
        else:
            outcome, extras = run_serve(runner, ingest=workload == "serve_ingest")
    finally:
        runner.stop_all()
        shutil.rmtree(runner.cache_dir, ignore_errors=True)
    layers = None
    if trace:
        spans = {label: proc_spans for label, _pid, proc_spans in outcome.processes}
        layers = layer_metrics(
            Spans(spans.get("cold", [])),
            Spans(spans.get("warm", [])),
            Spans(spans.get("server", [])),
            request_log=extras.get("request_log", ()),
            cache_stats=extras.get("cache_stats"),
            cursors_expired=extras.get("cursors_expired", 0),
            server_rss_mb=extras.get("server_rss_mb", 0.0),
            span_total=sum(len(proc_spans) for proc_spans in spans.values()),
        )
        trace_file = base / f"trace-{workload}-seed{seed}.json"
        write_chrome_trace(trace_file, outcome.processes)
        print(f"[{workload}] chrome trace: {trace_file.relative_to(root)}")
    if extras.get("cache_stats"):
        cache = extras["cache_stats"]["cache"]
        lookups = cache["hits"] + cache["misses"]
        print(f"[{workload}] cache: {cache['hits']} hits, {cache['misses']} misses, "
              f"{cache['evictions']} evictions ({cache['hits'] / max(1, lookups):.3f} hit ratio)")
    if extras.get("verdicts"):
        verdicts = extras["verdicts"]
        answered = sum(verdicts.values())
        print(f"[{workload}] single-lookup verdicts: " + ", ".join(
            f"{verdict} {count / answered:.3f}" for verdict, count in sorted(verdicts.items(), key=str)
        ) + f" (n={answered})")
    return outcome, layers


def print_outcome(outcome, layers, trace: bool) -> None:
    name = outcome.workload
    print(f"[{name}] end-to-end metrics{' (traced run)' if trace else ''}:")
    for metric in WORKLOAD_METRICS[name]:
        held = outcome.metrics.get(metric)
        if held is None:
            print(f"  {metric:<16} (not measured)")
            continue
        note = f", {held.note}" if held.note else ""
        print(f"  {metric:<16} {held.value:>12.4f} {held.unit:<6} (n={held.samples}{note})")
    if layers is not None:
        print(f"[{name}] per-layer metrics:")
        for metric, (value, unit) in layers.items():
            print(f"  {metric:<34} {value:>14.4f} {unit}")
    print(f"[{name}] attempted {outcome.attempted}, failed {outcome.failed}")
    for check, ok, detail in outcome.checks:
        mark = "ok  " if ok else "FAIL"
        print(f"  {mark} {check}" + (f": {detail}" if detail and not ok else ""))


def select(spec: dict, outcome, layers, trace: bool) -> dict:
    """The metrics BENCHMARK.json names for this kind of run.

    A metric the run could not measure (a child died first) fails the
    run's correctness instead of raising.
    """
    chosen = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name = entry["name"]
        if trace:
            held = layers.get(name) if layers is not None else None
            value, unit = held if held is not None else (None, None)
        else:
            held = outcome.metrics.get(name)
            value, unit = (held.value, held.unit) if held is not None else (None, None)
        if value is None:
            outcome.check(f"{name} measured", False)
            continue
        if unit != entry["unit"]:
            raise ValueError(f"{name}: unit {unit} != {entry['unit']} in BENCHMARK.json")
        chosen[name] = {"value": value, "unit": unit}
    return chosen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds per run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--scale", type=float, default=SCALE,
                        help=argparse.SUPPRESS)  # the tests' tiny-scale smoke run
    args = parser.parse_args(argv)

    root = Path.cwd()
    if source_root(root) is None or not (root / "BENCHMARK.json").is_file():
        print("e2ebench: run from the root of a repro checkout (src/repro and "
              "BENCHMARK.json not found)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else int(spec["run_seconds"])

    # "Build": byte-compile the sources once so no measured process pays for it.
    import compileall

    compileall.compile_dir(str(root / "src"), quiet=1)
    compileall.compile_dir(str(BENCH_DIR), quiet=1)

    client_cpus, system_cpus = cpu_split()
    if client_cpus:
        os.sched_setaffinity(0, client_cpus)

    if args.workload != "all":
        outcome, layers = run_one(root, args.workload, args.seed, seconds, bool(args.trace),
                                  args.scale, system_cpus)
        metrics = select(spec, outcome, layers, bool(args.trace))
        print_outcome(outcome, layers, bool(args.trace))
        ok = outcome.correct and outcome.failed == 0
        print(json.dumps({"correct": ok, "attempted": outcome.attempted,
                          "failed": outcome.failed, "metrics": metrics}))
        return 0 if ok else 1

    return run_all(root, args.seed, seconds, args.scale, system_cpus)


def run_all(root: Path, seed: int, seconds: int, scale: float, system_cpus) -> int:
    """Every workload untraced, then traced; reports tracing overhead."""
    overhead_keys = {"paper": ("cold_s", "warm_s"), "serve_read": ("rps", "enrich_p50_ms"),
                     "serve_ingest": ("rps", "enrich_p50_ms")}
    correct = True
    attempted = failed = 0
    metrics = {}
    for workload in WORKLOADS:
        plain, _ = run_one(root, workload, seed, seconds, False, scale, system_cpus)
        print_outcome(plain, None, False)
        traced, layers = run_one(root, workload, seed, seconds, True, scale, system_cpus)
        print_outcome(traced, layers, True)
        print(f"[{workload}] tracing overhead:")
        for key in overhead_keys[workload]:
            if key in plain.metrics and key in traced.metrics and plain.metrics[key].value:
                a, b = plain.metrics[key].value, traced.metrics[key].value
                print(f"  {key:<16} {a:.4f} untraced, {b:.4f} traced ({(b - a) / a * 100:+.1f}%)")
        for outcome in (plain, traced):
            correct = correct and outcome.correct and outcome.failed == 0
            attempted += outcome.attempted
            failed += outcome.failed
        for name, held in plain.metrics.items():
            metrics[f"{workload}.{name}"] = {"value": held.value, "unit": held.unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _terminate(signum, frame):
    """SIGTERM unwinds like an exit, so every child is stopped on the way."""
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    started = time.time()
    code = main()
    print(f"e2ebench: finished in {time.time() - started:.1f} s", file=sys.stderr)
    sys.exit(code)
