"""The three workloads, driven from the load-client process.

Each function runs one workload in fresh child processes and returns an
:class:`Outcome`. An outcome holds the end-to-end metrics with their
sample counts, the per-layer metrics when traced, the attempt and
failure counts, and one entry per correctness check.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import re
import shutil
import signal
import subprocess
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    BENCH_DIR,
    CLIENTS,
    COLD_REPEATS,
    INGEST_INTERVAL_S,
    SETUP_REPEATS,
    WORLD_SEED,
    child_env,
    median,
    percentile,
    python_cmd,
    read_json,
    tail_percentile,
    vmhwm_mb,
    write_json,
)

EXPERIMENT_COUNT = 16
CHILD_TIMEOUT_S = 150.0
SETUP_TIMEOUT_S = 120.0
PORT_LINE = re.compile(r"repro intel service on http://[^:]+:(\d+)/")


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    note: str = ""


@dataclass
class Outcome:
    workload: str
    metrics: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    processes: List[Tuple[str, int, list]] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _name, ok, _detail in self.checks)

    def put(self, name: str, value: float, unit: str, samples: int, note: str = "") -> None:
        self.metrics[name] = Metric(float(value), unit, int(samples), note)


class Runner:
    """Owns the working directory and every process a run starts."""

    def __init__(
        self,
        root: Path,
        workdir: Path,
        seed: int,
        scale: float,
        seconds: int,
        trace: bool,
        system_cpus=None,
    ):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.scale = scale
        self.seconds = seconds
        self.trace = trace
        self.cache_dir = workdir / "cache"
        self.procs: List[subprocess.Popen] = []
        self.env = child_env(root)
        self.system_cpus = system_cpus

    # -- process plumbing ------------------------------------------------------
    def spawn(self, script: str, args: List[str], log: str, stdout=subprocess.DEVNULL):
        handle = open(self.workdir / log, "wb")
        try:
            proc = subprocess.Popen(
                python_cmd(script, *args),
                cwd=self.root,
                env=self.env,
                stdout=stdout,
                stderr=handle,
            )
        finally:
            handle.close()
        self.procs.append(proc)
        if self.system_cpus:
            try:
                os.sched_setaffinity(proc.pid, self.system_cpus)
            except OSError:
                pass  # already exited; its exit code reports why
        return proc

    def stop_all(self) -> None:
        """Kill whatever is still running and wait for each process."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
        for proc in self.procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
            if proc.stdout is not None:
                proc.stdout.close()

    def stderr_tail(self, log: str, lines: int = 15) -> str:
        try:
            text = (self.workdir / log).read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    def run_paper_child(
        self, label: str, extra: List[str] = (), cache_dir: Optional[Path] = None
    ) -> Tuple[Optional[dict], float, int]:
        """Run one analyst process to completion: (result, spawn time, pid)."""
        out = self.workdir / f"{label}.json"
        args = [
            "--world-seed", str(WORLD_SEED),
            "--seed", str(self.seed),
            "--scale", str(self.scale),
            "--cache-dir", str(cache_dir or self.cache_dir),
            "--out", str(out),
            *extra,
        ]
        spawned = time.time()
        proc = self.spawn("paper_child.py", args, f"{label}.stderr")
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = -1
        if code != 0 or not out.exists():
            return None, spawned, proc.pid
        return read_json(out), spawned, proc.pid


# -- shared checks ---------------------------------------------------------------

def recorded_values(scale: float) -> Optional[dict]:
    """What the world must look like, recorded once at the benchmark's scale."""
    expected = read_json(BENCH_DIR / "expected.json")
    if expected["world_seed"] != WORLD_SEED or float(expected["scale"]) != float(scale):
        return None
    return expected


def check_against_record(outcome: Outcome, cold: dict, scale: float, label: str) -> None:
    record = recorded_values(scale)
    if record is None:
        outcome.check("recorded digests", True, f"nothing recorded for scale {scale:g}")
        return
    for key in ("entries", "artifacts", "malgraph_sha256", "tables_sha256"):
        outcome.check(
            f"{label} {key} matches the record",
            cold.get(key) == record[key],
            f"{cold.get(key)} vs recorded {record[key]}",
        )


def cold_phase(runner: Runner, outcome: Outcome, extra: List[str] = ()) -> Optional[dict]:
    """``COLD_REPEATS`` cold analyst processes, each on an empty cache.

    ``cold_s`` is their median. The last one fills ``runner.cache_dir``
    for what follows, is the one traced, and runs ``extra``; the caches
    of the others are deleted as soon as they finish.
    """
    times = []
    hwms = []
    last = None
    repeats = COLD_REPEATS[outcome.workload]
    for repeat in range(repeats):
        final = repeat == repeats - 1
        label = "cold" if final else f"cold{repeat}"
        args = [*extra] if final else []
        if final and runner.trace and outcome.workload == "paper":
            args.append("--trace")
        cache = runner.cache_dir if final else runner.workdir / f"cache-{label}"
        cold, spawned, pid = runner.run_paper_child(label, args, cache_dir=cache)
        if not final:
            shutil.rmtree(cache, ignore_errors=True)
        outcome.attempted += EXPERIMENT_COUNT
        if cold is None:
            outcome.failed += EXPERIMENT_COUNT
            outcome.check(f"{label} process finished", False, runner.stderr_tail(f"{label}.stderr"))
            return None
        outcome.failed += len(cold["failures"])
        outcome.check(
            f"{label} renders succeeded",
            not cold["failures"],
            "; ".join(f["experiment"] for f in cold["failures"]),
        )
        check_against_record(outcome, cold, runner.scale, label)
        times.append(cold["done"] - spawned)
        hwms.append(cold["hwm_mb"])
        cold["pid"] = pid
        last = cold
    outcome.put("cold_s", median(times), "s", len(times), "median")
    last["hwm_median_mb"] = median(hwms)
    return last


# -- paper -------------------------------------------------------------------------

def run_paper(runner: Runner) -> Outcome:
    outcome = Outcome("paper")
    setups = []
    repeats = SETUP_REPEATS["paper"]
    for repeat in range(repeats):
        probe, spawned, _pid = runner.run_paper_child(f"probe{repeat}", ["--probe"])
        if probe is not None:
            setups.append(probe["imported"] - spawned)
    outcome.check("set-up probes finished", len(setups) == repeats)
    if setups:
        outcome.put("setup_s", median(setups), "s", len(setups), "median")

    cold = cold_phase(runner, outcome)
    if cold is None:
        return outcome
    outcome.put("peak_rss_mb", cold["hwm_median_mb"], "MiB", COLD_REPEATS["paper"],
                "median VmHWM of the cold processes")
    outcome.processes.append(("cold", cold["pid"], cold.get("spans", [])))

    # Warm processes for ``seconds`` of wall time (at least one).
    started = time.time()

    warm_times = []
    number = 0
    while number == 0 or time.time() - started < runner.seconds:
        number += 1
        label = f"warm{number}"
        args = ["--trace"] if runner.trace and number == 1 else []
        warm, spawned, pid = runner.run_paper_child(label, args)
        outcome.attempted += EXPERIMENT_COUNT
        if warm is None:
            outcome.failed += EXPERIMENT_COUNT
            outcome.check(f"{label} process finished", False, runner.stderr_tail(f"{label}.stderr"))
            break
        outcome.failed += len(warm["failures"])
        warm_times.append(warm["done"] - spawned)
        if number == 1:
            outcome.processes.append(("warm", pid, warm.get("spans", [])))
        for key in ("malgraph_sha256", "tables_sha256"):
            outcome.check(f"{label} {key} equals cold", warm[key] == cold[key])
    if warm_times:
        outcome.put("warm_s", median(warm_times), "s", len(warm_times), "median")
    outcome.put("error_rate", outcome.failed / max(1, outcome.attempted), "ratio", outcome.attempted)
    return outcome


# -- serving -------------------------------------------------------------------------

class Server:
    """One ``repro serve`` child, from spawn to first healthy reply."""

    def __init__(self, runner: Runner, label: str, ingest: bool):
        self.runner = runner
        self.label = label
        self.out = runner.workdir / f"{label}.json"
        args = [
            "--world-seed", str(WORLD_SEED),
            "--scale", str(runner.scale),
            "--cache-dir", str(runner.cache_dir),
            "--inputs", str(runner.workdir / "inputs"),
            "--out", str(self.out),
        ]
        if ingest:
            args.append("--ingest")
        if runner.trace:
            args.append("--trace")
        self.spawned = time.time()
        self.proc = runner.spawn("serve_child.py", args, f"{label}.stderr", stdout=subprocess.PIPE)
        self.port: Optional[int] = None
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        threading.Thread(target=self._drain, daemon=True).start()

    def _drain(self) -> None:
        for raw in self.proc.stdout:
            self._lines.put(raw.decode("utf-8", "replace"))
        self._lines.put(None)

    def alive(self) -> bool:
        return self.proc.poll() is None

    def wait_healthy(self) -> Optional[float]:
        """Seconds from spawn to the first 200 from /v1/healthz, or None."""
        deadline = time.monotonic() + SETUP_TIMEOUT_S
        while self.port is None and time.monotonic() < deadline:
            try:
                line = self._lines.get(timeout=0.05)
            except queue.Empty:
                if not self.alive():
                    return None
                continue
            if line is None:
                return None
            match = PORT_LINE.search(line)
            if match:
                self.port = int(match.group(1))
        while self.port is not None and time.monotonic() < deadline:
            try:
                status, _body = self.get("/v1/healthz", timeout=5.0)
                if status == 200:
                    return time.time() - self.spawned
            except OSError:
                pass
            if not self.alive():
                return None
            time.sleep(0.01)
        return None

    def get(self, path: str, timeout: float = 30.0) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def get_json(self, path: str) -> Optional[dict]:
        try:
            status, body = self.get(path)
        except (OSError, http.client.HTTPException):
            return None
        return json.loads(body) if status == 200 else None

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()

    def shutdown(self) -> Optional[dict]:
        """SIGTERM (handled as Ctrl-C), wait, read the result file."""
        if self.alive():
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            return None
        return read_json(self.out) if self.out.exists() else None


def _latency_metrics(outcome: Outcome, name: str, values: List[float], tail: bool) -> None:
    if not values:
        return
    outcome.put(f"{name}_p50_ms", median(values) * 1000.0, "ms", len(values), "median")
    if tail:
        pct = tail_percentile(len(values))
        outcome.put(f"{name}_tail_ms", percentile(values, pct) * 1000.0, "ms", len(values), f"p{pct:g}")


def run_serve(runner: Runner, ingest: bool) -> Tuple[Outcome, dict]:
    from client import ENDPOINTS, LoadClient
    from loadgen import build_traffic

    outcome = Outcome("serve_ingest" if ingest else "serve_read")
    extras: dict = {"request_log": [], "cache_stats": None, "cursors_expired": 0, "server_rss_mb": 0.0}
    batch_count = 1 + int(runner.seconds / INGEST_INTERVAL_S) + 1 if ingest else 0
    cold = cold_phase(
        runner, outcome, ["--emit", str(runner.workdir / "inputs"), "--batches", str(batch_count)]
    )
    if cold is None:
        return outcome, extras
    inputs = read_json(runner.workdir / "inputs" / "inputs.json")
    traffic = build_traffic(
        inputs["entries"],
        runner.seed,
        ops_per_client=max(2000, runner.seconds * 500),
        tail_feed=ingest,
        touched=set(inputs["touched"]),
    )
    expected_feed = {int(g): tuple(v) for g, v in inputs["expected_feed"].items()}

    # -- set-up, several times; the last server carries the traffic -----------
    setups = []
    server = None
    repeats = SETUP_REPEATS[outcome.workload]
    for repeat in range(repeats):
        candidate = Server(runner, f"server{repeat}", ingest)
        took = candidate.wait_healthy()
        if took is None:
            outcome.check(f"server{repeat} became healthy", False, runner.stderr_tail(f"server{repeat}.stderr"))
            candidate.kill()
            break
        setups.append(took)
        if repeat < repeats - 1:
            candidate.kill()
        else:
            server = candidate
    if setups:
        outcome.put("setup_s", median(setups), "s", len(setups), "median")
    if server is None:
        outcome.failed += 1
        outcome.attempted += 1
        return outcome, extras

    # -- the timed region ------------------------------------------------------
    if ingest:
        write_json(runner.workdir / "go.json", {"t0": time.time(), "seconds": runner.seconds})
    started = time.monotonic()
    clients = [
        LoadClient(
            number,
            server.port,
            traffic,
            started + runner.seconds,
            server.alive,
            expected_feed=expected_feed,
            record_ids=runner.trace,
        )
        for number in range(CLIENTS)
    ]
    for client in clients:
        client.start()
    for client in clients:
        client.join(timeout=runner.seconds + 60)
    wall = time.monotonic() - started
    crashed = any(client.crashed for client in clients) or not server.alive()

    stats = None if crashed else server.get_json("/v1/stats")
    served = None if crashed else server.get_json("/v1/metrics")
    hwm = 0.0 if crashed else vmhwm_mb(str(server.proc.pid))
    result = server.shutdown()

    # -- books -------------------------------------------------------------------
    attempted = sum(client.attempted for client in clients)
    failed = sum(client.failed for client in clients)
    completed = sum(len(v) for client in clients for v in client.latency.values())
    outcome.attempted += attempted
    outcome.failed += failed
    outcome.check("server kept running", not crashed)
    outcome.check("no failed requests", failed == 0, "; ".join(f for c in clients for f in c.failures))
    mismatches = sum(client.mismatches for client in clients)
    labelled = sum(client.checked_labels for client in clients)
    outcome.check(
        "labelled verdicts",
        mismatches == 0 and labelled > 0,
        f"{mismatches} of {labelled} wrong; " + "; ".join(e for c in clients for e in c.mismatch_examples),
    )
    if served is not None and failed == 0:
        for kind, path in ENDPOINTS.items():
            sent = sum(client.sent[path] for client in clients)
            counted = served["endpoints"].get(path, {}).get("requests", 0)
            outcome.check(f"/v1/metrics counts {path}", sent == counted, f"sent {sent}, counted {counted}")
    outcome.check("server result written", result is not None and result.get("rc") == 0,
                  runner.stderr_tail(f"server{repeats - 1}.stderr"))

    outcome.put("peak_rss_mb", hwm, "MiB", 1, "VmHWM of the server process")
    outcome.put("rps", completed / wall, "req/s", completed)
    merged = {kind: [x for client in clients for x in client.latency[kind]] for kind in ENDPOINTS}
    _latency_metrics(outcome, "enrich", merged["enrich"], tail=True)
    _latency_metrics(outcome, "batch", merged["batch"], tail=True)
    _latency_metrics(outcome, "query", merged["query"], tail=False)

    if ingest:
        log = (result or {}).get("writer", [])
        scheduled = (result or {}).get("scheduled", 0)
        bootstrap = (result or {}).get("bootstrap", {})
        outcome.attempted += 1 + scheduled
        failed_batches = sum(1 for entry in log if not entry["ok"]) + (0 if bootstrap.get("ok") else 1)
        failed_batches += max(0, scheduled - len(log))
        outcome.failed += failed_batches
        outcome.check("event batches applied", failed_batches == 0 and scheduled > 0,
                      f"{failed_batches} failed of {1 + scheduled}")
        lags = [entry["published"] - entry["due"] for entry in log if entry["ok"]]
        if lags:
            outcome.put("publish_lag_s", median(lags), "s", len(lags), "median")
        feed_errors = [e for client in clients for e in client.feed_errors]
        walks = sum(client.feed_walks for client in clients)
        outcome.check("feed walks complete, no duplicate or missing item",
                      not feed_errors and walks > 0, f"{walks} walks; " + "; ".join(feed_errors[:5]))
        outcome.check("evolved graph equals a cold rebuild",
                      bool((result or {}).get("graph_matches_rebuild")))
        outcome.check("served dataset equals the batches replayed",
                      bool((result or {}).get("dataset_matches_reference")))
        extras["cursors_expired"] = sum(client.cursors_expired for client in clients)
    outcome.put("error_rate", outcome.failed / max(1, outcome.attempted), "ratio", outcome.attempted)

    extras["cache_stats"] = stats
    extras["verdicts"] = sum((client.verdicts for client in clients), Counter())
    extras["server_rss_mb"] = hwm
    extras["request_log"] = [entry for client in clients for entry in client.request_log]
    if result is not None and result.get("spans") is not None:
        outcome.processes.append(("server", server.proc.pid, result["spans"]))
    return outcome, extras
