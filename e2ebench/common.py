"""Helpers shared by run.py and its child processes.

Nothing here imports ``repro``: run.py's process is the load client
and stays free of the system under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: the benchmark's own directory (holds this file and the child scripts)
BENCH_DIR = Path(__file__).resolve().parent

#: world scale every workload runs at (5,955 entries at seed 7)
SCALE = 2.0

#: the world every workload runs on: WorldConfig(seed=WORLD_SEED, scale=SCALE).
#: It is the benchmark's fixed sampling frame; the workload seed
#: (``--seed``) drives the traffic, the event batches and the render order.
WORLD_SEED = 7

#: default workload seed
DEFAULT_SEED = 7

#: the ``repro serve`` LRU capacity the serving workloads run with (CLI default)
LRU_CAPACITY = 4096

#: closed-loop clients (= connections in flight) for the serving workloads
CLIENTS = 2

#: cold analyst processes per run; ``cold_s`` is their median. In the
#: serving workloads one cold process fills the server's cache; a second
#: would add about 12 s to a serving run of about 32 s.
COLD_REPEATS = {"paper": 2, "serve_read": 1, "serve_ingest": 1}

#: how many times a run starts the system to take the median set-up time.
#: A ``serve_ingest`` start includes the bootstrap event batch and takes
#: about 10 s, so it starts once.
SETUP_REPEATS = {"paper": 5, "serve_read": 2, "serve_ingest": 1}

#: seconds between two scheduled event batches in ``serve_ingest``
INGEST_INTERVAL_S = 2.0

#: feed page size the tailing client asks for
FEED_PAGE_LIMIT = 1000

#: the percentile ladder a tail is picked from (see :func:`tail_percentile`)
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def source_root(root: Path) -> Optional[Path]:
    """``<root>/src`` when it holds the ``repro`` package, else None."""
    src = root / "src"
    return src if (src / "repro" / "__init__.py").is_file() else None


def child_env(root: Path) -> Dict[str, str]:
    """Environment for a child process: ``repro`` from the checkout's
    ``src``, the benchmark's helpers importable, no user cache touched."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(BENCH_DIR)])
    env.pop("REPRO_CACHE_DIR", None)
    env.pop("REPRO_NO_DISK_CACHE", None)
    return env


def cpu_split() -> Tuple[Optional[Set[int]], Optional[Set[int]]]:
    """(load-client CPUs, system CPUs), or (None, None) on one CPU.

    run.py, whose threads are the load clients, runs on the first
    allowed CPU. Every measured process runs on the last one. A GIL-bound
    server whose threads migrate between cores measured up to 2x slower
    in some runs than in others; pinning removes that placement noise
    and keeps the client from competing with the server for a core.
    """
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return None, None
    return {allowed[0]}, {allowed[-1]}


def python_cmd(script: str, *args: str) -> List[str]:
    """Argv running one of the benchmark's child scripts unbuffered."""
    return [sys.executable, "-u", str(BENCH_DIR / script), *args]


def vmhwm_mb(pid: str = "self") -> float:
    """Peak resident set (VmHWM) of a process in MiB; 0.0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (which must be non-empty)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it.

    Fixed from the sample count alone, so two runs with similar counts
    report the same percentile. Falls back to the median for fewer than
    twenty samples.
    """
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if round(count * (100.0 - pct), 6) >= 1000.0:
            chosen = pct
    return chosen


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_json(path: Path, obj) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(obj, sort_keys=True))
    os.replace(tmp, path)


def read_json(path: Path):
    return json.loads(path.read_text())


def feed_id(ecosystem: str, name: str, version: str) -> str:
    """The id ``/v1/feed`` gives the indicator for one package."""
    return f"indicator--{ecosystem}--{name}--{version}"


def id_set_digest(ids: Iterable[str]) -> str:
    """Order-free digest of a set of feed ids."""
    return sha256_text("\n".join(sorted(ids)))
