"""The server process: the real ``repro serve`` entry point.

Runs ``repro.cli.main([... "serve", "--port", "0"])`` with the CLI
defaults (4096-entry LRU, 8 shards) over a pre-warmed cache. The bound
port is read from the server's own start-up line on stdout. SIGINT
stops it the way Ctrl-C does.

With ``--ingest`` a writer thread shares the process. ``build_service``
is wrapped at the binding ``cmd_serve`` looks up, so the writer gets the
service and the graph it was built from. The bootstrap batch goes
through ``refresh_from_events(..., service=..., malgraph=...)`` before
the server binds, so set-up time includes it and the graph evolves in
place while no reader exists. The scheduled batches start once run.py
writes ``go.json``. Batch *i* is due at ``t0 + i * interval`` and goes
through ``refresh_from_events(..., service=...)``, the snapshot path:
the index is cloned, the batch applied to the clone and the clone
published as the next generation. They leave out ``malgraph=`` because
reads running beside an in-place graph evolution fail (see README.md).
The schedule does not wait for the writer, so lag builds up when the
writer falls behind. After shutdown the evolved graph is compared with
a cold ``MalGraph.build`` over the post-bootstrap dataset, and the
served dataset with the batches replayed over the cold dataset.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
import traceback
from pathlib import Path


class Writer(threading.Thread):
    """Applies the scheduled event batches inside the server process."""

    def __init__(self, batches, go_file: Path, interval: float):
        super().__init__(name="e2ebench-writer", daemon=True)
        self.batches = batches
        self.go_file = go_file
        self.interval = interval
        self.service = None
        self.stop = threading.Event()
        self.log = []
        self.applied = []  # batch numbers published, in order
        self.scheduled = 0  # batches due within the traffic window

    def apply(self, number: int, malgraph=None) -> dict:
        from repro.service.refresh import refresh_from_events

        started = time.time()
        ok = True
        error = None
        try:
            refresh_from_events(
                self.service.index,
                self.batches[number],
                service=self.service,
                malgraph=malgraph,
            )
            self.applied.append(number)
        except Exception:  # noqa: BLE001 - a failed batch is counted
            ok = False
            error = traceback.format_exc()
        return {
            "batch": number,
            "events": len(self.batches[number]),
            "started": started,
            "published": time.time(),
            "generation": self.service.generation,
            "ok": ok,
            "error": error,
        }

    def run(self) -> None:
        while not self.go_file.exists():
            if self.stop.wait(0.005):
                return
        go = json.loads(self.go_file.read_text())
        t0, seconds = go["t0"], go["seconds"]
        number = 1
        while number < len(self.batches) and number * self.interval < seconds:
            due = t0 + number * self.interval
            wait = due - time.time()
            if wait > 0 and self.stop.wait(wait):
                break
            entry = self.apply(number)
            entry["due"] = due
            self.log.append(entry)
            number += 1
        self.scheduled = number - 1


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--world-seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--ingest", action="store_true")
    args = parser.parse_args()

    import repro  # noqa: F401
    import repro.cli
    import repro.service

    from common import INGEST_INTERVAL_S, vmhwm_mb, write_json

    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)

    inputs_dir = Path(args.inputs)
    writer = None
    bootstrap = {}
    captured = {}
    if args.ingest:
        from repro.core.delta.events import events_from_jsonl

        listing = json.loads((inputs_dir / "inputs.json").read_text())
        batches = [events_from_jsonl(inputs_dir / name) for name in listing["batch_files"]]
        writer = Writer(batches, Path(args.out).with_name("go.json"), INGEST_INTERVAL_S)

    original_build_service = repro.service.build_service

    def build_service(malgraph, *a, **kw):
        service = original_build_service(malgraph, *a, **kw)
        captured["service"], captured["malgraph"] = service, malgraph
        if writer is not None:
            writer.service = service
            bootstrap.update(writer.apply(0, malgraph))
            writer.start()
        return service

    repro.service.build_service = build_service
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    rc = repro.cli.main(
        [
            "--seed", str(args.world_seed),
            "--scale", str(args.scale),
            "--cache-dir", args.cache_dir,
            "serve", "--host", "127.0.0.1", "--port", "0",
        ]
    )
    result = {"rc": rc, "hwm_mb": vmhwm_mb(), "bootstrap": bootstrap}

    # -- after the timed region --------------------------------------------
    if writer is not None:
        writer.stop.set()
        writer.join()
        result["writer"] = writer.log
        result["scheduled"] = writer.scheduled
    if tracer is not None:
        tracer.enabled = False
        from tracing import export_spans

        result["spans"] = export_spans(tracer)
    if writer is not None and captured:
        result["graph_matches_rebuild"] = graph_matches_rebuild(
            captured["malgraph"], writer, args
        )
        result["dataset_matches_reference"] = dataset_matches_reference(
            captured["service"].index.dataset, writer, args
        )
    write_json(Path(args.out), result)
    return 0


def cold_dataset(args):
    """A fresh load of the dataset the server started from."""
    from repro.pipeline import ArtifactStore, PipelineRuntime
    from repro.world import WorldConfig

    fresh = PipelineRuntime(
        WorldConfig(seed=args.world_seed, scale=args.scale),
        store=ArtifactStore(cache_dir=args.cache_dir),
    )
    return fresh.dataset()


def graph_matches_rebuild(malgraph, writer: Writer, args) -> bool:
    """The graph the bootstrap batch evolved equals a cold build over the
    post-bootstrap dataset (the scheduled batches leave it alone)."""
    from repro.core.delta import apply_events_to_dataset
    from repro.core.malgraph import MalGraph
    from repro.io.malgraphs import canonical_malgraph_json
    from repro.pipeline import get_store

    if 0 not in writer.applied:
        return False
    dataset = apply_events_to_dataset(cold_dataset(args), writer.batches[0])
    rebuilt = MalGraph.build(dataset, store=get_store())
    return canonical_malgraph_json(malgraph) == canonical_malgraph_json(rebuilt)


def dataset_matches_reference(served, writer: Writer, args) -> bool:
    """The served dataset equals the applied batches replayed over the
    cold dataset, entry by entry and in order."""
    from repro.core.delta import apply_events_to_dataset
    from repro.io.datasets import entry_to_dict, report_to_dict

    dataset = cold_dataset(args)
    for number in writer.applied:
        dataset = apply_events_to_dataset(dataset, writer.batches[number])

    def rows(held):
        return (
            [entry_to_dict(entry, include_artifact=False) for entry in held.entries],
            [report_to_dict(report) for report in held.reports],
        )

    return rows(served) == rows(dataset)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - run.py reads the exit code
        traceback.print_exc()
        sys.exit(1)
