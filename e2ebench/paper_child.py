"""One analyst process: resolve the stages through ``PaperArtifacts`` and
render all 16 ``repro.cli.EXPERIMENTS``.

Run by run.py as a fresh process, either on an empty cache directory
(cold) or over the cache a cold process left (warm). The workload seed
fixes the order the experiments are rendered in; the tables digest is
taken in ``EXPERIMENTS`` order, so it does not depend on the seed. With ``--probe``
it only imports ``repro`` and exits, which measures set-up time. With
``--emit DIR`` it also writes the serving workloads' inputs after the
measured region: the corpus listing, and the ingest event batches with
the feed each generation must serve.

The result file records the timestamps run.py turns into
``setup_s`` and ``cold_s``/``warm_s``, the process's VmHWM after the
last render, the digests of the canonical MALGRAPH and of the rendered
tables, the corpus counts, and the spans when ``--trace`` is on.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    import repro  # noqa: F401  (set-up ends when the package is imported)

    imported = time.time()

    parser = argparse.ArgumentParser()
    parser.add_argument("--world-seed", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--emit", default=None)
    parser.add_argument("--batches", type=int, default=0)
    args = parser.parse_args()

    from common import sha256_text, vmhwm_mb, write_json

    out = Path(args.out)
    result = {"imported": imported}
    if args.probe:
        write_json(out, result)
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)

    from repro import pipeline
    from repro.cli import EXPERIMENTS
    from repro.paper import PaperArtifacts
    from repro.world import WorldConfig

    pipeline.configure(cache_dir=args.cache_dir)
    artifacts = PaperArtifacts(WorldConfig(seed=args.world_seed, scale=args.scale))
    order = list(EXPERIMENTS)
    random.Random(args.seed).shuffle(order)

    def render(key: str) -> str:
        held = getattr(artifacts, EXPERIMENTS[key])()
        if held is None:
            return f"{key}: no qualifying data in this world"
        return held.render()

    texts = {}
    renders = {}
    failures = []
    for key in order:
        started = time.perf_counter()
        try:
            if tracer is not None:
                text = tracer.span(f"analysis.{key}", "analysis", render, key)
            else:
                text = render(key)
        except Exception:  # noqa: BLE001 - a failed render is counted, not fatal
            failures.append({"experiment": key, "error": traceback.format_exc()})
            text = f"{key}: render failed"
        renders[key] = time.perf_counter() - started
        texts[key] = text
    done = time.time()
    result.update(done=done, renders=renders, failures=failures, hwm_mb=vmhwm_mb())

    # -- after the measured region: digests, counts, serving inputs --------
    if tracer is not None:
        tracer.enabled = False
        from tracing import export_spans

        result["spans"] = export_spans(tracer)
    from repro.io.malgraphs import canonical_malgraph_json

    dataset = artifacts.dataset
    result.update(
        tables_sha256=sha256_text("\n\n".join(texts[key] for key in EXPERIMENTS)),
        malgraph_sha256=sha256_text(canonical_malgraph_json(artifacts.malgraph)),
        entries=len(dataset.entries),
        artifacts=sum(1 for entry in dataset.entries if entry.artifact is not None),
    )
    if args.emit:
        emit_serving_inputs(Path(args.emit), dataset, args.seed, args.batches)
    write_json(out, result)
    return 0


def emit_serving_inputs(directory: Path, dataset, seed: int, batches: int) -> None:
    """Corpus listing (+ ingest batches and feed expectations) for the
    load clients and the server process."""
    from common import write_json

    directory.mkdir(parents=True, exist_ok=True)
    listing = [
        [e.package.ecosystem, e.package.name, e.package.version, e.sha256()]
        for e in dataset.entries
    ]
    payload = {"entries": listing, "touched": [], "expected_feed": {}, "batch_files": []}
    if batches:
        from events import make_batches, write_batches

        made, expected_feed, touched = make_batches(dataset, seed, batches)
        payload.update(
            touched=sorted(touched),
            expected_feed={str(g): list(v) for g, v in expected_feed.items()},
            batch_files=write_batches(made, directory),
        )
    write_json(directory / "inputs.json", payload)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - run.py reads the exit code
        traceback.print_exc()
        sys.exit(1)
