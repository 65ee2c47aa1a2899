"""Span wrappers installed from the benchmark's own files.

:func:`install` patches the public entry points of every layer (see
:data:`TARGETS`) so each call records a span: name, layer, start,
duration, thread, its own id, the id of the span that caused it, the
time its child spans covered, and a few counters taken at the boundary.
Class methods are patched on the class. A module function is rebound in
every loaded ``repro`` module that holds it, which is the binding its
callers look up. Nothing under ``src/`` changes.

Spans stay in memory. A child process hands them to run.py in its
result file, and run.py writes Chrome trace-event JSON
(:func:`chrome_trace`), which Perfetto and ``about:tracing`` open.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from common import vmhwm_mb

#: a recorded span: name, layer, start_ns, dur_ns, child_ns, tid, id, parent, attrs
Span = Tuple[str, str, int, int, int, int, int, int, Dict]


class Tracer:
    """In-memory span recorder shared by every wrapper in one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()

    def stack(self) -> list:
        held = getattr(self._local, "stack", None)
        if held is None:
            held = self._local.stack = []
        return held

    def wrap(self, fn: Callable, name: str, layer: str, attrs=None, pre=None) -> Callable:
        tracer = self
        clock = time.monotonic_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer.stack()
            parent = stack[-1] if stack else None
            frame = [next(tracer._ids), 0]  # id, child_ns
            state = pre(args, kwargs) if pre is not None else None
            stack.append(frame)
            result = None
            started = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = clock() - started
                stack.pop()
                if parent is not None:
                    parent[1] += duration
                extra = attrs(args, kwargs, result, state) if attrs is not None else {}
                tracer.spans.append(
                    (
                        name,
                        layer,
                        started,
                        duration,
                        frame[1],
                        threading.get_ident(),
                        frame[0],
                        parent[0] if parent is not None else 0,
                        extra,
                    )
                )

        return traced

    def span(self, name: str, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside one span (for the benchmark's own loops)."""
        return self.wrap(fn, name, layer)(*args, **kwargs)


# -- boundary counters ---------------------------------------------------------

def _rss(args, kwargs, result, state) -> Dict:
    return {"rss_mb": round(vmhwm_mb(), 2)}


def _collection(args, kwargs, result, state) -> Dict:
    held = _rss(args, kwargs, result, state)
    if result is not None:
        held["entries"] = len(result.dataset.entries)
    return held


def _recovery(args, kwargs, result, state) -> Dict:
    if result is None:
        return {}
    return {"attempted": result.attempted, "recovered": result.recovered}


def _embed_pre(args, kwargs):
    artifacts = args[1] if len(args) > 1 else kwargs.get("artifacts", ())
    cache = kwargs.get("cache", args[3] if len(args) > 3 else None)
    unique = {artifact.sha256() for artifact in artifacts}
    hits = sum(1 for sha in unique if cache is not None and sha in cache)
    return {"artifacts": len(artifacts), "unique": len(unique), "cache_hits": hits}


def _embed(args, kwargs, result, state) -> Dict:
    return state


def _store_stage(args, kwargs, result, state) -> Dict:
    return {"stage": args[1] if len(args) > 1 else kwargs.get("stage")}


def _store_put(args, kwargs, result, state) -> Dict:
    store, stage, fingerprint = args[0], args[1], args[2]
    written = 0
    directory = store.cache_dir / stage / fingerprint
    if result:
        for root, _dirs, files in os.walk(directory):
            for name in files:
                try:
                    written += os.path.getsize(os.path.join(root, name))
                except OSError:
                    pass
    return {"stage": stage, "bytes": written}


def _verdict(args, kwargs, result, state) -> Dict:
    return {"verdict": getattr(result, "verdict", None)}


def _batch_size(args, kwargs, result, state) -> Dict:
    return {"items": len(args[1]) if len(args) > 1 else 0}


def _request_id(args, kwargs, result, state) -> Dict:
    handler = args[0]
    headers = getattr(handler, "headers", None)
    return {"rid": headers.get("X-Request-Id") if headers is not None else None}


def _rows(args, kwargs, result, state) -> Dict:
    return {"rows": getattr(result, "row_count", 0)}


def _events(args, kwargs, result, state) -> Dict:
    events = args[1] if len(args) > 1 else kwargs.get("events", ())
    return {"events": len(events)}


#: (module, attribute path, layer, counters, pre-call hook)
TARGETS: Sequence[Tuple[str, str, str, Optional[Callable], Optional[Callable]]] = (
    ("repro.world", "build_world", "world", _rss, None),
    ("repro.malware.corpus", "build_corpus", "world", None, None),
    ("repro.ecosystem.mirror", "MirrorRegistry.sync", "world", None, None),
    ("repro.intel.sources", "AttributionEngine.attribute", "world", None, None),
    ("repro.intel.reports", "ReportFactory.build", "world", None, None),
    ("repro.intel.web", "build_web", "world", None, None),
    ("repro.intel.sns", "build_feed", "world", None, None),
    ("repro.collection.pipeline", "CollectionPipeline.run", "collection", _collection, None),
    ("repro.crawler.spider", "Spider.crawl", "collection", None, None),
    ("repro.crawler.html", "MiniSoup.__init__", "collection", None, None),
    ("repro.collection.mirrorsearch", "recover_from_mirrors", "collection", _recovery, None),
    ("repro.core.columnar.tables", "ColumnarDataset.from_dataset", "columnar", None, None),
    ("repro.pipeline.stages", "ColumnarCodec.load", "columnar", None, None),
    ("repro.core.malgraph", "MalGraph.build", "malgraph", _rss, None),
    ("repro.core.embedding", "AstEmbedder.embed_many", "malgraph", _embed, _embed_pre),
    ("repro.core.kmeans", "grow_kmeans", "malgraph", None, None),
    ("repro.core.edges", "build_duplicated_edges", "malgraph", None, None),
    ("repro.core.edges", "build_dependency_edges", "malgraph", None, None),
    ("repro.core.edges", "build_similar_edges", "malgraph", None, None),
    ("repro.core.edges", "build_coexisting_edges", "malgraph", None, None),
    ("repro.pipeline.store", "ArtifactStore.put_disk", "store", _store_put, None),
    ("repro.pipeline.store", "ArtifactStore.get_disk", "store", _store_stage, None),
    ("repro.service.index", "IntelIndex.build", "index", None, None),
    ("repro.service.index", "IntelIndex.clone", "index", None, None),
    ("repro.service.index", "IntelIndex.replace_groups", "index", None, None),
    ("repro.service.enrich", "EnrichmentEngine.enrich", "enrich", _verdict, None),
    ("repro.service.cache", "EnrichmentService.enrich", "cache", None, None),
    ("repro.service.cache", "EnrichmentService.batch_enrich", "enrich", _batch_size, None),
    ("repro.service.cache", "EnrichmentService.publish", "cache", None, None),
    ("repro.service.server", "IntelRequestHandler.do_GET", "server", _request_id, None),
    ("repro.service.server", "IntelRequestHandler.do_POST", "server", _request_id, None),
    ("repro.core.query.engine", "QueryEngine.run", "query", _rows, None),
    ("repro.service.refresh", "refresh_from_events", "refresh", None, None),
    ("repro.core.malgraph", "MalGraph.apply_delta", "delta", _events, None),
    ("repro.service.feed", "FeedExporter.page", "feed", None, None),
)


def _rebind_function(original: Callable, wrapped: Callable) -> int:
    """Replace ``original`` in every loaded ``repro`` module namespace."""
    count = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = getattr(module, "__dict__", {})
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapped
                count += 1
    return count


def install(tracer: Tracer) -> List[str]:
    """Wrap every target; returns the span names installed."""
    for module_name, _path, _layer, _attrs, _pre in TARGETS:
        importlib.import_module(module_name)
    # Modules the entry points import lazily must be loaded too, so every
    # binding a caller looks up is rebound.
    for module_name in ("repro.cli", "repro.paper", "repro.service", "repro.core.delta.engine"):
        importlib.import_module(module_name)
    installed = []
    for module_name, path, layer, attrs, pre in TARGETS:
        module = sys.modules[module_name]
        if "." in path:
            class_name, method = path.split(".", 1)
            owner = getattr(module, class_name)
            raw = inspect.getattr_static(owner, method)
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(raw.__func__, path, layer, attrs, pre))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(tracer.wrap(raw.__func__, path, layer, attrs, pre))
            else:
                wrapped = tracer.wrap(raw, path, layer, attrs, pre)
            setattr(owner, method, wrapped)
        else:
            original = getattr(module, path)
            _rebind_function(original, tracer.wrap(original, path, layer, attrs, pre))
        installed.append(path)
    return installed


def export_spans(tracer: Tracer) -> List[list]:
    """Spans as JSON-safe lists for a child's result file."""
    return [list(span) for span in tracer.spans]


def chrome_trace(processes: Sequence[Tuple[str, int, List[list]]]) -> Dict:
    """Chrome trace-event JSON for ``(label, pid, spans)`` per process.

    Complete ("X") events carry the span id, its parent and its self
    time in ``args``. Timestamps share one monotonic clock, so the
    processes line up on one time axis.
    """
    events: List[Dict] = []
    for label, pid, spans in processes:
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "args": {"name": label}}
        )
        for name, layer, start, duration, child, tid, sid, parent, attrs in spans:
            args = dict(attrs)
            args.update(id=sid, parent=parent, self_us=round((duration - child) / 1000.0, 3))
            events.append(
                {
                    "name": name,
                    "cat": layer,
                    "ph": "X",
                    "ts": start / 1000.0,
                    "dur": duration / 1000.0,
                    "pid": pid,
                    "tid": tid % 2**31,
                    "args": args,
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: Path, processes) -> None:
    path.write_text(json.dumps(chrome_trace(processes)))
