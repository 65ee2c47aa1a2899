"""Per-layer metrics from the spans of one traced run.

``paper`` takes its analyst-layer figures (world, collection,
columnar encoding, MALGRAPH, store save, analysis) from the traced cold
process alone, so they show the path ``cold_s`` measures. The first
warm process reports under its own ``warm_*`` names, and its disk loads
under ``store.load_*``. The serving workloads take their figures from
the server process that carried the traffic. The cold process that
pre-warms their cache is reported only as ``cold_s``. A layer that
does no work on a workload reports 0, which is the no-change
prediction for that pairing.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from common import median, percentile, tail_percentile

#: paper experiments, in ``repro.cli.EXPERIMENTS`` order
EXPERIMENT_KEYS = (
    "table1", "fig2", "table2", "fig3", "table3", "table4", "fig4", "table5",
    "table6", "fig5", "table7", "fig8", "fig9", "fig11", "fig12", "table8",
)

VERDICTS = ("malicious", "suspicious", "unknown")

#: service calls whose time a request span's own time is compared with
SERVICE_CALLS = (
    "EnrichmentService.enrich",
    "EnrichmentService.batch_enrich",
    "QueryEngine.run",
    "FeedExporter.page",
)

NS = 1e9


class Spans:
    """Index over the spans of a set of processes."""

    def __init__(self, spans: Iterable[Sequence]):
        self.by_name: Dict[str, List[Sequence]] = defaultdict(list)
        self.count = 0
        for span in spans:
            self.by_name[span[0]].append(span)
            self.count += 1

    def total_s(self, *names: str) -> float:
        return sum(span[3] for name in names for span in self.by_name[name]) / NS

    def self_s(self, *names: str) -> float:
        return sum(span[3] - span[4] for name in names for span in self.by_name[name]) / NS

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def attr_sum(self, name: str, key: str) -> float:
        return sum(span[8].get(key) or 0 for span in self.by_name[name])

    def first_attr(self, name: str, key: str) -> float:
        for span in sorted(self.by_name[name], key=lambda s: s[2]):
            if span[8].get(key) is not None:
                return span[8][key]
        return 0.0

    def durations(self, name: str, where=None) -> List[float]:
        return [span[3] / NS for span in self.by_name[name] if where is None or where(span)]


def _p50(values: List[float], scale: float) -> float:
    return median(values) * scale if values else 0.0


def _tail(values: List[float], scale: float) -> float:
    return percentile(values, tail_percentile(len(values))) * scale if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def server_overhead_ms(server: Spans, request_log: Sequence[Tuple[str, str, float]]) -> float:
    """Median of client latency minus the service call inside the request."""
    service_ns: Dict[int, int] = {}
    for name in SERVICE_CALLS:
        for span in server.by_name[name]:
            service_ns[span[7]] = service_ns.get(span[7], 0) + span[3]
    by_rid: Dict[str, int] = {}
    for name in ("IntelRequestHandler.do_GET", "IntelRequestHandler.do_POST"):
        for span in server.by_name[name]:
            rid = span[8].get("rid")
            if rid is not None:
                by_rid[rid] = service_ns.get(span[6], 0)
    overheads = [
        latency - by_rid[rid] / NS for rid, _kind, latency in request_log if rid in by_rid
    ]
    return _p50(overheads, 1000.0)


def layer_metrics(
    cold: Spans,
    warm: Spans,
    server: Spans,
    request_log: Sequence[Tuple[str, str, float]] = (),
    cache_stats: Optional[dict] = None,
    cursors_expired: int = 0,
    server_rss_mb: float = 0.0,
    span_total: int = 0,
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``cold`` holds the traced cold analyst process's spans, ``warm`` the
    first warm process's, and ``server`` the serving process's.
    """
    a, w, s = cold, warm, server
    cache = (cache_stats or {}).get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    embedded = a.attr_sum("AstEmbedder.embed_many", "unique")
    recovery_attempts = a.attr_sum("recover_from_mirrors", "attempted")
    out: Dict[str, Tuple[float, str]] = {
        # world
        "world.build_s": (a.total_s("build_world"), "s"),
        "world.warm_build_s": (w.total_s("build_world"), "s"),
        "world.corpus_s": (a.total_s("build_corpus"), "s"),
        "world.mirror_sync_s": (a.total_s("MirrorRegistry.sync"), "s"),
        "world.mirror_sync_calls": (a.calls("MirrorRegistry.sync"), "count"),
        "world.intel_s": (
            a.total_s("AttributionEngine.attribute", "ReportFactory.build", "build_web", "build_feed"),
            "s",
        ),
        "world.rss_mb": (a.first_attr("build_world", "rss_mb"), "MiB"),
        # collection
        "collection.run_s": (a.total_s("CollectionPipeline.run"), "s"),
        "crawler.crawl_s": (a.total_s("Spider.crawl"), "s"),
        "crawler.parse_s": (a.total_s("MiniSoup.__init__"), "s"),
        "crawler.pages": (a.calls("MiniSoup.__init__"), "count"),
        "collection.mirror_recover_s": (a.total_s("recover_from_mirrors"), "s"),
        "collection.mirror_recovery_ratio": (
            _ratio(a.attr_sum("recover_from_mirrors", "recovered"), recovery_attempts),
            "ratio",
        ),
        "collection.entries": (a.first_attr("CollectionPipeline.run", "entries"), "count"),
        "collection.rss_mb": (a.first_attr("CollectionPipeline.run", "rss_mb"), "MiB"),
        # columnar
        "columnar.encode_s": (a.total_s("ColumnarDataset.from_dataset") + s.total_s("ColumnarDataset.from_dataset"), "s"),
        "columnar.load_s": (w.total_s("ColumnarCodec.load") + s.total_s("ColumnarCodec.load"), "s"),
        # malgraph
        "malgraph.build_s": (a.total_s("MalGraph.build"), "s"),
        "malgraph.embed_s": (a.total_s("AstEmbedder.embed_many"), "s"),
        "malgraph.embed_artifacts": (embedded, "count"),
        "malgraph.embed_cache_hit_ratio": (
            _ratio(a.attr_sum("AstEmbedder.embed_many", "cache_hits"), embedded),
            "ratio",
        ),
        "malgraph.cluster_s": (a.total_s("grow_kmeans"), "s"),
        "malgraph.edges_s": (
            a.self_s(
                "build_duplicated_edges",
                "build_dependency_edges",
                "build_similar_edges",
                "build_coexisting_edges",
            ),
            "s",
        ),
        "malgraph.rss_mb": (a.first_attr("MalGraph.build", "rss_mb"), "MiB"),
        # store
        "store.save_s": (a.total_s("ArtifactStore.put_disk"), "s"),
        "store.bytes_written": (a.attr_sum("ArtifactStore.put_disk", "bytes"), "bytes"),
    }
    for stage in ("collection", "malgraph", "columnar"):
        loads = [
            span[3]
            for spans in (w, s)
            for span in spans.by_name["ArtifactStore.get_disk"]
            if span[8].get("stage") == stage
        ]
        out[f"store.load_{stage}_s"] = (sum(loads) / NS, "s")
    # analysis
    tables = 0.0
    for key in EXPERIMENT_KEYS:
        seconds = a.self_s(f"analysis.{key}")
        tables += seconds
        out[f"analysis.{key}_s"] = (seconds, "s")
    out["analysis.tables_s"] = (tables, "s")
    out["analysis.warm_tables_s"] = (
        sum(w.self_s(f"analysis.{key}") for key in EXPERIMENT_KEYS), "s"
    )
    # index
    out["index.build_s"] = (s.total_s("IntelIndex.build"), "s")
    out["index.clone_s"] = (s.total_s("IntelIndex.clone"), "s")
    out["index.replace_groups_s"] = (s.total_s("IntelIndex.replace_groups"), "s")
    # enrich
    out["enrich.engine_calls"] = (s.calls("EnrichmentEngine.enrich"), "count")
    for verdict in VERDICTS:
        values = s.durations(
            "EnrichmentEngine.enrich", lambda span, v=verdict: span[8].get("verdict") == v
        )
        out[f"enrich.engine_{verdict}_p50_us"] = (_p50(values, 1e6), "us")
        out[f"enrich.engine_{verdict}_tail_us"] = (_tail(values, 1e6), "us")
    batches = s.durations("EnrichmentService.batch_enrich")
    out["enrich.batch_p50_ms"] = (_p50(batches, 1000.0), "ms")
    out["enrich.batch_tail_ms"] = (_tail(batches, 1000.0), "ms")
    # cache
    out["cache.hit_ratio"] = (_ratio(cache.get("hits", 0), lookups), "ratio")
    out["cache.evictions"] = (cache.get("evictions", 0), "count")
    out["cache.publish_s"] = (s.total_s("EnrichmentService.publish"), "s")
    out["cache.publishes"] = (s.calls("EnrichmentService.publish"), "count")
    # server
    out["server.overhead_ms"] = (server_overhead_ms(s, request_log), "ms")
    out["server.rss_mb"] = (server_rss_mb, "MiB")
    # query
    out["query.run_ms"] = (_p50(s.durations("QueryEngine.run"), 1000.0), "ms")
    out["query.rows"] = (s.attr_sum("QueryEngine.run", "rows"), "count")
    # delta / refresh
    out["refresh.total_s"] = (s.total_s("refresh_from_events"), "s")
    out["refresh.batches"] = (s.calls("refresh_from_events"), "count")
    out["delta.apply_s"] = (s.total_s("MalGraph.apply_delta"), "s")
    out["delta.events"] = (s.attr_sum("MalGraph.apply_delta", "events"), "count")
    # feed
    out["feed.page_ms"] = (_p50(s.durations("FeedExporter.page"), 1000.0), "ms")
    out["feed.pages"] = (s.calls("FeedExporter.page"), "count")
    out["feed.cursors_expired"] = (cursors_expired, "count")
    # the tracing itself
    out["trace.spans"] = (span_total, "count")
    return out
