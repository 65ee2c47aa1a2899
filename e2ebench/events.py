"""Seeded ingest event batches for ``serve_ingest`` (imports ``repro``).

Each batch is made the way ``benchmarks/bench_incremental_malgraph.py``
makes one: k removals, k detections, k publishes that reuse an existing
payload, and one report that ties two survivors together. k is
``max(1, entries // 2000)``, so a batch stays near 0.1% of the corpus.
Batches are generated in order against the dataset the previous ones
produce (reference semantics: ``apply_events_to_dataset``). A seed
therefore fixes the whole sequence byte for byte.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Sequence, Set, Tuple

from repro.collection.records import CollectedReport, DatasetEntry, SourceClaim
from repro.core.delta import GraphEvent, apply_events_to_dataset
from repro.core.delta.events import events_to_jsonl
from repro.ecosystem.package import PackageId, make_artifact

from common import feed_id, id_set_digest


def _rng(seed: int, round_no: int) -> random.Random:
    digest = hashlib.sha256(f"e2ebench:events:{seed}:{round_no}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _redetected(entry: DatasetEntry) -> DatasetEntry:
    """The same package seen again with ten more downloads."""
    return DatasetEntry(
        package=entry.package,
        claims=list(entry.claims),
        artifact=entry.artifact,
        artifact_origin=entry.artifact_origin,
        release_day=entry.release_day,
        removal_day=entry.removal_day,
        detection_day=entry.detection_day,
        downloads=entry.downloads + 10,
        campaign_id=entry.campaign_id,
        actor=entry.actor,
        archetype=entry.archetype,
        behavior_key=entry.behavior_key,
    )


def _published(template: DatasetEntry, name: str) -> DatasetEntry:
    """A newly published package that reuses the template's payload."""
    eco = template.package.ecosystem
    artifact = make_artifact(eco, name, "1.0", dict(template.artifact.files))
    return DatasetEntry(
        package=PackageId(eco, name, "1.0"),
        claims=[SourceClaim(source="snyk", report_day=30, shares_artifact=True)],
        artifact=artifact,
        artifact_origin="source:e2ebench",
        release_day=28,
        downloads=3,
    )


def make_batch(dataset, seed: int, round_no: int) -> List[GraphEvent]:
    """One event batch against ``dataset`` (round 0 is the bootstrap)."""
    rng = _rng(seed, round_no)
    entries = list(dataset.entries)
    k = max(1, len(entries) // 2000)
    available = [e for e in entries if e.artifact is not None]
    picks = rng.sample(available, min(3 * k, len(available)))
    removed, detected, templates = picks[:k], picks[k : 2 * k], picks[2 * k :]
    events = [GraphEvent.package_removed(held.package) for held in removed]
    events.extend(GraphEvent.package_detected(_redetected(held)) for held in detected)
    published = []
    for i, template in enumerate(templates or available[:1]):
        fresh = _published(template, f"e2e-pub-{seed}-{round_no}-{i}")
        published.append(fresh)
        events.append(GraphEvent.package_added(fresh))
    survivors = [e for e in detected if e not in removed] + published
    if len(survivors) >= 2:
        events.append(
            GraphEvent.report_ingested(
                CollectedReport(
                    report_id=f"r-e2e-{seed}-{round_no}",
                    url=f"https://intel.example/r-e2e-{seed}-{round_no}",
                    site="intel.example",
                    category="Security org.",
                    source="snyk",
                    publish_day=31,
                    packages=[e.package for e in survivors[:2]],
                )
            )
        )
    return events


def feed_digest(dataset) -> Tuple[int, str]:
    """(item count, id digest) of the feed a generation serving
    ``dataset`` must walk."""
    ids = [
        feed_id(e.package.ecosystem, e.package.name, e.package.version)
        for e in dataset.entries
    ]
    return len(ids), id_set_digest(ids)


def make_batches(dataset, seed: int, count: int):
    """``count`` batches in order, the post-batch feed expectation of each
    and every name or SHA256 a batch touches.

    Generation ``g`` of the service serves the dataset after batches
    ``0..g-1`` (batch 0, the bootstrap, publishes generation 1).
    """
    batches: List[List[GraphEvent]] = []
    expected_feed: Dict[int, Tuple[int, str]] = {}
    touched: Set[str] = set()
    current = dataset
    for round_no in range(count):
        batch = make_batch(current, seed, round_no)
        for event in batch:
            if event.kind.value == "report_ingested":
                continue
            pid = event.package_id()
            touched.add(pid.name)
            held = current.get(pid)
            if held is not None and held.sha256():
                touched.add(held.sha256())
        current = apply_events_to_dataset(current, batch)
        batches.append(batch)
        expected_feed[round_no + 1] = feed_digest(current)
    return batches, expected_feed, touched


def write_batches(batches: Sequence[Sequence[GraphEvent]], directory) -> List[str]:
    """One events JSONL per batch; returns the file names in order."""
    names = []
    for round_no, batch in enumerate(batches):
        name = f"events-{round_no:03d}.jsonl"
        events_to_jsonl(batch, directory / name)
        names.append(name)
    return names
