"""Incremental refresh: a merge diff updates the live index in place."""

from __future__ import annotations

import pytest

from repro import pipeline
from repro.collection.records import MalwareDataset
from repro.core.delta.events import apply_events_to_dataset
from repro.core.embedding import AstEmbedder
from repro.core.groups import GroupKind
from repro.core.malgraph import MalGraph
from repro.service.cache import EnrichmentService, build_service
from repro.service.enrich import (
    VERDICT_MALICIOUS,
    EnrichmentEngine,
    Indicator,
)
from repro.core.delta.events import GraphEvent
from repro.io.malgraphs import (
    canonical_malgraph_json,
    load_malgraph_bundle,
    save_malgraph_bundle,
)
from repro.pipeline.store import EMBEDDINGS_STAGE
from repro.service.index import IntelIndex
from repro.service.refresh import refresh_from_events, refresh_index

from tests.core.helpers import dataset, entry, report


def _engine(ds) -> EnrichmentEngine:
    return EnrichmentEngine(IntelIndex.build(MalGraph.build(ds)))


def test_added_packages_resolve_after_refresh():
    engine = _engine(dataset([entry("old-pkg")]))
    fresh = entry("new-pkg", code="def other():\n    return 1\n")
    merged, diff, stats = refresh_index(engine.index, dataset([fresh]))
    assert diff.added == [fresh.package]
    assert stats.packages_added == 1
    assert engine.index.dataset is merged
    result = engine.lookup(name="new-pkg", version="1.0")
    assert result.verdict == VERDICT_MALICIOUS
    by_sha = engine.lookup(sha256=fresh.sha256())
    assert by_sha.matches == ["pypi:new-pkg@1.0"]


def test_refresh_links_signature_duplicates_into_family():
    shared = "def payload():\n    return 'dup'\n"
    engine = _engine(dataset([entry("seed-pkg", code=shared)]))
    twin = entry("late-twin", code=shared)
    _, _, stats = refresh_index(engine.index, dataset([twin]))
    assert stats.families_linked == 1
    families = engine.index.families_of(twin.package)
    assert families
    assert engine.index.group_kind(families[0]) is GroupKind.DG
    members = {e.package.name for e in engine.index.lookup_group(families[0])}
    assert members == {"seed-pkg", "late-twin"}
    # and the family is reachable from the enrichment result
    assert engine.lookup(name="late-twin").families == families


def test_refresh_extends_existing_duplicated_group():
    shared = "def payload():\n    return 'trip'\n"
    engine = _engine(dataset([entry("twin-a", code=shared), entry("twin-b", code=shared)]))
    existing = engine.index.families_of(
        engine.index.lookup_name("twin-a")[0].package
    )
    assert existing, "seed world should already hold a DG family"
    third = entry("twin-c", code=shared)
    refresh_index(engine.index, dataset([third]))
    assert set(engine.index.families_of(third.package)) & set(existing)


def test_refresh_registers_new_reports_as_campaigns():
    a, b = entry("pkg-a"), entry("pkg-b", code="def b():\n    return 2\n")
    engine = _engine(dataset([a, b]))
    covering = report("r-new", [a.package, b.package])
    covering.actor_alias = "ShadyActor"
    _, diff, stats = refresh_index(engine.index, dataset([], [covering]))
    assert diff.new_reports == ["r-new"]
    assert stats.campaigns_added == 1
    result = engine.lookup(name="pkg-a")
    assert result.actors == ["ShadyActor"]
    assert any(g.startswith("CG-r") for g in result.campaigns)


def test_refresh_invalidates_wrapped_service():
    ds = dataset([entry("old-pkg")])
    service = build_service(MalGraph.build(ds))
    fresh = entry("fresh-pkg", code="def f():\n    return 3\n")
    # a stale negative sits in the cache before the refresh
    assert service.enrich(Indicator(name="fresh-pkg")).verdict != VERDICT_MALICIOUS
    _, _, stats = refresh_index(service.index, dataset([fresh]), service=service)
    assert stats.cache_cleared
    assert service.enrich(Indicator(name="fresh-pkg")).verdict == VERDICT_MALICIOUS


def test_refresh_merges_claims_for_known_packages():
    held = entry("known-pkg", sources=("snyk",))
    engine = _engine(dataset([held]))
    again = entry("known-pkg", sources=("phylum",))
    merged, diff, stats = refresh_index(engine.index, dataset([again]))
    assert stats.packages_added == 0
    assert diff.new_sources == {held.package: {"phylum"}}
    keys = {row["key"] for row in engine.lookup(name="known-pkg").sources}
    assert keys == {"snyk", "phylum"}


def test_refresh_bumps_epoch_and_timestamp():
    engine = _engine(dataset([entry("old-pkg")]))
    assert engine.index.epoch == 0
    assert engine.index.last_delta_at is None
    fresh = entry("new-pkg", code="def other():\n    return 1\n")
    refresh_index(engine.index, dataset([fresh]))
    assert engine.index.epoch == 1
    assert engine.index.last_delta_at is not None
    stats = engine.index.stats()
    assert stats["epoch"] == 1
    assert stats["last_delta_at"] == engine.index.last_delta_at
    refresh_index(engine.index, dataset([entry("third-pkg", code="x = 3\n")]))
    assert engine.index.epoch == 2


def test_refresh_from_events_without_graph():
    held = entry("old-pkg")
    engine = _engine(dataset([held]))
    fresh = entry("new-pkg", code="def other():\n    return 1\n")
    events = [
        GraphEvent.package_added(fresh),
        GraphEvent.package_removed(held.package),
    ]
    served, stats = refresh_from_events(engine.index, events)
    assert stats.packages_added == 1
    assert stats.packages_removed == 1
    assert engine.index.dataset is served
    assert served.get(fresh.package) is not None and served.get(held.package) is None
    assert engine.lookup(name="new-pkg").verdict == VERDICT_MALICIOUS
    assert engine.lookup(name="old-pkg").verdict != VERDICT_MALICIOUS
    assert engine.lookup(sha256=held.sha256()).verdict != VERDICT_MALICIOUS
    assert engine.index.epoch == 1


def test_refresh_from_events_with_malgraph_mirrors_exact_groups():
    shared = "def payload():\n    return 'dup'\n"
    ds = dataset([entry("seed-pkg", code=shared)])
    malgraph = MalGraph.build(ds)
    service = build_service(malgraph)
    twin = entry("late-twin", code=shared)
    events = [GraphEvent.package_added(twin)]
    served, stats = refresh_from_events(
        service.index, events, service=service, malgraph=malgraph
    )
    assert stats.cache_cleared
    assert stats.groups_replaced > 0
    assert served is malgraph.dataset  # index serves the evolved graph's dataset
    # group ids come from the exact extraction, not refresh-scoped ids
    families = service.index.families_of(twin.package)
    assert families and not any("-r" in g for g in families)
    members = {e.package.name for e in service.index.lookup_group(families[0])}
    assert members == {"seed-pkg", "late-twin"}
    assert service.index.epoch == 1
    assert service.enrich(Indicator(name="late-twin")).verdict == VERDICT_MALICIOUS


# -- embedding reuse on the malgraph path -----------------------------------


def _code(tag: str, i) -> str:
    # ``tag`` keeps these artifacts out of every other test's vectors in
    # the session store
    return f"def {tag}_{i}(arg):\n    return arg + {i!r}\n"


def _corpus(tag: str):
    return dataset([entry(f"{tag}-{i}", code=_code(tag, i)) for i in range(6)])


def _batch(tag: str):
    """Two packages with new code, a twin of ``{tag}-0`` and a removal;
    returns the events and the shas only the batch brings."""
    fresh = [entry(f"{tag}-new-{i}", code=_code(tag, f"new{i}")) for i in range(2)]
    events = [GraphEvent.package_added(e) for e in fresh] + [
        GraphEvent.package_added(entry(f"{tag}-twin", code=_code(tag, 0))),
        GraphEvent.package_removed(entry(f"{tag}-1").package),
    ]
    return events, sorted(e.sha256() for e in fresh)


@pytest.fixture
def embed_calls(monkeypatch):
    """sha256 of every artifact ``AstEmbedder.embed_package`` embeds."""
    calls = []
    original = AstEmbedder.embed_package

    def spy(self, artifact, *args):
        calls.append(artifact.sha256())
        return original(self, artifact, *args)

    monkeypatch.setattr(AstEmbedder, "embed_package", spy)
    # tests swap the process-wide store; the original comes back after
    monkeypatch.setattr(pipeline, "_store", pipeline.get_store())
    return calls


def _refresh(malgraph, base, events, embed_calls):
    """Apply ``events`` on the malgraph path, check the evolved graph
    against a cold rebuild, and return the shas the refresh embedded."""
    service = build_service(malgraph)
    embed_calls.clear()
    refresh_from_events(service.index, events, service=service, malgraph=malgraph)
    embedded = sorted(embed_calls)
    rebuilt = MalGraph.build(
        apply_events_to_dataset(base, events), store=pipeline.get_store()
    )
    assert canonical_malgraph_json(malgraph) == canonical_malgraph_json(rebuilt)
    return embedded


def test_malgraph_refresh_embeds_only_the_batchs_new_artifacts(embed_calls):
    base = _corpus("warm")
    # the cold build fills the store's embedding tiers
    malgraph = MalGraph.build(base, store=pipeline.get_store())
    events, fresh = _batch("warm")
    assert _refresh(malgraph, base, events, embed_calls) == fresh


def test_malgraph_refresh_without_disk_tier_re_embeds(embed_calls, tmp_path):
    base = _corpus("nodisk")
    bundle = save_malgraph_bundle(
        MalGraph.build(base, store=pipeline.get_store()), tmp_path / "bundle"
    )
    pipeline.configure(disk_enabled=False)  # empty memory tier, no disk tier
    events, _ = _batch("nodisk")
    embedded = _refresh(load_malgraph_bundle(bundle), base, events, embed_calls)
    evolved = apply_events_to_dataset(base, events)
    assert embedded == sorted({e.sha256() for e in evolved.available_entries()})


def test_malgraph_refresh_re_embeds_a_corrupt_vector_file(embed_calls, tmp_path):
    cache = tmp_path / "cache"
    base = _corpus("corrupt")
    bundle = save_malgraph_bundle(
        MalGraph.build(base, store=pipeline.configure(cache_dir=cache)),
        tmp_path / "bundle",
    )
    victim = base.entries[0].sha256()
    entry_dir = cache / EMBEDDINGS_STAGE / AstEmbedder().fingerprint()
    (entry_dir / f"{victim}.npy").write_bytes(b"not a numpy file")
    pipeline.configure(cache_dir=cache)  # a new process: memory tier empty
    events, fresh = _batch("corrupt")
    embedded = _refresh(load_malgraph_bundle(bundle), base, events, embed_calls)
    # the corrupt vector is a miss like the batch's own artifacts
    assert embedded == sorted(fresh + [victim])


# -- snapshot publication ---------------------------------------------------


def test_refresh_publishes_a_new_snapshot_and_leaves_the_old_intact():
    service = build_service(MalGraph.build(dataset([entry("old-pkg")])))
    before = service.snapshot
    fresh = entry("fresh-pkg", code="def f():\n    return 3\n")
    refresh_index(service.index, dataset([fresh]), service=service)
    after = service.snapshot
    assert after is not before
    assert after.generation == before.generation + 1
    assert after.index is not before.index
    # the retired snapshot still answers exactly as it did pre-refresh:
    # a straggler mid-request never observes a half-applied delta
    assert before.index.package_count == 1
    assert before.index.lookup_name("fresh-pkg") == []
    assert after.index.package_count == 2


def test_concurrent_refreshes_compose_not_clobber():
    service = build_service(MalGraph.build(dataset([entry("old-pkg")])))
    stale_view = service.index  # both callers hold the same stale index
    left = entry("pkg-left", code="x = 1\n")
    right = entry("pkg-right", code="x = 2\n")
    # the service rebases each delta onto the currently published
    # snapshot under the writer lock, so the second refresh must not
    # wipe out the first even though its caller's view predates it
    refresh_index(stale_view, dataset([left]), service=service)
    refresh_index(stale_view, dataset([right]), service=service)
    assert service.index.package_count == 3
    assert service.enrich(Indicator(name="pkg-left")).verdict == VERDICT_MALICIOUS
    assert service.enrich(Indicator(name="pkg-right")).verdict == VERDICT_MALICIOUS
    assert service.generation == 2


# -- against the simulated world ------------------------------------------

@pytest.fixture(scope="module")
def split_world_service(small_dataset):
    """Index built from half the collected world; other half held back."""
    half = len(small_dataset.entries) // 2
    old = MalwareDataset(
        entries=list(small_dataset.entries[:half]),
        reports=list(small_dataset.reports[: len(small_dataset.reports) // 2]),
    )
    held_back = MalwareDataset(
        entries=list(small_dataset.entries[half:]),
        reports=list(small_dataset.reports[len(small_dataset.reports) // 2 :]),
    )
    return build_service(MalGraph.build(old)), held_back


def test_world_refresh_resolves_every_newly_merged_package(split_world_service):
    service, held_back = split_world_service
    merged, diff, stats = refresh_index(service.index, held_back, service=service)
    assert stats.packages_added == len(diff.added) > 0
    for e in held_back.entries:
        result = service.enrich(
            Indicator(
                name=e.package.name,
                version=e.package.version,
                ecosystem=e.package.ecosystem,
            )
        )
        assert result.verdict == VERDICT_MALICIOUS, str(e.package)
    assert service.index.package_count == len(merged)
