"""Property tests on mirror sync semantics (hypothesis).

The two mirror behaviours drive Fig. 5's unavailability causes, so
their invariants matter: archival mirrors never lose a captured
package; lagging mirrors equal the upstream live set right after a
sync; and anything any mirror serves was genuinely live at some sync
point.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.ecosystem.mirror import MirrorRegistry
from repro.ecosystem.package import make_artifact
from repro.ecosystem.registry import Registry

# A compact event script: publish / remove / sync actions over time.
actions = st.lists(
    st.tuples(
        st.sampled_from(["publish", "remove", "sync"]),
        st.integers(0, 5),  # package index
    ),
    min_size=1,
    max_size=25,
)


def _replay(script, archival: bool):
    registry = Registry("pypi")
    mirror = MirrorRegistry(
        name="m", upstream=registry, sync_interval=1, archival=archival
    )
    day = 0
    published = set()
    removed = set()
    live_at_sync = []
    captured_history = set()
    for verb, idx in script:
        day += 1
        name = f"pkg-{idx}"
        if verb == "publish" and name not in published:
            registry.publish(
                make_artifact("pypi", name, "1.0", {"m/a.py": f"V = {idx}\n"}),
                day=day,
                malicious=True,
            )
            published.add(name)
        elif verb == "remove" and name in published and name not in removed:
            registry.mark_detected(name, "1.0", day)
            registry.remove(name, "1.0", day)
            removed.add(name)
        elif verb == "sync":
            mirror.sync(day)
            live = {key[0] for key in registry.live_snapshot()}
            live_at_sync.append(live)
            captured_history |= live
    return mirror, live_at_sync, captured_history


@given(actions)
@settings(max_examples=80, deadline=None)
def test_archival_mirror_accumulates(script):
    mirror, live_at_sync, captured = _replay(script, archival=True)
    held = {name for name, _v in mirror._store}
    assert held == captured, "archival mirror = union of all sync snapshots"


@given(actions)
@settings(max_examples=80, deadline=None)
def test_lagging_mirror_equals_last_snapshot(script):
    mirror, live_at_sync, _captured = _replay(script, archival=False)
    held = {name for name, _v in mirror._store}
    expected = live_at_sync[-1] if live_at_sync else set()
    assert held == expected


@given(actions)
@settings(max_examples=60, deadline=None)
def test_mirror_never_serves_never_live_packages(script):
    for archival in (True, False):
        mirror, _snaps, captured = _replay(script, archival=archival)
        for idx in range(6):
            hit = mirror.lookup(f"pkg-{idx}", "1.0")
            if hit is not None:
                assert f"pkg-{idx}" in captured


@given(actions)
@settings(max_examples=60, deadline=None)
def test_archival_dominates_lagging(script):
    """Whatever a lagging mirror still holds, the archival twin holds."""
    lagging, _s, _c = _replay(script, archival=False)
    archival, _s2, _c2 = _replay(script, archival=True)
    lagging_keys = set(lagging._store)
    archival_keys = set(archival._store)
    assert lagging_keys <= archival_keys


# -- exact stores: content and insertion order --------------------------------

versioned_actions = st.lists(
    st.tuples(
        st.sampled_from(["publish", "detect", "remove", "sync"]),
        st.integers(0, 4),  # package index
        st.integers(0, 2),  # version index
    ),
    min_size=1,
    max_size=40,
)


def _live_filter(registry: Registry):
    """Reference live set: the ``live`` flag over every package ever
    published, in publish order."""
    return {
        (record.artifact.name, record.artifact.version): record.artifact
        for record in registry.all_packages()
        if record.live
    }


def _assert_same_store(store, reference):
    assert list(store) == list(reference), "same keys in the same order"
    assert all(store[key] is reference[key] for key in reference)


@given(versioned_actions)
@settings(max_examples=100, deadline=None)
def test_mirror_stores_equal_the_live_filter_reference(script):
    registry = Registry("pypi")
    lagging = MirrorRegistry(name="lag", upstream=registry, sync_interval=1)
    archival = MirrorRegistry(
        name="arc", upstream=registry, sync_interval=1, archival=True
    )
    lagging_ref: dict = {}
    archival_ref: dict = {}
    for day, (verb, idx, ver) in enumerate(script, start=1):
        key = (f"pkg-{idx}", f"1.{ver}")
        if verb == "publish" and key not in registry:
            registry.publish(
                make_artifact("pypi", *key, {"m/a.py": f"V = {idx}{ver}\n"}),
                day=day,
            )
        elif verb == "detect" and key in registry:
            registry.mark_detected(*key, day)
        elif verb == "remove" and key in registry:
            registry.remove(*key, day)
        elif verb == "sync":
            lagging.sync(day)
            archival.sync(day)
            lagging_ref = _live_filter(registry)
            archival_ref.update(lagging_ref)
        _assert_same_store(registry.live_snapshot(), _live_filter(registry))
        _assert_same_store(lagging._store, lagging_ref)
        _assert_same_store(archival._store, archival_ref)


def test_world_mirror_syncs_read_no_live_flags(monkeypatch):
    """Mirror sync copies the registry's live set; it never filters the
    full package history by ``PublishedPackage.live``."""
    from repro.ecosystem.mirror import MirrorNetwork
    from repro.ecosystem.registry import PublishedPackage
    from repro.world import WorldConfig, build_world

    reads = {"in_tick": 0, "ticks": 0}
    inside = [False]
    live = PublishedPackage.live.fget
    tick = MirrorNetwork.tick

    def counting_live(record):
        if inside[0]:
            reads["in_tick"] += 1
        return live(record)

    def counting_tick(network, day):
        inside[0] = True
        reads["ticks"] += 1
        try:
            return tick(network, day)
        finally:
            inside[0] = False

    monkeypatch.setattr(PublishedPackage, "live", property(counting_live))
    monkeypatch.setattr(MirrorNetwork, "tick", counting_tick)
    world = build_world(WorldConfig(seed=3, scale=0.05))
    assert reads["ticks"] > 0
    assert sum(len(mirror) for mirror in world.mirrors) > 0
    assert reads["in_tick"] == 0
