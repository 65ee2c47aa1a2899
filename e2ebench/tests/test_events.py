"""Ingest event batches are a pure function of the dataset and the seed."""

from __future__ import annotations

import pytest

from repro.core.delta import apply_events_to_dataset
from repro.core.delta.events import EventKind, event_batch_hash
from repro.world import WorldConfig, build_world, collect

from events import feed_digest, make_batches, write_batches


@pytest.fixture(scope="module")
def dataset():
    return collect(build_world(WorldConfig(seed=3, scale=0.05))).dataset


def test_same_seed_gives_identical_batches(dataset, tmp_path):
    first, feed_a, touched_a = make_batches(dataset, seed=7, count=3)
    second, feed_b, touched_b = make_batches(dataset, seed=7, count=3)
    assert [event_batch_hash(b) for b in first] == [event_batch_hash(b) for b in second]
    assert feed_a == feed_b and touched_a == touched_b
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    names = write_batches(first, tmp_path / "a")
    write_batches(second, tmp_path / "b")
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_other_seed_differs(dataset):
    first, _, _ = make_batches(dataset, seed=7, count=2)
    other, _, _ = make_batches(dataset, seed=8, count=2)
    assert [event_batch_hash(b) for b in first] != [event_batch_hash(b) for b in other]


def test_batch_shape_and_feed_expectations(dataset):
    batches, expected_feed, touched = make_batches(dataset, seed=7, count=3)
    current = dataset
    for round_no, batch in enumerate(batches):
        kinds = [event.kind for event in batch]
        k = max(1, len(dataset.entries) // 2000)
        assert kinds.count(EventKind.PACKAGE_REMOVED) == k
        assert kinds.count(EventKind.PACKAGE_DETECTED) == k
        assert kinds.count(EventKind.PACKAGE_ADDED) == k
        assert kinds.count(EventKind.REPORT_INGESTED) <= 1
        # publishes reuse an existing payload
        known = {e.sha256() for e in current.entries}
        for event in batch:
            if event.kind is EventKind.PACKAGE_ADDED:
                assert event.entry().sha256() in known
                assert event.package_id().name in touched
        current = apply_events_to_dataset(current, batch)
        assert expected_feed[round_no + 1] == feed_digest(current)
