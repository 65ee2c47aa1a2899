"""The load generator is a pure function of the corpus listing and the seed."""

from __future__ import annotations

from collections import Counter

import pytest

from common import LRU_CAPACITY, tail_percentile
from loadgen import (
    BATCH_ITEMS,
    MALICIOUS,
    POOL_FACTOR,
    QUERIES,
    UNKNOWN,
    build_traffic,
    traffic_digest,
)


def _entries(count: int = 600):
    """A synthetic corpus listing: some packages share one payload."""
    entries = []
    for i in range(count):
        eco = ("npm", "pypi", "rubygems")[i % 3]
        sha = "shared" * 10 + "beef" if i % 7 == 0 else f"{i:064x}"
        entries.append([eco, f"pkg-{i:04d}-lib", f"1.{i % 5}.0", sha])
    return entries


@pytest.fixture(scope="module")
def traffic():
    return build_traffic(_entries(), seed=7, ops_per_client=800, tail_feed=True)


def test_same_seed_is_byte_identical(traffic):
    again = build_traffic(_entries(), seed=7, ops_per_client=800, tail_feed=True)
    assert traffic_digest(again) == traffic_digest(traffic)


def test_other_seed_differs(traffic):
    other = build_traffic(_entries(), seed=8, ops_per_client=800, tail_feed=True)
    assert traffic_digest(other) != traffic_digest(traffic)


def test_pool_is_four_times_the_lru(traffic):
    assert len(traffic.pool) == POOL_FACTOR * LRU_CAPACITY


def test_pool_mixes_every_shape(traffic):
    shapes = Counter()
    for item in traffic.pool:
        if "sha256" in item.fields:
            shapes["sha"] += 1
        elif "version" in item.fields:
            shapes["name_version"] += 1
        elif item.expect == UNKNOWN:
            shapes["fabricated"] += 1
        elif item.expect is None:
            shapes["typo"] += 1
        else:
            shapes["name"] += 1
    assert set(shapes) == {"sha", "name_version", "fabricated", "typo", "name"}
    # SHAs are drawn per package: the payload 1 in 7 packages share shows
    # up far more often than any single-package SHA.
    shas = Counter(item.fields["sha256"] for item in traffic.pool if "sha256" in item.fields)
    top, top_count = shas.most_common(1)[0]
    assert top.startswith("shared") and top_count > 10 * shas.most_common(2)[1][1]


def test_typos_are_not_corpus_names(traffic):
    names = {entry[1] for entry in _entries()}
    typos = [i for i in traffic.pool if i.expect is None and "sha256" not in i.fields]
    assert typos and all(item.fields["name"] not in names for item in typos)


def test_request_mix(traffic):
    kinds = Counter(kind for schedule in traffic.schedules for kind, _ in schedule)
    total = sum(kinds.values())
    assert 0.70 < kinds["enrich"] / total < 0.85
    assert 0.10 < kinds["batch"] / total < 0.20
    assert 0.02 < kinds["query"] / total < 0.08
    # only the last client tails the feed
    assert all(kind != "feed" for kind, _ in traffic.schedules[0])
    assert any(kind == "feed" for kind, _ in traffic.schedules[1])
    assert {index for kind, index in traffic.schedules[0] if kind == "query"} <= set(range(len(QUERIES)))


def test_single_lookups_are_zipf_skewed(traffic):
    ranks = Counter(index for s in traffic.schedules for kind, index in s if kind == "enrich")
    lookups = sum(ranks.values())
    top = sum(count for index, count in ranks.items() if index < 10)
    assert top / lookups > 0.15  # the ten hottest items take a large share


def test_batches_are_distinct_and_never_repeat():
    # 600 packages give ~1,700 distinct corpus keys: room for 170 batches
    traffic = build_traffic(_entries(), seed=7, ops_per_client=400)
    assert 90 < len(traffic.batches) < 170
    seen = set()
    for batch in traffic.batches:
        assert len(batch) == BATCH_ITEMS
        keys = [tuple(sorted(item.fields.items())) for item in batch]
        assert len(set(keys)) == len(keys)
        assert not seen & set(keys)
        seen.update(keys)
        corpus = sum(1 for item in batch if item.expect != UNKNOWN)
        assert corpus == BATCH_ITEMS // 5


def test_touched_packages_carry_no_label():
    entries = _entries()
    touched = {entries[3][1], entries[5][3]}
    traffic = build_traffic(entries, seed=7, ops_per_client=400, touched=touched)
    for item in traffic.pool + [i for b in traffic.batches for i in b]:
        if item.fields.get("name") in touched or item.fields.get("sha256") in touched:
            assert item.expect is None
    assert any(item.expect == MALICIOUS for item in traffic.pool)


@pytest.mark.parametrize(
    "count, expected", [(5, 50.0), (100, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)]
)
def test_tail_percentile_leaves_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected
