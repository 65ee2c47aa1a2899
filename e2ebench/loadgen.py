"""Deterministic request traffic for the serving workloads.

Everything here is a pure function of the corpus listing the cold
process emits and the workload seed: the same seed gives a
byte-identical indicator pool, batch items and per-client schedule
(:func:`traffic_digest` hashes all three).

* **Single lookups** (``GET /v1/enrich``, ~80% of requests) are drawn
  Zipf-skewed from a pool about four times the LRU capacity. The pool
  mixes name, name@version and SHA256 shapes. SHAs are drawn per
  package, so a payload shared by many packages appears as often as
  it does in the corpus. One-edit typos and fabricated names are mixed in.
* **Batches** (``POST /v1/enrich/batch``, ~15%) are 50-item lockfile
  scans of distinct items, never repeated within the run. About 80%
  are names outside the corpus and 20% corpus packages.
* **Queries** (``POST /v1/query``, ~5%) cycle through a fixed subset of
  the patterns in ``examples/graph_queries.py``, copied here so that
  editing the example cannot change the workload.
* With ``tail_feed`` the second client also pages through ``/v1/feed``.

Labels: corpus hits must come back ``malicious``, and fabricated names
must come back ``unknown``. Packages that an ingest event batch touches
carry no label, because their verdict may change during the run.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple
from urllib.parse import urlencode

from common import CLIENTS, FEED_PAGE_LIMIT, LRU_CAPACITY, canonical_json

#: pool size relative to the LRU capacity
POOL_FACTOR = 4
#: Zipf exponent of single-lookup popularity
ZIPF_S = 1.0
#: request mix (cumulative thresholds on one uniform draw)
P_ENRICH = 0.80
P_BATCH = 0.15
#: share of the tailing client's requests that are feed pages
P_FEED = 0.20
#: items per batch request, and the share that are corpus packages
BATCH_ITEMS = 50
BATCH_CORPUS_SHARE = 0.2
#: single-lookup pool composition (remaining share is fabricated names)
POOL_SHAPES = (("name", 0.30), ("name_version", 0.20), ("sha", 0.25), ("typo", 0.15))

#: fixed query patterns, copied from examples/graph_queries.py. The
#: example's analytic patterns (the duplicated-pair count, the
#: release-day coexisting scan and the multi-hop pivots) take 0.1-2 s
#: each at scale 2; at 5% of the traffic they would occupy the whole
#: server, so this interactive mix leaves them out.
QUERIES: Tuple[str, ...] = (
    "MATCH (front)-[:dependency]-(lib) "
    "RETURN front.name, lib.name ORDER BY front.name LIMIT 8",
    "MATCH (a)-[:similar]-(b) "
    "WHERE a.name CONTAINS 'cloud' AND a.ecosystem = 'npm' "
    "RETURN a.name, b.name LIMIT 8",
    "MATCH (a) WHERE a.ecosystem = 'pypi' AND a.sha256 != '' RETURN count(*)",
)

MALICIOUS = "malicious"
UNKNOWN = "unknown"

_TYPO_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789-"
_FABRICATED_ALPHABET = "bcdfghjkmnpqrstvwxz"

#: one corpus package as the cold process lists it
Entry = Tuple[str, str, str, Optional[str]]  # ecosystem, name, version, sha256


@dataclass
class Item:
    """One indicator plus the verdict class it must get (None = any)."""

    fields: Dict[str, str]
    expect: Optional[str]

    def to_list(self) -> list:
        return [self.fields, self.expect]


@dataclass
class Traffic:
    """Everything the load clients send, generated up front."""

    pool: List[Item]
    batches: List[List[Item]]
    queries: Tuple[str, ...]
    #: per client: ops as ("enrich", pool index) / ("batch", batch index)
    #: / ("query", query index) / ("feed", 0)
    schedules: List[List[Tuple[str, int]]] = field(default_factory=list)

    def enrich_path(self, index: int) -> str:
        return "/v1/enrich?" + urlencode(sorted(self.pool[index].fields.items()))

    def batch_body(self, index: int) -> bytes:
        items = [item.fields for item in self.batches[index]]
        return json.dumps({"indicators": items}).encode("utf-8")

    def query_body(self, index: int) -> bytes:
        return json.dumps({"pattern": self.queries[index]}).encode("utf-8")


def _rng(seed: int, stream: str) -> random.Random:
    digest = hashlib.sha256(f"e2ebench:{stream}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _typo(name: str, rng: random.Random) -> str:
    """One random edit: substitute, delete, insert or transpose."""
    pos = rng.randrange(len(name))
    op = rng.randrange(4)
    char = rng.choice(_TYPO_ALPHABET)
    if op == 0:
        return name[:pos] + char + name[pos + 1 :]
    if op == 1 and len(name) > 2:
        return name[:pos] + name[pos + 1 :]
    if op == 3 and pos + 1 < len(name):
        return name[:pos] + name[pos + 1] + name[pos] + name[pos + 2 :]
    return name[:pos] + char + name[pos:]


def _fabricated(rng: random.Random, serial: int) -> str:
    """A name no corpus package is within two edits of: a long random
    consonant run plus a serial, so every fabricated name is distinct."""
    letters = "".join(rng.choice(_FABRICATED_ALPHABET) for _ in range(10))
    return f"zq{letters}{serial:07d}"


def _corpus_item(entry: Entry, shape: str, rng: random.Random, label: bool) -> Item:
    eco, name, version, sha = entry
    expect = MALICIOUS if label else None
    if shape == "sha" and sha:
        return Item({"sha256": sha}, expect)
    fields = {"name": name}
    if shape == "name_version":
        fields["version"] = version
    if rng.random() < 0.5:
        fields["ecosystem"] = eco
    return Item(fields, expect)


def build_pool(
    entries: Sequence[Entry],
    seed: int,
    touched: Set[str] = frozenset(),
    size: int = POOL_FACTOR * LRU_CAPACITY,
) -> List[Item]:
    """The single-lookup pool, shuffled so Zipf rank is independent of shape."""
    rng = _rng(seed, "pool")
    names = {entry[1] for entry in entries}
    with_sha = [entry for entry in entries if entry[3]]
    pool: List[Item] = []
    cumulative = []
    total = 0.0
    for shape, share in POOL_SHAPES:
        total += share
        cumulative.append((total, shape))
    serial = 0
    while len(pool) < size:
        draw = rng.random()
        shape = next((s for bound, s in cumulative if draw < bound), "fabricated")
        if shape == "fabricated":
            serial += 1
            fields = {"name": _fabricated(rng, serial)}
            if rng.random() < 0.5:
                fields["ecosystem"] = rng.choice(entries)[0]
            pool.append(Item(fields, UNKNOWN))
            continue
        entry = rng.choice(with_sha if shape == "sha" else entries)
        if shape == "typo":
            mutated = _typo(entry[1], rng)
            if mutated in names or not mutated.strip("-"):
                continue
            pool.append(Item({"name": mutated}, None))
            continue
        label = entry[1] not in touched and (entry[3] or "") not in touched
        pool.append(_corpus_item(entry, shape, rng, label))
    rng.shuffle(pool)
    return pool


def build_batches(
    entries: Sequence[Entry], seed: int, count: int, touched: Set[str] = frozenset()
) -> List[List[Item]]:
    """``count`` lockfile scans whose items never repeat within the run.

    Corpus items walk a seeded permutation of the corpus, one indicator
    shape per pass (name@version, name, SHA256), skipping any key an
    earlier batch already sent. Keys repeat only once all three passes
    are used up (about 1,700 batches at scale 2).
    """
    rng = _rng(seed, "batches")
    order = list(range(len(entries)))
    rng.shuffle(order)
    shapes = ("name_version", "name", "sha")
    corpus_per_batch = round(BATCH_ITEMS * BATCH_CORPUS_SHARE)
    cursor = 0
    serial = 0
    used: Set[str] = set()
    batches: List[List[Item]] = []
    for _ in range(count):
        items: List[Item] = []
        while len(items) < corpus_per_batch:
            if cursor == len(order) * len(shapes):
                cursor = 0
                used.clear()
            entry = entries[order[cursor % len(order)]]
            shape = shapes[cursor // len(order)]
            cursor += 1
            label = entry[1] not in touched and (entry[3] or "") not in touched
            item = _corpus_item(entry, shape, rng, label)
            key = canonical_json(item.fields)
            if key not in used:
                used.add(key)
                items.append(item)
        while len(items) < BATCH_ITEMS:
            serial += 1
            items.append(Item({"name": _fabricated(rng, serial)}, UNKNOWN))
        rng.shuffle(items)
        batches.append(items)
    return batches


def build_schedules(
    pool_size: int, seed: int, ops_per_client: int, tail_feed: bool
) -> Tuple[List[List[Tuple[str, int]]], int]:
    """Per-client op lists and the number of batches they reference."""
    rng = _rng(seed, "schedule")
    weights = [1.0 / (rank ** ZIPF_S) for rank in range(1, pool_size + 1)]
    cdf = []
    running = 0.0
    for weight in weights:
        running += weight
        cdf.append(running)
    schedules: List[List[Tuple[str, int]]] = [[] for _ in range(CLIENTS)]
    batches = 0
    queries = 0
    for step in range(ops_per_client * CLIENTS):
        client = step % CLIENTS
        if tail_feed and client == CLIENTS - 1 and rng.random() < P_FEED:
            schedules[client].append(("feed", 0))
            continue
        draw = rng.random()
        if draw < P_ENRICH:
            rank = bisect.bisect_left(cdf, rng.random() * running)
            schedules[client].append(("enrich", min(rank, pool_size - 1)))
        elif draw < P_ENRICH + P_BATCH:
            schedules[client].append(("batch", batches))
            batches += 1
        else:
            schedules[client].append(("query", queries % len(QUERIES)))
            queries += 1
    return schedules, batches


def build_traffic(
    entries: Sequence[Entry],
    seed: int,
    ops_per_client: int,
    tail_feed: bool = False,
    touched: Set[str] = frozenset(),
) -> Traffic:
    """The complete, deterministic traffic of one serving run."""
    entries = [tuple(entry) for entry in entries]
    pool = build_pool(entries, seed, touched)
    schedules, batch_count = build_schedules(len(pool), seed, ops_per_client, tail_feed)
    batches = build_batches(entries, seed, batch_count, touched)
    return Traffic(pool=pool, batches=batches, queries=QUERIES, schedules=schedules)


def traffic_digest(traffic: Traffic) -> str:
    """SHA256 over the pool, the batches and every client's schedule."""
    payload = {
        "pool": [item.to_list() for item in traffic.pool],
        "batches": [[item.to_list() for item in batch] for batch in traffic.batches],
        "queries": list(traffic.queries),
        "schedules": traffic.schedules,
        "feed_limit": FEED_PAGE_LIMIT,
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
