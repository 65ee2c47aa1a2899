"""Closed-loop HTTP load clients (threads of the run.py process).

Each client holds one connection at a time and sends its next request
only after the previous reply arrived, walking its seeded schedule
(:mod:`loadgen`). It records latency per request kind, counts every
request sent per endpoint (to compare with ``/v1/metrics``), and checks
each labelled verdict. A feed-tailing client checks that each complete
walk of ``/v1/feed`` has no duplicate or missing item. Failures are
counted against attempts: a non-2xx status, a refused or reset
connection, or a timeout. When the server process has died, a client
stops and counts the rest of its schedule as failed.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from common import FEED_PAGE_LIMIT, id_set_digest
from loadgen import Traffic

ENDPOINTS = {
    "enrich": "/v1/enrich",
    "batch": "/v1/enrich/batch",
    "query": "/v1/query",
    "feed": "/v1/feed",
}

REQUEST_TIMEOUT_S = 30.0
MAX_EXAMPLES = 5


class LoadClient(threading.Thread):
    def __init__(
        self,
        number: int,
        port: int,
        traffic: Traffic,
        deadline: float,
        server_alive: Callable[[], bool],
        expected_feed: Optional[Dict[int, Tuple[int, str]]] = None,
        record_ids: bool = False,
    ):
        super().__init__(name=f"e2ebench-client-{number}", daemon=True)
        self.number = number
        self.port = port
        self.traffic = traffic
        self.ops = traffic.schedules[number]
        self.deadline = deadline
        self.server_alive = server_alive
        self.expected_feed = expected_feed or {}
        self.record_ids = record_ids
        self.latency: Dict[str, List[float]] = {kind: [] for kind in ENDPOINTS}
        self.sent: Counter = Counter()
        #: verdict class of each answered single lookup
        self.verdicts: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.mismatches = 0
        self.mismatch_examples: List[str] = []
        self.checked_labels = 0
        self.feed_walks = 0
        self.feed_errors: List[str] = []
        self.cursors_expired = 0
        self.crashed = False
        self.request_log: List[Tuple[str, str, float]] = []
        self._walk: Optional[dict] = None

    # -- bookkeeping -----------------------------------------------------------
    def _fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_EXAMPLES:
            self.failures.append(reason)

    def _mismatch(self, detail: str) -> None:
        self.mismatches += 1
        if len(self.mismatch_examples) < MAX_EXAMPLES:
            self.mismatch_examples.append(detail)

    def _check(self, item, verdict: str) -> None:
        if item.expect is None:
            return
        self.checked_labels += 1
        if verdict != item.expect:
            self._mismatch(f"{item.fields} -> {verdict}, expected {item.expect}")

    # -- requests --------------------------------------------------------------
    def _request(self, kind: str, index: int):
        traffic = self.traffic
        if kind == "enrich":
            return "GET", traffic.enrich_path(index), None
        if kind == "batch":
            return "POST", ENDPOINTS[kind], traffic.batch_body(index)
        if kind == "query":
            return "POST", ENDPOINTS[kind], traffic.query_body(index)
        cursor = self._walk["cursor"] if self._walk else None
        query = f"?limit={FEED_PAGE_LIMIT}" + (f"&cursor={cursor}" if cursor else "")
        return "GET", ENDPOINTS[kind] + query, None

    def _verify(self, kind: str, index: int, payload: dict) -> None:
        if kind == "enrich":
            self.verdicts[payload.get("verdict")] += 1
            self._check(self.traffic.pool[index], payload.get("verdict"))
        elif kind == "batch":
            results = payload.get("results", [])
            items = self.traffic.batches[index]
            if len(results) != len(items):
                self._mismatch(f"batch {index}: {len(results)} results for {len(items)} items")
                return
            for item, result in zip(items, results):
                self._check(item, result.get("verdict"))
        elif kind == "feed":
            self._feed_page(payload)

    def _feed_page(self, page: dict) -> None:
        if self._walk is None:
            self._walk = {"generation": page["generation"], "total": page["total"], "ids": []}
        walk = self._walk
        if page["generation"] != walk["generation"]:
            self.feed_errors.append(
                f"walk of generation {walk['generation']} got a page of {page['generation']}"
            )
        walk["ids"].extend(item["id"] for item in page["items"])
        walk["cursor"] = page["next_cursor"]
        if page["next_cursor"] is not None:
            return
        self._walk = None
        self.feed_walks += 1
        ids = walk["ids"]
        if len(set(ids)) != len(ids):
            self.feed_errors.append(f"generation {walk['generation']}: duplicate items")
        if len(ids) != walk["total"]:
            self.feed_errors.append(
                f"generation {walk['generation']}: {len(ids)} items of {walk['total']}"
            )
        expected = self.expected_feed.get(walk["generation"])
        if expected is not None and (len(ids), id_set_digest(ids)) != tuple(expected):
            self.feed_errors.append(
                f"generation {walk['generation']}: items differ from the event batches"
            )

    def run(self) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
        position = 0
        try:
            while time.monotonic() < self.deadline:
                kind, index = self.ops[position % len(self.ops)]
                position += 1
                method, path, body = self._request(kind, index)
                headers = {"Content-Type": "application/json"} if body is not None else {}
                rid = f"{self.number}-{position}"
                if self.record_ids:
                    headers["X-Request-Id"] = rid
                self.attempted += 1
                self.sent[ENDPOINTS[kind]] += 1
                started = time.perf_counter()
                try:
                    conn.request(method, path, body=body, headers=headers)
                    response = conn.getresponse()
                    data = response.read()
                except (OSError, http.client.HTTPException) as error:
                    conn.close()
                    self._fail(f"{kind}: {type(error).__name__}: {error}")
                    if not self.server_alive():
                        self.crashed = True
                        rest = max(0, len(self.ops) - position)
                        self.attempted += rest
                        self.failed += rest
                        return
                    continue
                elapsed = time.perf_counter() - started
                if response.status != 200:
                    if kind == "feed":
                        self._walk = None
                        if response.status == 410:
                            self.cursors_expired += 1
                    self._fail(f"{kind}: HTTP {response.status}")
                    continue
                self.latency[kind].append(elapsed)
                if self.record_ids:
                    self.request_log.append((rid, kind, elapsed))
                try:
                    self._verify(kind, index, json.loads(data))
                except (ValueError, KeyError, TypeError) as error:
                    self._mismatch(f"{kind}: unreadable reply ({error})")
        finally:
            conn.close()
