"""Incremental similar-edge stage.

A cold :func:`repro.core.similarity.cluster_artifacts` run spends almost
all of its time in two places: embedding every artifact and splitting
each K-Means cluster into cosine-similarity connected components. Both
are *incremental by nature*:

* embeddings are pure functions of the artifact bytes — the stage keeps
  a per-SHA256 vector matrix and resolves shas it has not seen through
  the same store tiers as the cold build
  (:func:`repro.core.similarity.embed_artifacts`: memory, then disk, then
  the embedder), so a delta batch embeds only the artifacts it
  introduced, even on a graph the process did not build itself;
* cosine similarity between two vectors does not depend on the K-Means
  clustering at all — the stage maintains *global* connected components
  of the "cosine ≥ threshold" graph over every unique rounded vector it
  has ever seen (append-only union-find over interned vector keys). A
  K-Means cluster's split then falls out almost for free: group the
  cluster's unique vectors by global component; a component whose every
  member sits in this cluster is one split-group verbatim (connectivity
  cannot depend on vectors the cluster does not contain when there are
  no vectors outside it), and only *fractured* components — those the
  clustering divided — need an exact recompute restricted to the
  cluster, which is a small matrix.

K-Means itself is deliberately re-run in full on every application: it
is cheap (well under a second at scale 10), globally unstable under
point insertion (a warm-started variant finds different basins), and the
byte-identity contract against a cold rebuild requires the exact cold
clustering. The expensive stages around it are what the caches remove.

Vector keys use the rounded row bytes. ``np.unique`` in the cold path
compares by value, which differs from byte identity only for ``-0.0``
vs ``0.0`` rows; numerically equal vectors have cosine 1.0 to every
common neighbour, so the induced components — the only thing consumed —
are identical either way.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.collection.records import DatasetEntry
from repro.core.embedding import AstEmbedder
from repro.core.kmeans import grow_kmeans
from repro.core.similarity import (
    SIMILARITY_BLOCK_ROWS,
    SimilarityConfig,
    SimilarityResult,
    SimilarityTimings,
    embed_artifacts,
)
from repro.ecosystem.package import PackageArtifact


class _IntUnionFind:
    """Append-only union-find over dense int ids (path compression)."""

    def __init__(self) -> None:
        self._parent: List[int] = []
        self._size: List[int] = []

    def add(self) -> int:
        idx = len(self._parent)
        self._parent.append(idx)
        self._size.append(1)
        return idx

    def find(self, i: int) -> int:
        parent = self._parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]

    def component_size(self, i: int) -> int:
        return self._size[self.find(i)]


class IncrementalSimilarStage:
    """Stateful replacement for ``cluster_artifacts`` on the delta path.

    One instance accumulates vector and cosine-component knowledge
    across successive :meth:`recompute` calls; its output is exactly
    what the cold pipeline would produce over the same entries.
    """

    def __init__(self, config: SimilarityConfig):
        self.config = config
        self.embedder = AstEmbedder(
            dim=config.dim,
            structural_weight=config.structural_weight,
            lexical_weight=config.lexical_weight,
        )
        #: sha256 -> row in the stacked vector matrix (the per-artifact
        #: cache and gather source)
        self._sha_row: Dict[str, int] = {}
        self._sha_matrix: Optional[np.ndarray] = None
        #: sha256 -> interned key id of its rounded vector
        self._sha_key: Dict[str, int] = {}
        #: rounded-row-bytes -> interned key id
        self._key_ids: Dict[bytes, int] = {}
        #: key id -> rounded vector (row of the global key matrix)
        self._key_rows: List[np.ndarray] = []
        self._key_matrix: Optional[np.ndarray] = None  # stacked _key_rows
        self._components = _IntUnionFind()

    # -- embedding ---------------------------------------------------------
    def _embed(
        self,
        entries: Sequence[DatasetEntry],
        shas: Sequence[str],
        store,
        timings: SimilarityTimings,
    ) -> np.ndarray:
        # one representative artifact per sha this stage has not seen;
        # the store's tiers serve those the cold build already embedded,
        # so a batch embeds only the artifacts it introduced
        unseen: Dict[str, PackageArtifact] = {}
        for entry, sha in zip(entries, shas):
            if sha not in self._sha_row and sha not in unseen:
                unseen[sha] = entry.artifact
        block = embed_artifacts(
            self.embedder, list(unseen.values()), self.config.jobs, store, timings
        )
        held = len(set(shas)) - len(unseen)  # already rows of _sha_matrix
        timings.unique_artifacts += held
        timings.cache_hits += held
        # assemble the (n, dim) matrix as a vectorised row gather over a
        # persistent per-sha matrix instead of a python loop per entry;
        # rows are the exact cached vectors, so the matrix matches what
        # embed_many over the full batch would return
        if unseen:
            for sha in unseen:
                self._sha_row[sha] = len(self._sha_row)
            self._sha_matrix = (
                block
                if self._sha_matrix is None
                else np.vstack([self._sha_matrix, block])
            )
        index = np.fromiter(
            (self._sha_row[sha] for sha in shas), dtype=np.intp, count=len(shas)
        )
        return self._sha_matrix[index]

    # -- global cosine components ------------------------------------------
    def _ids_for(self, shas: Sequence[str]) -> List[int]:
        """Key id per row via the per-SHA cache.

        A vector's rounded key is a pure function of the artifact bytes,
        so only shas never seen before are rounded and interned; the
        steady state skips the full-matrix ``round`` entirely.
        """
        missing: List[str] = []
        seen = set()
        for sha in shas:
            if sha not in self._sha_key and sha not in seen:
                seen.add(sha)
                missing.append(sha)
        if missing:
            rows = [self._sha_row[sha] for sha in missing]
            rounded = self._sha_matrix[rows].round(9)
            for sha, key_id in zip(missing, self._intern_keys(rounded)):
                self._sha_key[sha] = key_id
        return [self._sha_key[sha] for sha in shas]

    def _intern_keys(self, rounded: np.ndarray) -> List[int]:
        """Key ids for every row, updating global components for new keys."""
        ids: List[int] = []
        new_ids: List[int] = []
        for row in rounded:
            key = row.tobytes()
            held = self._key_ids.get(key)
            if held is None:
                held = self._components.add()
                self._key_ids[key] = held
                # copy: a view would pin the whole per-apply matrix alive
                self._key_rows.append(row.copy())
                new_ids.append(held)
            ids.append(held)
        if new_ids:
            self._key_matrix = np.vstack(self._key_rows)
            matrix = self._key_matrix
            threshold = self.config.min_similarity
            first_new = new_ids[0]
            for start in range(first_new, matrix.shape[0], SIMILARITY_BLOCK_ROWS):
                block = matrix[start : start + SIMILARITY_BLOCK_ROWS]
                sims = block @ matrix.T
                rows, cols = np.nonzero(sims >= threshold)
                for i, j in zip((rows + start).tolist(), cols.tolist()):
                    if i != j:
                        self._components.union(i, j)
        return ids

    def _split_cluster(
        self, members: np.ndarray, member_keys: Sequence[int]
    ) -> List[List[int]]:
        """Cosine connected components of one cluster, via the cache.

        Mirrors ``_similarity_components``: members sharing one unique
        vector always stay together, and with a single unique vector the
        whole cluster is one component.
        """
        by_key: Dict[int, List[int]] = {}
        for member, key in zip(members.tolist(), member_keys):
            by_key.setdefault(key, []).append(int(member))
        if len(by_key) == 1:
            return [list(int(m) for m in members)]
        blocks: Dict[int, List[int]] = {}
        for key in by_key:
            blocks.setdefault(self._components.find(key), []).append(key)
        components: List[List[int]] = []
        for root, keys in blocks.items():
            if len(keys) == self._components.component_size(root):
                # the whole global component lives in this cluster: its
                # connectivity uses no outside vectors, so it is one
                # split-group verbatim
                merged: List[int] = []
                for key in keys:
                    merged.extend(by_key[key])
                components.append(merged)
                continue
            components.extend(self._split_block(keys, by_key))
        return components

    def _split_block(
        self, keys: List[int], by_key: Dict[int, List[int]]
    ) -> List[List[int]]:
        """Exact restricted recompute for a fractured global component."""
        vectors = np.vstack([self._key_rows[key] for key in keys])
        m = vectors.shape[0]
        parent = list(range(m))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        threshold = self.config.min_similarity
        for start in range(0, m, SIMILARITY_BLOCK_ROWS):
            block = vectors[start : start + SIMILARITY_BLOCK_ROWS]
            sims = block @ vectors.T
            rows, cols = np.nonzero(sims >= threshold)
            for i, j in zip((rows + start).tolist(), cols.tolist()):
                if i < j:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[rj] = ri
        grouped: Dict[int, List[int]] = {}
        for position, key in enumerate(keys):
            grouped.setdefault(find(position), []).extend(by_key[key])
        return list(grouped.values())

    # -- the stage ---------------------------------------------------------
    def recompute(
        self, entries: Sequence[DatasetEntry], store=None
    ) -> SimilarityResult:
        """Re-run the similarity pipeline over ``entries`` incrementally.

        Byte-identical to ``cluster_artifacts([e.artifact for e in
        entries], config, store)`` — same groups, labels, kmeans_k.
        """
        config = self.config
        n = len(entries)
        labels = np.full(n, -1, dtype=np.int64)
        timings = SimilarityTimings(artifacts=n, jobs=config.jobs)
        if n == 0:
            return SimilarityResult(
                groups=[], labels=labels, kmeans_k=0, timings=timings
            )
        shas = [entry.artifact.sha256() for entry in entries]
        started = time.perf_counter()
        X = self._embed(entries, shas, store, timings)
        timings.embed_seconds = time.perf_counter() - started

        started = time.perf_counter()
        result, trace = grow_kmeans(
            X,
            start_k=config.start_k,
            max_k=config.max_k,
            seed=config.seed,
            duplicate_eps=config.duplicate_eps,
        )
        timings.cluster_seconds = time.perf_counter() - started

        started = time.perf_counter()
        groups: List[List[int]] = []
        if config.min_similarity is None:
            for members in result.clusters():
                if len(members) >= 2:
                    groups.append(sorted(int(i) for i in members))
        else:
            ids = self._ids_for(shas)
            for members in result.clusters():
                member_keys = [ids[int(i)] for i in members]
                for component in self._split_cluster(members, member_keys):
                    if len(component) >= 2:
                        groups.append(sorted(component))
        groups.sort(key=lambda g: (-len(g), g[0]))
        for group_id, members in enumerate(groups):
            for member in members:
                labels[member] = group_id
        timings.split_seconds = time.perf_counter() - started
        return SimilarityResult(
            groups=groups,
            labels=labels,
            kmeans_k=result.k,
            trace=trace,
            timings=timings,
        )
