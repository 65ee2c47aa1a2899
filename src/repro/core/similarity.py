"""Similar-edge pipeline: AST -> embedding -> K-Means -> groups.

Implements Section III-A's four-step recipe: (1) parse each package's
source into an AST, (2) embed it, (3) cluster embeddings with the
growing-k K-Means, (4) link packages that share a cluster.

The paper notes the clustering can produce false positives ("two packages
use similar codes but belong to two different groups") which they remove
by manual inspection; :attr:`SimilarityConfig.min_similarity` automates
that pass — each K-Means cluster is re-split into cosine-similarity
connected components, so loosely attached members drop off.

This stage dominates ``MalGraph.build`` wall time, so it is the one that
scales with the hardware: embedding fans out over ``jobs`` worker
processes (deduplicated by SHA256 first), vectors persist in the
:mod:`repro.pipeline` store's ``embeddings`` tier keyed by an
embedder-only fingerprint (a ``min_similarity``/``start_k`` sweep never
re-embeds), and every substage is timed into
:class:`SimilarityTimings` so the win is observable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.embedding import DEFAULT_DIM, AstEmbedder
from repro.core.kmeans import GrowthTrace, KMeansResult, grow_kmeans
from repro.ecosystem.package import PackageArtifact

#: Row-block size of the per-cluster similarity matmul: one block of the
#: cosine matrix is materialised at a time, so a single huge cluster
#: (the registering-flood case) cannot allocate O(m²) memory at once.
SIMILARITY_BLOCK_ROWS = 2048


@dataclass(frozen=True)
class SimilarityConfig:
    """Knobs of the similarity pipeline."""

    dim: int = DEFAULT_DIM
    start_k: int = 3  # the paper's initial cluster count
    seed: int = 0
    max_k: Optional[int] = None
    duplicate_eps: float = 0.05
    #: cosine threshold of the automated false-positive pass; set to None
    #: to reproduce the raw cluster-co-membership edges.
    min_similarity: Optional[float] = 0.90
    structural_weight: float = 0.15
    lexical_weight: float = 5.0
    #: embedding worker processes (0 = one per core). An execution knob,
    #: not a result knob: it is excluded from pipeline fingerprints
    #: because the output is byte-identical for any value.
    jobs: int = 1


@dataclass
class SimilarityTimings:
    """Per-substage wall time and embedding-cache accounting."""

    embed_seconds: float = 0.0
    cluster_seconds: float = 0.0
    split_seconds: float = 0.0
    artifacts: int = 0
    unique_artifacts: int = 0
    #: unique SHA256s served from the persistent embedding cache
    cache_hits: int = 0
    #: unique SHA256s that had to be embedded this run
    cache_misses: int = 0
    jobs: int = 1

    def to_dict(self) -> dict:
        return {
            "embed_seconds": self.embed_seconds,
            "cluster_seconds": self.cluster_seconds,
            "split_seconds": self.split_seconds,
            "artifacts": self.artifacts,
            "unique_artifacts": self.unique_artifacts,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "jobs": self.jobs,
        }

    def rows(self) -> List[Tuple[str, float, Dict[str, Any]]]:
        """(substage, seconds, detail) rows for the pipeline report."""
        return [
            (
                "embed",
                self.embed_seconds,
                {
                    "artifacts": self.artifacts,
                    "unique": self.unique_artifacts,
                    "cache_hits": self.cache_hits,
                    "cache_misses": self.cache_misses,
                    "jobs": self.jobs,
                },
            ),
            ("cluster", self.cluster_seconds, {}),
            ("split", self.split_seconds, {}),
        ]


@dataclass
class SimilarityResult:
    """Cluster assignment over the embedded artifacts."""

    groups: List[List[int]]  # member indices per final group (size >= 2)
    labels: np.ndarray  # final group id per artifact (-1 = ungrouped)
    kmeans_k: int
    trace: List[GrowthTrace] = field(default_factory=list)
    timings: Optional[SimilarityTimings] = None

    @property
    def group_count(self) -> int:
        return len(self.groups)


def cluster_artifacts(
    artifacts: Sequence[PackageArtifact],
    config: Optional[SimilarityConfig] = None,
    store=None,
) -> SimilarityResult:
    """Run the full similarity pipeline over a batch of artifacts.

    ``store`` (a :class:`repro.pipeline.store.ArtifactStore`) enables the
    persistent embedding cache: vectors for already-seen artifact
    SHA256s are loaded instead of recomputed, and freshly computed ones
    are written back, keyed by the embedder-only fingerprint — so any
    config change outside ``(dim, structural_weight, lexical_weight)``
    re-clusters without re-embedding.
    """
    config = config if config is not None else SimilarityConfig()
    n = len(artifacts)
    labels = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return SimilarityResult(
            groups=[], labels=labels, kmeans_k=0, timings=SimilarityTimings()
        )
    embedder = AstEmbedder(
        dim=config.dim,
        structural_weight=config.structural_weight,
        lexical_weight=config.lexical_weight,
    )
    timings = SimilarityTimings(artifacts=n, jobs=config.jobs)
    started = time.perf_counter()
    X = embed_artifacts(embedder, artifacts, config.jobs, store, timings)
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
    for members in result.clusters():
        if config.min_similarity is None:
            split = [members]
        else:
            split = _similarity_components(X, members, config.min_similarity)
        for component in split:
            if len(component) >= 2:
                groups.append(sorted(int(i) for i in component))
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


def embed_artifacts(
    embedder: AstEmbedder,
    artifacts: Sequence[PackageArtifact],
    jobs: int,
    store,
    timings: SimilarityTimings,
) -> np.ndarray:
    """Embed ``artifacts`` into an (n, dim) matrix through the store's
    ``embeddings`` tiers: memory, then disk (absent or corrupt vector
    files are misses), then the embedder, whose fresh vectors are
    written back. Sets the unique/hit/miss counts of ``timings``.
    ``store=None`` embeds everything and caches nothing."""
    shas = {artifact.sha256() for artifact in artifacts}
    timings.unique_artifacts = len(shas)
    if store is None:
        timings.cache_misses = len(shas)
        return embedder.embed_many(artifacts, jobs=jobs)
    embedder_fp = embedder.fingerprint()
    cache = store.embedding_memory(embedder_fp)
    missing = sorted(sha for sha in shas if sha not in cache)
    if missing:
        cache.update(store.load_embeddings(embedder_fp, missing))
    to_compute = [sha for sha in shas if sha not in cache]
    timings.cache_hits = len(shas) - len(to_compute)
    timings.cache_misses = len(to_compute)
    X = embedder.embed_many(artifacts, jobs=jobs, cache=cache)
    if to_compute:
        store.save_embeddings(
            embedder_fp,
            {sha: cache[sha] for sha in to_compute},
            embedder_payload(embedder),
        )
    return X


def embedder_payload(embedder: AstEmbedder) -> dict:
    """The embedder knobs stamped into ``embeddings`` cache metadata."""
    from repro.core.embedding import FEATURE_VERSION

    return {
        "embedder": {
            "feature_version": FEATURE_VERSION,
            "dim": embedder.dim,
            "structural_weight": embedder.structural_weight,
            "lexical_weight": embedder.lexical_weight,
            "max_tokens": embedder.max_tokens,
        }
    }


def _similarity_components(
    X: np.ndarray, members: np.ndarray, threshold: float
) -> List[List[int]]:
    """Split one cluster into cosine >= threshold connected components.

    Works on *unique* vectors (duplicated code collapses to one point), so
    even the registering-flood cluster with thousands of identical
    packages costs one row — and the cosine matrix is materialised in
    :data:`SIMILARITY_BLOCK_ROWS` row blocks, so no single cluster can
    demand an O(m²) allocation at once.
    """
    vectors = X[members]
    unique, inverse = np.unique(vectors.round(9), axis=0, return_inverse=True)
    m = unique.shape[0]
    if m == 1:
        return [list(members)]
    parent = list(range(m))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for block_start in range(0, m, SIMILARITY_BLOCK_ROWS):
        block = unique[block_start : block_start + SIMILARITY_BLOCK_ROWS]
        sims = block @ unique.T
        rows, cols = np.nonzero(sims >= threshold)
        for i, j in zip((rows + block_start).tolist(), cols.tolist()):
            if i < j:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    components: Dict[int, List[int]] = {}
    for position, member in enumerate(members):
        root = find(int(inverse[position]))
        components.setdefault(root, []).append(int(member))
    return list(components.values())
