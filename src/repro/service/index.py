"""Inverted indexes over MALGRAPH for O(1) indicator lookup.

The offline graph answers "what is related to package X" by walking
edges; a serving layer cannot afford a walk per request. The
:class:`IntelIndex` is built in one pass over the dataset, the graph and
the DG/DeG/SG/CG group extraction, and afterwards resolves every
indicator shape the enrichment API accepts — name, name+version, SHA256
signature, ecosystem, family/group id, actor alias — with dictionary
lookups.

Every package-id bucket is an insertion-ordered ``dict[PackageId,
None]`` used as an ordered set: membership, insertion and removal are
O(1), so the build is linear in entries + group memberships + report
package mentions, and lookups return ids in first-insertion order.

The index stores :class:`~repro.ecosystem.package.PackageId` keys only
and resolves entries through the live dataset reference, which is what
lets :mod:`repro.service.refresh` swap in a merged dataset and index the
delta without rebuilding anything.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.collection.records import CollectedReport, DatasetEntry, MalwareDataset
from repro.core.edges import node_id
from repro.core.graph import EdgeType, PropertyGraph
from repro.core.groups import GroupKind
from repro.core.malgraph import MalGraph
from repro.detection.typosquat import _normalize, damerau_levenshtein
from repro.intel.sources import SOURCE_INDEX, Sector, SourceProfile

#: Group kinds read as malware families vs attack campaigns (Section IV:
#: DG/SG groups recover families, DeG/CG groups recover campaigns).
FAMILY_KINDS = (GroupKind.DG, GroupKind.SG)
CAMPAIGN_KINDS = (GroupKind.DEG, GroupKind.CG)

#: Sector base weight of :func:`source_reliability` — primary detectors
#: (industry) rank above retrospective aggregators (academia) above
#: individual blogs/SNS.
_SECTOR_RELIABILITY = {
    Sector.INDUSTRY: 0.80,
    Sector.ACADEMIA: 0.65,
    Sector.INDIVIDUAL: 0.40,
}


def source_reliability(profile: SourceProfile) -> float:
    """Deterministic reliability score in (0, 1) for a source profile.

    Sector sets the base; sharing artifacts (verifiable claims) and a
    live update cadence each add a bonus.
    """
    score = _SECTOR_RELIABILITY[profile.sector]
    score += 0.15 * profile.share_artifacts
    if profile.update_interval_days and profile.update_interval_days <= 90:
        score += 0.04
    return round(min(score, 0.99), 4)


def _deletion_variants(norm: str) -> Set[str]:
    """The name plus every single-character deletion of it.

    Two names within Damerau-Levenshtein distance 1 always share a
    variant (SymSpell's observation), so intersecting variant sets turns
    the near-miss scan into a handful of dict hits.
    """
    variants = {norm}
    for i in range(len(norm)):
        variants.add(norm[:i] + norm[i + 1 :])
    return variants


def _discard(buckets: Dict[str, Dict], key: str, pid) -> None:
    """Drop ``pid`` from the ordered-set bucket ``buckets[key]``, and the
    bucket itself once it empties."""
    bucket = buckets.get(key)
    if bucket is None or pid not in bucket:
        return
    del bucket[pid]
    if not bucket:
        del buckets[key]


class IntelIndex:
    """One-pass inverted indexes over a built :class:`MalGraph`."""

    def __init__(self, dataset: MalwareDataset, graph: Optional[PropertyGraph] = None):
        self.dataset = dataset
        self.graph = graph
        # package-id buckets are ordered sets: {PackageId: None}
        self._by_name: Dict[str, Dict] = {}  # lowercase name -> ids
        self._by_sha: Dict[str, Dict] = {}
        self._by_ecosystem: Dict[str, Dict] = {}
        self._groups_of: Dict[object, List[str]] = {}  # PackageId -> [group id]
        self._group_members: Dict[str, Dict] = {}
        self._group_kind: Dict[str, GroupKind] = {}
        self._actors_of: Dict[object, List[str]] = {}
        self._actor_packages: Dict[str, Dict] = {}  # lowercase alias -> ids
        self._norm_names: Dict[str, Set[str]] = {}  # normalized -> lowercase names
        self._deletions: Dict[str, Set[str]] = {}  # variant -> normalized names
        self._indexed_reports: Set[str] = set()
        self._refresh_groups = 0  # counter for refresh-created group ids
        #: advanced once per applied refresh/delta batch; 0 = cold build
        self.epoch = 0
        #: wall-clock time of the last applied batch (None = never)
        self.last_delta_at: Optional[float] = None

    # -- construction -----------------------------------------------------
    @classmethod
    def build(cls, malgraph: MalGraph) -> "IntelIndex":
        """Index a built graph: entries, groups and report actors."""
        index = cls(malgraph.dataset, malgraph.graph)
        for entry in malgraph.dataset.entries:
            index.add_entry(entry)
        for kind in GroupKind:
            for i, group in enumerate(malgraph.groups(kind)):
                group_id = f"{kind.value}-{i:04d}"
                index.register_group(
                    group_id, kind, [m.package for m in group.members]
                )
        for report in malgraph.dataset.reports:
            index.add_report(report)
        return index

    def clone(self) -> "IntelIndex":
        """An independent copy sharing only the immutable leaves.

        The snapshot-swap refresh (:mod:`repro.service.refresh`) applies
        a delta to a clone while lock-free readers keep resolving
        against the original, then publishes the clone atomically. Every
        mutable container is copied one level deep: the ordered-dict
        package-id buckets, the per-package group/actor lists and the
        name sets. Entries, package ids and reports are value objects
        shared by reference; the dataset and graph references carry over
        and are retargeted by the refresh itself.
        """
        other = IntelIndex(self.dataset, self.graph)
        other._by_name = {k: dict(v) for k, v in self._by_name.items()}
        other._by_sha = {k: dict(v) for k, v in self._by_sha.items()}
        other._by_ecosystem = {k: dict(v) for k, v in self._by_ecosystem.items()}
        other._groups_of = {k: list(v) for k, v in self._groups_of.items()}
        other._group_members = {k: dict(v) for k, v in self._group_members.items()}
        other._group_kind = dict(self._group_kind)
        other._actors_of = {k: list(v) for k, v in self._actors_of.items()}
        other._actor_packages = {k: dict(v) for k, v in self._actor_packages.items()}
        other._norm_names = {k: set(v) for k, v in self._norm_names.items()}
        other._deletions = {k: set(v) for k, v in self._deletions.items()}
        other._indexed_reports = set(self._indexed_reports)
        other._refresh_groups = self._refresh_groups
        other.epoch = self.epoch
        other.last_delta_at = self.last_delta_at
        return other

    def add_entry(self, entry: DatasetEntry) -> None:
        """Register one package in every per-entry index (idempotent)."""
        pid = entry.package
        name = pid.name.lower()
        self._by_name.setdefault(name, {})[pid] = None
        self._by_ecosystem.setdefault(pid.ecosystem, {})[pid] = None
        self.register_sha(entry)
        norm = _normalize(pid.name)
        if norm:
            self._norm_names.setdefault(norm, set()).add(name)
            for variant in _deletion_variants(norm):
                self._deletions.setdefault(variant, set()).add(norm)

    def register_sha(self, entry: DatasetEntry) -> None:
        """(Re-)index an entry's SHA256 (used when an artifact appears)."""
        sha = entry.sha256()
        if sha is None:
            return
        self._by_sha.setdefault(sha, {})[entry.package] = None

    def unregister_sha(self, sha256: Optional[str], pid) -> None:
        """Drop one package from a signature bucket (artifact replaced
        or package removed)."""
        if sha256 is not None:
            _discard(self._by_sha, sha256, pid)

    def remove_entry(self, entry: DatasetEntry) -> None:
        """Unregister one package from every per-entry index.

        ``entry`` must be the entry as last indexed (its SHA256 locates
        the signature bucket to leave).
        """
        pid = entry.package
        name = pid.name.lower()
        _discard(self._by_name, name, pid)
        _discard(self._by_ecosystem, pid.ecosystem, pid)
        self.unregister_sha(entry.sha256(), pid)
        for group_id in self._groups_of.pop(pid, []):
            members = self._group_members.get(group_id)
            if members is not None:
                members.pop(pid, None)
        for alias in self._actors_of.pop(pid, []):
            alias_bucket = self._actor_packages.get(alias.lower())
            if alias_bucket is not None:
                alias_bucket.pop(pid, None)
        # the typo-squat neighbourhood tracks *names*; only an orphaned
        # name leaves it
        if name not in self._by_name:
            norm = _normalize(pid.name)
            held = self._norm_names.get(norm)
            if held is not None:
                held.discard(name)
                if not held:
                    del self._norm_names[norm]
                    for variant in _deletion_variants(norm):
                        variants = self._deletions.get(variant)
                        if variants is not None:
                            variants.discard(norm)
                            if not variants:
                                del self._deletions[variant]

    def register_group(self, group_id: str, kind: GroupKind, members: Sequence) -> None:
        """Register a family/campaign group over member package ids."""
        self._group_kind[group_id] = kind
        held = self._group_members.setdefault(group_id, {})
        for pid in members:
            held[pid] = None
            groups = self._groups_of.setdefault(pid, [])
            if group_id not in groups:
                groups.append(group_id)

    def replace_groups(self, kind: GroupKind, groups: Sequence[Sequence]) -> None:
        """Swap every group of one kind for a fresh positional set.

        Drops all existing ids of the kind — including refresh-scoped
        ``<kind>-rNNNN`` ids — and re-registers ``{kind}-{i:04d}`` over
        ``groups`` (member package-id lists). The delta-routed refresh
        uses this to mirror the evolved MALGRAPH's group extraction
        wholesale, which is how SG/DeG memberships stay live instead of
        waiting for the next cold build.
        """
        stale = [
            group_id
            for group_id, held in self._group_kind.items()
            if held is kind
        ]
        for group_id in stale:
            for pid in self._group_members.pop(group_id, ()):
                held = self._groups_of.get(pid)
                if held is not None and group_id in held:
                    held.remove(group_id)
                    if not held:
                        del self._groups_of[pid]
            del self._group_kind[group_id]
        for i, members in enumerate(groups):
            self.register_group(f"{kind.value}-{i:04d}", kind, list(members))

    def next_refresh_group_id(self, kind: GroupKind) -> str:
        """A fresh ``<kind>-rNNNN`` id for a refresh-discovered group."""
        self._refresh_groups += 1
        return f"{kind.value}-r{self._refresh_groups:04d}"

    def add_report(self, report: CollectedReport) -> None:
        """Index a report's actor alias over its resolved packages."""
        if report.report_id in self._indexed_reports:
            return
        self._indexed_reports.add(report.report_id)
        if not report.actor_alias:
            return
        alias_key = report.actor_alias.lower()
        bucket = self._actor_packages.setdefault(alias_key, {})
        for pid in report.packages:
            if self.dataset.get(pid) is None:
                continue
            bucket[pid] = None
            aliases = self._actors_of.setdefault(pid, [])
            if report.actor_alias not in aliases:
                aliases.append(report.actor_alias)

    # -- lookups ----------------------------------------------------------
    def entries(self, pids: Iterable) -> List[DatasetEntry]:
        found = (self.dataset.get(pid) for pid in pids)
        return [e for e in found if e is not None]

    def lookup_sha256(self, sha256: str) -> List[DatasetEntry]:
        return self.entries(self._by_sha.get(sha256.lower(), ()))

    def sha_bucket(self, sha256: str) -> List:
        """Package ids sharing one signature (duplicated-family seed)."""
        return list(self._by_sha.get(sha256, ()))

    def lookup_name(
        self, name: str, ecosystem: Optional[str] = None
    ) -> List[DatasetEntry]:
        pids = self._by_name.get(name.lower(), ())
        if ecosystem:
            pids = [p for p in pids if p.ecosystem == ecosystem]
        return self.entries(pids)

    def lookup_name_version(
        self, name: str, version: str, ecosystem: Optional[str] = None
    ) -> List[DatasetEntry]:
        return [
            e
            for e in self.lookup_name(name, ecosystem)
            if e.package.version == version
        ]

    def lookup_ecosystem(self, ecosystem: str) -> List[DatasetEntry]:
        return self.entries(self._by_ecosystem.get(ecosystem, ()))

    def lookup_actor(self, alias: str) -> List[DatasetEntry]:
        return self.entries(self._actor_packages.get(alias.lower(), ()))

    def lookup_group(self, group_id: str) -> List[DatasetEntry]:
        return self.entries(self._group_members.get(group_id, ()))

    def group_kind(self, group_id: str) -> Optional[GroupKind]:
        return self._group_kind.get(group_id)

    def groups_of(self, pid) -> List[str]:
        return list(self._groups_of.get(pid, ()))

    def families_of(self, pid) -> List[str]:
        return [
            g for g in self._groups_of.get(pid, ()) if self._group_kind[g] in FAMILY_KINDS
        ]

    def campaigns_of(self, pid) -> List[str]:
        return [
            g
            for g in self._groups_of.get(pid, ())
            if self._group_kind[g] in CAMPAIGN_KINDS
        ]

    def actors_of(self, pid) -> List[str]:
        return list(self._actors_of.get(pid, ()))

    def related(self, pid, limit: int = 25) -> List[str]:
        """Graph-neighbour node ids across every edge type (capped).

        Packages indexed after an incremental refresh have no graph node
        yet; they fall back to their group co-members.
        """
        nid = node_id(pid)
        found: Set[str] = set()
        if self.graph is not None and self.graph.has_node(nid):
            for edge_type in EdgeType:
                found.update(self.graph.neighbors(nid, edge_type))
        else:
            for group_id in self._groups_of.get(pid, ()):
                found.update(node_id(p) for p in self._group_members[group_id])
        found.discard(nid)
        return sorted(found)[:limit]

    def near_names(
        self, name: str, ecosystem: Optional[str] = None, max_distance: int = 2
    ) -> List[Tuple[str, int]]:
        """Known malicious names within a small edit distance of ``name``.

        Candidates come from the single-deletion neighbourhood (complete
        for distance <= 1, partial beyond), then the true
        Damerau-Levenshtein distance filters them. Exact matches are the
        caller's job and are excluded here.
        """
        norm = _normalize(name)
        if not norm:
            return []
        candidates: Set[str] = set()
        for variant in _deletion_variants(norm):
            candidates.update(self._deletions.get(variant, ()))
        candidates.discard(norm)
        hits: List[Tuple[str, int]] = []
        for candidate in candidates:
            distance = damerau_levenshtein(norm, candidate, cap=max_distance + 1)
            if distance > max_distance:
                continue
            for held_name in self._norm_names[candidate]:
                if ecosystem and not any(
                    p.ecosystem == ecosystem for p in self._by_name.get(held_name, ())
                ):
                    continue
                hits.append((held_name, distance))
        hits.sort(key=lambda pair: (pair[1], pair[0]))
        return hits

    # -- provenance -------------------------------------------------------
    def source_profiles(self, entries: Sequence[DatasetEntry]) -> List[Dict]:
        """Source provenance of a match set, best reliability first."""
        keys: Set[str] = set()
        for entry in entries:
            keys.update(entry.sources)
        rows = []
        for key in keys:
            profile = SOURCE_INDEX.get(key)
            if profile is None:
                rows.append({"key": key, "label": key, "sector": None, "reliability": 0.25})
                continue
            rows.append(
                {
                    "key": profile.key,
                    "label": profile.label,
                    "sector": profile.sector.value,
                    "reliability": source_reliability(profile),
                }
            )
        rows.sort(key=lambda r: (-r["reliability"], r["key"]))
        return rows

    # -- introspection ----------------------------------------------------
    @property
    def package_count(self) -> int:
        return len(self.dataset)

    def stats(self) -> Dict[str, object]:
        """Index-shape counters for the ``/v1/stats`` endpoint."""
        return {
            "packages": len(self.dataset),
            "names": len(self._by_name),
            "signatures": len(self._by_sha),
            "ecosystems": len(self._by_ecosystem),
            "groups": len(self._group_members),
            "actors": len(self._actor_packages),
            "reports": len(self._indexed_reports),
            "epoch": self.epoch,
            "last_delta_at": self.last_delta_at,
        }
