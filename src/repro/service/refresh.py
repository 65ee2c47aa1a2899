"""Incremental index refresh, fed by graph events.

The paper's future-work loop keeps collecting; a live service cannot
rebuild its index (and certainly not the similarity clustering) for
every re-collection. Both refresh entry points speak the delta engine's
event language (:mod:`repro.core.delta.events`):

* :func:`refresh_index` merges a re-collected dataset into the served
  one with :func:`repro.collection.merge.merge_datasets`, derives the
  event batch via
  :func:`~repro.collection.merge.events_from_datasets`, and applies
  exactly those events to the
  :class:`~repro.service.index.IntelIndex`;
* :func:`refresh_from_events` applies an externally produced batch
  (e.g. one replayed from an events JSONL) directly — and, when handed
  the served :class:`~repro.core.malgraph.MalGraph`, first evolves the
  graph in place with ``apply_delta`` and then mirrors its exact
  DG/DeG/SG/CG group extraction into the index wholesale, so even
  similarity and dependency memberships stay live instead of waiting
  for the next cold build.

Without a graph, refreshed packages get the cheap approximations only:
signature collisions link duplicated families, multi-package reports
become refresh-scoped campaign groups, SG/DeG memberships stay frozen.

Every applied batch advances ``index.epoch`` and stamps
``index.last_delta_at`` — surfaced by ``/v1/healthz`` and ``/v1/stats``
so operators can tell how fresh the served index is.

**Consistency model.** Handed a bare index (``service=None``) the batch
mutates it in place — the caller owns the only reference. Handed a
:class:`~repro.service.cache.EnrichmentService`, the refresh takes the
service's *writer* lock (serialising concurrent refreshes; readers
never touch it), **clones** the currently published index, applies the
batch to the clone off to the side, and installs the clone as the next
immutable snapshot generation with one reference assignment
(:meth:`~repro.service.cache.EnrichmentService.publish`). Lock-free
readers therefore observe either the old generation or the new one in
full — never a half-applied batch — and the generation-tagged verdict
cache can never serve a result computed against the outgoing index to
a reader of the incoming one. The one documented exception: the
``malgraph`` path evolves the caller's graph *in place* (callers keep
feeding the same graph across batches), so ``related()`` neighbour
lists read through an old-generation snapshot during the evolution
window are eventually-consistent; every verdict-bearing structure
(names, signatures, groups, actors, dataset) swaps atomically.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.collection.merge import (
    DatasetDiff,
    diff_datasets,
    events_from_datasets,
    merge_datasets,
)
from repro.collection.records import MalwareDataset
from repro.core.delta.events import (
    EventKind,
    GraphEvent,
    apply_events_to_dataset,
)
from repro.core.groups import GroupKind
from repro.core.malgraph import MalGraph
from repro.pipeline import get_store
from repro.service.cache import EnrichmentService
from repro.service.index import IntelIndex


@dataclass
class RefreshStats:
    """What one incremental refresh changed."""

    packages_added: int = 0
    packages_removed: int = 0
    signatures_updated: int = 0
    families_linked: int = 0
    campaigns_added: int = 0
    reports_added: int = 0
    groups_replaced: int = 0
    cache_cleared: bool = False

    def summary(self) -> str:
        return (
            f"+{self.packages_added} packages, -{self.packages_removed}, "
            f"{self.signatures_updated} signatures updated, "
            f"{self.families_linked} family links, "
            f"+{self.campaigns_added} campaigns, "
            f"+{self.reports_added} reports"
            f"{f', {self.groups_replaced} groups replaced' if self.groups_replaced else ''}"
            f"{', cache cleared' if self.cache_cleared else ''}"
        )


def _link_duplicate_family(index: IntelIndex, sha256: Optional[str]) -> bool:
    """Group every package sharing ``sha256`` as a duplicated family.

    Reuses an existing DG group when one of the signature's packages is
    already in it; otherwise mints a refresh-scoped group id.
    """
    if sha256 is None:
        return False
    members = index.sha_bucket(sha256)
    if len(members) < 2:
        return False
    group_id = None
    for pid in members:
        for held in index.groups_of(pid):
            if index.group_kind(held) is GroupKind.DG:
                group_id = held
                break
        if group_id:
            break
    if group_id is None:
        group_id = index.next_refresh_group_id(GroupKind.DG)
    index.register_group(group_id, GroupKind.DG, members)
    return True


def refresh_index(
    index: IntelIndex,
    new_dataset: MalwareDataset,
    service: Optional[EnrichmentService] = None,
) -> Tuple[MalwareDataset, DatasetDiff, RefreshStats]:
    """Merge a re-collected dataset into the live index, delta only.

    Returns the merged dataset (now the one the index serves), the diff
    that was applied, and counters describing the change. With a
    ``service``, the base is the service's *currently published* index
    (read under the writer lock, so back-to-back refreshes from
    different threads compose instead of clobbering each other) and the
    change lands as a fresh snapshot generation.
    """
    guard = service.lock if service is not None else contextlib.nullcontext()
    with guard:
        base = service.index if service is not None else index
        target = base.clone() if service is not None else base
        old = base.dataset
        merged = merge_datasets(old, new_dataset)
        diff = diff_datasets(old, merged)
        events = events_from_datasets(old, merged)
        stats = _apply_events(
            target, events, old, malgraph=None, dataset_override=merged
        )
        if service is not None:
            service.publish(target)
            stats.cache_cleared = True
        return merged, diff, stats


def refresh_from_events(
    index: IntelIndex,
    events: Sequence[GraphEvent],
    service: Optional[EnrichmentService] = None,
    malgraph: Optional[MalGraph] = None,
) -> Tuple[MalwareDataset, RefreshStats]:
    """Apply an event batch straight to the live index.

    With ``malgraph`` (the graph the index was built from), the graph is
    evolved in place first and its exact group extraction replaces the
    index's groups wholesale; without it, only the per-event index
    updates (and their DG/CG approximations) run. Returns the dataset
    the index now serves and the change counters. With a ``service``
    the batch lands as a fresh snapshot generation (see the module
    docstring for the consistency model).
    """
    guard = service.lock if service is not None else contextlib.nullcontext()
    with guard:
        base = service.index if service is not None else index
        target = base.clone() if service is not None else base
        stats = _apply_events(target, list(events), base.dataset, malgraph)
        if service is not None:
            service.publish(target)
            stats.cache_cleared = True
        return target.dataset, stats


def _apply_events(
    index: IntelIndex,
    events: List[GraphEvent],
    old: MalwareDataset,
    malgraph: Optional[MalGraph],
    dataset_override: Optional[MalwareDataset] = None,
) -> RefreshStats:
    """Apply one event batch to ``index`` (which nobody else reads yet).

    ``old`` is the dataset the batch was derived against — the snapshot
    path hands the published index's dataset while ``index`` is a
    clone, so in-batch "previous state" lookups resolve correctly.
    """
    stats = RefreshStats()

    if malgraph is not None:
        evolved, _ = malgraph.apply_delta(
            events, store=get_store(), in_place=True
        )
        new_dataset = evolved.dataset
        index.graph = evolved.graph
    else:
        new_dataset = apply_events_to_dataset(old, events)

    # The index resolves entries through its dataset reference, so the
    # swap retargets every already-indexed PackageId at the new entries
    # for free. ``dataset_override`` lets refresh_index serve the merged
    # (canonically sorted) dataset rather than event-application order —
    # same entries per key either way.
    index.dataset = dataset_override if dataset_override is not None else new_dataset

    # Running view of the batch: later events must see what earlier ones
    # in the same batch did (None marks an in-batch removal).
    seen = {}

    def previous(pid):
        return seen[pid] if pid in seen else old.get(pid)

    for event in events:
        if event.kind is EventKind.PACKAGE_ADDED:
            entry = event.entry()
            index.add_entry(entry)
            stats.packages_added += 1
            if _link_duplicate_family(index, entry.sha256()):
                stats.families_linked += 1
            seen[entry.package] = entry
        elif event.kind is EventKind.PACKAGE_DETECTED:
            entry = event.entry()
            prev = previous(entry.package)
            prev_sha = prev.sha256() if prev is not None else None
            new_sha = entry.sha256()
            if new_sha != prev_sha:
                index.unregister_sha(prev_sha, entry.package)
                if new_sha is not None:
                    index.register_sha(entry)
                    stats.signatures_updated += 1
                    if _link_duplicate_family(index, new_sha):
                        stats.families_linked += 1
            seen[entry.package] = entry
        elif event.kind is EventKind.PACKAGE_REMOVED:
            pid = event.package_id()
            prev = previous(pid)
            if prev is not None:
                index.remove_entry(prev)
                stats.packages_removed += 1
            seen[pid] = None
        elif event.kind is EventKind.REPORT_INGESTED:
            report = event.report()
            index.add_report(report)
            stats.reports_added += 1
            resolvable = {
                p for p in report.packages if index.dataset.get(p) is not None
            }
            if len(resolvable) >= 2:
                group_id = index.next_refresh_group_id(GroupKind.CG)
                index.register_group(group_id, GroupKind.CG, sorted(resolvable))
                stats.campaigns_added += 1

    if malgraph is not None:
        # The evolved graph knows the *exact* group structure — mirror it
        # wholesale (this supersedes the per-event DG/CG approximations,
        # including any refresh-scoped ids minted above).
        for kind in GroupKind:
            groups = [
                [m.package for m in group.members]
                for group in malgraph.groups(kind)
            ]
            index.replace_groups(kind, groups)
            stats.groups_replaced += len(groups)

    index.epoch += 1
    index.last_delta_at = time.time()
    return stats
