"""IntelIndex keeps list-bucket order under any mutation sequence.

The index stores package-id buckets as insertion-ordered dicts. A small
list-based reference model (``pid not in bucket`` before appending,
``list.remove`` to drop) fixes the order every lookup must return;
hypothesis drives both through random add/remove/group/report/clone
sequences and compares every lookup after each step.
"""

from __future__ import annotations

import copy
from typing import Dict, List

from hypothesis import given, settings, strategies as st

from repro.collection.records import CollectedReport, DatasetEntry, MalwareDataset
from repro.core.edges import node_id
from repro.core.groups import GroupKind
from repro.ecosystem.package import PackageId, make_artifact
from repro.service.index import IntelIndex

_NAMES = ("alpha", "Alpha", "beta", "alphb")  # "Alpha" shares alpha's bucket
_ECOSYSTEMS = ("pypi", "npm")
_VERSIONS = ("1.0", "2.0")
_CODES = ("A = 1\n", "B = 2\n", "C = 3\n")  # few signatures -> shared buckets


def _pool():
    entries = []
    for i, (eco, name, version) in enumerate(
        (e, n, v) for e in _ECOSYSTEMS for n in _NAMES for v in _VERSIONS
    ):
        entry = DatasetEntry(package=PackageId(eco, name, version))
        if i % 4:  # every fourth package has no artifact (no signature)
            entry.artifact = make_artifact(
                eco, name, version, {"pkg/m.py": _CODES[i % len(_CODES)]}
            )
        entries.append(entry)
    return entries


ENTRIES = _pool()
DATASET = MalwareDataset(entries=ENTRIES, reports=[])
GHOST = PackageId("pypi", "ghost", "0.1")  # never in the dataset
PIDS = [e.package for e in ENTRIES] + [GHOST]
SHAS = sorted({e.sha256() for e in ENTRIES if e.sha256()})
GROUP_IDS = [f"{kind.value}-{i:04d}" for kind in GroupKind for i in range(3)] + [
    "SG-r0001"
]
ALIASES = ("APT-X", "apt-x", "Lazarus")


def _add(bucket: List, item) -> None:
    if item not in bucket:
        bucket.append(item)


def _drop(buckets: Dict[str, List], key: str, pid) -> None:
    bucket = buckets.get(key)
    if bucket is not None and pid in bucket:
        bucket.remove(pid)
        if not bucket:
            del buckets[key]


class ListModel:
    """The list-bucket semantics the ordered-dict index must reproduce."""

    def __init__(self):
        self.by_name: Dict[str, List] = {}
        self.by_sha: Dict[str, List] = {}
        self.by_ecosystem: Dict[str, List] = {}
        self.groups_of: Dict[object, List[str]] = {}
        self.group_members: Dict[str, List] = {}
        self.group_kind: Dict[str, GroupKind] = {}
        self.actors_of: Dict[object, List[str]] = {}
        self.actor_packages: Dict[str, List] = {}
        self.reports = set()

    def add_entry(self, entry):
        pid = entry.package
        _add(self.by_name.setdefault(pid.name.lower(), []), pid)
        _add(self.by_ecosystem.setdefault(pid.ecosystem, []), pid)
        if entry.sha256():
            _add(self.by_sha.setdefault(entry.sha256(), []), pid)

    def remove_entry(self, entry):
        pid = entry.package
        _drop(self.by_name, pid.name.lower(), pid)
        _drop(self.by_ecosystem, pid.ecosystem, pid)
        if entry.sha256():
            _drop(self.by_sha, entry.sha256(), pid)
        for group_id in self.groups_of.pop(pid, []):
            members = self.group_members.get(group_id)
            if members is not None and pid in members:
                members.remove(pid)
        for alias in self.actors_of.pop(pid, []):
            bucket = self.actor_packages.get(alias.lower())
            if bucket is not None and pid in bucket:
                bucket.remove(pid)

    def register_group(self, group_id, kind, members):
        self.group_kind[group_id] = kind
        held = self.group_members.setdefault(group_id, [])
        for pid in members:
            _add(held, pid)
            _add(self.groups_of.setdefault(pid, []), group_id)

    def replace_groups(self, kind, groups):
        stale = [g for g, held in self.group_kind.items() if held is kind]
        for group_id in stale:
            for pid in self.group_members.pop(group_id, ()):
                held = self.groups_of.get(pid)
                if held is not None and group_id in held:
                    held.remove(group_id)
                    if not held:
                        del self.groups_of[pid]
            del self.group_kind[group_id]
        for i, members in enumerate(groups):
            self.register_group(f"{kind.value}-{i:04d}", kind, list(members))

    def add_report(self, report):
        if report.report_id in self.reports:
            return
        self.reports.add(report.report_id)
        if not report.actor_alias:
            return
        bucket = self.actor_packages.setdefault(report.actor_alias.lower(), [])
        for pid in report.packages:
            if DATASET.get(pid) is None:
                continue
            _add(bucket, pid)
            _add(self.actors_of.setdefault(pid, []), report.actor_alias)


def _packages(entries) -> List:
    return [e.package for e in entries]


def _resolved(pids) -> List:
    return [p for p in pids if DATASET.get(p) is not None]


def _assert_same(index: IntelIndex, model: ListModel) -> None:
    for name in _NAMES + ("ALPHA", "gamma"):
        key = name.lower()
        for eco in (None,) + _ECOSYSTEMS:
            expected = [
                p for p in model.by_name.get(key, ()) if not eco or p.ecosystem == eco
            ]
            assert _packages(index.lookup_name(name, eco)) == _resolved(expected)
            for version in _VERSIONS:
                assert _packages(index.lookup_name_version(name, version, eco)) == [
                    p for p in _resolved(expected) if p.version == version
                ]
    for sha in SHAS:
        assert index.sha_bucket(sha) == model.by_sha.get(sha, [])
        assert _packages(index.lookup_sha256(sha.upper())) == _resolved(
            model.by_sha.get(sha, ())
        )
    for eco in _ECOSYSTEMS:
        assert _packages(index.lookup_ecosystem(eco)) == model.by_ecosystem.get(eco, [])
    for alias in ALIASES:
        assert _packages(index.lookup_actor(alias)) == model.actor_packages.get(
            alias.lower(), []
        )
    for group_id in GROUP_IDS:
        assert _packages(index.lookup_group(group_id)) == _resolved(
            model.group_members.get(group_id, ())
        )
        assert index.group_kind(group_id) is model.group_kind.get(group_id)
    for pid in PIDS:
        assert index.groups_of(pid) == model.groups_of.get(pid, [])
        assert index.actors_of(pid) == model.actors_of.get(pid, [])
        co_members = {
            node_id(p)
            for group_id in model.groups_of.get(pid, ())
            for p in model.group_members[group_id]
        }
        co_members.discard(node_id(pid))
        assert index.related(pid, limit=1_000) == sorted(co_members)


_entry = st.sampled_from(ENTRIES)
_members = st.lists(st.sampled_from(PIDS), max_size=6)
_ops = st.one_of(
    st.tuples(st.just("add_entry"), _entry),
    st.tuples(st.just("remove_entry"), _entry),
    st.tuples(
        st.just("register_group"),
        st.sampled_from(GROUP_IDS),
        st.sampled_from(list(GroupKind)),
        _members,
    ),
    st.tuples(
        st.just("replace_groups"),
        st.sampled_from(list(GroupKind)),
        st.lists(_members, max_size=3),
    ),
    st.tuples(
        st.just("add_report"),
        st.integers(0, 3),
        st.sampled_from((None,) + ALIASES),
        _members,
    ),
    st.tuples(st.just("clone")),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_ops, max_size=30))
def test_index_matches_list_model_under_random_mutations(ops):
    index, model = IntelIndex(DATASET), ListModel()
    retired = []  # (clone source, model copy at clone time)
    for op, *args in ops:
        if op == "clone":
            retired.append((index, copy.deepcopy(model)))
            index = index.clone()
            continue
        if op == "add_report":
            report_no, alias, pids = args
            report = CollectedReport(
                report_id=f"r{report_no}",
                url="",
                site="",
                category="",
                source="test",
                publish_day=None,
                packages=pids,
                actor_alias=alias,
            )
            index.add_report(report)
            model.add_report(report)
        else:
            getattr(index, op)(*args)
            getattr(model, op)(*args)
        _assert_same(index, model)
    # mutating a clone never leaks into the index it was cloned from
    for source, snapshot in retired:
        _assert_same(source, snapshot)
