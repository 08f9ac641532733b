"""Shared data layer for the conflict mitigation pipeline.

Holds the state the RIC components exchange: control records written by
xApps, the parameter group definitions, and the counters used by implicit
conflict detection. A stored record is also a change of every parameter
group it touches: the store indexes it under each (target, group) whose
definition has the target's scope and shares a parameter with it, so a
group change is stored, superseded and expired with its record.
Everything is kept in insertion order so that iteration is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Mapping, Optional, Tuple


class StoreError(Exception):
    """Base class for store failures."""


class ValidationError(StoreError):
    """A record or argument violates an invariant."""


class DuplicateRecordError(StoreError):
    """A record with the same identity is already stored."""


class Scope(Enum):
    """Granularity of a control target."""

    CELL = "cell"
    UE = "ue"


@dataclass(frozen=True)
class ControlTarget:
    """A network entity addressed by a control message."""

    scope: Scope
    id: str

    def __post_init__(self) -> None:
        if not isinstance(self.scope, Scope):
            raise ValidationError(f"target scope must be a Scope, got {self.scope!r}")
        if not self.id or not isinstance(self.id, str):
            raise ValidationError("target id must be a non-empty string")

    def sort_key(self) -> Tuple[str, str]:
        return (self.scope.value, self.id)


def _check_changes(changes: Mapping[str, float]) -> Dict[str, float]:
    if not changes:
        raise ValidationError("changes must contain at least one parameter")
    out: Dict[str, float] = {}
    for name, value in changes.items():
        if not name or not isinstance(name, str):
            raise ValidationError("parameter names must be non-empty strings")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"parameter {name!r} has non-numeric value {value!r}")
        if not math.isfinite(value):
            raise ValidationError(f"parameter {name!r} has non-finite value {value!r}")
        out[name] = float(value)
    return out


@dataclass(frozen=True)
class ControlRecord:
    """One applied (or candidate) parameter change from an xApp.

    A record is active while the values it set are in force. It becomes
    active at `ts`. It stops being active when a later change from the
    same xApp to one of its parameters on the same target supersedes it
    (`SdlStore.supersede`). A record with a `span` also stops at
    `ts + span`, so it is active at most over [ts, ts + span). A record
    without a span (None) lasts until it is superseded: a parameter
    written to a cell stays in force until it is rewritten.
    """

    msg_id: int
    ts: int
    xapp_id: str
    target: ControlTarget
    changes: Mapping[str, float]
    span: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.msg_id, int) or isinstance(self.msg_id, bool):
            raise ValidationError("msg_id must be an integer")
        if not isinstance(self.ts, int) or isinstance(self.ts, bool):
            raise ValidationError("ts must be an integer (milliseconds)")
        if not self.xapp_id or not isinstance(self.xapp_id, str):
            raise ValidationError("xapp_id must be a non-empty string")
        if not isinstance(self.target, ControlTarget):
            raise ValidationError("target must be a ControlTarget")
        if self.span is not None and (
            not isinstance(self.span, int) or isinstance(self.span, bool) or self.span <= 0
        ):
            raise ValidationError("span must be None or a positive integer (milliseconds)")
        object.__setattr__(self, "changes", _check_changes(self.changes))

    def parameters(self) -> frozenset:
        return frozenset(self.changes)

    def active_at(self, t: int) -> bool:
        return self.ts <= t and (self.span is None or t < self.ts + self.span)

    def closed_by(self, now: int) -> bool:
        """True once the span has run out at `now`; never without a span."""
        return self.span is not None and self.ts + self.span <= now


@dataclass(frozen=True)
class ParameterGroupDef:
    """Named set of parameters that jointly steer one network behaviour."""

    group_id: str
    members: frozenset
    scope: Scope

    def __post_init__(self) -> None:
        if not self.group_id or not isinstance(self.group_id, str):
            raise ValidationError("group_id must be a non-empty string")
        members = frozenset(self.members)
        if len(members) < 2:
            raise ValidationError(f"group {self.group_id!r} needs at least two members")
        for m in members:
            if not m or not isinstance(m, str):
                raise ValidationError("group members must be non-empty strings")
        if not isinstance(self.scope, Scope):
            raise ValidationError("group scope must be a Scope")
        object.__setattr__(self, "members", members)


# (sorted xapp ids, parameter or group name, target)
CounterKey = Tuple[Tuple[str, ...], str, ControlTarget]


def counter_sort_key(key: CounterKey):
    xapps, name, target = key
    return (xapps, name, target.sort_key())


@dataclass
class ImplicitCounter:
    """How often a set of xApps was seen changing one name on a degraded target."""

    key: CounterKey
    count: int = 0
    msg_ids: Tuple[int, ...] = ()


def _drop(view: Dict, key, msg_id: int) -> None:
    """Remove `msg_id` from one view bucket, and the bucket once it is empty."""
    at = view[key]
    del at[msg_id]
    if not at:
        del view[key]


class SdlStore:
    """In-memory shared store with insertion-order iteration.

    Records are validated on construction; the store only enforces identity
    uniqueness and performs lifecycle management (supersession, expiry).
    """

    def __init__(self) -> None:
        # dicts keep insertion order; the per-target and per-(target, group)
        # views let the detectors read one target without scanning the store
        self._controls: Dict[int, ControlRecord] = {}
        self._controls_at: Dict[ControlTarget, Dict[int, ControlRecord]] = {}
        self._groups_at: Dict[Tuple[ControlTarget, str], Dict[int, ControlRecord]] = {}
        self._group_defs: Dict[str, ParameterGroupDef] = {}
        self._counters: Dict[CounterKey, ImplicitCounter] = {}

    # -- parameter groups -----------------------------------------------------

    def add_parameter_group(self, group: ParameterGroupDef) -> None:
        if group.group_id in self._group_defs:
            raise DuplicateRecordError(f"group {group.group_id!r} already defined")
        if self._controls:
            # stored records are indexed by the groups defined when they came in
            raise ValidationError("parameter groups must be defined before any control record")
        self._group_defs[group.group_id] = group

    def groups_of(self, rec: ControlRecord) -> List[str]:
        """Ids of the defined groups `rec` touches: same scope as its target
        and at least one shared parameter. Sorted for determinism."""
        params = rec.parameters()
        hits = [
            d.group_id
            for d in self._group_defs.values()
            if d.scope == rec.target.scope and d.members & params
        ]
        return sorted(hits)

    # -- control records ----------------------------------------------------

    def record_control(self, rec: ControlRecord) -> None:
        if not isinstance(rec, ControlRecord):
            raise ValidationError("record_control takes a ControlRecord")
        if rec.msg_id in self._controls:
            raise DuplicateRecordError(f"msg_id {rec.msg_id} already recorded")
        self._controls[rec.msg_id] = rec
        self._controls_at.setdefault(rec.target, {})[rec.msg_id] = rec
        for gid in self.groups_of(rec):
            self._groups_at.setdefault((rec.target, gid), {})[rec.msg_id] = rec

    def active_controls(self, target: ControlTarget, now: int) -> List[ControlRecord]:
        """Records active at `now` for `target`, in insertion order."""
        at = self._controls_at.get(target)
        return [r for r in at.values() if r.active_at(now)] if at else []

    def active_group_changes(
        self, target: ControlTarget, group_id: str, now: int
    ) -> List[ControlRecord]:
        """Records active at `now` that change group `group_id` of `target`."""
        at = self._groups_at.get((target, group_id))
        return [r for r in at.values() if r.active_at(now)] if at else []

    def controls_at(self, target: ControlTarget) -> Tuple[ControlRecord, ...]:
        """Records stored for `target`, active or not, in insertion order."""
        return tuple(self._controls_at.get(target, {}).values())

    def all_controls(self) -> Tuple[ControlRecord, ...]:
        return tuple(self._controls.values())

    def all_group_changes(self) -> Tuple[Tuple[str, ControlRecord], ...]:
        """One (group_id, record) pair per group change, by (target, group)."""
        return tuple((gid, r) for (_, gid), at in self._groups_at.items() for r in at.values())

    def supersede(self, rec: ControlRecord) -> List[int]:
        """Drop older active records this one replaces.

        A record is replaced when it is still active, comes from the same
        xApp, addresses the same target, and shares at least one parameter
        with `rec`. Returns the msg_ids removed.
        """
        params = rec.parameters()
        removed = [
            old
            for old in self._controls_at.get(rec.target, {}).values()
            if old.msg_id != rec.msg_id
            and old.xapp_id == rec.xapp_id
            and old.active_at(rec.ts)
            and old.parameters() & params
        ]
        for old in removed:
            self._remove_control(old)
        return [old.msg_id for old in removed]

    def _remove_control(self, rec: ControlRecord) -> int:
        """Drop a record from every view; returns 1 + its group changes."""
        del self._controls[rec.msg_id]
        _drop(self._controls_at, rec.target, rec.msg_id)
        groups = self.groups_of(rec)
        for gid in groups:
            _drop(self._groups_at, (rec.target, gid), rec.msg_id)
        return 1 + len(groups)

    # -- implicit conflict counters -------------------------------------------

    def bump_counter(self, key: CounterKey, msg_ids: Iterable[int] = ()) -> int:
        ctr = self._counters.get(key)
        if ctr is None:
            ctr = ImplicitCounter(key=key)
            self._counters[key] = ctr
        ctr.count += 1
        merged = set(ctr.msg_ids) | set(msg_ids)
        ctr.msg_ids = tuple(sorted(merged))
        return ctr.count

    def get_counter(self, key: CounterKey) -> Optional[ImplicitCounter]:
        return self._counters.get(key)

    def reset_counter(self, key: CounterKey) -> None:
        ctr = self._counters.get(key)
        if ctr is not None:
            ctr.count = 0
            ctr.msg_ids = ()

    def counters_over(self, threshold: int) -> List[ImplicitCounter]:
        """Counters with count >= threshold, sorted by key."""
        hits = [c for c in self._counters.values() if c.count >= threshold]
        hits.sort(key=lambda c: counter_sort_key(c.key))
        return hits

    # -- lifecycle --------------------------------------------------------------

    def expire(self, now: int) -> int:
        """Purge entries that can no longer matter at time `now`.

        Records whose span has run out (ts + span <= now) are dropped with
        their group changes. Records without a span never run out; they
        leave the store when superseded. Returns the number of entries
        purged, each record counting 1 plus its group changes. Queries at
        times >= now are unaffected by expiry.
        """
        purged = 0
        for rec in [r for r in self._controls.values() if r.closed_by(now)]:
            purged += self._remove_control(rec)
        return purged

    def dump(self) -> Tuple:
        """Immutable snapshot of store content, for tests and debugging."""
        return (
            self.all_controls(),
            self.all_group_changes(),
            tuple((k, c.count, c.msg_ids) for k, c in self._counters.items()),
        )
