"""Conflict detection: direct, indirect, and implicit.

Direct and indirect detection run before a control message is applied, by
matching it against the records already in the store. Implicit detection
runs after the fact: a performance monitor flags adverse KPI deviations,
each flagged event is correlated with recently active control messages, and
per-(xApp set, name, target) counters turn repeated co-occurrence into a
conflict report once they cross a threshold.
"""

from __future__ import annotations

import math
import statistics
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import count
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .sdl import (
    ControlRecord,
    ControlTarget,
    CounterKey,
    ParameterGroupDef,
    Scope,
    SdlStore,
    ValidationError,
    counter_sort_key,
)


class ConflictKind(Enum):
    DIRECT = "direct"
    INDIRECT = "indirect"
    IMPLICIT = "implicit"


@dataclass(frozen=True)
class ImplicitEvidence:
    """Counter state backing an implicit conflict report."""

    key: CounterKey
    count: int


@dataclass(frozen=True)
class ConflictReport:
    """One detected conflict between an incoming message and stored state.

    Implicit reports have no incoming message; they reference the set of
    messages accumulated as counter evidence.
    """

    kind: ConflictKind
    incoming_msg_id: Optional[int]
    conflicting_msg_ids: Tuple[int, ...]
    xapp_ids: frozenset
    target: ControlTarget
    shared_parameters: frozenset = frozenset()
    shared_groups: frozenset = frozenset()
    evidence: Optional[ImplicitEvidence] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "conflicting_msg_ids", tuple(self.conflicting_msg_ids))
        object.__setattr__(self, "xapp_ids", frozenset(self.xapp_ids))
        if not self.conflicting_msg_ids:
            raise ValidationError("a conflict report needs at least one counterpart message")
        if not self.xapp_ids:
            raise ValidationError("a conflict report needs at least one xApp")
        if self.kind is ConflictKind.DIRECT:
            if self.incoming_msg_id is None:
                raise ValidationError("direct reports reference the incoming message")
            if not self.shared_parameters:
                raise ValidationError("direct reports need shared parameters")
            if self.shared_groups:
                raise ValidationError("direct reports do not carry shared groups")
        elif self.kind is ConflictKind.INDIRECT:
            if self.incoming_msg_id is None:
                raise ValidationError("indirect reports reference the incoming message")
            if not self.shared_groups:
                raise ValidationError("indirect reports need shared groups")
        else:
            if self.incoming_msg_id is not None:
                raise ValidationError("implicit reports have no incoming message")
            if self.evidence is None:
                raise ValidationError("implicit reports need counter evidence")


# -- pre-action detection ------------------------------------------------------


def detect_direct(incoming: ControlRecord, store: SdlStore) -> List[ConflictReport]:
    """Conflicts on the same target and at least one shared parameter.

    Pre-action: `incoming` is not yet recorded, the store is only read.
    Records from the same xApp are supersession, not conflict.
    """
    reports = []
    for old in store.active_controls(incoming.target, incoming.ts):
        if old.xapp_id == incoming.xapp_id:
            continue
        shared = old.parameters() & incoming.parameters()
        if shared:
            reports.append(
                ConflictReport(
                    kind=ConflictKind.DIRECT,
                    incoming_msg_id=incoming.msg_id,
                    conflicting_msg_ids=(old.msg_id,),
                    xapp_ids=frozenset({old.xapp_id, incoming.xapp_id}),
                    target=incoming.target,
                    shared_parameters=shared,
                )
            )
    reports.sort(key=lambda r: r.conflicting_msg_ids[0])
    return reports


def map_parameter_groups(
    incoming: ControlRecord, defs: Sequence[ParameterGroupDef]
) -> List[str]:
    """Group ids the incoming message touches, sorted for determinism."""
    params = incoming.parameters()
    hits = [
        d.group_id
        for d in defs
        if d.scope == incoming.target.scope and d.members & params
    ]
    return sorted(hits)


def detect_indirect(
    incoming: ControlRecord, groups: Sequence[str], store: SdlStore
) -> List[ConflictReport]:
    """Conflicts through a shared parameter group, one report per (group, record).

    Pairs that already qualify as direct conflicts (raw parameter overlap)
    are excluded so each message pair is reported exactly once.
    """
    reports = []
    for group_id in groups:
        for gc in store.active_group_changes(incoming.target, group_id, incoming.ts):
            if gc.xapp_id == incoming.xapp_id:
                continue
            base = store.get_control(gc.msg_id)
            if base is not None and base.parameters() & incoming.parameters():
                continue
            reports.append(
                ConflictReport(
                    kind=ConflictKind.INDIRECT,
                    incoming_msg_id=incoming.msg_id,
                    conflicting_msg_ids=(gc.msg_id,),
                    xapp_ids=frozenset({gc.xapp_id, incoming.xapp_id}),
                    target=incoming.target,
                    shared_groups=frozenset({group_id}),
                )
            )
    return reports


# -- performance monitoring ------------------------------------------------------

# True: larger values are worse. Unknown KPIs default to higher-is-worse.
ADVERSE_HIGHER = {
    "mean_bs_load": True,
    "mean_user_satisfaction": False,
    "call_blockages": True,
    "rlfs": True,
    "handovers": True,
    "pingpong_handovers": True,
}


@dataclass(frozen=True)
class KpiPoint:
    """One KPI observation for one cell (or the whole network)."""

    ts: int
    kpi_name: str
    cell_id: str
    value: float

    def __post_init__(self) -> None:
        if not self.kpi_name or not self.cell_id:
            raise ValidationError("kpi_name and cell_id must be non-empty")
        if not math.isfinite(self.value):
            raise ValidationError(f"KPI value must be finite, got {self.value!r}")


@dataclass(frozen=True)
class DegradationEvent:
    event_id: int
    ts: int
    kpi_name: str
    cell_id: str
    magnitude: float
    window_mean: float
    window_stdev: float


class PerformanceMonitor:
    """Sliding-window z-score detector over per-stream KPI series.

    A stream is one (kpi_name, cell_id) pair. Once a stream's reference
    window is full, a new value deviating in the adverse direction by more
    than `sigma` standard deviations is flagged; the stdev is floored to
    keep constant windows usable. Every observation enters the window, so
    the reference tracks the recent past whether or not it was flagged.
    """

    def __init__(
        self,
        window: int = 20,
        sigma: float = 3.0,
        stdev_floor: float = 1e-6,
        adverse_higher: Optional[Mapping[str, bool]] = None,
    ) -> None:
        if window < 2:
            raise ValidationError("window must hold at least two samples")
        if sigma <= 0 or stdev_floor <= 0:
            raise ValidationError("sigma and stdev_floor must be positive")
        self.window = window
        self.sigma = sigma
        self.stdev_floor = stdev_floor
        self.adverse_higher = dict(ADVERSE_HIGHER if adverse_higher is None else adverse_higher)
        self._windows: Dict[Tuple[str, str], deque] = {}
        self._last_ts: Dict[Tuple[str, str], int] = {}
        self._event_ids = count(1)

    def observe(self, point: KpiPoint) -> Optional[DegradationEvent]:
        stream = (point.kpi_name, point.cell_id)
        last = self._last_ts.get(stream)
        if last is not None and point.ts < last:
            raise ValidationError(
                f"stream {stream} went back in time: {point.ts} < {last}"
            )
        self._last_ts[stream] = point.ts
        win = self._windows.get(stream)
        if win is None:
            win = self._windows[stream] = deque(maxlen=self.window)
        event = None
        if len(win) == self.window:
            mean = statistics.fmean(win)
            stdev = max(self.stdev_floor, statistics.stdev(win))
            higher_worse = self.adverse_higher.get(point.kpi_name, True)
            deviation = (point.value - mean) if higher_worse else (mean - point.value)
            if deviation > self.sigma * stdev:
                event = DegradationEvent(
                    event_id=next(self._event_ids),
                    ts=point.ts,
                    kpi_name=point.kpi_name,
                    cell_id=point.cell_id,
                    magnitude=deviation / stdev,
                    window_mean=mean,
                    window_stdev=stdev,
                )
        win.append(point.value)
        return event


# -- implicit correlation -----------------------------------------------------------


@dataclass
class ImplicitConfig:
    """Correlation settings plus the live attachment map for target resolution.

    `cell_of_ue` may be a shared, mutable mapping owned by the caller; it is
    read at correlation time with current content.
    """

    lookback_ms: int = 10_000
    threshold: int = 3
    cell_of_ue: Mapping[str, str] = field(default_factory=dict)

    def resolve_cell(self, target: ControlTarget) -> Optional[str]:
        if target.scope is Scope.CELL:
            return target.id
        return self.cell_of_ue.get(target.id)


def correlate_implicit(
    event: DegradationEvent, store: SdlStore, config: ImplicitConfig
) -> List[CounterKey]:
    """Bump counters for names touched by several xApps near a degradation.

    Considers control and group-change records on the degraded cell (or on
    UEs it serves) that were active at the event or whose span ran out less
    than the lookback before it. Never looks at messages sent after the
    event. Returns the bumped keys, sorted.
    """
    te = event.ts
    lookback = config.lookback_ms

    def in_window(ts: int, span: Optional[int]) -> bool:
        return ts <= te and (span is None or te < ts + span + lookback)

    touched: Dict[Tuple[str, ControlTarget], Tuple[Set[str], Set[int]]] = {}

    def note(name: str, target: ControlTarget, xapp_id: str, msg_id: int) -> None:
        entry = touched.get((name, target))
        if entry is None:
            entry = touched[(name, target)] = (set(), set())
        entry[0].add(xapp_id)
        entry[1].add(msg_id)

    for rec in store.all_controls():
        if in_window(rec.ts, rec.span) and config.resolve_cell(rec.target) == event.cell_id:
            for param in rec.changes:
                note(param, rec.target, rec.xapp_id, rec.msg_id)
    for gc in store.all_group_changes():
        if in_window(gc.ts, gc.span) and config.resolve_cell(gc.target) == event.cell_id:
            note(gc.group_id, gc.target, gc.xapp_id, gc.msg_id)

    keys = []
    for (name, target), (xapps, msg_ids) in touched.items():
        if len(xapps) >= 2:
            key: CounterKey = (tuple(sorted(xapps)), name, target)
            store.bump_counter(key, msg_ids=msg_ids)
            keys.append(key)
    keys.sort(key=counter_sort_key)
    return keys


def check_thresholds(store: SdlStore, threshold: int) -> List[ConflictReport]:
    """Turn saturated counters into implicit conflict reports.

    Each reported counter is reset.
    """
    reports = []
    for ctr in store.counters_over(threshold):
        xapps, _name, target = ctr.key
        reports.append(
            ConflictReport(
                kind=ConflictKind.IMPLICIT,
                incoming_msg_id=None,
                conflicting_msg_ids=ctr.msg_ids,
                xapp_ids=frozenset(xapps),
                target=target,
                evidence=ImplicitEvidence(key=ctr.key, count=ctr.count),
            )
        )
        store.reset_counter(ctr.key)
    return reports


# -- configuration loading ------------------------------------------------------------


def parameter_group_from_dict(entry: Mapping) -> ParameterGroupDef:
    try:
        scope = Scope(str(entry["scope"]).lower())
        return ParameterGroupDef(
            group_id=entry["group_id"],
            members=frozenset(entry["members"]),
            scope=scope,
        )
    except KeyError as exc:
        raise ValidationError(f"parameter group entry missing field {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"bad parameter group entry: {exc}") from exc
