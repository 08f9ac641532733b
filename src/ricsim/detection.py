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
from dataclasses import dataclass
from enum import Enum
from itertools import count
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .sdl import (
    ControlRecord,
    ControlTarget,
    CounterKey,
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
class ConflictReport:
    """One detected conflict between a message and stored state.

    `conflicting_msg_ids` are the stored counterparts. `shared` holds the
    names the conflict is about, sorted: the shared parameters (direct),
    the one shared group (indirect) or the counter's name (implicit, whose
    counter key is `(sorted xapp_ids, shared[0], target)`).
    """

    kind: ConflictKind
    conflicting_msg_ids: Tuple[int, ...]
    xapp_ids: frozenset
    target: ControlTarget
    shared: Tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "conflicting_msg_ids", tuple(self.conflicting_msg_ids))
        object.__setattr__(self, "xapp_ids", frozenset(self.xapp_ids))
        object.__setattr__(self, "shared", tuple(sorted(self.shared)))
        if not self.conflicting_msg_ids:
            raise ValidationError("a conflict report needs at least one counterpart message")
        if not self.xapp_ids:
            raise ValidationError("a conflict report needs at least one xApp")
        if not self.shared:
            raise ValidationError("a conflict report needs at least one shared name")


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
                    conflicting_msg_ids=(old.msg_id,),
                    xapp_ids=frozenset({old.xapp_id, incoming.xapp_id}),
                    target=incoming.target,
                    shared=shared,
                )
            )
    reports.sort(key=lambda r: r.conflicting_msg_ids[0])
    return reports


def detect_indirect(
    incoming: ControlRecord, groups: Sequence[str], store: SdlStore
) -> List[ConflictReport]:
    """Conflicts through a shared parameter group, one report per (group, record).

    Pairs that already qualify as direct conflicts (raw parameter overlap)
    are excluded so each message pair is reported exactly once.
    """
    reports = []
    params = incoming.parameters()
    for group_id in groups:
        for old in store.active_group_changes(incoming.target, group_id, incoming.ts):
            if old.xapp_id == incoming.xapp_id or old.parameters() & params:
                continue
            reports.append(
                ConflictReport(
                    kind=ConflictKind.INDIRECT,
                    conflicting_msg_ids=(old.msg_id,),
                    xapp_ids=frozenset({old.xapp_id, incoming.xapp_id}),
                    target=incoming.target,
                    shared=(group_id,),
                )
            )
    return reports


# -- performance monitoring ------------------------------------------------------

# KPIs whose drop is adverse; for every other KPI a rise is
ADVERSE_LOWER = frozenset({"mean_user_satisfaction"})

# floor of a window's stdev, so a constant window still scores deviations
STDEV_FLOOR = 1e-6


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
    than `sigma` standard deviations is flagged; the stdev is floored at
    `STDEV_FLOOR` to keep constant windows usable. A drop is adverse for
    the KPIs in `ADVERSE_LOWER`, a rise for all others. Every observation
    enters the window, so the reference tracks the recent past whether or
    not it was flagged.
    """

    def __init__(self, window: int, sigma: float) -> None:
        if window < 2:
            raise ValidationError("window must hold at least two samples")
        if sigma <= 0:
            raise ValidationError("sigma must be positive")
        self.window = window
        self.sigma = sigma
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
            stdev = max(STDEV_FLOOR, statistics.stdev(win))
            lower_worse = point.kpi_name in ADVERSE_LOWER
            deviation = (mean - point.value) if lower_worse else (point.value - mean)
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


@dataclass(frozen=True)
class ImplicitConfig:
    """Correlation lookback and the counter threshold that makes a report."""

    lookback_ms: int
    threshold: int

    def __post_init__(self) -> None:
        if self.lookback_ms < 0 or self.threshold < 1:
            raise ValidationError("implicit correlation needs lookback >= 0 and threshold >= 1")


def correlate_implicit(
    event: DegradationEvent, store: SdlStore, config: ImplicitConfig
) -> List[CounterKey]:
    """Bump counters for names touched by several xApps near a degradation.

    Considers the records on the degraded cell sent at or before the event.
    The lookback only drops a record with a span that ran out at least
    `lookback_ms` before the event; a record without a span, the only kind
    the MRO and MLB xApps send, counts until it is superseded, however old
    it is. Each record counts for every parameter it sets and every group
    it touches. Counters never age: bumps from events any time apart add
    up until `check_thresholds` reports and resets the counter. Returns the
    bumped keys, sorted.
    """
    te = event.ts
    lookback = config.lookback_ms
    cell = ControlTarget(Scope.CELL, event.cell_id)
    # name -> (xApp ids, msg ids)
    touched: Dict[str, Tuple[Set[str], Set[int]]] = {}
    for rec in store.controls_at(cell):
        if rec.ts > te:
            continue
        if rec.span is not None and te >= rec.ts + rec.span + lookback:
            continue
        for name in [*rec.changes, *store.groups_of(rec)]:
            xapps, msg_ids = touched.setdefault(name, (set(), set()))
            xapps.add(rec.xapp_id)
            msg_ids.add(rec.msg_id)

    keys = []
    for name, (xapps, msg_ids) in touched.items():
        if len(xapps) >= 2:
            key: CounterKey = (tuple(sorted(xapps)), name, cell)
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
        xapps, name, target = ctr.key
        reports.append(
            ConflictReport(
                kind=ConflictKind.IMPLICIT,
                conflicting_msg_ids=ctr.msg_ids,
                xapp_ids=frozenset(xapps),
                target=target,
                shared=(name,),
            )
        )
        store.reset_counter(ctr.key)
    return reports
