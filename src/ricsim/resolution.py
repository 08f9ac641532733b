"""Conflict resolution: policy, verdicts, and the message-processing pipeline.

The pipeline ties the detectors to the store: detect first, consult the
quarantine blocklist, resolve, and only then persist the message. Implicit
conflicts arrive through `on_degradation` and act on future messages by
quarantining the offending (xApp, name, target) combinations for a while.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .detection import (
    ConflictKind,
    ConflictReport,
    DegradationEvent,
    ImplicitConfig,
    check_thresholds,
    correlate_implicit,
    detect_direct,
    detect_indirect,
)
from .sdl import ControlRecord, ControlTarget, SdlStore, ValidationError


class Decision(Enum):
    ALLOW = "allow"
    BLOCK = "block"


@dataclass(frozen=True)
class ResolutionPolicy:
    """Give one xApp the right of way, or with None let everything through."""

    prioritized_xapp: Optional[str] = None

    def __post_init__(self) -> None:
        prio = self.prioritized_xapp
        if prio is not None and (not isinstance(prio, str) or not prio):
            raise ValidationError("the prioritized xApp id must be a non-empty string")


@dataclass(frozen=True)
class Verdict:
    decision: Decision
    reports: Tuple[ConflictReport, ...] = ()
    # set when the block came from the implicit-conflict blocklist
    quarantine_hit: Optional[Tuple[str, str]] = None


def resolve(
    incoming: ControlRecord,
    reports: Sequence[ConflictReport],
    policy: ResolutionPolicy,
) -> Verdict:
    """Allow/Block decision for one message given its conflict reports.

    Blocks exactly when there are reports, an xApp is prioritized, and the
    sender is another xApp.
    """
    prio = policy.prioritized_xapp
    blocked = bool(reports) and prio is not None and incoming.xapp_id != prio
    return Verdict(Decision.BLOCK if blocked else Decision.ALLOW, tuple(reports))


@dataclass(frozen=True)
class ImplicitOutcome:
    """Result of handling one implicit conflict report: a block exactly
    when some xApps were quarantined for the report's (name, target)."""

    report: ConflictReport
    quarantined: Tuple[str, ...] = ()

    @property
    def decision(self) -> Decision:
        return Decision.BLOCK if self.quarantined else Decision.ALLOW


class ConflictPipeline:
    """Message-level conflict mitigation around one shared store.

    Parameter group definitions are read from the store. The verdict sink,
    when given, receives one JSON-serializable dict per processed message.

    Priority holds whatever order the xApps submit in. The messages of one
    period go through `serve_order`, which serves the prioritized xApp's
    queue first, so its changes are stored before any other xApp's message
    of the period is checked against them. A stored change keeps blocking
    the other xApps' conflicting messages for as long as it is active, that
    is while the value it set is in force (see `ControlRecord`).
    """

    def __init__(
        self,
        store: SdlStore,
        policy: ResolutionPolicy,
        *,
        implicit_config: ImplicitConfig,
        quarantine_ms: int,
        verdict_sink: Optional[Callable[[dict], None]] = None,
    ) -> None:
        if quarantine_ms <= 0:
            raise ValidationError("quarantine_ms must be positive")
        self.store = store
        self.policy = policy
        self.implicit_config = implicit_config
        self.quarantine_ms = quarantine_ms
        self.verdict_sink = verdict_sink
        # (xapp_id, parameter-or-group name, target) -> blocked while now < expiry
        self._quarantine: Dict[Tuple[str, str, ControlTarget], int] = {}
        self.allowed_by_xapp: Counter = Counter()
        self.blocked_by_xapp: Counter = Counter()
        self.conflicts_by_kind: Counter = Counter({kind: 0 for kind in ConflictKind})

    # -- message path ---------------------------------------------------------

    def serve_order(self, submissions: Sequence[ControlRecord]) -> List[ControlRecord]:
        """The order in which the RIC serves one period's submissions.

        Under a prioritize policy the prioritized xApp's messages go first;
        otherwise, and within each xApp's queue, submission order is kept.
        """
        prio = self.policy.prioritized_xapp
        if prio is None:
            return list(submissions)
        return sorted(submissions, key=lambda m: m.xapp_id != prio)

    def process_control_message(self, incoming: ControlRecord) -> Verdict:
        """Detect, resolve, and (on Allow) persist one control message.

        Blocked messages leave no trace in the store.
        """
        reports: List[ConflictReport] = detect_direct(incoming, self.store)
        groups = self.store.groups_of(incoming)
        reports += detect_indirect(incoming, groups, self.store)
        for rep in reports:
            self.conflicts_by_kind[rep.kind] += 1

        hit = self._quarantine_lookup(incoming, groups)
        if hit is not None:
            verdict = Verdict(Decision.BLOCK, tuple(reports), quarantine_hit=hit)
        else:
            verdict = resolve(incoming, reports, self.policy)

        if verdict.decision is Decision.ALLOW:
            self.store.supersede(incoming)
            self.store.record_control(incoming)
            self.allowed_by_xapp[incoming.xapp_id] += 1
        else:
            self.blocked_by_xapp[incoming.xapp_id] += 1

        if self.verdict_sink is not None:
            self.verdict_sink(verdict_log_line(incoming.msg_id, verdict))
        return verdict

    def _quarantine_lookup(
        self, incoming: ControlRecord, groups: Sequence[str]
    ) -> Optional[Tuple[str, str]]:
        for name in [*incoming.changes, *groups]:
            expiry = self._quarantine.get((incoming.xapp_id, name, incoming.target))
            if expiry is not None and incoming.ts < expiry:
                return (incoming.xapp_id, name)
        return None

    # -- degradation path --------------------------------------------------------

    def on_degradation(self, event: DegradationEvent) -> List[ImplicitOutcome]:
        """Correlate a degradation event and act on saturated counters.

        Implicit detection is post-action, so under a prioritize policy the
        verdict takes effect on future traffic: every non-prioritized xApp
        in a report's key is quarantined for the report's (name, target).
        """
        correlate_implicit(event, self.store, self.implicit_config)
        prio = self.policy.prioritized_xapp
        outcomes = []
        for rep in check_thresholds(self.store, self.implicit_config.threshold):
            self.conflicts_by_kind[ConflictKind.IMPLICIT] += 1
            offenders = () if prio is None else tuple(sorted(rep.xapp_ids - {prio}))
            for xapp in offenders:
                self._quarantine[(xapp, rep.shared[0], rep.target)] = event.ts + self.quarantine_ms
            outcomes.append(ImplicitOutcome(rep, offenders))
        return outcomes


# -- wire formats -----------------------------------------------------------------


def control_record_to_dict(rec: ControlRecord) -> dict:
    return {
        "msg_id": rec.msg_id,
        "ts_ms": rec.ts,
        "xapp_id": rec.xapp_id,
        "target": {"scope": rec.target.scope.value, "id": rec.target.id},
        "changes": dict(rec.changes),
        "span_ms": rec.span,
    }


def verdict_log_line(msg_id: int, verdict: Verdict) -> dict:
    return {
        "msg_id": msg_id,
        "decision": verdict.decision.value,
        # [xapp_id, name] when the implicit-conflict blocklist blocked it
        "quarantine_hit": None if verdict.quarantine_hit is None else list(verdict.quarantine_hit),
        "conflicts": [
            {
                "kind": rep.kind.value,
                "with": list(rep.conflicting_msg_ids),
                "shared": list(rep.shared),
            }
            for rep in verdict.reports
        ],
    }
