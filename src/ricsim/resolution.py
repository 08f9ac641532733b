"""Conflict resolution: policy, verdicts, and the message-processing pipeline.

The pipeline ties the detectors to the store: detect first, consult the
quarantine blocklist, resolve, and only then persist the message. Implicit
conflicts arrive through `on_degradation` and act on future messages by
quarantining the offending (xApp, name, target) combinations for a while.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .detection import (
    ConflictKind,
    ConflictReport,
    DegradationEvent,
    ImplicitConfig,
    check_thresholds,
    correlate_implicit,
    detect_direct,
    detect_indirect,
    map_parameter_groups,
)
from .sdl import (
    ControlRecord,
    ControlTarget,
    GroupChangeRecord,
    Scope,
    SdlStore,
    ValidationError,
)


class ResolutionMode(Enum):
    DISABLED = "disabled"
    PRIORITIZE = "prioritize"


class Decision(Enum):
    ALLOW = "allow"
    BLOCK = "block"


@dataclass(frozen=True)
class ResolutionPolicy:
    """Either let everything through or give one xApp the right of way."""

    mode: ResolutionMode
    prioritized_xapp: Optional[str] = None

    def __post_init__(self) -> None:
        if self.mode is ResolutionMode.PRIORITIZE:
            if not self.prioritized_xapp:
                raise ValidationError("prioritize mode needs an xApp id")
        elif self.prioritized_xapp is not None:
            raise ValidationError("disabled mode takes no xApp id")

    @classmethod
    def disabled(cls) -> "ResolutionPolicy":
        return cls(ResolutionMode.DISABLED)

    @classmethod
    def prioritize(cls, xapp_id: str) -> "ResolutionPolicy":
        return cls(ResolutionMode.PRIORITIZE, xapp_id)


@dataclass(frozen=True)
class Verdict:
    decision: Decision
    reports: Tuple[ConflictReport, ...] = ()
    # set when the block came from the implicit-conflict blocklist
    quarantine_hit: Optional[Tuple[str, str]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "reports", tuple(self.reports))


def resolve(
    incoming: ControlRecord,
    reports: Sequence[ConflictReport],
    policy: ResolutionPolicy,
) -> Verdict:
    """Allow/Block decision for one message given its conflict reports."""
    if policy.mode is ResolutionMode.DISABLED:
        return Verdict(Decision.ALLOW, tuple(reports))
    if not reports:
        return Verdict(Decision.ALLOW, ())
    if incoming.xapp_id == policy.prioritized_xapp:
        return Verdict(Decision.ALLOW, tuple(reports))
    return Verdict(Decision.BLOCK, tuple(reports))


@dataclass(frozen=True)
class ImplicitOutcome:
    """Result of handling one implicit conflict report."""

    report: ConflictReport
    decision: Decision
    quarantined: Tuple[str, ...] = ()


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
        implicit_config: Optional[ImplicitConfig] = None,
        quarantine_ms: int = 10_000,
        verdict_sink: Optional[Callable[[dict], None]] = None,
    ) -> None:
        if quarantine_ms <= 0:
            raise ValidationError("quarantine_ms must be positive")
        self.store = store
        self.policy = policy
        self.implicit_config = implicit_config or ImplicitConfig()
        self.quarantine_ms = quarantine_ms
        self.verdict_sink = verdict_sink
        # (xapp_id, parameter-or-group name, target) -> blocked while now < expiry
        self._quarantine: Dict[Tuple[str, str, ControlTarget], int] = {}
        self.allowed_by_xapp: Counter = Counter()
        self.blocked_by_xapp: Counter = Counter()
        self.conflicts_by_kind: Counter = Counter(
            {ConflictKind.DIRECT: 0, ConflictKind.INDIRECT: 0, ConflictKind.IMPLICIT: 0}
        )

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
        now = incoming.ts
        reports: List[ConflictReport] = detect_direct(incoming, self.store)
        groups = map_parameter_groups(incoming, self.store.parameter_groups())
        reports += detect_indirect(incoming, groups, self.store)
        for rep in reports:
            self.conflicts_by_kind[rep.kind] += 1

        hit = self._quarantine_lookup(incoming, groups, now)
        if hit is not None:
            verdict = Verdict(Decision.BLOCK, tuple(reports), quarantine_hit=hit)
        else:
            verdict = resolve(incoming, reports, self.policy)

        if verdict.decision is Decision.ALLOW:
            self.store.supersede(incoming)
            self.store.record_control(incoming)
            for gid in groups:
                self.store.record_group_change(GroupChangeRecord.from_control(incoming, gid))
            self.allowed_by_xapp[incoming.xapp_id] += 1
        else:
            self.blocked_by_xapp[incoming.xapp_id] += 1

        if self.verdict_sink is not None:
            self.verdict_sink(verdict_log_line(incoming.msg_id, verdict))
        return verdict

    def _quarantine_lookup(
        self, incoming: ControlRecord, groups: Sequence[str], now: int
    ) -> Optional[Tuple[str, str]]:
        for stale in [k for k, expiry in self._quarantine.items() if expiry <= now]:
            del self._quarantine[stale]
        for name in list(incoming.changes) + list(groups):
            key = (incoming.xapp_id, name, incoming.target)
            if key in self._quarantine:
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
        reports = check_thresholds(self.store, self.implicit_config.threshold)
        outcomes = []
        for rep in reports:
            self.conflicts_by_kind[ConflictKind.IMPLICIT] += 1
            decision = Decision.ALLOW
            quarantined: Tuple[str, ...] = ()
            if self.policy.mode is ResolutionMode.PRIORITIZE:
                offenders = sorted(rep.xapp_ids - {self.policy.prioritized_xapp})
                if offenders:
                    decision = Decision.BLOCK
                    name = rep.evidence.key[1]
                    for xapp in offenders:
                        self._quarantine[(xapp, name, rep.target)] = (
                            event.ts + self.quarantine_ms
                        )
                    quarantined = tuple(offenders)
            outcomes.append(ImplicitOutcome(rep, decision, quarantined))
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


def control_record_from_dict(data: Mapping) -> ControlRecord:
    try:
        target = data["target"]
        scope = Scope(str(target["scope"]).lower())
        return ControlRecord(
            msg_id=data["msg_id"],
            ts=data["ts_ms"],
            xapp_id=data["xapp_id"],
            target=ControlTarget(scope, target["id"]),
            changes=data["changes"],
            span=data["span_ms"],
        )
    except KeyError as exc:
        raise ValidationError(f"control message missing field {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"bad control message: {exc}") from exc


def _shared_names(report: ConflictReport) -> List[str]:
    if report.kind is ConflictKind.DIRECT:
        return sorted(report.shared_parameters)
    if report.kind is ConflictKind.INDIRECT:
        return sorted(report.shared_groups)
    return [report.evidence.key[1]]


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
                "shared": _shared_names(rep),
            }
            for rep in verdict.reports
        ],
    }
