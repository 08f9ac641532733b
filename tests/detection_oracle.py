"""Brute-force reference for conflict detection and resolution.

Used as an independent oracle: quadratic pairwise scans over plain lists
and dicts, sharing no code with the store, the detectors or the pipeline.
`replay_pipeline` replays a stream of messages, degradations and expiries
under a policy, keeping the live-record bookkeeping that the pipeline
applies when it records an allowed message (same-xApp supersession, and
records without a span lasting until superseded), the implicit counters
and the quarantine. `replay_reports` is its message path alone.
"""

import random

from ricsim.sdl import ControlRecord, ControlTarget, ParameterGroupDef, Scope


def _in_force(r, t):
    # a record without a span lasts until superseded
    return r.ts <= t and (r.span is None or t < r.ts + r.span)


def replay_pipeline(stream, group_defs, prioritized, lookback_ms, threshold, quarantine_ms):
    """Per-event outcomes of a stream, as the pipeline should produce them.

    `stream` holds ("message", record), ("degradation", ts, cell_id) and
    ("expire", now) items. Returns one item per stream item, with targets
    written as (scope, id) pairs:
      message     -> (decision, direct, indirect, quarantine_hit) with
                     direct = [(conflicting_msg_id, shared parameters)] by msg id
                     and indirect = [(group_id, conflicting_msg_id)] by group,
                     then by arrival
      degradation -> [(xapps, name, target, msg_ids, decision, quarantined)]
                     in key order
      expire      -> None
    """
    defs = [(g.group_id, g.scope, set(g.members)) for g in group_defs]

    def where(r):
        return (r.target.scope.value, r.target.id)

    def groups_of(r):
        return sorted(gid for gid, scope, members in defs if scope == r.target.scope and members & set(r.changes))

    stored = []  # allowed records still in the store, in arrival order
    counters = {}  # (xapps, name, target) -> [count, msg ids]
    quarantine = {}  # (xapp, name, target) -> blocked while now < expiry
    out = []
    for item in stream:
        if item[0] == "expire":
            now = item[1]
            stored = [r for r in stored if r.span is None or now < r.ts + r.span]
            out.append(None)
        elif item[0] == "message":
            m = item[1]
            t, params, groups = m.ts, set(m.changes), groups_of(m)
            rivals = [r for r in stored if r.target == m.target and _in_force(r, t) and r.xapp_id != m.xapp_id]
            direct = sorted(
                (r.msg_id, tuple(sorted(set(r.changes) & params))) for r in rivals if set(r.changes) & params
            )
            # a pair that shares a parameter is a direct conflict, not an indirect one
            indirect = [
                (g, r.msg_id)
                for g in groups
                for r in rivals
                if g in groups_of(r) and not set(r.changes) & params
            ]
            hit = None
            for name in [*m.changes, *groups]:
                expiry = quarantine.get((m.xapp_id, name, where(m)))
                if expiry is not None and t < expiry:
                    hit = (m.xapp_id, name)
                    break
            conflicted = bool(direct or indirect)
            blocked = hit is not None or (conflicted and prioritized not in (None, m.xapp_id))
            if not blocked:
                stored = [
                    r
                    for r in stored
                    if not (
                        r.target == m.target
                        and r.xapp_id == m.xapp_id
                        and _in_force(r, t)
                        and set(r.changes) & params
                    )
                ]
                stored.append(m)
            out.append(("block" if blocked else "allow", direct, indirect, hit))
        else:
            _, te, cell_id = item
            cell = ("cell", cell_id)
            touched = {}  # name -> (xapps, msg ids)
            for r in stored:
                if where(r) != cell or r.ts > te:
                    continue
                if r.span is not None and te >= r.ts + r.span + lookback_ms:
                    continue
                for name in [*r.changes, *groups_of(r)]:
                    xapps, ids = touched.setdefault(name, (set(), set()))
                    xapps.add(r.xapp_id)
                    ids.add(r.msg_id)
            for name, (xapps, ids) in touched.items():
                if len(xapps) >= 2:
                    ctr = counters.setdefault((tuple(sorted(xapps)), name, cell), [0, set()])
                    ctr[0] += 1
                    ctr[1] |= ids
            outcomes = []
            for key in sorted(k for k, (n, _) in counters.items() if n >= threshold):
                xapps, name, target = key
                ids = tuple(sorted(counters[key][1]))
                counters[key] = [0, set()]
                offenders = () if prioritized is None else tuple(sorted(set(xapps) - {prioritized}))
                for x in offenders:
                    quarantine[(x, name, target)] = te + quarantine_ms
                outcomes.append((xapps, name, target, ids, "block" if offenders else "allow", offenders))
            out.append(outcomes)
    return out


def replay_reports(messages, group_defs):
    """Per-message conflict sets for a log the pipeline lets through whole.

    Returns a list of (direct, indirect) per message where
      direct   = {(conflicting_msg_id, frozenset(shared_params))}
      indirect = {(group_id, conflicting_msg_id)}
    """
    # without a prioritized xApp nothing is blocked, and with no degradation
    # the lookback, threshold and quarantine settings are never read
    out = replay_pipeline([("message", m) for m in messages], group_defs, None, 0, 1, 1)
    return [({(i, frozenset(names)) for i, names in direct}, set(indirect)) for _, direct, indirect, _ in out]


def random_log(rng: random.Random, max_msgs=50):
    """A random message log plus group definitions, for equivalence tests."""
    params = ["p1", "p2", "p3", "p4", "p5", "p6"]
    xapps = [f"x{i}" for i in range(1, rng.randint(2, 6))]
    targets = [
        ControlTarget(Scope.CELL, "c1"),
        ControlTarget(Scope.CELL, "c2"),
        ControlTarget(Scope.CELL, "c3"),
        ControlTarget(Scope.UE, "u1"),
        ControlTarget(Scope.UE, "u2"),
    ][: rng.randint(1, 5)]
    defs = []
    for i in range(rng.randint(0, 4)):
        members = frozenset(rng.sample(params, rng.randint(2, 3)))
        scope = rng.choice([Scope.CELL, Scope.UE])
        defs.append(ParameterGroupDef(f"g{i + 1}", members, scope))
    messages = []
    ts = 0
    for msg_id in range(1, rng.randint(1, max_msgs) + 1):
        ts += rng.randint(0, 300)
        changes = {p: float(rng.randint(-5, 5)) for p in rng.sample(params, rng.randint(1, 3))}
        messages.append(
            ControlRecord(
                msg_id=msg_id,
                ts=ts,
                xapp_id=rng.choice(xapps),
                target=rng.choice(targets),
                changes=changes,
                span=None if rng.random() < 0.25 else rng.randint(1, 500),
            )
        )
    return messages, defs


def random_stream(rng: random.Random, max_events=80):
    """A random stream with nondecreasing timestamps plus group definitions.

    Times and spans are multiples of 100 ms, so that a message or event
    often falls exactly on the end of a span, lookback or quarantine.
    """
    params = ["p1", "p2", "p3", "p4"]
    xapps = ["x1", "x2", "x3"][: rng.randint(2, 3)]
    cells = ["c1", "c2"]
    targets = [ControlTarget(Scope.CELL, c) for c in cells] + [ControlTarget(Scope.UE, "u1")]
    defs = []
    for i in range(rng.randint(0, 3)):
        members = frozenset(rng.sample(params, rng.randint(2, 3)))
        defs.append(ParameterGroupDef(f"g{i + 1}", members, rng.choice([Scope.CELL, Scope.CELL, Scope.UE])))
    stream = []
    ts = 0
    msg_id = 0
    for _ in range(rng.randint(1, max_events)):
        ts += rng.choice((0, 100, 200, 300))
        draw = rng.random()
        if draw < 0.7:
            msg_id += 1
            changes = {p: float(rng.randint(-3, 3)) for p in rng.sample(params, rng.randint(1, 2))}
            rec = ControlRecord(
                msg_id=msg_id,
                ts=ts,
                xapp_id=rng.choice(xapps),
                target=rng.choice(targets),
                changes=changes,
                span=None if rng.random() < 0.3 else rng.randrange(100, 1600, 100),
            )
            stream.append(("message", rec))
        elif draw < 0.9:
            stream.append(("degradation", ts, rng.choice(cells)))
        else:
            stream.append(("expire", ts))
    return stream, defs
