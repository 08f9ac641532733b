"""The two control applications that compete over the handover boundary.

`mro_decide` tunes hysteresis and time-to-trigger from handover statistics;
`mlb_decide` tunes cell offsets from load. Both are pure functions of the
latest KPI window and the current parameter values, so identical history
yields identical decisions. Neither knows about the other or about the
mitigation pipeline: they emit every period and let the RIC sort it out.
Their records carry no span: a value written to a cell stays in force
until the same app rewrites it, and so does the record of that change.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Sequence

from .ran.config import ScenarioConfig
from .ran.world import KpiSample
from .sdl import ControlRecord, ControlTarget, Scope, ValidationError

MRO_XAPP_ID = "mro"
MLB_XAPP_ID = "mlb"


@dataclass(frozen=True)
class MroConfig:
    pp_high: float = 0.1
    rlf_high: float = 0.05
    step_hysteresis_db: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 < self.pp_high < 1.0 and 0.0 < self.rlf_high < 1.0):
            raise ValidationError("mro thresholds must lie in (0, 1)")
        if self.step_hysteresis_db <= 0:
            raise ValidationError("hysteresis step must be positive")


@dataclass(frozen=True)
class MlbConfig:
    load_high: float = 0.8
    load_low: float = 0.5
    step_cio_db: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.load_low < 1.0 and 0.0 < self.load_high < 1.0):
            raise ValidationError("mlb thresholds must lie in (0, 1)")
        if self.load_low >= self.load_high:
            raise ValidationError("load_low must be below load_high")
        if self.step_cio_db <= 0:
            raise ValidationError("cio step must be positive")


@dataclass(frozen=True)
class XappConfig:
    """Settings of both xApps; they decide once per `ScenarioConfig.kpi_window_ms`."""

    mro: MroConfig = field(default_factory=MroConfig)
    mlb: MlbConfig = field(default_factory=MlbConfig)


def _ttt_up(ladder: Sequence[int], current: float) -> int:
    i = bisect_right(ladder, current)
    return ladder[i] if i < len(ladder) else ladder[-1]


def _ttt_down(ladder: Sequence[int], current: float) -> int:
    i = bisect_left(ladder, current) - 1
    return ladder[i] if i >= 0 else ladder[0]


def mro_decide(
    samples: Sequence[KpiSample],
    params: Mapping[str, Mapping[str, float]],
    scen: ScenarioConfig,
    xcfg: XappConfig,
    ids: Iterator[int],
    now: int,
) -> List[ControlRecord]:
    """Per cell: fight ping-pongs by widening the boundary, fight
    radio link failures by tightening it. One record per acted-on cell,
    carrying only the parameters that actually change."""
    cfg = xcfg.mro
    lo, hi = scen.hysteresis_range_db
    ladder = scen.ttt_ladder_ms
    out: List[ControlRecord] = []
    for s in samples:
        cur = params[s.cell_id]
        ho = s.handovers
        pp_ratio = s.pingpong_handovers / max(ho, 1)
        rlf_ratio = s.rlfs / max(ho, 1)
        if pp_ratio > cfg.pp_high:
            new_hys = min(hi, cur["hysteresis"] + cfg.step_hysteresis_db)
            new_ttt = _ttt_up(ladder, cur["ttt"])
        elif rlf_ratio > cfg.rlf_high:
            new_hys = max(lo, cur["hysteresis"] - cfg.step_hysteresis_db)
            new_ttt = _ttt_down(ladder, cur["ttt"])
        else:
            continue
        changes: Dict[str, float] = {}
        if new_hys != cur["hysteresis"]:
            changes["hysteresis"] = new_hys
        if new_ttt != cur["ttt"]:
            changes["ttt"] = float(new_ttt)
        if not changes:
            continue
        out.append(
            ControlRecord(
                msg_id=next(ids),
                ts=now,
                xapp_id=MRO_XAPP_ID,
                target=ControlTarget(Scope.CELL, s.cell_id),
                changes=changes,
            )
        )
    return out


def mlb_decide(
    samples: Sequence[KpiSample],
    params: Mapping[str, Mapping[str, float]],
    scen: ScenarioConfig,
    xcfg: XappConfig,
    ids: Iterator[int],
    now: int,
) -> List[ControlRecord]:
    """Per cell: overloaded cells advertise a lower offset to shed edge
    users; cells that have cooled down relax back toward zero."""
    cfg = xcfg.mlb
    lo, hi = scen.cio_range_db
    out: List[ControlRecord] = []
    for s in samples:
        cur = params[s.cell_id]["cio"]
        if s.mean_bs_load > cfg.load_high:
            new = max(lo, cur - cfg.step_cio_db)
        elif s.mean_bs_load < cfg.load_low and cur < 0.0:
            new = min(hi, cur + cfg.step_cio_db)
        else:
            continue
        if new == cur:
            continue
        out.append(
            ControlRecord(
                msg_id=next(ids),
                ts=now,
                xapp_id=MLB_XAPP_ID,
                target=ControlTarget(Scope.CELL, s.cell_id),
                changes={"cio": new},
            )
        )
    return out
