"""World state and the per-tick simulation loop.

State lives in numpy arrays indexed by UE and by cell; the tick advances
mobility, radio, handover, radio-link failure, and session phases in a
fixed order, so a (config, seed) pair fully determines the trajectory.
Admission control applies to new sessions and to inbound handovers alike:
both are refused when the cell lacks resource units at the link quality
the user would get, so a congested cell can lose users but not gain them.
Control parameters (hysteresis, time-to-trigger, cell offsets) are only
touched through `apply_control`, which is what the RIC side calls after a
message is allowed.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..sdl import ControlRecord, Scope, ValidationError
from . import grid, radio
from .config import ScenarioConfig

# cell and UE ids are the prefix and the index: bs0, bs1, ...; ue0, ue1, ...
CELL_ID_PREFIX = "bs"
UE_ID_PREFIX = "ue"

# KPIs a run averages over its windows; the rest are counts it sums
MEAN_KPIS = ("mean_bs_load", "mean_user_satisfaction")
KPI_NAMES = (
    *MEAN_KPIS,
    "call_blockages",
    "rlfs",
    "handovers",
    "pingpong_handovers",
)


@dataclass(frozen=True)
class KpiSample:
    """Aggregated KPIs for one cell (or the network) over one window."""

    cell_id: str
    window_end_ts: int
    mean_bs_load: float
    mean_user_satisfaction: float
    call_blockages: int
    rlfs: int
    handovers: int
    pingpong_handovers: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.mean_bs_load <= 1.0:
            raise ValidationError("mean_bs_load must lie in [0, 1]")
        if self.pingpong_handovers > self.handovers:
            raise ValidationError("ping-pongs cannot exceed handovers")
        if min(self.call_blockages, self.rlfs, self.handovers, self.pingpong_handovers) < 0:
            raise ValidationError("event counts cannot be negative")

    def value(self, kpi_name: str) -> float:
        return getattr(self, kpi_name)


_FAR_PAST = -(10**12)


class WorldState:
    """One simulated network instance. Use `build_scenario` to create it."""

    def __init__(self, cfg: ScenarioConfig) -> None:
        self.cfg = cfg
        self.now_ms: int = 0

        self.bs_pos = grid.hex_grid_positions(cfg.isd_m, cfg.rings)
        self.area = grid.area_vertices(cfg.isd_m, cfg.rings, cfg.area_margin)
        self.cell_ids = [f"{CELL_ID_PREFIX}{i}" for i in range(cfg.n_bs)]
        self.cell_index = {cid: i for i, cid in enumerate(self.cell_ids)}
        self.hysteresis = np.full(cfg.n_bs, cfg.initial_hysteresis_db, dtype=float)
        self.ttt = np.full(cfg.n_bs, cfg.initial_ttt_ms, dtype=np.int64)
        self.cio = np.full(cfg.n_bs, cfg.initial_cio_db, dtype=float)

        seq = np.random.SeedSequence(cfg.seed)
        s_place, s_mob, s_traffic = seq.spawn(3)
        rng_place = np.random.default_rng(s_place)
        self._rng_mob = np.random.default_rng(s_mob)
        self._rng_traffic = np.random.default_rng(s_traffic)

        n = cfg.n_ue
        self.ue_ids = [f"{UE_ID_PREFIX}{i}" for i in range(n)]
        self.pos = grid.random_points(self.area, n, rng_place)
        self.profile = rng_place.choice(len(cfg.profile_probs), size=n, p=cfg.profile_probs)
        self.target_mbps = np.asarray(cfg.profile_bitrates_mbps, dtype=float)[self.profile]
        self.is_vehicle = rng_place.random(n) < cfg.vehicle_fraction
        self.speed = np.where(self.is_vehicle, cfg.vehicle_speed_mps, cfg.pedestrian_speed_mps)
        self.waypoint = grid.random_points(self.area, n, rng_place)
        self.paused_until = np.zeros(n, dtype=np.int64)
        self.needs_waypoint = np.zeros(n, dtype=bool)

        # shadowing only changes when a UE crosses a ground cell, so rows are
        # re-blended lazily, from lattice-corner draws that `_corners` re-hashes
        # only when a UE enters a new lattice square; the sentinels force a
        # full first fill
        self._bs_idx = np.arange(cfg.n_bs)
        self._shadow = np.zeros((n, cfg.n_bs))
        self._corners = radio.ShadowCorners(cfg.seed, self._bs_idx, np.arange(n))
        self._shadow_gx = np.full(n, np.iinfo(np.int64).min, dtype=np.int64)
        self._shadow_gy = np.full(n, np.iinfo(np.int64).min, dtype=np.int64)

        rsrp = self._rsrp()
        self.serving = np.argmax(rsrp, axis=1).astype(np.int64)
        self.a3_timer = np.zeros((n, cfg.n_bs), dtype=np.int64)
        self.rlf_timer = np.zeros(n, dtype=np.int64)
        self.in_outage = np.zeros(n, dtype=bool)
        self.outage_until = np.zeros(n, dtype=np.int64)
        self.session_active = np.zeros(n, dtype=bool)
        self.session_end = np.zeros(n, dtype=np.int64)
        self.session_demand = np.zeros(n, dtype=float)
        self.last_ho_ts = np.full(n, _FAR_PAST, dtype=np.int64)
        self.last_ho_from = np.full(n, -1, dtype=np.int64)

        # per-KPI-window accumulators, reset by collect_kpis
        k = cfg.n_bs
        self._load_sum = np.zeros(k)
        self._load_ticks = 0
        self._sat_sum = np.zeros(k)
        self._sat_cnt = np.zeros(k, dtype=np.int64)
        self._win_cb = np.zeros(k, dtype=np.int64)
        self._win_rlf = np.zeros(k, dtype=np.int64)
        self._win_ho = np.zeros(k, dtype=np.int64)
        self._win_pp = np.zeros(k, dtype=np.int64)

        self.totals = {
            "arrivals": 0,
            "admitted": 0,
            "blocked": 0,
            "completed": 0,
            "dropped": 0,
            "ho_rejected": 0,
        }
        self._events: List[dict] = []

        self._p_arrival = 1.0 - float(np.exp(-(cfg.tick_ms / 1000.0) / cfg.session_arrival_mean_s))

    # -- helpers ------------------------------------------------------------------

    def _rsrp(self) -> np.ndarray:
        rcfg = self.cfg.radio
        if rcfg.shadow_sigma_db != 0.0:
            g = rcfg.shadow_grid_m
            gx = np.floor(self.pos[:, 0] / g).astype(np.int64)
            gy = np.floor(self.pos[:, 1] / g).astype(np.int64)
            stale = (gx != self._shadow_gx) | (gy != self._shadow_gy)
            if stale.any():
                rows = np.nonzero(stale)[0]
                self._shadow[rows] = radio.shadowing_db(
                    self.cfg.seed, self._bs_idx, rows, self.pos[rows], rcfg, self._corners
                )
                self._shadow_gx[rows] = gx[rows]
                self._shadow_gy[rows] = gy[rows]
        d = np.hypot(
            self.pos[:, None, 0] - self.bs_pos[None, :, 0],
            self.pos[:, None, 1] - self.bs_pos[None, :, 1],
        )
        return rcfg.tx_power_dbm - radio.path_loss_db(d, rcfg) - self._shadow

    def ue_cells(self) -> Dict[str, str]:
        """Current attachment map (UE id -> serving cell id)."""
        return {self.ue_ids[i]: self.cell_ids[self.serving[i]] for i in range(len(self.ue_ids))}

    def control_params(self) -> Dict[str, Dict[str, float]]:
        """Current tunable parameters per cell, as the control plane sees them."""
        return {
            cid: {
                "hysteresis": float(self.hysteresis[i]),
                "ttt": float(self.ttt[i]),
                "cio": float(self.cio[i]),
            }
            for i, cid in enumerate(self.cell_ids)
        }

    def drain_events(self) -> List[dict]:
        out = self._events
        self._events = []
        return out

    # -- control plane ----------------------------------------------------------------

    def apply_control(self, rec: ControlRecord) -> Dict[str, float]:
        """Apply a cell-scope parameter change, clamped to legal ranges.

        Returns the values actually stored. Takes effect from the next tick
        (the current tick's phases have already read the old values).
        """
        if rec.target.scope is not Scope.CELL:
            raise ValidationError(f"only cell-scope control is supported, got {rec.target.scope}")
        cell = self.cell_index.get(rec.target.id)
        if cell is None:
            raise ValidationError(f"unknown cell {rec.target.id!r}")
        cfg = self.cfg
        applied: Dict[str, float] = {}
        for name, value in rec.changes.items():
            if name == "hysteresis":
                lo, hi = cfg.hysteresis_range_db
                self.hysteresis[cell] = min(hi, max(lo, float(value)))
                applied[name] = float(self.hysteresis[cell])
            elif name == "ttt":
                ladder = cfg.ttt_ladder_ms
                x = min(ladder[-1], max(ladder[0], float(value)))
                snapped = min(ladder, key=lambda v: (abs(v - x), v))
                self.ttt[cell] = snapped
                applied[name] = float(snapped)
            elif name == "cio":
                lo, hi = cfg.cio_range_db
                self.cio[cell] = min(hi, max(lo, float(value)))
                applied[name] = float(self.cio[cell])
            else:
                raise ValidationError(f"unknown control parameter {name!r}")
        return applied

    # -- simulation tick -----------------------------------------------------------------

    def step(self) -> None:
        cfg = self.cfg
        dt = cfg.tick_ms
        self.now_ms += dt

        self._move(dt)
        rsrp = self._rsrp()
        linear = 10.0 ** (rsrp / 10.0)
        biased = rsrp + self.cio[None, :]
        self._end_outages(rsrp)
        # a handover changes only its own UE's serving link, so the SINR and
        # throughput of every other row carry over from before the handovers
        total = linear.sum(axis=1)
        noise_dbm = cfg.radio.noise_dbm
        sinr = radio.sinr_db(rsrp, linear, self.serving, noise_dbm, total)
        unit_tp = radio.unit_throughput_mbps(sinr, cfg.radio)
        moved = self._handover_phase(rsrp, linear, total, biased, unit_tp, dt)
        if len(moved):
            sinr[moved] = radio.sinr_db(
                rsrp[moved], linear[moved], self.serving[moved], noise_dbm, total[moved]
            )
            unit_tp[moved] = radio.unit_throughput_mbps(sinr[moved], cfg.radio)
        self._rlf_phase(sinr, dt)
        self._session_phase(unit_tp)

    def _move(self, dt: int) -> None:
        now = self.now_ms
        unpause = self.needs_waypoint & (self.paused_until <= now)
        if unpause.any():
            self.waypoint[unpause] = grid.random_points(
                self.area, int(unpause.sum()), self._rng_mob
            )
            self.needs_waypoint[unpause] = False
        moving = ~self.needs_waypoint
        delta = self.waypoint - self.pos
        dist = np.hypot(delta[:, 0], delta[:, 1])
        step_m = self.speed * (dt / 1000.0)
        arrive = moving & (dist <= step_m)
        go = moving & ~arrive
        if arrive.any():
            self.pos[arrive] = self.waypoint[arrive]
            pauses = self._rng_mob.uniform(0.0, self.cfg.pause_max_s * 1000.0, int(arrive.sum()))
            self.paused_until[arrive] = now + pauses.astype(np.int64)
            self.needs_waypoint[arrive] = True
        # every row is divided, then only moving rows are added; a UE that
        # sits at its waypoint divides 0 by 0 into a row that is never added
        with np.errstate(invalid="ignore"):
            upd = delta / dist[:, None] * step_m[:, None]
        np.add(self.pos, upd, out=self.pos, where=go[:, None])

    def _end_outages(self, rsrp: np.ndarray) -> None:
        back = self.in_outage & (self.outage_until <= self.now_ms)
        if back.any():
            # reattach to the strongest cell; this is not a handover
            self.serving[back] = np.argmax(rsrp[back], axis=1)
            self.in_outage[back] = False
            self.a3_timer[back] = 0
            self.rlf_timer[back] = 0
            self.last_ho_ts[back] = _FAR_PAST
            self.last_ho_from[back] = -1

    def _handover_phase(
        self,
        rsrp: np.ndarray,
        linear: np.ndarray,
        total: np.ndarray,
        biased: np.ndarray,
        unit_tp: np.ndarray,
        dt: int,
    ) -> np.ndarray:
        """Hand over every UE whose A3 timer expired; returns the UEs moved.

        `total` is each row's summed received power and `unit_tp` each UE's
        unit throughput on its serving link before any handover.
        """
        cfg = self.cfg
        n = len(self.pos)
        rows = np.arange(n)
        serving_level = biased[rows, self.serving] + self.hysteresis[self.serving]
        cond = biased > serving_level[:, None]
        cond[rows, self.serving] = False
        cond[self.in_outage] = False
        self.a3_timer = np.where(cond, self.a3_timer + dt, 0)
        ttt_ue = self.ttt[self.serving]
        ready = cond & (self.a3_timer >= ttt_ue[:, None])
        movers = np.nonzero(ready.any(axis=1))[0]
        if len(movers) == 0:
            return movers
        # a cell must have room for an inbound session at the quality it will
        # actually get there; full cells admit nobody and churn can only drain them
        noise_w = 10.0 ** (cfg.radio.noise_dbm / 10.0)
        cell_ru, ru_ue = self._demanded_units(unit_tp)
        moved = []
        for ue in movers:
            cands = np.nonzero(ready[ue])[0]
            target = int(cands[np.argmax(biased[ue, cands])])
            source = int(self.serving[ue])
            if self.session_active[ue]:
                sinr_t = rsrp[ue, target] - 10.0 * np.log10(
                    total[ue] - linear[ue, target] + noise_w
                )
                tp_t = radio.unit_throughput_mbps(np.asarray([sinr_t]), cfg.radio)[0]
                need = self.session_demand[ue] / max(float(tp_t), 1e-12)
                if cell_ru[target] + need > cfg.capacity_units:
                    self.totals["ho_rejected"] += 1
                    self._events.append(
                        {
                            "kind": "handover_rejected",
                            "ts": self.now_ms,
                            "ue": self.ue_ids[ue],
                            "from": self.cell_ids[source],
                            "to": self.cell_ids[target],
                        }
                    )
                    self.a3_timer[ue, target] = 0
                    continue
                cell_ru[target] += need
                cell_ru[source] -= ru_ue[ue]
            pingpong = (
                target == self.last_ho_from[ue]
                and self.now_ms - self.last_ho_ts[ue] <= cfg.t_pingpong_ms
            )
            self._win_ho[source] += 1
            if pingpong:
                self._win_pp[source] += 1
            self._events.append(
                {
                    "kind": "handover",
                    "ts": self.now_ms,
                    "ue": self.ue_ids[ue],
                    "from": self.cell_ids[source],
                    "to": self.cell_ids[target],
                    "pingpong": bool(pingpong),
                }
            )
            self.last_ho_from[ue] = source
            self.last_ho_ts[ue] = self.now_ms
            self.serving[ue] = target
            self.a3_timer[ue] = 0
            self.rlf_timer[ue] = 0
            moved.append(ue)
        return np.asarray(moved, dtype=np.int64)

    def _rlf_phase(self, sinr: np.ndarray, dt: int) -> None:
        cfg = self.cfg
        attached = ~self.in_outage
        below = attached & (sinr < cfg.qout_db)
        self.rlf_timer = np.where(below, self.rlf_timer + dt, 0)
        self.rlf_timer[~attached] = 0
        for ue in np.nonzero(self.rlf_timer >= cfg.t_rlf_ms)[0]:
            cell = int(self.serving[ue])
            self._win_rlf[cell] += 1
            self._events.append(
                {"kind": "rlf", "ts": self.now_ms, "ue": self.ue_ids[ue], "cell": self.cell_ids[cell]}
            )
            if self.session_active[ue]:
                self.session_active[ue] = False
                self.totals["dropped"] += 1
                self._events.append(
                    {
                        "kind": "session_end",
                        "ts": self.now_ms,
                        "ue": self.ue_ids[ue],
                        "cell": self.cell_ids[cell],
                        "outcome": "dropped",
                    }
                )
            self.in_outage[ue] = True
            self.outage_until[ue] = self.now_ms + cfg.t_reest_ms
            self.rlf_timer[ue] = 0
            self.a3_timer[ue] = 0
            self.last_ho_ts[ue] = _FAR_PAST
            self.last_ho_from[ue] = -1

    def _demanded_units(self, unit_tp: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Resource units demanded per cell by currently active sessions."""
        active = self.session_active
        ru = np.zeros(len(self.pos))
        ru[active] = self.session_demand[active] / np.maximum(unit_tp[active], 1e-12)
        return np.bincount(
            self.serving, weights=ru, minlength=self.cfg.n_bs
        ), ru

    def _session_phase(self, unit_tp: np.ndarray) -> None:
        cfg = self.cfg
        now = self.now_ms
        done = self.session_active & (self.session_end <= now)
        for ue in np.nonzero(done)[0]:
            self.session_active[ue] = False
            self.totals["completed"] += 1
            self._events.append(
                {
                    "kind": "session_end",
                    "ts": now,
                    "ue": self.ue_ids[ue],
                    "cell": self.cell_ids[self.serving[ue]],
                    "outcome": "completed",
                }
            )

        draws = self._rng_traffic.random(len(self.pos))
        wants = (draws < self._p_arrival) & ~self.session_active & ~self.in_outage
        if wants.any():
            cell_ru, _ = self._demanded_units(unit_tp)
            for ue in np.nonzero(wants)[0]:
                cell = int(self.serving[ue])
                demand = float(self.target_mbps[ue])
                need = demand / max(float(unit_tp[ue]), 1e-12)
                admitted = cell_ru[cell] + need <= cfg.capacity_units
                self.totals["arrivals"] += 1
                self._events.append(
                    {
                        "kind": "session_arrival",
                        "ts": now,
                        "ue": self.ue_ids[ue],
                        "cell": self.cell_ids[cell],
                        "demand_mbps": demand,
                        "ru": float(need),
                        "cell_ru": float(cell_ru[cell]),
                        "capacity": float(cfg.capacity_units),
                        "admitted": bool(admitted),
                    }
                )
                if admitted:
                    holding_ms = self._rng_traffic.exponential(cfg.session_holding_mean_s) * 1000.0
                    self.session_active[ue] = True
                    self.session_demand[ue] = demand
                    self.session_end[ue] = now + max(1, int(round(holding_ms)))
                    self.totals["admitted"] += 1
                    cell_ru[cell] += need
                else:
                    self.totals["blocked"] += 1
                    self._win_cb[cell] += 1

        # per-tick load and satisfaction, including sessions admitted above
        cell_ru, _ = self._demanded_units(unit_tp)
        load_raw = cell_ru / cfg.capacity_units
        self._load_sum += np.minimum(load_raw, 1.0)
        self._load_ticks += 1
        scale = np.where(load_raw > 1.0, 1.0 / np.maximum(load_raw, 1e-12), 1.0)
        served = self.serving[self.session_active]
        np.add.at(self._sat_sum, served, scale[served])
        np.add.at(self._sat_cnt, served, 1)

    # -- KPI windows --------------------------------------------------------------------------

    def collect_kpis(self) -> Tuple[List[KpiSample], KpiSample]:
        """Close the current KPI window; per-cell samples plus the aggregate.

        Cells with no active-session ticks report satisfaction 1.0 (idle
        users are satisfied by convention).
        """
        ticks = max(self._load_ticks, 1)
        per_cell = []
        for c in range(self.cfg.n_bs):
            sat = float(self._sat_sum[c] / self._sat_cnt[c]) if self._sat_cnt[c] else 1.0
            per_cell.append(
                KpiSample(
                    cell_id=self.cell_ids[c],
                    window_end_ts=self.now_ms,
                    mean_bs_load=float(self._load_sum[c] / ticks),
                    mean_user_satisfaction=min(1.0, sat),
                    call_blockages=int(self._win_cb[c]),
                    rlfs=int(self._win_rlf[c]),
                    handovers=int(self._win_ho[c]),
                    pingpong_handovers=int(self._win_pp[c]),
                )
            )
        total_cnt = int(self._sat_cnt.sum())
        network = KpiSample(
            cell_id="network",
            window_end_ts=self.now_ms,
            mean_bs_load=float(self._load_sum.sum() / (ticks * self.cfg.n_bs)),
            mean_user_satisfaction=(
                min(1.0, float(self._sat_sum.sum() / total_cnt)) if total_cnt else 1.0
            ),
            call_blockages=int(self._win_cb.sum()),
            rlfs=int(self._win_rlf.sum()),
            handovers=int(self._win_ho.sum()),
            pingpong_handovers=int(self._win_pp.sum()),
        )
        self._load_sum[:] = 0.0
        self._load_ticks = 0
        self._sat_sum[:] = 0.0
        self._sat_cnt[:] = 0
        self._win_cb[:] = 0
        self._win_rlf[:] = 0
        self._win_ho[:] = 0
        self._win_pp[:] = 0
        return per_cell, network

    # -- reproducibility ------------------------------------------------------------------------

    def fingerprint(self) -> str:
        """Hash of the complete mutable state, for trajectory comparison."""
        h = hashlib.sha256()
        h.update(struct.pack("<q", self.now_ms))
        for arr in (
            self.pos,
            self.waypoint,
            self.paused_until,
            self.needs_waypoint,
            self.speed,
            self.profile,
            self.serving,
            self.a3_timer,
            self.rlf_timer,
            self.in_outage,
            self.outage_until,
            self.session_active,
            self.session_end,
            self.session_demand,
            self.last_ho_ts,
            self.last_ho_from,
            self.hysteresis,
            self.ttt,
            self.cio,
            self._load_sum,
            self._sat_sum,
            self._sat_cnt,
            self._win_cb,
            self._win_rlf,
            self._win_ho,
            self._win_pp,
        ):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(json.dumps(self.totals, sort_keys=True).encode())
        h.update(json.dumps(self._rng_mob.bit_generator.state, sort_keys=True, default=str).encode())
        h.update(
            json.dumps(self._rng_traffic.bit_generator.state, sort_keys=True, default=str).encode()
        )
        return h.hexdigest()


def build_scenario(cfg: ScenarioConfig) -> WorldState:
    """Create the initial world: sites on the grid, UEs placed and attached."""
    return WorldState(cfg)
