"""Scenario configuration with the desk-scale defaults."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Mapping, Tuple

from ..sdl import ValidationError
from .radio import RadioConfig

# 3GPP-style time-to-trigger ladder (ms); control values snap to it
TTT_LADDER: Tuple[int, ...] = (
    40, 64, 80, 100, 128, 160, 256, 320, 480, 512, 640, 1024, 1280, 2560, 5120,
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything that defines one simulated network and its traffic."""

    n_bs: int = 19
    rings: int = 2
    isd_m: float = 600.0
    n_ue: int = 380
    profile_probs: Tuple[float, float, float] = (0.6, 0.3, 0.1)
    profile_bitrates_mbps: Tuple[float, float, float] = (1.0, 5.0, 20.0)

    duration_ms: int = 1_000_000
    warmup_ms: int = 150_000
    tick_ms: int = 100
    kpi_window_ms: int = 5_000
    seed: int = 0

    session_arrival_mean_s: float = 60.0
    session_holding_mean_s: float = 30.0

    pedestrian_speed_mps: float = 1.4
    vehicle_speed_mps: float = 13.9
    vehicle_fraction: float = 0.5
    pause_max_s: float = 10.0
    area_margin: float = 0.5

    capacity_units: float = 100.0
    t_pingpong_ms: int = 3_000
    qout_db: float = -8.0
    t_rlf_ms: int = 1_000
    t_reest_ms: int = 200

    initial_hysteresis_db: float = 3.0
    initial_ttt_ms: int = 480
    initial_cio_db: float = 0.0
    hysteresis_range_db: Tuple[float, float] = (0.0, 10.0)
    cio_range_db: Tuple[float, float] = (-6.0, 6.0)
    ttt_ladder_ms: Tuple[int, ...] = TTT_LADDER

    cell_id_prefix: str = "bs"
    ue_id_prefix: str = "ue"
    radio: RadioConfig = field(default_factory=RadioConfig)

    def __post_init__(self) -> None:
        if abs(sum(self.profile_probs) - 1.0) > 1e-9:
            raise ValidationError("profile probabilities must sum to 1")
        if len(self.profile_probs) != len(self.profile_bitrates_mbps):
            raise ValidationError("one bitrate per traffic profile")
        if self.warmup_ms >= self.duration_ms:
            raise ValidationError("warmup must end before the run does")
        if self.tick_ms <= 0 or self.kpi_window_ms % self.tick_ms != 0:
            raise ValidationError("KPI window must be a whole number of ticks")
        if self.duration_ms % self.kpi_window_ms != 0:
            raise ValidationError("duration must be a whole number of KPI windows")
        if self.n_ue <= 0 or self.n_bs <= 0:
            raise ValidationError("need at least one UE and one site")
        if not 0.0 <= self.vehicle_fraction <= 1.0:
            raise ValidationError("vehicle_fraction must be within [0, 1]")
        if self.ttt_ladder_ms != tuple(sorted(self.ttt_ladder_ms)):
            raise ValidationError("ttt ladder must be ascending")

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return dataclasses.replace(self, seed=seed)


def config_from_dict(cls, data: Mapping, what: str, **convert: Callable):
    """Build the config dataclass `cls` from a parsed JSON object.

    Unknown keys and values of the wrong type raise a ValidationError that
    names them. `convert` maps a field name to a function applied to its
    raw value first.
    """
    if not isinstance(data, Mapping):
        raise ValidationError(f"{what} must be a JSON object, got {data!r}")
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValidationError(f"unknown {what} fields: {sorted(unknown)}")
    try:
        return cls(**{k: convert[k](v) if k in convert else v for k, v in data.items()})
    except TypeError as exc:
        raise ValidationError(f"bad {what} value: {exc}") from exc


def scenario_from_dict(data: Mapping) -> ScenarioConfig:
    """Build a config from a plain dict, rejecting unknown keys."""
    tuples = ("profile_probs", "profile_bitrates_mbps", "hysteresis_range_db",
              "cio_range_db", "ttt_ladder_ms")
    return config_from_dict(
        ScenarioConfig,
        data,
        "scenario",
        radio=lambda raw: config_from_dict(RadioConfig, raw, "radio"),
        **{key: tuple for key in tuples},
    )
