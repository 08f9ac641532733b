"""Scenario configuration with the desk-scale defaults, and the JSON loader of every config."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Tuple, get_args, get_origin, get_type_hints

from ..sdl import ValidationError
from .radio import RadioConfig

# 3GPP-style time-to-trigger ladder (ms); control values snap to it
TTT_LADDER: Tuple[int, ...] = (
    40, 64, 80, 100, 128, 160, 256, 320, 480, 512, 640, 1024, 1280, 2560, 5120,
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything that defines one simulated network and its traffic."""

    rings: int = 2
    isd_m: float = 600.0
    n_ue: int = 380
    profile_probs: Tuple[float, ...] = (0.6, 0.3, 0.1)
    profile_bitrates_mbps: Tuple[float, ...] = (1.0, 5.0, 20.0)

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

    radio: RadioConfig = field(default_factory=RadioConfig)

    def __post_init__(self) -> None:
        if any(p < 0 for p in self.profile_probs) or abs(sum(self.profile_probs) - 1.0) > 1e-9:
            raise ValidationError("profile probabilities must be non-negative and sum to 1")
        if len(self.profile_probs) != len(self.profile_bitrates_mbps):
            raise ValidationError("one bitrate per traffic profile")
        if not 0 <= self.warmup_ms < self.duration_ms:
            raise ValidationError("warmup must be >= 0 and end before the run does")
        if min(self.tick_ms, self.kpi_window_ms) <= 0 or self.kpi_window_ms % self.tick_ms != 0:
            raise ValidationError("KPI window must be a positive whole number of ticks")
        if self.duration_ms % self.kpi_window_ms != 0:
            raise ValidationError("duration must be a whole number of KPI windows")
        if self.n_ue <= 0 or self.rings < 0:
            raise ValidationError("need at least one UE and rings >= 0")
        if self.rings + self.area_margin <= 0:
            raise ValidationError("the area needs rings + area_margin > 0")
        if not 0.0 <= self.vehicle_fraction <= 1.0:
            raise ValidationError("vehicle_fraction must be within [0, 1]")
        for name in ("isd_m", "session_arrival_mean_s", "session_holding_mean_s", "capacity_units"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        for name in ("hysteresis_range_db", "cio_range_db"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValidationError(f"{name} must be (low, high), got {(lo, hi)}")
        if not self.ttt_ladder_ms or self.ttt_ladder_ms != tuple(sorted(self.ttt_ladder_ms)):
            raise ValidationError("ttt_ladder_ms must be non-empty and ascending")

    @property
    def n_bs(self) -> int:
        """Site count of the hex grid: the centre plus 6k sites on ring k."""
        return 1 + 3 * self.rings * (self.rings + 1)

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return dataclasses.replace(self, seed=seed)


def config_from_dict(cls, data, what: str):
    """Build the config dataclass `cls` from a parsed JSON value.

    Each field's JSON value is converted by its declared type, recursing
    into nested config dataclasses. An unknown key or a value of the wrong
    type raises a ValidationError that names the field by its dotted path
    under `what`; a missing required field or a failed check of the built
    dataclass raises one with `what` in front of its message.
    """
    if not isinstance(data, Mapping):
        raise ValidationError(f"{what} must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ValidationError("unknown field " + ", ".join(f"{what}.{k}" for k in unknown))
    types = get_type_hints(cls)
    values = {k: _from_json(types[k], v, f"{what}.{k}") for k, v in data.items()}
    try:
        return cls(**values)
    except (TypeError, ValidationError) as exc:  # TypeError: a required field is missing
        raise ValidationError(f"{what}: {exc}") from exc


def _from_json(tp, raw, what: str):
    """`raw` as a value of the declared type `tp`, or a ValidationError."""
    if dataclasses.is_dataclass(tp):
        return config_from_dict(tp, raw, what)
    if isinstance(tp, type) and issubclass(tp, Enum):
        values = [m.value for m in tp]
        if raw not in values:
            raise ValidationError(f"{what} must be one of {values}, got {raw!r}")
        return tp(raw)
    if tp is frozenset or get_origin(tp) is tuple:
        if not isinstance(raw, list):
            raise ValidationError(f"{what} must be a JSON list, got {raw!r}")
        if tp is frozenset:
            return frozenset(_from_json(str, v, f"{what}[{i}]") for i, v in enumerate(raw))
        args = get_args(tp)
        if args[-1] is Ellipsis:
            args = args[:1] * len(raw)
        elif len(raw) != len(args):
            raise ValidationError(f"{what} must list {len(args)} values, got {len(raw)}")
        return tuple(_from_json(t, v, f"{what}[{i}]") for i, (t, v) in enumerate(zip(args, raw)))
    # an int field takes JSON integers only, a float field any JSON number
    accepted, kind = {
        int: (int, "an integer"),
        float: ((int, float), "a number"),
        str: (str, "a string"),
    }[tp]
    if isinstance(raw, bool) or not isinstance(raw, accepted):
        raise ValidationError(f"{what} must be {kind}, got {raw!r}")
    return raw
