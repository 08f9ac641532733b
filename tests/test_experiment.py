"""Runner, sweep, and CLI tests on a small fast scenario."""

import csv
import dataclasses
import hashlib
import io
import json
import re
from enum import Enum

import pytest

from passthrough import run_bypassing_ric
from ricsim.cli import main
from ricsim.experiment import (
    CSV_COLUMNS,
    MODES,
    ExperimentConfig,
    PipelineConfig,
    experiment_from_dict,
    policy_for_mode,
    run,
    runs_csv,
    sweep,
)
from ricsim.ran.config import ScenarioConfig
from ricsim.sdl import Scope, ValidationError

SMALL = ExperimentConfig(
    scenario=ScenarioConfig(
        rings=1, n_ue=60, duration_ms=60_000, warmup_ms=10_000, seed=0
    )
)


def small_json(tmp_path, scenario=(), **extra):
    data = {
        "scenario": {
            "rings": 1,
            "n_ue": 60,
            "duration_ms": 60000,
            "warmup_ms": 10000,
            **dict(scenario),
        },
        **extra,
    }
    p = tmp_path / "config.json"
    p.write_text(json.dumps(data))
    return str(p)


# Fingerprints of the default world: seed 0, 120 s simulated after a 60 s
# warm-up. A speed-up must leave them unchanged; a change that moves the
# trajectory on purpose updates them in a change of its own.
PINNED_FINGERPRINTS = {
    "disabled": "e186e6865618ce28df63f42b55c29d48234a0a2c7efe62763e8db78ea0c4daa4",
    "prioritize-mro": "f9083d82d778daef72bd479805b4532fe038f67d7116cbfe5c2a41c3822c304f",
    "prioritize-mlb": "d84a931c58f29a2e81e764088d829af5ead3b04e993f8d106b0176d6ff65c65d",
}


@pytest.mark.parametrize("mode", MODES)
def test_default_trajectory_is_pinned(mode):
    scenario = dataclasses.replace(ScenarioConfig(), duration_ms=120_000, warmup_ms=60_000)
    result = run(ExperimentConfig(scenario=scenario), mode, 0)
    assert result.fingerprint == PINNED_FINGERPRINTS[mode]


def test_disabled_run_is_bypass_identical():
    direct = run(SMALL, "disabled", seed=3)
    bypassed, passthrough = run_bypassing_ric(SMALL, seed=3)
    assert passthrough.calls == bypassed.allowed == direct.allowed > 0
    assert direct.fingerprint == bypassed.fingerprint
    assert direct.kpis == bypassed.kpis


def test_repeat_run_identical():
    a = run(SMALL, "prioritize-mro", seed=1)
    b = run(SMALL, "prioritize-mro", seed=1)
    assert a == b
    assert a.csv_row() == b.csv_row()


def test_disabled_never_blocks():
    r = run(SMALL, "disabled", seed=2)
    assert r.blocked == 0
    assert r.allowed > 0


def test_prioritized_xapp_never_blocked():
    for mode, winner in (("prioritize-mro", "mro"), ("prioritize-mlb", "mlb")):
        r = run(SMALL, mode, seed=2)
        assert r.blocked_by_xapp.get(winner, 0) == 0


@pytest.mark.parametrize("mode", MODES)
def test_logging_does_not_change_the_run(tmp_path, mode):
    # logs are only kept with out_dir; keeping them must not move the trajectory
    assert run(SMALL, mode, 0) == run(SMALL, mode, 0, out_dir=str(tmp_path))


def test_verdict_log_counts_match_result_conflicts(tmp_path):
    r = run(SMALL, "disabled", seed=0, out_dir=str(tmp_path))
    counted = {"direct": 0, "indirect": 0}
    for line in (tmp_path / "disabled_seed0_verdicts.jsonl").open():
        for conflict in json.loads(line)["conflicts"]:
            counted[conflict["kind"]] += 1
    assert counted["indirect"] > 0
    assert counted == {"direct": r.conflicts["direct"], "indirect": r.conflicts["indirect"]}


def test_run_writes_logs(tmp_path):
    r = run(SMALL, "disabled", seed=0, out_dir=str(tmp_path))
    events = [json.loads(l) for l in (tmp_path / "disabled_seed0_events.jsonl").open()]
    verdicts = [json.loads(l) for l in (tmp_path / "disabled_seed0_verdicts.jsonl").open()]
    messages = [json.loads(l) for l in (tmp_path / "disabled_seed0_messages.jsonl").open()]
    result = json.loads((tmp_path / "disabled_seed0_result.json").read_text())
    assert result["kpis"] == {k: v for k, v in r.kpis.items()}
    assert len(verdicts) == len(messages) == r.allowed
    assert all(v["decision"] == "allow" for v in verdicts)
    assert {v["msg_id"] for v in verdicts} == {m["msg_id"] for m in messages}
    kinds = {e["kind"] for e in events}
    assert "session_arrival" in kinds


# SHA-256 of the sweep files of SMALL; a refactor must leave them unchanged
SWEEP_DIGESTS = {
    "runs.csv": "431bb004b64cb3d4a2aca8136035c7c054585fbe0892b1ee3d117050b39b9ad7",
    "summary.csv": "f61717404545dd13deff94c66c3d8fa6d7ed1c8cb35a223d44a08d37b6fda596",
    "summary.txt": "5dd2069ba2e7269258ffe1b50934827cbb141aeaa17cef21d96bb52bbd0e2ea6",
}
# the same without `disabled`: no baseline, every delta is n/a
NO_BASELINE_DIGESTS = {
    "runs.csv": "a2d8a7a6ab5ee58b18148365d03eabf5b76f199714f9b7c45370132a23fa3da9",
    "summary.csv": "58fb11fa5364c63a52cb9851ff77c5b159299c3ac2a3ed4966bcdd139ac1b970",
    "summary.txt": "70a36c0637b3756a9e19542994b038d7991ed4a272fb8411dff0b9e35920bcbc",
}


def file_digests(directory, names):
    return {n: hashlib.sha256((directory / n).read_bytes()).hexdigest() for n in names}


def test_sweep_outputs(tmp_path):
    table, results = sweep(SMALL, seeds=[0, 1], out_dir=str(tmp_path))
    assert len(results) == 6
    text = (tmp_path / "runs.csv").read_text()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 7
    assert rows[1][0] == "disabled" and rows[1][1] == "0"
    # disabled deltas are zero by definition
    assert all(v == 0.0 for v in table.deltas["disabled"].values())
    rendered = table.render()
    for mode in MODES:
        assert mode in rendered
    assert runs_csv(results) == text
    assert file_digests(tmp_path, SWEEP_DIGESTS) == SWEEP_DIGESTS


def test_sweep_outputs_without_baseline(tmp_path):
    modes = ("prioritize-mro", "prioritize-mlb")
    table, _ = sweep(SMALL, seeds=[0], modes=modes, out_dir=str(tmp_path))
    assert all(v is None for v in table.deltas["prioritize-mro"].values())
    assert file_digests(tmp_path, NO_BASELINE_DIGESTS) == NO_BASELINE_DIGESTS


def test_sweep_rejects_empty_seeds():
    with pytest.raises(ValidationError):
        sweep(SMALL, seeds=[])


def test_sweep_rejects_repeated_seeds_and_modes():
    # rejected before any run, so nothing is simulated or written
    with pytest.raises(ValidationError, match="repeated seed 0"):
        sweep(SMALL, seeds=[0, 1, 0])
    with pytest.raises(ValidationError, match="repeated mode 'prioritize-mro'"):
        sweep(SMALL, seeds=[0], modes=("prioritize-mro", "disabled", "prioritize-mro"))


def test_policy_mode_mapping():
    assert policy_for_mode("disabled").prioritized_xapp is None
    assert policy_for_mode("prioritize-mro").prioritized_xapp == "mro"
    assert policy_for_mode("prioritize-mlb").prioritized_xapp == "mlb"
    with pytest.raises(ValidationError):
        policy_for_mode("prioritize-bob")


def test_experiment_config_validation():
    with pytest.raises(ValidationError):
        experiment_from_dict({"xapps": {"mro": {"pp_high": 2.0}}})
    with pytest.raises(ValidationError):
        experiment_from_dict({"scenaro": {}})
    with pytest.raises(ValidationError):
        PipelineConfig(implicit_threshold=0)
    with pytest.raises(ValidationError, match="quarantine"):
        experiment_from_dict({"pipeline": {"quarantine_ms": 0}})


def test_site_count_comes_from_rings():
    with pytest.raises(ValidationError, match="n_bs"):
        experiment_from_dict({"scenario": {"n_bs": 7}})
    with pytest.raises(ValidationError, match="rings"):
        ScenarioConfig(rings=-1)


def test_config_file_cannot_set_the_seed():
    with pytest.raises(ValidationError, match="--seed"):
        experiment_from_dict({"scenario": {"seed": 5}})


def test_config_json_round_trip(tmp_path):
    path = small_json(
        tmp_path,
        xapps={"mro": {"pp_high": 0.2}},
        pipeline={"quarantine_ms": 20000},
        parameter_groups=[
            {"group_id": "ho_boundary", "scope": "cell", "members": ["hysteresis", "ttt", "cio"]}
        ],
    )
    cfg = experiment_from_dict(json.loads(open(path).read()))
    assert cfg.scenario.n_bs == 7
    assert cfg.xapps.mro.pp_high == 0.2
    assert cfg.xapps.mlb.load_high == 0.8
    assert cfg.pipeline.quarantine_ms == 20000
    assert cfg.parameter_groups[0].scope is Scope.CELL
    assert cfg.parameter_groups[0].members == frozenset({"hysteresis", "ttt", "cio"})


@pytest.mark.parametrize(
    "section",
    [
        {"xapps": {"mro": {"bogus": 1}}},
        {"xapps": {"mlb": {"bogus": 1}}},
        {"xapps": {"bogus": 1}},
        {"pipeline": {"bogus": 1}},
        {"scenario": {"radio": {"bogus": 1}}},
        {"scenario": {"bogus": 1}},
    ],
)
def test_unknown_config_key_is_a_validation_error(section):
    with pytest.raises(ValidationError, match="bogus"):
        experiment_from_dict(section)


def test_every_config_field_round_trips_through_json():
    cfg = ExperimentConfig()
    data = dataclasses.asdict(cfg)
    del data["scenario"]["seed"]
    text = json.dumps(data, default=lambda v: v.value if isinstance(v, Enum) else sorted(v))
    assert experiment_from_dict(json.loads(text)) == cfg


def test_traffic_profiles_are_not_fixed_at_three():
    two = {"profile_probs": [0.5, 0.5], "profile_bitrates_mbps": [1.0, 5.0]}
    assert experiment_from_dict({"scenario": two}).scenario.profile_probs == (0.5, 0.5)


GROUP = {"group_id": "ho_boundary", "members": ["hysteresis", "ttt"], "scope": "cell"}
GROUP0 = "config.parameter_groups[0]"


@pytest.mark.parametrize(
    "section, path",
    [
        ({"scenario": {"n_ue": 2.5}}, "config.scenario.n_ue"),
        ({"scenario": {"rings": 1.5}}, "config.scenario.rings"),
        ({"scenario": {"kpi_window_ms": 5000.0}}, "config.scenario.kpi_window_ms"),
        ({"scenario": {"initial_ttt_ms": 480.0}}, "config.scenario.initial_ttt_ms"),
        ({"scenario": {"ttt_ladder_ms": [40, 64.0]}}, "config.scenario.ttt_ladder_ms[1]"),
        ({"scenario": {"isd_m": True}}, "config.scenario.isd_m"),
        ({"pipeline": {"monitor_window": 2.5}}, "config.pipeline.monitor_window"),
        ({"scenario": {"hysteresis_range_db": [0.0]}}, "config.scenario.hysteresis_range_db"),
        ({"scenario": {"cio_range_db": "-6,6"}}, "config.scenario.cio_range_db"),
        ({"parameter_groups": [{**GROUP, "scope": "CELL"}]}, f"{GROUP0}.scope"),
        ({"parameter_groups": [{**GROUP, "bogus": 1}]}, f"{GROUP0}.bogus"),
        ({"parameter_groups": [{**GROUP, "members": ["a", 1]}]}, f"{GROUP0}.members[1]"),
        ({"parameter_groups": [{"group_id": "g", "members": ["a", "b"]}]}, f"{GROUP0}: "),
        ({"parameter_groups": GROUP}, "config.parameter_groups"),
        # range checks name the section and the field
        ({"scenario": {"ttt_ladder_ms": []}}, "config.scenario: ttt_ladder_ms"),
        ({"scenario": {"session_arrival_mean_s": 0}}, "scenario: session_arrival_mean_s"),
        ({"scenario": {"session_holding_mean_s": -30.0}}, "scenario: session_holding_mean_s"),
        ({"scenario": {"hysteresis_range_db": [10, 0]}}, "config.scenario: hysteresis_range_db"),
        ({"scenario": {"cio_range_db": [6, -6]}}, "config.scenario: cio_range_db"),
        ({"scenario": {"radio": {"shadow_grid_m": 0.0}}}, "config.scenario.radio: shadow_grid_m"),
        ({"scenario": {"capacity_units": 0}}, "config.scenario: capacity_units"),
        ({"scenario": {"kpi_window_ms": 0}}, "config.scenario: KPI window"),
        ({"scenario": {"warmup_ms": -5000}}, "config.scenario: warmup"),
        ({"scenario": {"isd_m": 0}}, "config.scenario: isd_m"),
        ({"scenario": {"rings": 0, "area_margin": 0.0}}, "config.scenario: the area"),
        (
            {"scenario": {"profile_probs": [1.5, -0.5], "profile_bitrates_mbps": [1.0, 5.0]}},
            "config.scenario: profile probabilities",
        ),
        ({"pipeline": {"quarantine_ms": -1}}, "config.pipeline: quarantine_ms"),
        ({"parameter_groups": [GROUP, GROUP]}, "config: parameter_groups"),
    ],
)
def test_malformed_config_names_its_field(tmp_path, capsys, section, path):
    with pytest.raises(ValidationError, match=re.escape(path)):
        experiment_from_dict(section)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--mode", "disabled", "--config", small_json(tmp_path, **section)])
    assert exc.value.code == 2
    assert path in capsys.readouterr().err


def test_config_value_of_wrong_type_is_a_validation_error():
    with pytest.raises(ValidationError, match="pipeline"):
        experiment_from_dict({"pipeline": {"monitor_window": "20"}})
    with pytest.raises(ValidationError, match="xapps"):
        experiment_from_dict({"xapps": [1]})


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--modes", "foo", "--seed-list", "0"], "unknown mode"),
        (["sweep", "--modes", "disabled", "--seeds", "0"], "at least one seed"),
        (["sweep", "--modes", "disabled", "--seed-list", "0,x"], "--seed-list"),
        (["sweep", "--modes", "disabled", "--seed-list", "0,0"], "repeated seed 0"),
        (["sweep", "--modes", "disabled,disabled", "--seed-list", "0"], "repeated mode 'disabled'"),
    ],
)
def test_cli_bad_flag_exits_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_cli_bad_config_exits_2(tmp_path, capsys):
    cases = [
        ({"pipeline": {"bogus": 1}}, "bogus"),
        ({"scenario": {"n_bs": 7}}, "n_bs"),
        ({"scenario": {"seed": 5}}, "--seed"),
        (None, "cannot read config"),
    ]
    for extra, message in cases:
        cfg = str(tmp_path / "missing.json") if extra is None else small_json(tmp_path, **extra)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--mode", "disabled", "--config", cfg])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_cli_run(tmp_path, capsys):
    cfg = small_json(tmp_path)
    out = tmp_path / "out"
    rc = main(["run", "--mode", "disabled", "--seed", "0", "--config", cfg, "--out", str(out)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "disabled" and payload["seed"] == 0
    assert payload["blocked"] == 0
    assert (out / "disabled_seed0_result.json").exists()


def test_cli_sweep(tmp_path, capsys):
    cfg = small_json(tmp_path)
    out = tmp_path / "out"
    rc = main(
        [
            "sweep",
            "--modes",
            "all",
            "--seed-list",
            "0,1",
            "--config",
            cfg,
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert "percentage deltas" in capsys.readouterr().out
    rows = list(csv.reader((out / "runs.csv").open()))
    assert rows[0] == list(CSV_COLUMNS) and len(rows) == 7


def test_cli_sweep_mode_subset(tmp_path, capsys):
    cfg = small_json(tmp_path)
    rc = main(["sweep", "--modes", "disabled", "--seed-list", "0", "--config", cfg])
    assert rc == 0
    rows = [r for r in capsys.readouterr().out.splitlines() if r.strip()]
    assert rows
