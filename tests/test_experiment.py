"""Runner, sweep, and CLI tests on a small fast scenario."""

import csv
import io
import json

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
        n_bs=7, rings=1, n_ue=60, duration_ms=60_000, warmup_ms=10_000, seed=0
    )
)


def small_json(tmp_path, **extra):
    data = {
        "scenario": {
            "n_bs": 7,
            "rings": 1,
            "n_ue": 60,
            "duration_ms": 60000,
            "warmup_ms": 10000,
        },
        **extra,
    }
    p = tmp_path / "config.json"
    p.write_text(json.dumps(data))
    return str(p)


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
    assert (tmp_path / "summary.csv").exists()
    assert (tmp_path / "summary.txt").exists()
    assert runs_csv(results) == text


def test_sweep_rejects_empty_seeds():
    with pytest.raises(ValidationError):
        sweep(SMALL, seeds=[])


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
    ],
)
def test_cli_bad_flag_exits_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_cli_bad_config_exits_2(tmp_path, capsys):
    cases = [
        (small_json(tmp_path, pipeline={"bogus": 1}), "bogus"),
        (str(tmp_path / "missing.json"), "cannot read config"),
    ]
    for cfg, message in cases:
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
