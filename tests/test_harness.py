"""Config handling, scenario outputs, CLI exit codes."""

import csv
import json
import math

import pytest

from cmvm.cli import main
from cmvm.harness import (
    CONVERGENCE_HEADER,
    apply_overrides,
    config_hash,
    emit_convergence_csv,
    load_config,
    run,
    scenario_description,
    scenario_names,
)
from cmvm.noise import spec_to_json
from cmvm.presets import make_preset

ALL_SCENARIOS = [
    "burkholder",
    "ito-converge",
    "qv-converge",
    "verify-associativity",
    "verify-conditional-isometry",
    "verify-decomposition",
    "verify-isometry",
    "verify-ito",
    "verify-qv",
    "verify-taylor",
]


def test_scenario_registry():
    assert scenario_names() == ALL_SCENARIOS
    for name in ALL_SCENARIOS:
        assert scenario_description(name)


def test_defaults_and_overrides():
    cfg = load_config("verify-qv")
    assert cfg.preset == "mixed-default"
    assert cfg.n_steps == 8
    assert cfg.params["tol"] == 1e-12
    cfg2 = apply_overrides(cfg, ["n_paths=77", "params.gain=0.1", "preset=gauss-default"])
    assert cfg2.n_paths == 77
    assert cfg2.params["gain"] == 0.1
    assert cfg2.preset == "gauss-default"
    # the original is untouched
    assert cfg.params["gain"] == 0.4


def test_override_errors():
    cfg = load_config("verify-qv")
    with pytest.raises(ValueError, match="KEY=VALUE"):
        apply_overrides(cfg, ["n_paths"])
    with pytest.raises(ValueError, match="unknown parameter"):
        apply_overrides(cfg, ["params.bogus=1"])
    with pytest.raises(ValueError, match="unknown override key"):
        apply_overrides(cfg, ["paths=10"])


def test_unknown_scenario_and_bad_config(tmp_path):
    with pytest.raises(ValueError, match="neither a config file nor a scenario"):
        load_config("no-such-thing")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": "verify-qv", "n_paths": -3}))
    with pytest.raises(ValueError, match="positive"):
        load_config(str(bad))
    odd = tmp_path / "odd.json"
    odd.write_text(json.dumps({"scenario": "verify-qv", "walkers": 10}))
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(str(odd))


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "verify-qv", "n_paths": 25, "params": {"tol": 1e-11}}))
    cfg = load_config(str(path))
    assert cfg.n_paths == 25
    assert cfg.params["tol"] == 1e-11
    assert cfg.params["gain"] == 0.4  # untouched default


def test_config_hash_tracks_content():
    a = load_config("verify-qv")
    b = load_config("verify-qv")
    assert config_hash(a) == config_hash(b)
    c = apply_overrides(a, ["seed=9"])
    assert config_hash(c) != config_hash(a)


def test_run_outputs_are_reproducible(tmp_path):
    cfg = apply_overrides(load_config("verify-qv"), ["n_paths=30"])
    res_a = run(cfg, str(tmp_path / "a"))
    res_b = run(cfg, str(tmp_path / "b"))
    assert res_a.passed and res_b.passed
    for name in ("verify-qv.csv", "verify-qv.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    # run records agree except for the wall time
    rec_a = json.loads((tmp_path / "a" / "run-record.json").read_text())
    rec_b = json.loads((tmp_path / "b" / "run-record.json").read_text())
    assert rec_a.pop("wall_time_s") >= 0.0
    rec_b.pop("wall_time_s")
    assert rec_a == rec_b
    payload = json.loads((tmp_path / "a" / "verify-qv.json").read_text())
    assert payload["passed"] is True
    assert payload["config_hash"] == config_hash(cfg)
    assert rec_a["outputs"]["csv"] == "verify-qv.csv"
    for check in rec_a["checks"]:
        assert {"name", "value", "target", "tolerance", "passed"} <= set(check)


def test_single_path_run_flags_unreliable_stderr(tmp_path):
    # one path has no standard error: every z-gate fails with z recorded as null
    z_checks = {
        "verify-isometry": ["second-moment-z"],
        "verify-conditional-isometry": ["event-always-z", "event-first-up-z", "event-first-down-z"],
        "burkholder": ["terminal-equality-p2-z"],
    }
    for scenario, names in z_checks.items():
        cfg = apply_overrides(load_config(scenario), ["n_paths=1", "n_steps=4"])
        res = run(cfg, str(tmp_path / scenario))
        payload = json.loads((tmp_path / scenario / f"{scenario}.json").read_text())
        assert payload["metrics"]["stderr_reliable"] is False
        checks = {c["name"]: c for c in payload["checks"]}
        for name in names:
            assert checks[name]["z"] is None
            assert checks[name]["passed"] is False
        assert res.passed is False
        assert res.record_path  # the run completed and wrote its record
    isometry = json.loads((tmp_path / "verify-isometry" / "verify-isometry.json").read_text())
    assert isometry["metrics"]["stderr"] is None


def test_noise_model_file_as_preset(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(spec_to_json(make_preset("gauss-default"))))
    cfg = apply_overrides(
        load_config("verify-qv"), [f"preset={model}", "n_paths=10"]
    )
    res = run(cfg, str(tmp_path / "out"))
    assert res.passed


def test_emit_convergence_csv_appends_without_duplicate_header(tmp_path):
    path = str(tmp_path / "sweep.csv")
    row = {
        "experiment": "qv-converge",
        "level": 3,
        "mesh": 0.125,
        "metric": "median_rel_err",
        "value": 0.2,
        "q25": 0.1,
        "q75": 0.3,
        "n_paths": 10,
        "seed": 0,
    }
    emit_convergence_csv(path, [row], mode="w")
    emit_convergence_csv(path, [dict(row, level=4)], mode="a")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CONVERGENCE_HEADER)
    assert len(rows) == 3
    assert rows[1][1] == "3" and rows[2][1] == "4"


def test_cli_list_and_validate(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ALL_SCENARIOS:
        assert name in out
    assert main(["validate-config", "verify-qv", "--set", "n_paths=10", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert '"n_paths": 10' in out
    assert '"seed": 3' in out
    assert "config-hash:" in out


def test_cli_config_flag_matches_positional(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "verify-qv"}))
    assert main(["validate-config", "--config", str(path)]) == 0
    by_flag = capsys.readouterr().out
    assert main(["validate-config", str(path)]) == 0
    assert capsys.readouterr().out == by_flag
    assert main(["validate-config", str(path), "--config", str(path)]) == 2
    assert "not both" in capsys.readouterr().err


def test_cli_run_exit_codes(tmp_path, capsys):
    code = main(["run", "verify-qv", "--set", "n_paths=20", "--out", str(tmp_path / "ok")])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "[pass] polarization" in out

    # an absurdly tight relative tolerance makes the gate fail honestly
    code = main(
        [
            "run",
            "verify-isometry",
            "--set",
            "n_paths=200",
            "--set",
            "params.rel_tol=1e-12",
            "--out",
            str(tmp_path / "fail"),
        ]
    )
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_bad_inputs_exit_two(tmp_path, capsys):
    assert main(["run", "no-such-scenario", "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["validate-config", str(garbled)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["run"]) == 2
    assert "give a config" in capsys.readouterr().err


def _nan_rate_model(tmp_path):
    doc = spec_to_json(make_preset("jump-default"))
    doc["cells"][1]["jump"]["rate"] = float("nan")
    model = tmp_path / "nan-rate.json"
    model.write_text(json.dumps(doc))
    return str(model)


@pytest.mark.parametrize(
    "scenario, overrides",
    [
        ("verify-isometry", ["preset=NAN_MODEL"]),
        ("verify-isometry", ["preset=no-such-model.json"]),
        ("burkholder", ["params.continuous_preset=no-such-model.json"]),
        ("verify-isometry", ["horizon=nan"]),
        ("verify-isometry", ["horizon=NaN"]),
        ("verify-isometry", ['horizon="1.0"']),
        ("verify-isometry", ["n_steps=1.5"]),
        ("verify-isometry", ['n_paths="abc"']),
        ("verify-isometry", ["seed=0.5"]),
        ("qv-converge", ["n_steps=32"]),
        ("qv-converge", ["params.levels=[]"]),
        ("ito-converge", ["params.levels=[]"]),
    ],
)
def test_invalid_configs_exit_two_at_resolve_time(tmp_path, capsys, scenario, overrides):
    overrides = [o.replace("NAN_MODEL", _nan_rate_model(tmp_path)) for o in overrides]
    args = [scenario] + [arg for o in overrides for arg in ("--set", o)]
    for argv in (["validate-config"] + args, ["run"] + args + ["--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


def test_integral_floats_still_resolve():
    cfg = apply_overrides(load_config("verify-qv"), ["n_steps=16.0", "seed=3.0"])
    assert (cfg.n_steps, cfg.seed) == (16, 3)
    assert isinstance(cfg.n_steps, int) and isinstance(cfg.seed, int)


def test_zero_median_fails_convergence_gate(tmp_path):
    """On a pure-jump model the Riemann sums hit the optional bracket
    exactly, so later medians are 0 and a ratio over them is undefined: the
    gate must fail with a null value, not divide by zero."""
    cfg = apply_overrides(
        load_config("qv-converge"), ["preset=jump-default", "n_paths=40", "n_steps=128"]
    )
    res = run(cfg, str(tmp_path))
    checks = {c["name"]: c for c in res.checks}
    decreasing = checks["median-rel-err-strictly-decreasing"]
    assert math.isnan(decreasing["value"]) and decreasing["passed"] is False
    assert 0.0 in res.metrics["medians"]
    blob = json.loads((tmp_path / "qv-converge.json").read_text())
    stored = {c["name"]: c for c in blob["checks"]}
    assert stored["median-rel-err-strictly-decreasing"]["value"] is None
