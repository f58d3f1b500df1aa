"""Config handling, scenario outputs, CLI exit codes."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cmvm.harness
import cmvm.integrate
import cmvm.ito
from cmvm.cli import main
from cmvm.harness import (
    _build_config,
    apply_overrides,
    config_hash,
    load_config,
    run,
    scenario_description,
    scenario_names,
)
from cmvm.integrate import ItoProcessSpec, constant_integrand, simulate_ito_process
from cmvm.ito import ito_residual, make_smooth
from cmvm.noise import MAX_STEPS, TimeGrid, coarsen, sample_path, spec_to_json
from cmvm.presets import make_preset, preset_names
from test_manifest import ROOT, SHAPES, shape_overrides

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


@st.composite
def _configs(draw):
    """A default scenario config with drawn valid top-level and phi overrides."""
    scenario = draw(st.sampled_from(ALL_SCENARIOS))
    fields = {
        "preset": draw(st.sampled_from(preset_names())),
        "horizon": draw(st.floats(1e-3, 100.0)),
        "n_steps": draw(st.integers(1, 512)),
        "n_paths": draw(st.integers(1, 10**6)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }
    keys = draw(st.sets(st.sampled_from(sorted(fields))))
    overrides = [f"{key}={json.dumps(fields[key])}" for key in sorted(keys)]
    cfg = load_config(scenario)
    if "phi" in cfg.params and draw(st.booleans()):
        row = st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2)
        phi = draw(st.lists(row, min_size=2, max_size=2))
        overrides.append(f"params.phi={json.dumps(phi)}")
    try:
        return apply_overrides(cfg, overrides)
    except ValueError:  # e.g. dyadic levels finer than a drawn grid
        assume(False)


@settings(max_examples=80, deadline=None)
@given(_configs())
def test_config_round_trips_through_its_dict(cfg):
    for doc in (cfg.to_dict(), json.loads(json.dumps(cfg.to_dict()))):
        back = _build_config(doc)
        assert back == cfg
        assert config_hash(back) == config_hash(cfg)


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


def _json_dump_reference(value) -> str:
    """The stdlib encoding the JSON files follow: json.dumps with sorted keys
    and indent 2, numpy values through a default hook, and every non-finite
    float outside an array made null first."""

    def definite(obj):
        if isinstance(obj, dict):
            return {k: definite(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [definite(v) for v in obj]
        if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
            return None
        return obj

    def default(obj):
        if isinstance(obj, np.bool_):
            return bool(obj)
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        raise TypeError(type(obj).__name__)

    return json.dumps(definite(value), sort_keys=True, indent=2, default=default)


def test_json_text_writes_what_json_dumps_writes():
    doc = {
        "floats": [1.0, 2.5, -0.0, 1e-300, 1e300, 0.1 + 0.2, math.nan, math.inf, -math.inf],
        "plain": [None, True, False, 0, -7, 10**30, "", 'quote " and \\ and\nnewline', "naïve ✓"],
        "numpy": (np.float64(0.1), np.float32(0.3), np.int64(-7), np.uint8(200), np.bool_(True),
                  np.float64(math.nan)),
        "array": np.array([[1.0, -2.5], [3.0, 1e300]]),
        "empty": {"dict": {}, "list": [], "tuple": (), "array": np.zeros(0)},
        "nested": {"z": {"y": [{}, [[]], {"x": [1, {"w": None}]}]}},
        "keys": {"ints": {10: "b", 2: "a"}, "float": {0.5: 1}, "bool": {True: 1}, "none": {None: 1}},
        "ü": "key outside ASCII",
    }
    assert cmvm.harness._json_text(doc) == _json_dump_reference(doc)
    for value in doc.values():
        assert cmvm.harness._json_text(value) == _json_dump_reference(value)
    # unlike json's NaN, a non-finite float inside an array is null too
    assert cmvm.harness._json_text(np.array([1.0, math.nan])) == "[\n  1.0,\n  null\n]"
    with pytest.raises(TypeError, match="not JSON serializable: object"):
        cmvm.harness._json_text({"x": object()})


@pytest.mark.parametrize("scenario", ["verify-qv", "ito-converge", "burkholder"])
def test_json_files_are_what_json_dumps_writes(scenario, tmp_path):
    cfg = apply_overrides(load_config(scenario), ["n_paths=12"])
    res = run(cfg, str(tmp_path))
    shared = {
        "scenario": scenario,
        "passed": res.passed,
        "config": cfg.to_dict(),
        "config_hash": config_hash(cfg),
        "checks": res.checks,
    }
    payload = (tmp_path / f"{scenario}.json").read_text()
    assert payload == _json_dump_reference(dict(shared, metrics=res.metrics)) + "\n"
    record = (tmp_path / "run-record.json").read_text()
    stored = json.loads(record)
    expected = dict(
        shared,
        package_version=cmvm.__version__,
        wall_time_s=stored["wall_time_s"],
        outputs={"csv": f"{scenario}.csv", "json": f"{scenario}.json"},
    )
    assert record == _json_dump_reference(expected) + "\n"


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


@pytest.mark.parametrize("scenario", ["verify-decomposition", "verify-qv"])
@pytest.mark.parametrize("shape", SHAPES)
def test_exact_gates_hold_on_other_shapes(scenario, shape, tmp_path, monkeypatch):
    """The exact per-path gates on shapes other than 2x2, where the bracket
    kernel's chunk einsums and the batched readers run with dim_out !=
    dim_in or on a model of another dimension (see shape_overrides; the
    model files are committed under tests/models)."""
    monkeypatch.chdir(ROOT)
    res = run(apply_overrides(load_config(scenario), shape_overrides(scenario, shape)), str(tmp_path / "out"))
    assert res.passed, res.checks
    assert all(c["value"] <= 1e-12 for c in res.checks)


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
    line = next(ln for ln in out.splitlines() if "[pass] polarization:" in ln)
    assert "value=" in line and "target=0.0" in line and "tolerance=1e-12" in line
    assert line.endswith(" z=-")

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
    out = capsys.readouterr().out
    assert "FAIL" in out
    line = next(ln for ln in out.splitlines() if "second-moment-z:" in ln)
    shown = dict(item.split("=") for item in line.split(": ", 1)[1].split())
    assert list(shown) == ["value", "target", "tolerance", "z"]
    assert "-" not in shown.values() and shown["z"] == shown["value"], line


def test_cli_bad_inputs_exit_two(tmp_path, capsys):
    assert main(["run", "no-such-scenario", "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["validate-config", str(garbled)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["run"]) == 2
    assert "give a config" in capsys.readouterr().err


# model files with one field of the wrong JSON type: the field, its value
_WRONG_TYPES = {
    "FRACTIONAL_DIM_MODEL": ("dim", 2.7),
    "STRING_DIM_MODEL": ("dim", "2"),
    "BOOL_DIM_MODEL": ("dim", True),
    "BOOL_RATE_MODEL": ("rate", True),
    "STRING_RATE_MODEL": ("rate", "1.5"),
    "HUGE_RATE_MODEL": ("rate", 10**400),
    "BOOL_INTENSITY_MODEL": ("intensity", True),
    "STRING_INTENSITY_MODEL": ("intensity", "1.5"),
}

# mixed-default model files with a string or bool among a field's array entries
_WRONG_ENTRIES = {
    "STRING_COV_MODEL": lambda doc: doc["cells"][1]["diffusion"].update(cov=[["0.4166", 0], [0, True]]),
    "STRING_PARTITION_MODEL": lambda doc: doc.update(partition=["0", 0.25, 0.5, 0.75, True]),
    "STRING_VECTOR_MODEL": lambda doc: doc["cells"][0]["jump"]["amplitude"].update(vector=["0.6", False]),
}


def _model_file(tmp_path, name):
    """A noise-model file: jump-default with one field spoiled (or given a
    diffusion whose rate underflows), jump-default with a diffusing cell 1
    and its dim, that cell's jump rate or its intensity of the wrong type,
    mixed-default with wrong-type covariance, partition or amplitude vector
    entries, or a valid 1-D model."""
    doc = spec_to_json(make_preset("jump-default"))
    if name == "NAN_MODEL":
        doc["cells"][1]["jump"]["rate"] = float("nan")
    elif name == "LIST_DIM_MODEL":
        doc["dim"] = [2]
    elif name == "SCALAR_CELL_MODEL":
        doc["cells"][1] = 5
    elif name == "SUBNORMAL_MODEL":
        doc["cells"][1]["diffusion"] = {"cov": [[0.0, 0.0], [0.0, 0.25]], "intensity": 5e-324}
    elif name == "UNDERFLOW_MODEL":
        doc["cells"][1]["diffusion"] = {"cov": [[1e-30, 0.0], [0.0, 0.0]], "intensity": 1e-300}
    elif name in _WRONG_TYPES:
        field, value = _WRONG_TYPES[name]
        cell = doc["cells"][1]
        cell["diffusion"] = {"cov": [[1.0, 0.0], [0.0, 1.0]], "intensity": 1.0}
        {"dim": doc, "rate": cell["jump"], "intensity": cell["diffusion"]}[field][field] = value
    elif name in _WRONG_ENTRIES:
        doc = spec_to_json(make_preset("mixed-default"))
        _WRONG_ENTRIES[name](doc)
    elif name == "ONE_DIM_MODEL":
        cell = {"diffusion": {"cov": [[1.0]], "intensity": 1.0}, "jump": None}
        doc = {"dim": 1, "partition": [0.0, 1.0], "cells": [cell]}
    model = tmp_path / f"{name.lower()}.json"
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
        ("verify-isometry", ["preset=LIST_DIM_MODEL"]),
        ("verify-isometry", ["preset=SCALAR_CELL_MODEL"]),
        ("verify-isometry", ["params.phi=[[1.0]]"]),
        ("verify-isometry", ["params.phi=[1.0, 0.0]"]),
        ("verify-isometry", ['params.phi=[[1.0, "a"], [0.0, 1.0]]']),
        ("burkholder", ["params.phi=[[1.0]]"]),
        ("burkholder", ["params.continuous_preset=ONE_DIM_MODEL"]),
        ("verify-qv", ["params.phi_b=[[0.2, -0.5]]"]),
        ("verify-conditional-isometry", ["params.weight=[0.6]"]),
        ("ito-converge", ["params.drift=[0.3, -0.2, 0.1]"]),
        ("verify-isometry", ["preset=SUBNORMAL_MODEL"]),
        ("verify-isometry", ["preset=UNDERFLOW_MODEL"]),
        ("qv-converge", ["params.kind=bogus"]),
        ("ito-converge", ["params.variant=bogus"]),
        ("ito-converge", ["params.function=bogus"]),
        ("verify-isometry", ["params.flavor=bogus"]),
        ("verify-isometry", ['params.z_max="abc"']),
        ("verify-taylor", ['params.functions=["bogus"]']),
        ("verify-taylor", ['params.deltas=["a"]']),
        ("burkholder", ['params.p_closed=["x"]']),
        ("burkholder", ["params.p_closed=[0]"]),
        ("verify-qv", ['params.tol="abc"']),
        ("verify-associativity", ["params.max_blocks=0"]),
        ("verify-conditional-isometry", ["n_steps=32", "params.s_step=32"]),
        ("verify-conditional-isometry", ["n_steps=32", "params.s_step=100"]),
        ("verify-conditional-isometry", ["n_steps=32", "params.s_step=-1"]),
        ("verify-taylor", ["params.deltas=[]"]),
        ("verify-isometry", ["params.phi=[[NaN, 0.0], [0.0, 1.0]]"]),
        ("verify-taylor", ['params.functions=["linear:nan"]']),
        ("verify-taylor", ['params.functions=["norm_p:inf"]']),
        ("ito-converge", ['params.function="linear:-inf"']),
        ("verify-isometry", ['scenario=["verify-qv"]']),
        ("verify-taylor", ["seed=-5"]),
        ("verify-associativity", ["seed=-20"]),
        ("qv-converge", ["params.kind=adaptive", "params.levels=[1100]"]),
        ("qv-converge", ["params.kind=adaptive", "params.levels=[-2000]"]),
        ("verify-taylor", ["params.functions=[]"]),
        ("verify-isometry", ["preset=FRACTIONAL_DIM_MODEL"]),
        ("verify-isometry", ["preset=STRING_DIM_MODEL"]),
        ("verify-isometry", ["preset=BOOL_DIM_MODEL"]),
        ("verify-isometry", ["preset=BOOL_RATE_MODEL"]),
        ("verify-isometry", ["preset=STRING_RATE_MODEL"]),
        ("verify-isometry", ["preset=BOOL_INTENSITY_MODEL"]),
        ("verify-isometry", ["preset=STRING_INTENSITY_MODEL"]),
        ("verify-isometry", ["preset=HUGE_RATE_MODEL"]),
        ("verify-isometry", ["preset=STRING_COV_MODEL"]),
        ("verify-isometry", ["preset=STRING_PARTITION_MODEL"]),
        ("verify-isometry", ["preset=STRING_VECTOR_MODEL"]),
    ],
)
def test_invalid_configs_exit_two_at_resolve_time(tmp_path, capsys, scenario, overrides):
    def resolve(item):
        key, value = item.split("=", 1)
        return f"{key}={_model_file(tmp_path, value)}" if value.endswith("_MODEL") else item

    args = [scenario] + [arg for o in overrides for arg in ("--set", resolve(o))]
    for argv in (["validate-config"] + args, ["run"] + args + ["--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "scenario, above, at",
    [
        ("verify-isometry", f"n_steps={MAX_STEPS + 1}", f"n_steps={MAX_STEPS}"),
        ("verify-isometry", f"n_steps={2**64}", f"n_steps={MAX_STEPS}"),
        ("ito-converge", f"params.levels=[4, {MAX_STEPS.bit_length()}]",
         f"params.levels=[4, {MAX_STEPS.bit_length() - 1}]"),
    ],
)
def test_step_counts_above_the_cap_exit_two(capsys, scenario, above, at):
    """A step count above MAX_STEPS, which numpy may refuse to allocate, or
    an ito-converge level whose 2^level steps exceed it, exits 2 at resolve
    time, and the cap itself resolves. Only validate-config runs: a run of
    these sizes would allocate them."""
    assert main(["validate-config", scenario, "--set", above]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert main(["validate-config", scenario, "--set", at]) == 0


@pytest.mark.parametrize("scenario", ["verify-isometry", "burkholder"])
@pytest.mark.parametrize("above", [2**64, 2**64 + 7, 2**80])
def test_seeds_at_or_above_two_to_the_64_exit_two(capsys, scenario, above):
    """The noise streams are keyed by a 64-bit seed, so a seed at or above
    2**64 would draw the noise of a smaller one: it exits 2 at resolve time,
    naming the range, and 2**64 - 1 resolves."""
    for args in (["--seed", str(above)], ["--set", f"seed={above}"]):
        assert main(["validate-config", scenario, *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed must lie in 0..2**64 - 1") and err.count("\n") == 1, err
    assert main(["validate-config", scenario, "--seed", str(2**64 - 1)]) == 0


@pytest.mark.parametrize(
    "override, field",
    [
        ("preset=gauss-default", "preset 'gauss-default' has no jumps"),
        ("params.continuous_preset=jump-default", "params.continuous_preset 'jump-default' has jumps"),
        ("params.continuous_preset=mixed-default", "params.continuous_preset 'mixed-default' has jumps"),
    ],
)
def test_burkholder_presets_of_the_wrong_kind_exit_two(capsys, override, field):
    """burkholder walks its preset as the jump ensemble and its
    continuous_preset as the continuous one. A jump-free preset or a
    continuous preset with jumps would fail its gates in a run, so
    validate-config refuses it, naming the field."""
    assert main(["validate-config", "burkholder", "--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}") and err.count("\n") == 1, err
    assert main(["validate-config", "burkholder", "--set", "preset=jump-default"]) == 0


def test_non_object_config_files_exit_two(tmp_path, capsys):
    for text in ("5", "null"):
        path = tmp_path / f"{text}.json"
        path.write_text(text)
        out = ["--out", str(tmp_path / "out")]
        for argv in (["validate-config", str(path)], ["run", str(path)] + out):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "JSON object" in err, err
    assert not (tmp_path / "out").exists()


class _ReadRecorder(dict):
    """A params dict that records every key read through [] or get."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_scenario_table_holds_no_dead_default(scenario):
    """Every param a scenario declares is read by its runner, and its field
    overrides name only global config fields."""
    entry = cmvm.harness._SCENARIOS[scenario]
    assert set(entry.fields) <= set(cmvm.harness._GLOBAL_DEFAULTS)
    cfg = apply_overrides(load_config(scenario), ["n_paths=2"])
    params = _ReadRecorder(cfg.params)
    with np.errstate(all="ignore"):
        entry.run(dataclasses.replace(cfg, params=params))
    assert params.read == set(entry.params)


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


@pytest.mark.parametrize("scenario, level", [("qv-converge", 3), ("ito-converge", 4)])
def test_single_level_fails_convergence_gate(tmp_path, scenario, level):
    """One level leaves no ratio to compare, so the decreasing gate must fail
    with a null value instead of passing on 0.0."""
    argv = ["run", scenario, "--set", f"params.levels=[{level}]", "--set", "n_paths=20"]
    assert main(argv + ["--out", str(tmp_path)]) == 1
    blob = json.loads((tmp_path / f"{scenario}.json").read_text())
    decreasing = next(c for c in blob["checks"] if c["name"].endswith("-strictly-decreasing"))
    assert decreasing["value"] is None and decreasing["passed"] is False


def test_ito_converge_draws_each_path_once_and_halves_it(tmp_path, monkeypatch):
    """ito-converge samples each path index once, on the grid of its finest
    level, and prices every coarser level on halvings of that draw, with
    the columns in config order. Its JSON reports, for each pair of
    adjacent levels, the median over paths of their residual ratio."""
    drawn, blocks = [], []
    draw, per_path = cmvm.integrate.sample_path, cmvm.harness._per_path

    def recorded_draw(spec, grid, seed, path_index=0):
        drawn.append((grid.n_steps, tuple(path_index)))
        return draw(spec, grid, seed, path_index)

    def recorded_rows(*args, **kwargs):
        blocks.append(per_path(*args, **kwargs))
        return blocks[-1]

    # _per_path draws every chunk through its module's name for the sampler
    monkeypatch.setattr(cmvm.integrate, "sample_path", recorded_draw)
    monkeypatch.setattr(cmvm.harness, "_per_path", recorded_rows)
    cfg = apply_overrides(load_config("ito-converge"), ["n_paths=5", "params.levels=[5,3,4]"])
    res = run(cfg, str(tmp_path))
    assert drawn == [(32, tuple(range(5)))]
    [rows] = blocks

    p = cfg.params
    proc = ItoProcessSpec(constant_integrand(p["phi"]), drift_rate=p["drift"])
    f = make_smooth(p["function"])
    spec, grid = make_preset(cfg.preset), TimeGrid(cfg.horizon, 32)
    fine = sample_path(spec, grid, cfg.seed, range(5))
    for column, samples in zip((0, 2, 1), (fine, coarsen(fine), coarsen(coarsen(fine)))):
        residual = ito_residual(simulate_ito_process(proc, samples), f, trace_variant=p["variant"])
        assert rows[:, column].tobytes() == np.abs(residual[:, 0]).tobytes()
    want = [float(np.median(b / a)) for a, b in zip(rows.T, rows.T[1:])]
    assert res.metrics["median_path_ratios"] == want


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extreme_adaptive_levels_run_to_a_verdict(tmp_path, capsys):
    """The ends of the adaptive level range resolve, and a resolution as
    coarse as 2^1020, whose time trigger would pass the largest float in
    steps, runs to a verdict."""
    adaptive = ["--set", "params.kind=adaptive"]
    for levels in ("[-1023]", "[1074]"):
        levels = ["--set", f"params.levels={levels}"]
        assert main(["validate-config", "qv-converge", *adaptive, *levels]) == 0
    argv = ["run", "qv-converge", *adaptive, "--set", "params.levels=[-1020, 1074, 2]"]
    assert main(argv + ["--set", "n_paths=8", "--set", "n_steps=16", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().out.rstrip().endswith("FAIL")
    rows = (tmp_path / "qv-converge.csv").read_text().splitlines()[1:]
    levels_and_meshes = [row.split(",")[1:3] for row in rows]
    assert levels_and_meshes == [["-1020.0", "1.0"], ["1074.0", "0.0625"], ["2.0", "0.1015625"]]


@pytest.mark.parametrize(
    "override, name, nulls",
    [
        ("params.p_closed=[1000]", "sup-moment-p1000", ["value", "target"]),
        ("params.p_empirical=[1000]", "empirical-ratio-p1000", ["value", "target"]),  # no target
        ("params.p_closed=[300]", "sup-moment-p300", ["target"]),
    ],
)
def test_burkholder_orders_past_the_largest_float_fail(tmp_path, override, name, nulls):
    """A moment order whose moments or closed-form constant pass the largest
    float fails its check, with the values that overflowed written as null,
    and leaves the other checks passing."""
    argv = ["run", "burkholder", "--set", override, "--set", "n_paths=50", "--out", str(tmp_path)]
    assert main(argv) == 1
    blob = json.loads((tmp_path / "burkholder.json").read_text())
    assert [c["name"] for c in blob["checks"] if not c["passed"]] == [name]
    check = next(c for c in blob["checks"] if c["name"] == name)
    assert [key for key in ("value", "target") if check[key] is None] == nulls
    assert any(None in (r["lhs"], r["rhs_core"], r["constant"]) for r in blob["metrics"]["reports"])


def test_single_delta_fails_modulus_gate(tmp_path):
    """One delta leaves no pair of moduli to compare, so modulus-decays must
    fail with a null value instead of passing on an empty comparison."""
    argv = ["run", "verify-taylor", "--set", "params.deltas=[0.5]", "--set", "n_paths=5"]
    assert main(argv + ["--out", str(tmp_path)]) == 1
    blob = json.loads((tmp_path / "verify-taylor.json").read_text())
    gate = next(c for c in blob["checks"] if c["name"] == "modulus-decays")
    assert gate["value"] is None and gate["passed"] is False
    assert blob["metrics"]["decays"] is False


@pytest.mark.parametrize(
    "overrides",
    [["preset=jump-default", "params.flavor=continuous"], ["params.phi=[[0,0],[0,0]]"]],
)
def test_zero_isometry_target_fails_relative_gate(tmp_path, overrides):
    """A flavor no cell carries, or a zero phi, gives a control-measure norm
    of 0: the relative-error gate must fail with a null value instead of
    dividing by zero, and the run still writes its files."""
    argv = ["run", "verify-isometry", "--set", "n_paths=20", "--out", str(tmp_path)]
    for override in overrides:
        argv += ["--set", override]
    assert main(argv) == 1
    blob = json.loads((tmp_path / "verify-isometry.json").read_text())
    assert blob["metrics"]["control_measure_norm"] == 0.0
    gate = next(c for c in blob["checks"] if c["name"] == "second-moment-rel-err")
    assert gate["value"] is None and gate["passed"] is False
    assert (tmp_path / "verify-isometry.csv").exists()


def test_associativity_runs_on_a_one_dim_model(tmp_path):
    """verify-associativity draws its inner operators with the model's
    dimension as their input columns, so a one-cell 1-D model file runs
    and passes."""
    model = _model_file(tmp_path, "ONE_DIM_MODEL")
    args = ["verify-associativity", "--set", f"preset={model}", "--set", "n_paths=10"]
    assert main(["validate-config"] + args) == 0
    assert main(["run"] + args + ["--out", str(tmp_path / "out")]) == 0
    payload = json.loads((tmp_path / "out" / "verify-associativity.json").read_text())
    assert [c["passed"] for c in payload["checks"]] == [True]


def test_worst_case_gates_fail_on_non_finite_paths(tmp_path):
    """At gain 1e200 every adapted path overflows to NaN. A worst-case gate
    reduces its per-path column with np.max, so it fails with a null value
    instead of passing on the finite paths; polarization walks constant
    integrands only and still passes."""
    expected = {
        "verify-qv": {
            "mass-total": False,
            "mass-continuous": False,
            "mass-discontinuous": False,
            "optional-additivity": False,
            "polarization": True,
        },
        "verify-decomposition": {"parts-sum-to-path": False, "flavor-mass-additivity": False},
        "verify-ito": {"realized-residual-max-rel": False},
    }
    for scenario, verdicts in expected.items():
        cfg = apply_overrides(load_config(scenario), ["params.gain=1e200", "n_paths=4"])
        with np.errstate(all="ignore"):
            res = run(cfg, str(tmp_path / scenario))
        stored = json.loads((tmp_path / scenario / f"{scenario}.json").read_text())
        checks = {c["name"]: c for c in stored["checks"]}
        for name, passed in verdicts.items():
            assert checks[name]["passed"] is passed, (scenario, checks[name])
            if not passed:
                assert checks[name]["value"] is None, (scenario, checks[name])
        assert res.passed is False


def test_taylor_worst_case_gates_fail_on_nan(tmp_path, monkeypatch):
    """verify-taylor reduces its sampled points with np.max too: a remainder
    or a derivative error that is NaN fails its gate with a null value, and
    a NaN modulus cannot decay."""
    nan_remainder = lambda f, t, x, y: np.full(f.dim_value, np.nan)
    monkeypatch.setattr(cmvm.harness, "taylor_remainder", nan_remainder)
    monkeypatch.setattr(cmvm.ito, "taylor_remainder", nan_remainder)
    monkeypatch.setattr(
        cmvm.harness, "finite_difference_check", lambda f, t, x: {"d_t": math.nan, "d_x": 0.0, "d_xx": 0.0}
    )
    cfg = apply_overrides(load_config("verify-taylor"), ["n_paths=4", 'params.functions=["quadratic"]'])
    res = run(cfg, str(tmp_path))
    checks = {c["name"]: c for c in json.loads((tmp_path / "verify-taylor.json").read_text())["checks"]}
    for name in ("remainder-routes-quadratic", "derivatives-quadratic"):
        assert checks[name]["passed"] is False and checks[name]["value"] is None, checks[name]
    assert checks["modulus-decays"]["passed"] is False
    assert res.passed is False
