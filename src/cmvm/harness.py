"""Named verification scenarios with reproducible file output.

A scenario is a self-contained experiment: build a noise model, walk an
ensemble, measure something the theory pins down, and decide pass/fail.
``run`` executes one scenario from an ``ExperimentConfig`` and writes three
files into the output directory:

* ``<scenario>.csv``: the headline numbers, one row per check or level;
* ``<scenario>.json``: the full metric payload plus the resolved config;
* ``run-record.json``: config, config hash, per-check verdicts, wall time.

Reruns with the same config produce byte-identical CSV and JSON files:
floats are rendered with repr, keys are sorted, and nothing time- or
host-dependent goes into them. The run record is identical up to its
``wall_time_s`` field. The two convergence scenarios share one CSV schema,
``CONVERGENCE_HEADER``.

The ``preset`` config field accepts either a built-in preset name or a path
to a noise-model JSON file (the format ``docs/noise-spec.md`` describes).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from . import __version__
from .burkholder import (
    bracket_terminal,
    check as burkholder_check,
    terminal_isometry_gap,
    walk_ensemble,
)
from .integrate import (
    ItoProcessSpec,
    SimpleBlock,
    SimpleIntegrand,
    _mean_se,
    _per_path,
    _quartiles,
    _z_score,
    compose_integrands,
    constant_integrand,
    decompose_integral,
    deterministic_integrand,
    integrate,
    integrate_process,
    lambda2_norm,
    realized_lambda2_mass,
    simulate_ito_process,
    state_linear_integrand,
)
from .ito import (
    _TRACE_VARIANTS,
    FD_TOL,
    finite_difference_check,
    gamma_estimate,
    ito_residual,
    make_smooth,
    taylor_remainder,
    taylor_remainder_quadrature,
)
# sample_path is imported but not called here (paths come from integrate._per_path):
# bench/test_bench.py checks that the tracer rebinds this module's name too
from .noise import MAX_STEPS, QV_FLAVORS, TimeGrid, coarsen, load_noise_spec, normalize_spec, sample_path  # noqa: F401
from .presets import make_preset, preset_names
from .quadvar import (
    _REFINEMENTS, make_adaptive_partition, make_dyadic_partition, optional_qv, predictable_qv,
    qv_refinement_study,
)

__all__ = [
    "ExperimentConfig",
    "load_config",
    "apply_overrides",
    "config_hash",
    "scenario_names",
    "scenario_description",
    "RunResult",
    "run",
    "CONVERGENCE_HEADER",
]

_PHI_DEFAULT = [[0.9, 0.2], [-0.3, 1.1]]

_GLOBAL_DEFAULTS = {
    "preset": "mixed-default",
    "horizon": 1.0,
    "n_steps": 32,
    "n_paths": 2000,
    "seed": 0,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved settings of one scenario run."""

    scenario: str
    preset: str
    horizon: float
    n_steps: int
    n_paths: int
    seed: int
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dict(vars(self), params=dict(self.params))


def _build_config(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ValueError(f"a config must be a JSON object, got {data!r}")
    if "scenario" not in data:
        raise ValueError("config needs a 'scenario' key")
    scenario = data["scenario"]
    if not isinstance(scenario, str) or scenario not in _SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {scenario_names()}")
    entry = _SCENARIOS[scenario]
    fields = dict(_GLOBAL_DEFAULTS, **entry.fields)
    params = dict(entry.params)
    for key, value in data.items():
        if key == "scenario":
            continue
        elif key == "params":
            if not isinstance(value, dict):
                raise ValueError("'params' must be an object")
            for pkey in value:
                if pkey not in params:
                    raise ValueError(
                        f"unknown parameter {pkey!r} for {scenario}; expected one of {sorted(params)}"
                    )
            params.update(value)
        elif key in fields:
            fields[key] = value
        else:
            raise ValueError(
                f"unknown config key {key!r}; expected scenario, params or one of {sorted(fields)}"
            )
    horizon = fields["horizon"]
    number = isinstance(horizon, (int, float)) and not isinstance(horizon, bool)
    if not (number and 0 < horizon < math.inf):
        raise ValueError(f"horizon must be a positive finite number, got {horizon!r}")
    n_steps, n_paths, seed = (_integer(key, fields[key]) for key in ("n_steps", "n_paths", "seed"))
    if n_steps <= 0 or n_paths <= 0:
        raise ValueError("n_steps and n_paths must be positive")
    if n_steps > MAX_STEPS:
        raise ValueError(f"n_steps must be at most {MAX_STEPS}, got {n_steps}")
    # the noise streams are keyed by a 64-bit seed; the scenarios also seed
    # numpy generators with seed + small offsets
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in 0..2**64 - 1, got {seed}")
    for key, default in entry.params.items():
        _check_param_type(key, params[key], default)
    _check_param_values(params, n_steps)
    models = [fields["preset"]]
    if "continuous_preset" in params:
        models.append(params["continuous_preset"])
    specs = {name: _spec_for(name) for name in models}
    dims = {name: spec.dim for name, spec in specs.items()}
    if "continuous_preset" in params:  # burkholder: preset walks the jump ensemble
        name = fields["preset"]
        if not any(cell.has_jumps for cell in specs[name].cells):
            raise ValueError(f"preset {name!r} has no jumps; {scenario} walks it as its jump ensemble")
        name = params["continuous_preset"]
        if any(cell.has_jumps for cell in specs[name].cells):
            raise ValueError(f"params.continuous_preset {name!r} has jumps; it must be continuous")
    if "phi" in params:  # every phi-driven integrand maps model noise to len(phi) outputs
        rows = len(_param_array(params, "phi", 2))
        for key in [k for k in ("phi", "phi_b") if k in params]:
            cols = _param_array(params, key, 2).shape[1]
            for name, dim in dims.items():
                if cols != dim:
                    raise ValueError(f"params.{key} has {cols} columns; model {name!r} has dim {dim}")
        for key, ndim in (("phi_b", 2), ("weight", 1), ("drift", 1)):
            if key in params and len(_param_array(params, key, ndim)) != rows:
                raise ValueError(f"params.{key} needs one entry per row of params.phi ({rows})")
    if "levels" in params:
        levels = params["levels"]
        if not isinstance(levels, list) or not levels:
            raise ValueError(f"params.levels must be a non-empty list, got {levels!r}")
        levels = [_integer("params.levels entry", v) for v in levels]
        top = MAX_STEPS.bit_length() - 1
        if scenario == "ito-converge" and not all(0 <= v <= top for v in levels):
            raise ValueError(f"levels are log2 step counts and must lie in 0..{top}, got {levels}")
        finest = n_steps.bit_length() - 1  # 2^level blocks must not out-refine the grid
        if params.get("kind") == "dyadic" and not all(0 <= v <= finest for v in levels):
            raise ValueError(f"dyadic levels {levels} must lie in 0..{finest} for {n_steps} steps")
        if params.get("kind") == "adaptive" and not all(-1023 <= v <= 1074 for v in levels):
            raise ValueError(f"adaptive levels {levels} must lie in -1023..1074 (2^-level finite, > 0)")
    fields.update(horizon=float(horizon), n_steps=n_steps, n_paths=n_paths, seed=seed)
    return ExperimentConfig(scenario=scenario, params=params, **fields)


def _check_param_type(key: str, value, default) -> None:
    """A param takes the type of its default: an integer, a finite number, a
    string, a list of strings, or a finite numeric list nested as deep."""
    if isinstance(default, int):
        _integer(f"params.{key}", value)
        return
    if isinstance(default, float):
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    elif isinstance(default, str):
        ok = isinstance(value, str)
    elif isinstance(default[0], str):
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
    else:
        ok = isinstance(value, list)
        if ok and not np.isfinite(_param_array({key: value}, key, np.ndim(default))).all():
            raise ValueError(f"params.{key} must be finite, got {value!r}")
    if not ok:
        raise ValueError(f"params.{key} must have the type of its default {default!r}; got {value!r}")


def _check_param_values(params: dict, n_steps: int) -> None:
    """Names go through the lookup of the module that owns them; moment
    orders, block counts and the conditioning step must be in range, and
    the deltas and the functions must not be empty."""
    for key, names in (("flavor", QV_FLAVORS), ("kind", _REFINEMENTS), ("variant", _TRACE_VARIANTS)):
        if key in params and params[key] not in names:
            raise ValueError(f"params.{key} must be one of {sorted(names)}, got {params[key]!r}")
    functions = params.get("functions", []) + ([params["function"]] if "function" in params else [])
    for name in functions:
        try:
            make_smooth(name)
        except ValueError as err:
            raise ValueError(f"smooth function {name!r} in params: {err}") from None
    for key in ("p_closed", "p_empirical"):
        if not all(order > 0 for order in params.get(key, [])):
            raise ValueError(f"params.{key} must hold positive moment orders, got {params[key]!r}")
    if params.get("max_blocks", 1) < 1:
        raise ValueError(f"params.max_blocks must be at least 1, got {params['max_blocks']!r}")
    if not 0 <= params.get("s_step", 0) < n_steps:
        raise ValueError(f"params.s_step must lie in 0..{n_steps - 1}, got {params['s_step']!r}")
    for key in ("deltas", "functions"):  # an empty list leaves its gates nothing to test
        if params.get(key) == []:
            raise ValueError(f"params.{key} must not be empty")


def _param_array(params: dict, key: str, ndim: int) -> np.ndarray:
    """params[key] as a float array with ndim axes, or a ValueError naming it."""
    try:
        arr = np.array(params[key], dtype=np.float64)
        if arr.ndim == ndim:
            return arr
    except (TypeError, ValueError):
        pass
    raise ValueError(f"params.{key} must be a {ndim}-D numeric array, got {params[key]!r}")


def _integer(key: str, value) -> int:
    """value as an int; integral floats pass, bools and fractions do not."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def load_config(path_or_scenario: str) -> ExperimentConfig:
    """Build a config from a JSON file, or from defaults if given a bare
    scenario name."""
    if path_or_scenario in _SCENARIOS:
        return _build_config({"scenario": path_or_scenario})
    if not os.path.exists(path_or_scenario):
        raise ValueError(
            f"{path_or_scenario!r} is neither a config file nor a scenario name; "
            f"scenarios: {scenario_names()}"
        )
    with open(path_or_scenario, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return _build_config(data)


def apply_overrides(cfg: ExperimentConfig, overrides: Sequence[str]) -> ExperimentConfig:
    """Apply KEY=VALUE strings; 'params.NAME=...' reaches into the params.

    Values are parsed as JSON, falling back to a bare string, so
    ``n_paths=5000``, ``preset=gauss-default`` and ``params.levels=[3,4]``
    all do the expected thing.
    """
    data = cfg.to_dict()
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not KEY=VALUE")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        if key.startswith("params."):  # _build_config rejects an unknown name
            data["params"][key[len("params.") :]] = value
        elif key == "scenario" or key in _GLOBAL_DEFAULTS:
            data[key] = value
        else:
            raise ValueError(f"unknown override key {key!r}")
    return _build_config(data)


def config_hash(cfg: ExperimentConfig) -> str:
    canon = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _spec_for(name: str):
    """Resolve a preset name or a noise-model JSON file path."""
    if not isinstance(name, str):
        raise ValueError(f"a preset must be a name or a file path, got {name!r}")
    if name in preset_names():
        return make_preset(name)
    if os.path.exists(name):
        return normalize_spec(load_noise_spec(name))
    raise ValueError(
        f"{name!r} is neither a preset ({preset_names()}) nor a noise-model file"
    )


# --------------------------------------------------------------- output


CONVERGENCE_HEADER = (
    "experiment",
    "level",
    "mesh",
    "metric",
    "value",
    "q25",
    "q75",
    "n_paths",
    "seed",
)


# json's text of a value of one of these exact types; _json_text looks the
# type up first, because nearly every value is one of them
_JSON_SCALARS = {
    str: _json_str,
    float: lambda v: repr(v) if math.isfinite(v) else "null",
    int: str,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}


def _json_text(value, pad: str = "") -> str:
    """value as ``json.dumps(value, sort_keys=True, indent=2)`` writes it at
    indentation pad, numpy scalars and arrays as the Python values they hold
    and every non-finite float as null, so that the JSON stays strict.

    json indents only in its pure-Python encoder, which takes about twice as
    long for the same bytes."""
    scalar = _JSON_SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    if isinstance(value, dict):
        return _json_object({k: _json_text(v, pad + "  ") for k, v in value.items()}, pad)
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = "\n" + pad + "  "
        items = ("," + inner).join([_json_text(v, pad + "  ") for v in value])
        return "[" + inner + items + "\n" + pad + "]"
    if isinstance(value, str):
        return _json_str(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _JSON_SCALARS[float](float(value))
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def _json_object(members: dict, pad: str = "") -> str:
    """The JSON object of members already encoded at indentation pad + 2
    spaces, keys sorted; a key that is not a string is written as json
    writes it (an int 4 as "4")."""
    if not members:
        return "{}"
    inner = "\n" + pad + "  "
    key = lambda k: _json_str(k if isinstance(k, str) else _json_text(k))
    items = ("," + inner).join([f"{key(k)}: {members[k]}" for k in sorted(members)])
    return "{" + inner + items + "\n" + pad + "}"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value)) if math.isfinite(value) else ""
    return str(value)


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(shared: dict, files: dict) -> None:
    """Write each file of files (path -> its own members) as one JSON object
    that also holds the members of shared, each encoded once for all files."""
    encoded = {key: _json_text(value, "  ") for key, value in shared.items()}
    for path, own in files.items():
        members = dict(encoded, **{key: _json_text(value, "  ") for key, value in own.items()})
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_json_object(members) + "\n")


_CHECK_HEADER = ("check", "value", "target", "tolerance", "z", "passed")


def _check(name: str, value, target, tolerance, passed, z=None) -> dict:
    # numpy scalars sneak in from array reductions; plain floats keep the
    # checks printable and JSON-ready without repr noise
    as_float = lambda v: None if v is None else float(v)
    return {
        "name": name,
        "value": as_float(value),
        "target": as_float(target),
        "tolerance": as_float(tolerance),
        "z": as_float(z),
        "passed": bool(passed),
    }


@dataclass(frozen=True)
class _Outcome:
    """What a scenario measured; ``run`` derives the verdict from the checks
    and, when ``rows`` is None, writes one CSV row per check."""

    checks: list
    metrics: dict
    header: tuple = _CHECK_HEADER
    rows: Optional[list] = None


# ------------------------------------------------------------- scenarios


def _scn_verify_isometry(cfg: ExperimentConfig) -> _Outcome:
    spec = _spec_for(cfg.preset)
    grid = TimeGrid(cfg.horizon, cfg.n_steps)
    integrand = constant_integrand(_param_array(cfg.params, "phi", 2))
    target = lambda2_norm(integrand, spec, grid, cfg.params["flavor"])

    def measure(samples):
        end = integrate(integrand, samples).values[:, -1]
        return np.vecdot(end, end)[:, None]

    rows = _per_path(spec, grid, cfg.seed, cfg.n_paths, measure)
    mean, se = _mean_se(rows[:, 0])
    z = _z_score(mean - target, se)
    # a flavor no cell carries (or a zero phi) leaves no target to be relative
    # to: the gate fails with a null value
    rel = abs(mean - target) / target if target > 0.0 else math.nan
    checks = [
        _check("second-moment-z", z, 0.0, cfg.params["z_max"], abs(z) <= cfg.params["z_max"], z=z),
        _check("second-moment-rel-err", rel, 0.0, cfg.params["rel_tol"], rel <= cfg.params["rel_tol"]),
    ]
    metrics = {
        "terminal_second_moment": mean,
        "stderr": se,
        "stderr_reliable": cfg.n_paths >= 2,
        "control_measure_norm": target,
        "z": z,
        "rel_err": rel,
    }
    return _Outcome(checks, metrics)


def _scn_verify_conditional(cfg: ExperimentConfig) -> _Outcome:
    """Per event E decided at s: E[ |I_t - I_s|^2 - (<I>_t - <I>_s) ; E ] = 0.

    Each path gives the squared increment, the realized predictable bracket
    increment and one indicator per event. Adaptedness makes the paired
    difference centered however the integrand feeds back on the path, so
    its z is the gate; z is NaN (and the gate fails) without a positive
    standard error, and an event that no path hits fails too.
    """
    spec = _spec_for(cfg.preset)
    grid = TimeGrid(cfg.horizon, cfg.n_steps)
    p = cfg.params
    integrand = state_linear_integrand(_param_array(p, "phi", 2), p["weight"], p["gain"])
    ks, kt = int(p["s_step"]), cfg.n_steps
    events = ("always", "first-up", "first-down")  # by the first coordinate's first step

    def measure(samples):
        paths = integrate(integrand, samples)
        values = paths.values
        inc, (start, first) = values[:, kt] - values[:, ks], (values[:, 0, 0], values[:, 1, 0])
        bracket = predictable_qv(paths)
        hits = (np.ones(len(paths)), first > start, first <= start)
        return np.stack([np.vecdot(inc, inc), bracket[:, kt] - bracket[:, ks], *hits], axis=1)

    rows = _per_path(spec, grid, cfg.seed, cfg.n_paths, measure)
    sq, bracket = rows[:, 0], rows[:, 1]
    checks, metrics = [], {}
    for name, ind in zip(events, rows[:, 2:].T):
        hit = ind == 1.0
        mean, se = _mean_se(ind * (sq - bracket))
        z = _z_score(mean, se)
        rate = int(np.count_nonzero(hit)) / cfg.n_paths
        # running sums over the hit paths, in path order
        lhs, rhs = (
            float(np.cumsum(np.where(hit, col, 0.0))[-1]) / cfg.n_paths for col in (sq, bracket)
        )
        checks.append(
            _check(f"event-{name}-z", z, 0.0, p["z_max"], abs(z) <= p["z_max"] and rate > 0, z=z)
        )
        metrics[name] = {
            "lhs": lhs,
            "rhs": rhs,
            "mean_diff": mean,
            "stderr": se,
            "z": z,
            "event_rate": rate,
        }
    metrics["stderr_reliable"] = cfg.n_paths >= 2
    return _Outcome(checks, metrics)


def _scn_verify_qv(cfg: ExperimentConfig) -> _Outcome:
    spec = _spec_for(cfg.preset)
    grid = TimeGrid(cfg.horizon, cfg.n_steps)
    p = cfg.params
    tol = float(p["tol"])
    mat_a = _param_array(p, "phi", 2)
    mat_b = _param_array(p, "phi_b", 2)
    adapted = state_linear_integrand(mat_a, p["weight"], p["gain"])
    ia, ib, iab = (constant_integrand(m) for m in (mat_a, mat_b, mat_a + mat_b))
    names = [f"mass-{flavor}" for flavor in QV_FLAVORS] + ["optional-additivity", "polarization"]

    def measure(samples):
        paths, pa, pb, pab = (integrate(i, samples) for i in (adapted, ia, ib, iab))
        errors = []
        for flavor in QV_FLAVORS:
            pred = predictable_qv(paths, flavor)[:, -1]
            real = realized_lambda2_mass(paths, flavor)
            errors.append(np.abs(pred - real) / np.maximum(1.0, np.abs(pred)))
        opt = optional_qv(paths)[:, -1]
        cont, jumps = (bracket_terminal(paths, flavor) for flavor in ("continuous", "jumps"))
        errors.append(np.abs(opt - (cont + jumps)) / np.maximum(1.0, opt))
        lhs = optional_qv(pab)[:, -1]
        rhs = optional_qv(pa)[:, -1] + 2.0 * optional_qv(pa, pb)[:, -1] + optional_qv(pb)[:, -1]
        errors.append(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs)))
        return np.stack(errors, axis=1)

    rows = _per_path(spec, grid, cfg.seed, cfg.n_paths, measure)
    worst = {name: float(np.max(col)) for name, col in zip(names, rows.T)}
    checks = [
        _check(name, val, 0.0, tol, val <= tol) for name, val in sorted(worst.items())
    ]
    return _Outcome(checks, {"max_rel_err": worst, "tol": tol})


def _convergence(
    cfg: ExperimentConfig, metric: str, levels, meshes, columns, final_tol: float,
    relative_to_first: bool, metrics: dict,
) -> _Outcome:
    """Shared shape of the two convergence scenarios: one CONVERGENCE_HEADER
    row per level from the quartiles of its per-path column, and two gates
    on the medians. A ratio over a zero median is NaN, and a single level
    has no ratio; either way the decreasing gate fails with a null value."""
    rows, medians = [], []
    for level, mesh, column in zip(levels, meshes, columns):
        q25, median, q75 = _quartiles(column)
        medians.append(median)
        rows.append([cfg.scenario, level, mesh, metric, median, q25, q75, cfg.n_paths, cfg.seed])

    def ratio(b, a):
        return b / a if a > 0.0 else math.nan

    ratios = [ratio(b, a) for a, b in zip(medians, medians[1:])]
    worst_ratio = max(ratios) if ratios and not any(map(math.isnan, ratios)) else math.nan
    final = ratio(medians[-1], medians[0]) if relative_to_first else medians[-1]
    prefix = metric.replace("_", "-")
    checks = [
        _check(f"{prefix}-strictly-decreasing", worst_ratio, 0.0, 1.0, worst_ratio < 1.0),
        _check(f"{prefix}-finest", final, 0.0, final_tol, final <= final_tol),
    ]
    return _Outcome(checks, dict(metrics, medians=medians), CONVERGENCE_HEADER, rows)


def _scn_qv_converge(cfg: ExperimentConfig) -> _Outcome:
    spec = _spec_for(cfg.preset)
    grid = TimeGrid(cfg.horizon, cfg.n_steps)
    p = cfg.params
    integrand = state_linear_integrand(_param_array(p, "phi", 2), p["weight"], p["gain"])
    levels = [int(v) for v in p["levels"]]
    deltas = np.ldexp(1.0, [-level for level in levels])  # adaptive resolutions 2^-level
    if p["kind"] == "dyadic":  # one mask per level, shared by every path and chunk
        shared = np.stack([make_dyadic_partition(cfg.n_steps, level) for level in levels])

    def measure(samples):
        chunk = integrate(integrand, samples)
        masks = shared if p["kind"] == "dyadic" else make_adaptive_partition(chunk, deltas)
        return qv_refinement_study(chunk, masks).reshape(len(samples), -1)  # errors, then meshes

    study = _per_path(spec, grid, cfg.seed, cfg.n_paths, measure)
    errors, meshes = study[:, : len(levels)], study[:, len(levels) :]
    return _convergence(
        cfg,
        "median_rel_err",
        [float(level) for level in levels],  # the CSV has 3.0 here, where ito-converge has 4
        [float(np.mean(column)) for column in meshes.T],
        errors.T,
        p["finest_tol"],
        relative_to_first=False,
        metrics={"finest_tol": p["finest_tol"]},
    )


def _scn_verify_ito(cfg: ExperimentConfig) -> _Outcome:
    spec = _spec_for(cfg.preset)
    grid = TimeGrid(cfg.horizon, cfg.n_steps)
    p = cfg.params
    mat = _param_array(p, "phi", 2)
    f = make_smooth("quadratic")
    models = {
        "constant": constant_integrand(mat),
        "state-linear": state_linear_integrand(mat, p["weight"], p["gain"]),
        "time-varying": deterministic_integrand(
            lambda k, t, j: mat * (1.0 + 0.5 * t * (1 + j)), mat.shape[0], mat.shape[1]
        ),
    }
    procs = [ItoProcessSpec(integrand) for integrand in models.values()]

    def measure(samples):
        out = []  # per model: realized residual relative to the change, compensator residual
        for proc in procs:
            paths = simulate_ito_process(proc, samples)
            ends = paths.values[:, [0, -1]]
            change = np.abs(f.value(cfg.horizon, ends[:, 1]) - f.value(0.0, ends[:, 0]))[:, 0]
            res = np.abs(ito_residual(paths, f, trace_variant="realized")[:, 0])
            comp = ito_residual(paths, f, trace_variant="compensator")[:, 0]
            out += [res / np.maximum(1.0, change), comp]
        return np.stack(out, axis=1)

    rows = _per_path(spec, grid, cfg.seed, cfg.n_paths, measure)
    worst = float(np.max(rows[:, 0::2]))
    comp = rows[:, 1::2].T.ravel()  # model by model, each in path order
    mean, se = _mean_se(comp)
    z = _z_score(mean, se)
    checks = [
        _check("realized-residual-max-rel", worst, 0.0, p["path_tol"], worst <= p["path_tol"]),
        _check("compensator-residual-z", z, 0.0, p["z_max"], abs(z) <= p["z_max"], z=z),
    ]
    metrics = {
        "realized_max_rel_residual": worst,
        "compensator_mean": mean,
        "compensator_stderr": se,
        "stderr_reliable": len(comp) >= 2,
        "compensator_z": z,
        "models": list(models),
    }
    return _Outcome(checks, metrics)


def _scn_ito_converge(cfg: ExperimentConfig) -> _Outcome:
    spec = _spec_for(cfg.preset)
    p = cfg.params
    f = make_smooth(p["function"])
    integrand = constant_integrand(_param_array(p, "phi", 2))
    drift = np.array(p["drift"], dtype=np.float64)
    proc = ItoProcessSpec(integrand, drift_rate=drift)
    levels = [int(v) for v in p["levels"]]
    finest = max(levels)

    def measure(samples):
        # one draw at the finest level, halved down to each coarser one
        residuals = {}
        for level in range(finest, min(levels) - 1, -1):
            if level < finest:
                samples = coarsen(samples)
            if level in levels:
                paths = simulate_ito_process(proc, samples)
                residuals[level] = np.abs(ito_residual(paths, f, trace_variant=p["variant"])[:, 0])
        return np.stack([residuals[level] for level in levels], axis=1)

    rows = _per_path(spec, TimeGrid(cfg.horizon, 2**finest), cfg.seed, cfg.n_paths, measure)
    # each path's residual ratio between adjacent levels; NaN over a zero residual
    ratios = [
        _quartiles(np.divide(b, a, out=np.full_like(b, math.nan), where=a > 0.0))[1]
        for a, b in zip(rows.T, rows.T[1:])
    ]
    return _convergence(
        cfg,
        "median_abs_residual",
        levels,
        [TimeGrid(cfg.horizon, 2**level).dt for level in levels],
        rows.T,
        p["final_ratio"],
        relative_to_first=True,
        metrics={"levels": levels, "median_path_ratios": ratios},
    )


def _scn_verify_decomposition(cfg: ExperimentConfig) -> _Outcome:
    spec = _spec_for(cfg.preset)
    grid = TimeGrid(cfg.horizon, cfg.n_steps)
    p = cfg.params
    tol = float(p["tol"])
    integrand = state_linear_integrand(_param_array(p, "phi", 2), p["weight"], p["gain"])

    def measure(samples):
        paths = integrate(integrand, samples)
        n_paths, values = len(paths), paths.values
        cont, jump, fv = decompose_integral(paths)
        gap = np.abs(cont + jump + fv - values).reshape(n_paths, -1).max(axis=1)
        size = np.abs(values).reshape(n_paths, -1).max(axis=1)
        total = realized_lambda2_mass(paths, "total")
        split = realized_lambda2_mass(paths, "continuous") + realized_lambda2_mass(
            paths, "discontinuous"
        )
        mass = np.abs(total - split) / np.maximum(1.0, total)
        return np.stack([gap / np.maximum(1.0, size), mass], axis=1)

    rows = _per_path(spec, grid, cfg.seed, cfg.n_paths, measure)
    worst_sum, worst_mass = (float(v) for v in np.max(rows, axis=0))
    tab = spec.tables
    total, parts = tab.flavor("total"), (tab.flavor("continuous"), tab.flavor("discontinuous"))
    worst_mix = 0.0
    for j in range(spec.n_cells):
        if total.rate[j] <= 0:
            continue
        lhs = total.field[j] * total.rate[j]
        rhs = np.zeros_like(lhs)
        for part in parts:
            if part.rate[j] > 0:
                rhs = rhs + part.rate[j] * part.field[j]
        worst_mix = max(worst_mix, float(np.linalg.norm(lhs - rhs)))
    checks = [
        _check("parts-sum-to-path", worst_sum, 0.0, tol, worst_sum <= tol),
        _check("flavor-mass-additivity", worst_mass, 0.0, tol, worst_mass <= tol),
        _check("covariance-mixture", worst_mix, 0.0, tol, worst_mix <= tol),
    ]
    metrics = {
        "parts_sum_max_rel": worst_sum,
        "mass_additivity_max_rel": worst_mass,
        "covariance_mixture_max_frob": worst_mix,
        "tol": tol,
    }
    return _Outcome(checks, metrics)


def _random_simple_pair(
    rng: np.random.Generator, n_steps: int, n_cells: int, dim: int, max_blocks: int
):
    """A random gated simple integrand with 2 x dim blocks, and a random step-function outer map."""

    def random_blocks():
        blocks = []
        for _ in range(int(rng.integers(1, max_blocks + 1))):
            start = int(rng.integers(0, n_steps))
            stop = int(rng.integers(start + 1, n_steps + 1))
            n_pick = int(rng.integers(1, n_cells + 1))
            cells = tuple(sorted(rng.choice(n_cells, size=n_pick, replace=False).tolist()))
            matrix = rng.uniform(-1.0, 1.0, size=(2, dim))
            predicate = None
            if start > 0 and rng.random() < 0.5:
                comp = int(rng.integers(0, dim))

                def predicate(samples, start_step, _c=comp):
                    return samples.gauss[:, :start_step].sum(axis=(1, 2))[:, _c] > 0.0

            blocks.append(SimpleBlock(start, stop, cells, matrix, predicate))
        return blocks

    inner = SimpleIntegrand(random_blocks(), 2, dim)
    outer_mats = rng.uniform(-1.0, 1.0, size=(n_steps, 2, 2))

    def outer(step, time_, value, _mats=outer_mats):
        return _mats[step]

    return inner, outer


def _scn_verify_associativity(cfg: ExperimentConfig) -> _Outcome:
    spec = _spec_for(cfg.preset)
    grid = TimeGrid(cfg.horizon, cfg.n_steps)
    p = cfg.params
    tol = float(p["tol"])
    rng = np.random.default_rng(cfg.seed + 17)

    def row(sample):  # paths are measured in order, so rng draws as a loop would
        inner, outer = _random_simple_pair(
            rng, cfg.n_steps, spec.n_cells, spec.dim, int(p["max_blocks"])
        )
        integrand = inner.as_general()
        if sample.path_index[0] % 2:  # odd paths swap in an inner integrand that reads its own value
            base = rng.uniform(-1.0, 1.0, size=(2, spec.dim))
            weight = rng.uniform(-1.0, 1.0, size=2)
            integrand = state_linear_integrand(base, weight, float(rng.uniform(0.0, 0.5)))
        iterated = integrate_process(outer, integrate(integrand, sample), dim_out=2)[0]
        fused = integrate(compose_integrands(outer, integrand, dim_out=2), sample).values[0, -1]
        scale = max(1.0, float(np.abs(iterated).max()))
        return (float(np.abs(iterated - fused).max()) / scale,)

    # each path draws its own integrand pair, so the measure walks its paths
    # one at a time, each as a chunk of one
    def measure(samples):
        return [row(samples[p]) for p in range(len(samples))]

    rows = _per_path(spec, grid, cfg.seed, cfg.n_paths, measure)
    worst = float(np.max(rows))
    checks = [_check("iterated-vs-fused-max-rel", worst, 0.0, tol, worst <= tol)]
    return _Outcome(checks, {"max_rel_diff": worst, "tol": tol, "n_pairs": cfg.n_paths})


def _scn_verify_taylor(cfg: ExperimentConfig) -> _Outcome:
    p = cfg.params
    tol = float(p["tol"])
    rng = np.random.default_rng(cfg.seed + 23)
    # columns t, x (2) and y - x (2), each low + (high - low) * U as rng.uniform draws it
    low, high = np.array([0.0, -1.5, -1.5, -1.0, -1.0]), np.array([cfg.horizon, 1.5, 1.5, 1.0, 1.0])
    worst, derivative_errors = {}, {}
    for name in p["functions"]:
        f = make_smooth(name)
        u = low + (high - low) * rng.random((cfg.n_paths, 5))
        t, x, y = u[:, 0], u[:, 1:3], u[:, 1:3] + u[:, 3:]
        gaps = taylor_remainder(f, t, x, y) - taylor_remainder_quadrature(f, t, x, y)
        worst[name] = float(np.max(np.abs(gaps)))
        derivative_errors[name] = float(np.max(list(finite_difference_check(f, t, x).values())))
    deltas = [float(d) for d in p["deltas"]]
    sups = gamma_estimate(
        make_smooth("norm_p:4"), deltas, dim=2, n_samples=max(cfg.n_paths, 100), seed=cfg.seed
    )
    # one delta leaves no pair to compare: the gate fails with a null value
    decays = len(sups) > 1 and all(a > b for a, b in zip(sups, sups[1:]))
    checks = [
        _check(f"remainder-routes-{name}", gap, 0.0, tol, gap <= tol)
        for name, gap in sorted(worst.items())
    ]
    last = sups[-1] if len(sups) > 1 else math.nan
    checks.append(_check("modulus-decays", last, 0.0, sups[0], decays))
    checks += [
        _check(f"derivatives-{name}", err, 0.0, FD_TOL, err <= FD_TOL)
        for name, err in sorted(derivative_errors.items())
    ]
    metrics = {
        "route_gaps": worst,
        "derivative_errors": derivative_errors,
        "deltas": deltas,
        "modulus": sups,
        "decays": decays,
    }
    return _Outcome(checks, metrics)


_BURKHOLDER_HEADER = (
    "p",
    "preset",
    "flavor",
    "moment",
    "lhs",
    "rhs_core",
    "constant",
    "constant_source",
    "ratio",
    "satisfied",
)


def _scn_burkholder(cfg: ExperimentConfig) -> _Outcome:
    grid = TimeGrid(cfg.horizon, cfg.n_steps)
    p = cfg.params
    proc = ItoProcessSpec(constant_integrand(_param_array(p, "phi", 2)))
    cont_name = p["continuous_preset"]
    cont = walk_ensemble(proc, _spec_for(cont_name), grid, cfg.n_paths, cfg.seed)
    jump = walk_ensemble(proc, _spec_for(cfg.preset), grid, cfg.n_paths, cfg.seed + 1)

    reports, checks = [], []  # reports as (report, preset) pairs

    def terminal_equality(name, ensemble, preset):
        """The paired isometry gate E|I_T|^2 = E<I>_T on one ensemble."""
        gap, gap_se = terminal_isometry_gap(ensemble)
        gap_z = _z_score(gap, gap_se)
        rep = burkholder_check(ensemble, 2.0, flavor="predictable", moment="terminal")
        ok = rep.satisfied and abs(gap_z) <= p["z_max"]
        reports.append((rep, preset))
        checks.append(_check(name, gap_z, 0.0, p["z_max"], ok, z=gap_z))
        return gap, gap_se, gap_z

    for order in p["p_closed"]:
        rep = burkholder_check(cont, float(order), flavor="optional")
        ok = rep.satisfied and rep.constant_source == "closed-form"
        reports.append((rep, cont_name))
        checks.append(_check(f"sup-moment-p{order}", rep.ratio, rep.constant, 0.0, ok))

    gap, gap_se, gap_z = terminal_equality("terminal-equality-p2-z", cont, cont_name)

    for order in p["p_empirical"]:
        rep = burkholder_check(jump, float(order), flavor="optional")
        ok = rep.satisfied and rep.constant_source == "empirical"
        reports.append((rep, cfg.preset))
        checks.append(_check(f"empirical-ratio-p{order}", rep.ratio, None, 0.0, ok))

    # the jump ensemble's isometry: unlike its empirical ratios, this can fail
    jump_gap, jump_gap_se, jump_gap_z = terminal_equality(
        "jump-terminal-equality-p2-z", jump, cfg.preset
    )

    rows = [
        tuple(preset if key == "preset" else getattr(rep, key) for key in _BURKHOLDER_HEADER)
        for rep, preset in reports
    ]
    metrics = {
        "reports": [rep.to_dict() for rep, _ in reports],
        "terminal_gap": gap,
        "terminal_gap_stderr": gap_se,
        "terminal_gap_z": gap_z,
        "jump_terminal_gap": jump_gap,
        "jump_terminal_gap_stderr": jump_gap_se,
        "jump_terminal_gap_z": jump_gap_z,
        "stderr_reliable": cfg.n_paths >= 2,
    }
    return _Outcome(checks, metrics, _BURKHOLDER_HEADER, rows)


@dataclass(frozen=True)
class _Scenario:
    """A scenario's runner and description, its overrides of
    ``_GLOBAL_DEFAULTS`` and its params, each default fixing the param's type."""

    run: Callable[[ExperimentConfig], _Outcome]
    description: str
    fields: dict
    params: dict


_SCENARIOS: Dict[str, _Scenario] = {
    "verify-isometry": _Scenario(
        _scn_verify_isometry,
        "terminal second moment of a constant-integrand integral vs its control-measure norm",
        {},
        {"phi": _PHI_DEFAULT, "flavor": "total", "rel_tol": 0.05, "z_max": 4.0},
    ),
    "verify-conditional-isometry": _Scenario(
        _scn_verify_conditional,
        "paired increment-vs-bracket differences on past-measurable events",
        {},
        {"phi": _PHI_DEFAULT, "weight": [0.6, -0.2], "gain": 0.4, "s_step": 1, "z_max": 4.0},
    ),
    "verify-qv": _Scenario(
        _scn_verify_qv,
        "per-path bracket identities: mass agreement, optional additivity, polarization",
        {"n_paths": 200, "n_steps": 8},
        {
            "phi": _PHI_DEFAULT,
            "phi_b": [[0.2, -0.5], [0.7, 0.1]],
            "weight": [0.6, -0.2],
            "gain": 0.4,
            "tol": 1e-12,
        },
    ),
    "qv-converge": _Scenario(
        _scn_qv_converge,
        "Riemann sums over refining partitions against the optional bracket",
        {"n_steps": 256, "n_paths": 400},
        {
            "phi": _PHI_DEFAULT,
            "weight": [0.6, -0.2],
            "gain": 0.4,
            "levels": [3, 4, 5, 6, 7],
            "kind": "dyadic",
            "finest_tol": 0.10,
        },
    ),
    "verify-ito": _Scenario(
        _scn_verify_ito,
        "chain-rule residuals: exact for quadratic driftless, centered for compensator",
        {"n_paths": 400, "n_steps": 8},
        {"phi": _PHI_DEFAULT, "weight": [0.5, -0.3], "gain": 0.4, "path_tol": 1e-10, "z_max": 4.0},
    ),
    "ito-converge": _Scenario(
        _scn_ito_converge,
        "chain-rule residual of a smooth test function across mesh refinements",
        {"n_paths": 200},
        {
            "phi": _PHI_DEFAULT,
            "drift": [0.3, -0.2],
            "function": "gauss_cos",
            "levels": [4, 5, 6, 7, 8],
            "variant": "realized",
            "final_ratio": 0.25,
        },
    ),
    "verify-decomposition": _Scenario(
        _scn_verify_decomposition,
        "path decomposition, flavor mass additivity and the covariance mixture identity",
        {"n_paths": 200, "n_steps": 8},
        {"phi": _PHI_DEFAULT, "weight": [0.6, -0.2], "gain": 0.4, "tol": 1e-12},
    ),
    "verify-associativity": _Scenario(
        _scn_verify_associativity,
        "iterated vs fused integration over gated simple and state-linear inner integrands",
        {"n_paths": 200, "n_steps": 8},
        {"tol": 1e-12, "max_blocks": 3},
    ),
    "verify-taylor": _Scenario(
        _scn_verify_taylor,
        "Taylor remainder routes, modulus decay and coded derivatives vs finite differences",
        {"n_paths": 200},
        {
            "functions": ["quadratic", "linear:1.5", "norm_p:4", "gauss_cos"],
            "tol": 1e-8,
            "deltas": [1.0, 0.5, 0.25, 0.125],
        },
    ),
    "burkholder": _Scenario(
        _scn_burkholder,
        "running-sup moment bounds and the terminal isometry, with and without jumps",
        {"n_paths": 4000, "n_steps": 8},
        {
            "phi": _PHI_DEFAULT,
            "continuous_preset": "gauss-default",
            "p_closed": [1.0, 3.0, 4.0],
            "p_empirical": [3.0, 4.0],
            "z_max": 4.0,
        },
    ),
}


def scenario_names() -> list:
    return sorted(_SCENARIOS)


def scenario_description(name: str) -> str:
    return _SCENARIOS[name].description


@dataclass(frozen=True)
class RunResult:
    scenario: str
    passed: bool
    csv_path: str
    json_path: str
    record_path: str
    checks: list
    metrics: dict


def run(cfg: ExperimentConfig, out_dir: str) -> RunResult:
    """Execute one scenario and write its three output files."""
    started = time.monotonic()
    outcome = _SCENARIOS[cfg.scenario].run(cfg)
    elapsed = time.monotonic() - started
    passed = all(c["passed"] for c in outcome.checks)
    rows = outcome.rows
    if rows is None:
        rows = [tuple(c[key] for key in ("name",) + _CHECK_HEADER[1:]) for c in outcome.checks]
    os.makedirs(out_dir, exist_ok=True)
    csv_name, json_name = f"{cfg.scenario}.csv", f"{cfg.scenario}.json"
    csv_path, json_path = os.path.join(out_dir, csv_name), os.path.join(out_dir, json_name)
    record_path = os.path.join(out_dir, "run-record.json")

    _write_csv(csv_path, outcome.header, rows)
    shared = {
        "scenario": cfg.scenario,
        "passed": passed,
        "config": cfg.to_dict(),
        "config_hash": config_hash(cfg),
        "checks": outcome.checks,
    }
    outputs = {"csv": csv_name, "json": json_name}
    record = dict(package_version=__version__, wall_time_s=elapsed, outputs=outputs)
    _write_json(shared, {json_path: {"metrics": outcome.metrics}, record_path: record})
    return RunResult(
        scenario=cfg.scenario,
        passed=passed,
        csv_path=csv_path,
        json_path=json_path,
        record_path=record_path,
        checks=outcome.checks,
        metrics=outcome.metrics,
    )
