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
from typing import Callable, Dict, Sequence, Tuple

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
    _z_score,
    compose_integrands,
    conditional_isometry_check,
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
    FD_TOL,
    finite_difference_check,
    gamma_estimate,
    ito_residual,
    make_smooth,
    taylor_remainder,
    taylor_remainder_quadrature,
)
from .noise import QV_FLAVORS, TimeGrid, load_noise_spec, normalize_spec, sample_path
from .presets import make_preset, preset_names
from .quadvar import optional_qv, predictable_qv, qv_refinement_study

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

# per-scenario overrides of the globals, applied before user values
_FIELD_DEFAULTS = {
    "qv-converge": {"n_steps": 256, "n_paths": 400},
    "ito-converge": {"n_paths": 200},
    "verify-qv": {"n_paths": 200, "n_steps": 8},
    "verify-decomposition": {"n_paths": 200, "n_steps": 8},
    "verify-ito": {"n_paths": 400, "n_steps": 8},
    "verify-associativity": {"n_paths": 200, "n_steps": 8},
    "verify-taylor": {"n_paths": 200},
    "burkholder": {"n_paths": 4000, "n_steps": 8},
}

_PARAM_DEFAULTS = {
    "verify-isometry": {"phi": _PHI_DEFAULT, "flavor": "total", "rel_tol": 0.05, "z_max": 4.0},
    "verify-conditional-isometry": {
        "phi": _PHI_DEFAULT,
        "weight": [0.6, -0.2],
        "gain": 0.4,
        "s_step": 1,
        "z_max": 4.0,
    },
    "verify-qv": {
        "phi": _PHI_DEFAULT,
        "phi_b": [[0.2, -0.5], [0.7, 0.1]],
        "weight": [0.6, -0.2],
        "gain": 0.4,
        "tol": 1e-12,
    },
    "qv-converge": {
        "phi": _PHI_DEFAULT,
        "weight": [0.6, -0.2],
        "gain": 0.4,
        "levels": [3, 4, 5, 6, 7],
        "kind": "dyadic",
        "finest_tol": 0.10,
    },
    "verify-ito": {
        "phi": _PHI_DEFAULT,
        "weight": [0.5, -0.3],
        "gain": 0.4,
        "path_tol": 1e-10,
        "z_max": 4.0,
    },
    "ito-converge": {
        "phi": _PHI_DEFAULT,
        "drift": [0.3, -0.2],
        "function": "gauss_cos",
        "levels": [4, 5, 6, 7, 8],
        "variant": "realized",
        "final_ratio": 0.25,
    },
    "verify-decomposition": {
        "phi": _PHI_DEFAULT,
        "weight": [0.6, -0.2],
        "gain": 0.4,
        "tol": 1e-12,
    },
    "verify-associativity": {"tol": 1e-12, "max_blocks": 3},
    "verify-taylor": {
        "functions": ["quadratic", "linear:1.5", "norm_p:4", "gauss_cos"],
        "tol": 1e-8,
        "deltas": [1.0, 0.5, 0.25, 0.125],
    },
    "burkholder": {
        "phi": _PHI_DEFAULT,
        "continuous_preset": "gauss-default",
        "p_closed": [1.0, 3.0, 4.0],
        "p_empirical": [3.0, 4.0],
        "z_max": 4.0,
    },
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
        return {
            "scenario": self.scenario,
            "preset": self.preset,
            "horizon": self.horizon,
            "n_steps": self.n_steps,
            "n_paths": self.n_paths,
            "seed": self.seed,
            "params": dict(self.params),
        }


def _build_config(data: dict) -> ExperimentConfig:
    if "scenario" not in data:
        raise ValueError("config needs a 'scenario' key")
    scenario = data["scenario"]
    if scenario not in _SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {scenario_names()}")
    fields = dict(_GLOBAL_DEFAULTS)
    fields.update(_FIELD_DEFAULTS.get(scenario, {}))
    params = dict(_PARAM_DEFAULTS.get(scenario, {}))
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
    models = [fields["preset"]]
    if "continuous_preset" in params:
        models.append(params["continuous_preset"])
    dims = {name: _spec_for(name).dim for name in models}
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
        if scenario == "ito-converge" and min(levels) < 0:
            raise ValueError(f"levels are log2 step counts and must be >= 0, got {levels}")
        finest = n_steps.bit_length() - 1  # 2^level blocks must not out-refine the grid
        if params.get("kind") == "dyadic" and not all(0 <= v <= finest for v in levels):
            raise ValueError(f"dyadic levels {levels} must lie in 0..{finest} for {n_steps} steps")
    return ExperimentConfig(
        scenario=scenario,
        preset=fields["preset"],
        horizon=float(horizon),
        n_steps=n_steps,
        n_paths=n_paths,
        seed=seed,
        params=params,
    )


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
        if key.startswith("params."):
            name = key[len("params.") :]
            if name not in data["params"]:
                raise ValueError(
                    f"unknown parameter {name!r} for {cfg.scenario}; "
                    f"expected one of {sorted(data['params'])}"
                )
            data["params"][name] = value
        elif key in ("scenario", "preset", "horizon", "n_steps", "n_paths", "seed"):
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


def _jsonify(value):
    """json.dump default hook for numpy scalars and arrays."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def _definite(obj):
    """Replace non-finite floats with None so the JSON stays strict."""
    if isinstance(obj, dict):
        return {k: _definite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_definite(v) for v in obj]
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return None
    return obj


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
    passed: bool
    header: tuple
    rows: list
    checks: list
    metrics: dict


def _checks_outcome(checks, metrics) -> _Outcome:
    rows = [
        (c["name"], c["value"], c["target"], c["tolerance"], c["z"], c["passed"]) for c in checks
    ]
    return _Outcome(all(c["passed"] for c in checks), _CHECK_HEADER, rows, checks, metrics)


# ------------------------------------------------------------- scenarios


def _phi_matrix(params: dict, key: str = "phi") -> np.ndarray:
    return np.array(params[key], dtype=np.float64)


def _scn_verify_isometry(cfg: ExperimentConfig) -> _Outcome:
    spec = _spec_for(cfg.preset)
    grid = TimeGrid(cfg.horizon, cfg.n_steps)
    integrand = constant_integrand(_phi_matrix(cfg.params))
    target = float(lambda2_norm(integrand, spec, grid, cfg.params["flavor"]).value)
    sq = np.empty(cfg.n_paths)
    for i in range(cfg.n_paths):
        path = integrate(integrand, sample_path(spec, grid, seed=cfg.seed, path_index=i))
        sq[i] = float(path.terminal @ path.terminal)
    mean, se = _mean_se(sq)
    z = _z_score(mean - target, se)
    rel = abs(mean - target) / target
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
    return _checks_outcome(checks, metrics)


def _scn_verify_conditional(cfg: ExperimentConfig) -> _Outcome:
    spec = _spec_for(cfg.preset)
    grid = TimeGrid(cfg.horizon, cfg.n_steps)
    p = cfg.params
    integrand = state_linear_integrand(_phi_matrix(p), p["weight"], p["gain"])
    events = {
        "always": lambda path, ks: True,
        "first-up": lambda path, ks: bool(path.values[1][0] > path.values[0][0]),
        "first-down": lambda path, ks: bool(path.values[1][0] <= path.values[0][0]),
    }
    results = conditional_isometry_check(
        integrand,
        spec,
        grid,
        s=float(grid.times[int(p["s_step"])]),
        t=cfg.horizon,
        events=events,
        n_paths=cfg.n_paths,
        seed=cfg.seed,
    )
    checks = [
        _check(f"event-{c.name}-z", c.z, 0.0, p["z_max"], abs(c.z) <= p["z_max"] and c.event_rate > 0, z=c.z)
        for c in results
    ]
    metrics = {
        c.name: {
            "lhs": c.lhs,
            "rhs": c.rhs,
            "mean_diff": c.mean_diff,
            "stderr": c.stderr,
            "z": c.z,
            "event_rate": c.event_rate,
        }
        for c in results
    }
    metrics["stderr_reliable"] = cfg.n_paths >= 2
    return _checks_outcome(checks, metrics)


def _scn_verify_qv(cfg: ExperimentConfig) -> _Outcome:
    spec = _spec_for(cfg.preset)
    grid = TimeGrid(cfg.horizon, cfg.n_steps)
    p = cfg.params
    tol = float(p["tol"])
    mat_a = _phi_matrix(p)
    mat_b = _phi_matrix(p, "phi_b")
    adapted = state_linear_integrand(mat_a, p["weight"], p["gain"])
    ia, ib, iab = (constant_integrand(m) for m in (mat_a, mat_b, mat_a + mat_b))
    worst = {f"mass-{flavor}": 0.0 for flavor in QV_FLAVORS}
    worst["optional-additivity"] = 0.0
    worst["polarization"] = 0.0
    for i in range(cfg.n_paths):
        sample = sample_path(spec, grid, seed=cfg.seed, path_index=i)
        path = integrate(adapted, sample)
        for flavor in QV_FLAVORS:
            pred = float(predictable_qv(path, flavor)[-1])
            real = realized_lambda2_mass(path, flavor)
            worst[f"mass-{flavor}"] = max(
                worst[f"mass-{flavor}"], abs(pred - real) / max(1.0, abs(pred))
            )
        opt = float(optional_qv(path)[-1])
        cont = bracket_terminal(path, "continuous")
        jumps = bracket_terminal(path, "jumps")
        worst["optional-additivity"] = max(
            worst["optional-additivity"], abs(opt - (cont + jumps)) / max(1.0, opt)
        )
        pa, pb, pab = integrate(ia, sample), integrate(ib, sample), integrate(iab, sample)
        lhs = optional_qv(pab)[-1]
        rhs = optional_qv(pa)[-1] + 2.0 * optional_qv(pa, pb)[-1] + optional_qv(pb)[-1]
        worst["polarization"] = max(worst["polarization"], abs(lhs - rhs) / max(1.0, abs(lhs)))
    checks = [
        _check(name, val, 0.0, tol, val <= tol) for name, val in sorted(worst.items())
    ]
    return _checks_outcome(checks, {"max_rel_err": worst, "tol": tol})


def _monotone_checks(prefix: str, medians, final_tol: float, relative_to_first: bool):
    """Shared gate shape of the two convergence scenarios. A ratio over a
    zero median is NaN, and a single level has no ratio; either way the
    decreasing gate fails with a null value."""

    def ratio(b, a):
        return b / a if a > 0.0 else math.nan

    ratios = [ratio(b, a) for a, b in zip(medians, medians[1:])]
    worst_ratio = max(ratios) if ratios and not any(map(math.isnan, ratios)) else math.nan
    final = ratio(medians[-1], medians[0]) if relative_to_first else medians[-1]
    return [
        _check(f"{prefix}-strictly-decreasing", worst_ratio, 0.0, 1.0, worst_ratio < 1.0),
        _check(f"{prefix}-finest", final, 0.0, final_tol, final <= final_tol),
    ]


def _scn_qv_converge(cfg: ExperimentConfig) -> _Outcome:
    spec = _spec_for(cfg.preset)
    grid = TimeGrid(cfg.horizon, cfg.n_steps)
    p = cfg.params
    integrand = state_linear_integrand(_phi_matrix(p), p["weight"], p["gain"])

    def make_path(i: int):
        return integrate(integrand, sample_path(spec, grid, seed=cfg.seed, path_index=i))

    study = qv_refinement_study(
        make_path, levels=[int(v) for v in p["levels"]], n_paths=cfg.n_paths, kind=p["kind"]
    )
    medians = [row.median_abs_err for row in study]
    checks = _monotone_checks("median-rel-err", medians, p["finest_tol"], relative_to_first=False)
    rows = [
        [
            "qv-converge",
            row.level,
            row.mesh,
            "median_rel_err",
            row.median_abs_err,
            row.q25,
            row.q75,
            row.n_paths,
            cfg.seed,
        ]
        for row in study
    ]
    metrics = {"medians": medians, "finest_tol": p["finest_tol"]}
    return _Outcome(
        all(c["passed"] for c in checks), CONVERGENCE_HEADER, rows, checks, metrics
    )


def _scn_verify_ito(cfg: ExperimentConfig) -> _Outcome:
    spec = _spec_for(cfg.preset)
    grid = TimeGrid(cfg.horizon, cfg.n_steps)
    p = cfg.params
    mat = _phi_matrix(p)
    f = make_smooth("quadratic")
    models = {
        "constant": constant_integrand(mat),
        "state-linear": state_linear_integrand(mat, p["weight"], p["gain"]),
        "time-varying": deterministic_integrand(
            lambda k, t, j: mat * (1.0 + 0.5 * t * (1 + j)), mat.shape[0], mat.shape[1]
        ),
    }
    worst = 0.0
    comp = np.empty(cfg.n_paths * len(models))
    idx = 0
    for integrand in models.values():
        proc = ItoProcessSpec(integrand)
        for i in range(cfg.n_paths):
            path = simulate_ito_process(
                proc, sample_path(spec, grid, seed=cfg.seed, path_index=i)
            )
            change = abs(
                float(f.value(cfg.horizon, path.values[-1])[0] - f.value(0.0, path.values[0])[0])
            )
            res = abs(float(ito_residual(path, f, trace_variant="realized")[0]))
            worst = max(worst, res / max(1.0, change))
            comp[idx] = float(ito_residual(path, f, trace_variant="compensator")[0])
            idx += 1
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
    return _checks_outcome(checks, metrics)


def _quartiles(values: np.ndarray) -> list:
    """Lower quartile, median and upper quartile, interpolated linearly
    between order statistics as np.quantile does by default, or NaNs when a
    value is NaN. np.quantile and np.median import numpy.ma on first use."""
    s = np.sort(values)
    if np.isnan(s[-1]):
        return [math.nan] * 3
    positions = np.array([0.25, 0.5, 0.75]) * (len(s) - 1)
    return np.interp(positions, np.arange(len(s)), s).tolist()


def _scn_ito_converge(cfg: ExperimentConfig) -> _Outcome:
    spec = _spec_for(cfg.preset)
    p = cfg.params
    f = make_smooth(p["function"])
    integrand = constant_integrand(_phi_matrix(p))
    drift = np.array(p["drift"], dtype=np.float64)
    proc = ItoProcessSpec(integrand, drift_rate=drift)
    levels = [int(v) for v in p["levels"]]
    rows, medians = [], []
    for level in levels:
        grid = TimeGrid(cfg.horizon, 2**level)
        res = np.empty(cfg.n_paths)
        for i in range(cfg.n_paths):
            path = simulate_ito_process(
                proc, sample_path(spec, grid, seed=cfg.seed, path_index=i)
            )
            res[i] = abs(float(ito_residual(path, f, trace_variant=p["variant"])[0]))
        q25, median, q75 = _quartiles(res)
        medians.append(median)
        rows.append(
            [
                "ito-converge",
                level,
                grid.dt,
                "median_abs_residual",
                median,
                q25,
                q75,
                cfg.n_paths,
                cfg.seed,
            ]
        )
    checks = _monotone_checks(
        "median-abs-residual", medians, p["final_ratio"], relative_to_first=True
    )
    metrics = {"levels": levels, "medians": medians}
    return _Outcome(
        all(c["passed"] for c in checks), CONVERGENCE_HEADER, rows, checks, metrics
    )


def _scn_verify_decomposition(cfg: ExperimentConfig) -> _Outcome:
    spec = _spec_for(cfg.preset)
    grid = TimeGrid(cfg.horizon, cfg.n_steps)
    p = cfg.params
    tol = float(p["tol"])
    integrand = state_linear_integrand(_phi_matrix(p), p["weight"], p["gain"])
    worst_sum = worst_mass = 0.0
    for i in range(cfg.n_paths):
        path = integrate(integrand, sample_path(spec, grid, seed=cfg.seed, path_index=i))
        cont, jump, fv = decompose_integral(path)
        gap = np.abs(cont + jump + fv - path.values).max()
        worst_sum = max(worst_sum, gap / max(1.0, np.abs(path.values).max()))
        total = realized_lambda2_mass(path, "total")
        split = realized_lambda2_mass(path, "continuous") + realized_lambda2_mass(
            path, "discontinuous"
        )
        worst_mass = max(worst_mass, abs(total - split) / max(1.0, total))
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
    return _checks_outcome(checks, metrics)


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

                def predicate(sample, start_step, _c=comp):
                    return bool(sample.gauss[: start_step].sum(axis=(0, 1))[_c] > 0.0)

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
    worst = 0.0
    for i in range(cfg.n_paths):
        inner, outer = _random_simple_pair(
            rng, cfg.n_steps, spec.n_cells, spec.dim, int(p["max_blocks"])
        )
        integrand = inner.as_general()
        if i % 2:  # odd paths swap in an inner integrand that reads its own value
            base = rng.uniform(-1.0, 1.0, size=(2, spec.dim))
            weight = rng.uniform(-1.0, 1.0, size=2)
            integrand = state_linear_integrand(base, weight, float(rng.uniform(0.0, 0.5)))
        sample = sample_path(spec, grid, seed=cfg.seed, path_index=i)
        iterated = integrate_process(outer, integrate(integrand, sample), dim_out=2)
        fused = integrate(compose_integrands(outer, integrand, dim_out=2), sample).terminal
        scale = max(1.0, float(np.abs(iterated).max()))
        worst = max(worst, float(np.abs(iterated - fused).max()) / scale)
    checks = [_check("iterated-vs-fused-max-rel", worst, 0.0, tol, worst <= tol)]
    return _checks_outcome(checks, {"max_rel_diff": worst, "tol": tol, "n_pairs": cfg.n_paths})


def _scn_verify_taylor(cfg: ExperimentConfig) -> _Outcome:
    p = cfg.params
    tol = float(p["tol"])
    rng = np.random.default_rng(cfg.seed + 23)
    worst, derivative_errors = {}, {}
    for name in p["functions"]:
        f = make_smooth(name)
        gap = fd_err = 0.0
        for _ in range(cfg.n_paths):
            t = float(rng.uniform(0.0, cfg.horizon))
            x = rng.uniform(-1.5, 1.5, size=2)
            y = x + rng.uniform(-1.0, 1.0, size=2)
            direct = taylor_remainder(f, t, x, y)
            quad = taylor_remainder_quadrature(f, t, x, y)
            gap = max(gap, float(np.abs(direct - quad).max()))
            fd_err = max(fd_err, *finite_difference_check(f, t, x).values())
        worst[name] = gap
        derivative_errors[name] = fd_err
    deltas = [float(d) for d in p["deltas"]]
    sups = gamma_estimate(
        make_smooth("norm_p:4"), deltas, dim=2, n_samples=max(cfg.n_paths, 100), seed=cfg.seed
    )
    decays = all(a > b for a, b in zip(sups, sups[1:]))
    checks = [
        _check(f"remainder-routes-{name}", gap, 0.0, tol, gap <= tol)
        for name, gap in sorted(worst.items())
    ]
    checks.append(_check("modulus-decays", sups[-1], 0.0, sups[0], decays))
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
    return _checks_outcome(checks, metrics)


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
    proc = ItoProcessSpec(constant_integrand(_phi_matrix(p)))
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
    return _Outcome(all(c["passed"] for c in checks), _BURKHOLDER_HEADER, rows, checks, metrics)


_SCENARIOS: Dict[str, Tuple[Callable[[ExperimentConfig], _Outcome], str]] = {
    "verify-isometry": (
        _scn_verify_isometry,
        "terminal second moment of a constant-integrand integral vs its control-measure norm",
    ),
    "verify-conditional-isometry": (
        _scn_verify_conditional,
        "paired increment-vs-bracket differences on past-measurable events",
    ),
    "verify-qv": (
        _scn_verify_qv,
        "per-path bracket identities: mass agreement, optional additivity, polarization",
    ),
    "qv-converge": (
        _scn_qv_converge,
        "Riemann sums over refining partitions against the optional bracket",
    ),
    "verify-ito": (
        _scn_verify_ito,
        "chain-rule residuals: exact for quadratic driftless, centered for compensator",
    ),
    "ito-converge": (
        _scn_ito_converge,
        "chain-rule residual of a smooth test function across mesh refinements",
    ),
    "verify-decomposition": (
        _scn_verify_decomposition,
        "path decomposition, flavor mass additivity and the covariance mixture identity",
    ),
    "verify-associativity": (
        _scn_verify_associativity,
        "iterated vs fused integration over gated simple and state-linear inner integrands",
    ),
    "verify-taylor": (
        _scn_verify_taylor,
        "Taylor remainder routes, modulus decay and coded derivatives vs finite differences",
    ),
    "burkholder": (
        _scn_burkholder,
        "running-sup moment bounds and the terminal isometry, with and without jumps",
    ),
}


def scenario_names() -> list:
    return sorted(_SCENARIOS)


def scenario_description(name: str) -> str:
    return _SCENARIOS[name][1]


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
    runner, _ = _SCENARIOS[cfg.scenario]
    started = time.monotonic()
    outcome = runner(cfg)
    elapsed = time.monotonic() - started
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{cfg.scenario}.csv")
    json_path = os.path.join(out_dir, f"{cfg.scenario}.json")
    record_path = os.path.join(out_dir, "run-record.json")

    _write_csv(csv_path, outcome.header, outcome.rows)
    payload = _definite(
        {
            "scenario": cfg.scenario,
            "passed": bool(outcome.passed),
            "config": cfg.to_dict(),
            "config_hash": config_hash(cfg),
            "checks": outcome.checks,
            "metrics": outcome.metrics,
        }
    )
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=_jsonify)
        fh.write("\n")
    record = _definite(
        {
            "scenario": cfg.scenario,
            "passed": bool(outcome.passed),
            "config": cfg.to_dict(),
            "config_hash": config_hash(cfg),
            "package_version": __version__,
            "wall_time_s": elapsed,
            "checks": outcome.checks,
            "outputs": {"csv": os.path.basename(csv_path), "json": os.path.basename(json_path)},
        }
    )
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True, indent=2, default=_jsonify)
        fh.write("\n")
    return RunResult(
        scenario=cfg.scenario,
        passed=bool(outcome.passed),
        csv_path=csv_path,
        json_path=json_path,
        record_path=record_path,
        checks=outcome.checks,
        metrics=outcome.metrics,
    )
