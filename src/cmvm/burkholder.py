"""Moment bounds: running supremum of an integral vs powers of its bracket.

The library side of the p-th moment inequalities. ``continuous_constant``
returns the closed-form constant that works for continuous integrators:
Lenglart domination below square power, the isometry at the square, and the
bracket-domination route above it. The Monte Carlo helpers estimate both
sides on an ensemble of walked paths, and ``check`` wraps them in a report
that says which constant was used and where it came from:

* "closed-form": a constant the continuous theory provides (also used for
  the terminal second moment, which is an identity for any integrator);
* "heuristic": the continuous below-square constant applied to a jump model
  against its predictable bracket, where domination still plausibly holds
  but is not part of the closed-form menu;
* "empirical": no constant available (jump models above the square power),
  so the report carries the observed ratio itself, to be compared across
  ensembles and meshes for stability rather than against a fixed bound.

Estimated suprema only see the grid values and the refined pre/post jump
positions, so they sit slightly below the continuous-time supremum; that
bias is conservative for checking upper bounds and is left uncorrected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .integrate import ItoPath, ItoProcessSpec, _mean_se, simulate_ito_process
from .noise import NoiseSpec, TimeGrid, sample_path
from .quadvar import optional_qv, predictable_qv

__all__ = [
    "bracket_power_constant",
    "continuous_constant",
    "BRACKET_FLAVORS",
    "walk_ensemble",
    "path_running_sup",
    "bracket_terminal",
    "mc_sup_moment",
    "mc_terminal_moment",
    "mc_qv_moment",
    "terminal_isometry_gap",
    "BurkholderReport",
    "check",
]


def bracket_power_constant(p: float) -> float:
    """The above-square domination constant p(p-1)/2 * (p/(p-1))^((p-2)/p)."""
    if p <= 2.0:
        raise ValueError(f"the domination constant is for p > 2, got p={p}")
    return 0.5 * p * (p - 1.0) * (p / (p - 1.0)) ** ((p - 2.0) / p)


def continuous_constant(p: float) -> float:
    """Constant C(p) with E sup|I|^p <= C(p) E <I>^{p/2} for continuous
    integrators: 1 + 2/(2-p) below the square, 1 at it (terminal moment),
    and the bracket-domination constant to the power p/2 above it."""
    if p <= 0.0:
        raise ValueError(f"moment order must be positive, got p={p}")
    if p < 2.0:
        return 1.0 + 2.0 / (2.0 - p)
    if p == 2.0:
        return 1.0
    return bracket_power_constant(p) ** (0.5 * p)


def walk_ensemble(
    process: ItoProcessSpec,
    spec: NoiseSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    base_index: int = 0,
) -> List[ItoPath]:
    """Walk the same process on n_paths independent driving samples."""
    return [
        simulate_ito_process(process, sample_path(spec, grid, seed=seed, path_index=base_index + i))
        for i in range(n_paths)
    ]


def path_running_sup(path: ItoPath) -> float:
    """Largest norm the path attains at grid points and around its jumps."""
    best = float(np.linalg.norm(path.values, axis=1).max())
    for rec in path.jumps:
        best = max(
            best,
            float(np.linalg.norm(rec.pre_value)),
            float(np.linalg.norm(rec.pre_value + rec.delta)),
        )
    return best


BRACKET_FLAVORS = ("predictable", "continuous", "jumps", "optional")


def bracket_terminal(path: ItoPath, flavor: str = "optional") -> float:
    """Terminal bracket of one path in the requested flavor.

    "predictable" and "continuous" are control-measure brackets (total and
    continuous-part); "jumps" is the realized sum of squared jumps;
    "optional" is continuous plus jumps.
    """
    if flavor == "predictable":
        return float(predictable_qv(path, "total")[-1])
    if flavor == "continuous":
        return float(predictable_qv(path, "continuous")[-1])
    if flavor == "jumps":
        return float(sum(rec.delta @ rec.delta for rec in path.jumps))
    if flavor == "optional":
        return float(optional_qv(path)[-1])
    raise ValueError(f"unknown bracket flavor {flavor!r}; expected one of {BRACKET_FLAVORS}")


def mc_sup_moment(paths: Sequence[ItoPath], p: float) -> Tuple[float, float]:
    """Estimate of E sup|I|^p with its standard error."""
    return _mean_se(np.array([path_running_sup(path) ** p for path in paths]))


def mc_terminal_moment(paths: Sequence[ItoPath], p: float) -> Tuple[float, float]:
    """Estimate of E |I_T|^p with its standard error."""
    return _mean_se(np.array([float(np.linalg.norm(path.terminal)) ** p for path in paths]))


def mc_qv_moment(
    paths: Sequence[ItoPath], p: float, flavor: str = "optional"
) -> Tuple[float, float]:
    """Estimate of E bracket_T^{p/2} with its standard error."""
    return _mean_se(np.array([bracket_terminal(path, flavor) ** (0.5 * p) for path in paths]))


def terminal_isometry_gap(paths: Sequence[ItoPath]) -> Tuple[float, float]:
    """Paired per-path gap |I_T|^2 - <I>_T: mean and standard error.

    Zero in expectation for any integrand the walk accepts; the pairing
    cancels most of the variance the two one-sided estimates would carry.
    """
    gaps = np.array(
        [
            float(path.terminal @ path.terminal) - bracket_terminal(path, "predictable")
            for path in paths
        ]
    )
    return _mean_se(gaps)


@dataclass(frozen=True)
class BurkholderReport:
    """One moment-bound measurement on one ensemble."""

    p: float
    flavor: str
    moment: str
    n_paths: int
    lhs: float
    lhs_stderr: float
    rhs_core: float
    rhs_stderr: float
    constant: float
    constant_source: str
    ratio: float
    satisfied: bool

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "flavor": self.flavor,
            "moment": self.moment,
            "n_paths": self.n_paths,
            "lhs": self.lhs,
            "lhs_stderr": self.lhs_stderr,
            "rhs_core": self.rhs_core,
            "rhs_stderr": self.rhs_stderr,
            "constant": self.constant,
            "constant_source": self.constant_source,
            "ratio": self.ratio,
            "satisfied": self.satisfied,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def check(
    paths: Sequence[ItoPath],
    p: float,
    flavor: str = "optional",
    moment: str = "sup",
    constant: Optional[float] = None,
) -> BurkholderReport:
    """Measure E (moment)|I|^p against constant * E bracket^{p/2}.

    moment is "sup" (running supremum) or "terminal". When no constant is
    supplied, one is chosen by the rules in the module docstring, and
    ``constant_source`` records the choice. ``satisfied`` allows three
    combined standard errors of Monte Carlo slack on top of the bound; with
    an empirical constant the inequality is the definition of the constant,
    so ``satisfied`` only reports that both sides were finite and positive.
    """
    if moment not in ("sup", "terminal"):
        raise ValueError(f"moment must be 'sup' or 'terminal', got {moment!r}")
    if p <= 0.0:
        raise ValueError(f"moment order must be positive, got p={p}")
    if moment == "sup":
        lhs, lhs_se = mc_sup_moment(paths, p)
    else:
        lhs, lhs_se = mc_terminal_moment(paths, p)
    rhs, rhs_se = mc_qv_moment(paths, p, flavor)

    has_jumps = bool(paths[0].sample.spec.tables.jump_rate.any())
    ratio = lhs / rhs if rhs > 0.0 else float("inf")
    if constant is not None:
        source = "supplied"
    elif moment == "terminal" and p == 2.0:
        constant, source = 1.0, "closed-form"
    elif not has_jumps:
        constant, source = continuous_constant(p), "closed-form"
    elif p < 2.0 and flavor == "predictable":
        constant, source = continuous_constant(p), "heuristic"
    else:
        constant, source = ratio, "empirical"

    if source == "empirical":
        satisfied = np.isfinite(ratio) and rhs > 0.0
    else:
        rel = lhs_se / max(lhs, 1e-300) + rhs_se / max(rhs, 1e-300)
        satisfied = lhs <= constant * rhs * (1.0 + 3.0 * rel)

    return BurkholderReport(
        p=float(p),
        flavor=flavor,
        moment=moment,
        n_paths=len(paths),
        lhs=lhs,
        lhs_stderr=lhs_se,
        rhs_core=rhs,
        rhs_stderr=rhs_se,
        constant=float(constant),
        constant_source=source,
        ratio=float(ratio),
        satisfied=bool(satisfied),
    )
