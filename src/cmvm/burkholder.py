"""Moment bounds: running supremum of an integral vs powers of its bracket.

The library side of the p-th moment inequalities. ``continuous_constant``
returns the closed-form constant that works for continuous integrators:
Lenglart domination below square power, the isometry at the square, and the
bracket-domination route above it. ``walk_ensemble`` walks each path once
and keeps only its statistics (running sup, terminal norm and every bracket
flavor), one row per path: ``path_running_sup`` and ``bracket_terminal``
take an ``ItoChunk`` (a path is a chunk of one) and measure it in one call.
``check`` estimates both sides from those columns and returns a report that
says which constant was used and where it came from:

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

from dataclasses import asdict, dataclass
from typing import Tuple

import numpy as np

from .integrate import ItoChunk, ItoProcessSpec, _mean_se
from .integrate import _per_path, _sum_by_path, simulate_ito_process
from .noise import _checked
# sample_path is not called here (walk_ensemble draws through integrate._per_path):
# bench/test_bench.py checks that the tracer rebinds this module's name too
from .noise import NoiseSpec, TimeGrid, normalize_spec, sample_path  # noqa: F401
from .quadvar import optional_qv, predictable_qv

__all__ = [
    "bracket_power_constant",
    "continuous_constant",
    "BRACKET_FLAVORS",
    "Ensemble",
    "walk_ensemble",
    "path_running_sup",
    "bracket_terminal",
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


def path_running_sup(chunk: ItoChunk) -> np.ndarray:
    """Largest norm each path attains at grid points and around its jumps, (P,)."""
    best = np.linalg.norm(_checked(chunk, ItoChunk).values, axis=2).max(axis=1)
    rows = chunk.jumps
    for x in (rows["pre"], rows["pre"] + rows["delta"]):
        np.maximum.at(best, chunk.samples.pid, np.sqrt(np.vecdot(x, x)))
    return best


BRACKET_FLAVORS = ("predictable", "continuous", "jumps", "optional")


def bracket_terminal(chunk: ItoChunk, flavor: str = "optional") -> np.ndarray:
    """Terminal bracket of each path in the requested flavor, (P,).

    "predictable" and "continuous" are control-measure brackets (total and
    continuous-part); "jumps" is the realized sum of squared jumps;
    "optional" is continuous plus jumps.
    """
    _checked(chunk, ItoChunk)
    if flavor == "jumps":
        dx = chunk.jumps["delta"]  # summed in jump order, as the bracket accumulates
        return _sum_by_path(np.vecdot(dx, dx), chunk.samples.pid, len(chunk))
    if flavor == "optional":
        return optional_qv(chunk)[:, -1]
    if flavor in ("predictable", "continuous"):
        return predictable_qv(chunk, "total" if flavor == "predictable" else flavor)[:, -1]
    raise ValueError(f"unknown bracket flavor {flavor!r}; expected one of {BRACKET_FLAVORS}")


@dataclass(frozen=True)
class Ensemble:
    """Per-path statistics of a walked ensemble.

    ``stats`` is a read-only record array, one row per path, with fields
    ``sup`` (running sup of |I|), ``terminal`` (|I_T|), ``terminal_sq``
    (|I_T|^2) and one terminal bracket per name in ``BRACKET_FLAVORS``.
    ``has_jumps`` says whether the noise model can jump, whether or not a
    path did.
    """

    stats: np.ndarray
    has_jumps: bool


_STATS_DTYPE = np.dtype(
    [(name, np.float64) for name in ("sup", "terminal", "terminal_sq") + BRACKET_FLAVORS]
)


def walk_ensemble(
    process: ItoProcessSpec, spec: NoiseSpec, grid: TimeGrid, n_paths: int, seed: int
) -> Ensemble:
    """Walk the same process on n_paths independent driving samples and
    keep each path's statistics; the paths themselves are not kept. One
    call per statistic measures a walked chunk, so each column equals
    ``path_running_sup`` or ``bracket_terminal`` of its flavor."""

    def measure(samples):
        chunk = simulate_ito_process(process, samples)
        end = chunk.values[:, -1]
        square = np.vecdot(end, end)
        brackets = [bracket_terminal(chunk, flavor) for flavor in BRACKET_FLAVORS]
        return np.stack([path_running_sup(chunk), np.sqrt(square), square, *brackets], axis=1)

    rows = _per_path(spec, grid, seed, n_paths, measure)
    stats = np.empty(n_paths, _STATS_DTYPE)
    for name, column in zip(_STATS_DTYPE.names, rows.T):
        stats[name] = column
    stats.setflags(write=False)
    return Ensemble(stats, bool(normalize_spec(spec).tables.jump_rate.any()))


def _moment(column: np.ndarray, q: float) -> Tuple[float, float]:
    """Mean of column**q with its standard error. The powers are taken on
    Python floats: np.power can differ from ** in the last bit."""
    return _mean_se(np.array([v ** q for v in column.tolist()]))


def terminal_isometry_gap(ensemble: Ensemble) -> Tuple[float, float]:
    """Paired per-path gap |I_T|^2 - <I>_T: mean and standard error.

    Zero in expectation for any integrand the walk accepts; the pairing
    cancels most of the variance the two one-sided estimates would carry.
    """
    return _mean_se(ensemble.stats["terminal_sq"] - ensemble.stats["predictable"])


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
        return asdict(self)


def check(
    ensemble: Ensemble,
    p: float,
    flavor: str = "optional",
    moment: str = "sup",
) -> BurkholderReport:
    """Measure E (moment)|I|^p against constant * E bracket^{p/2}.

    moment is "sup" (running supremum) or "terminal". The constant is chosen
    by the rules in the module docstring, and ``constant_source`` records
    the choice. ``satisfied`` allows three combined standard errors of Monte
    Carlo slack on top of the bound; with an empirical constant the
    inequality is the definition of the constant, so ``satisfied`` only
    reports that both sides were finite and positive.
    """
    stats = ensemble.stats
    if not len(stats):
        raise ValueError("the moment check needs a non-empty ensemble of paths")
    if moment not in ("sup", "terminal"):
        raise ValueError(f"moment must be 'sup' or 'terminal', got {moment!r}")
    if p <= 0.0:
        raise ValueError(f"moment order must be positive, got p={p}")
    if flavor not in BRACKET_FLAVORS:
        raise ValueError(f"unknown bracket flavor {flavor!r}; expected one of {BRACKET_FLAVORS}")
    lhs, lhs_se = _moment(stats[moment], p)
    rhs, rhs_se = _moment(stats[flavor], 0.5 * p)

    ratio = lhs / rhs if rhs > 0.0 else float("inf")
    if moment == "terminal" and p == 2.0:
        constant, source = 1.0, "closed-form"
    elif not ensemble.has_jumps:
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
        n_paths=len(stats),
        lhs=lhs,
        lhs_stderr=lhs_se,
        rhs_core=rhs,
        rhs_stderr=rhs_se,
        constant=float(constant),
        constant_source=source,
        ratio=float(ratio),
        satisfied=bool(satisfied),
    )
