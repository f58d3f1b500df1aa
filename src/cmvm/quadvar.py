"""Quadratic variation of walked integral paths.

Three related objects, all computed from a finished walk without
re-simulation:

* the predictable bracket, integrating the integrand against the noise
  field's control measure (scalar and operator-valued cumulative versions);
* the optional bracket, pairing the continuous flavor of the predictable
  bracket with the realized squared jumps;
* Riemann quadratic-variation sums over coarser partitions of the horizon,
  which converge to the optional bracket as the partition refines. The
  partitions may be deterministic (dyadic) or adaptive, with refinement
  points that are stopping times of the path.

Scalar and operator versions are tied together by the trace, and the
continuous/discontinuous flavors add up to the total exactly; tests lean on
both identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .integrate import ItoPath

__all__ = [
    "predictable_qv",
    "predictable_operator_qv",
    "optional_qv",
    "optional_operator_qv",
    "RandomPartition",
    "make_dyadic_partition",
    "make_adaptive_partition",
    "riemann_qv",
    "riemann_weighted_bilinear",
    "weighted_qv_target",
    "RefinementRow",
    "qv_refinement_study",
]


def _flavor_terms(path: ItoPath, flavor: str):
    """Per-cell (rate * dt, covariance) pairs of a flavor, active cells only."""
    table = path.sample.spec.tables.flavor(flavor)
    dt = path.grid.dt
    return [(j, rate * dt, table.field[j]) for j, rate in enumerate(table.rate) if rate > 0.0]


def predictable_qv(path: ItoPath, flavor: str = "total") -> np.ndarray:
    """Cumulative predictable bracket <I>_{t_k} for k = 0..n_steps.

    Step k adds sum_j trace(phi_kj Q_j phi_kj^T) * mass_kj over the flavor's
    active cells. Nondecreasing, zero at the origin.
    """
    n = path.grid.n_steps
    steps = np.zeros(n)
    for j, mass, q in _flavor_terms(path, flavor):
        phi = path.phis[:, j]
        steps += np.einsum("kab,bc,kac->k", phi, q, phi) * mass
    out = np.zeros(n + 1)
    np.cumsum(steps, out=out[1:])
    return out


def predictable_operator_qv(path: ItoPath, flavor: str = "total") -> np.ndarray:
    """Operator-valued cumulative bracket, shape (n_steps + 1, d, d).

    Step k adds sum_j phi_kj Q_j phi_kj^T * mass_kj; its trace reproduces
    the scalar bracket and each increment is symmetric PSD.
    """
    n = path.grid.n_steps
    d = path.dim_out
    steps = np.zeros((n, d, d))
    for j, mass, q in _flavor_terms(path, flavor):
        phi = path.phis[:, j]
        steps += np.einsum("kab,bc,kdc->kad", phi, q, phi) * mass
    out = np.zeros((n + 1, d, d))
    np.cumsum(steps, axis=0, out=out[1:])
    return out


def _same_driving(a: ItoPath, b: ItoPath) -> bool:
    if a.sample is b.sample:
        return True
    return (
        a.sample.seed == b.sample.seed
        and a.sample.path_index == b.sample.path_index
        and a.grid == b.grid
        and a.sample.spec is b.sample.spec
    )


def _check_pair(path: ItoPath, other: Optional[ItoPath]) -> ItoPath:
    if other is None:
        return path
    if not _same_driving(path, other):
        raise ValueError(
            "cross bracket needs both paths walked on the same driving sample; "
            f"got seeds {path.sample.seed}/{other.sample.seed}, "
            f"path indices {path.sample.path_index}/{other.sample.path_index}"
        )
    if len(path.jumps) != len(other.jumps):
        raise ValueError("paths disagree on the jump sequence; different drivers?")
    return other


def optional_qv(path: ItoPath, other: Optional[ItoPath] = None) -> np.ndarray:
    """Cumulative optional bracket [I]_{t_k} (or cross bracket [I, J]_{t_k}).

    The continuous part is the predictable bracket of the continuous flavor;
    every realized jump (noise and driver alike) contributes the product of
    its deltas at the step it happens in. A cross bracket requires the other
    path to be walked on the same driving sample.
    """
    other = _check_pair(path, other)
    n = path.grid.n_steps
    steps = np.zeros(n)
    for j, mass, q in _flavor_terms(path, "continuous"):
        steps += np.einsum("kab,bc,kac->k", path.phis[:, j], q, other.phis[:, j]) * mass
    if len(path.jumps):  # a path without jumps skips the numpy calls
        np.add.at(steps, path.jumps["step"], np.vecdot(path.jumps["delta"], other.jumps["delta"]))
    out = np.zeros(n + 1)
    np.cumsum(steps, out=out[1:])
    return out


def optional_operator_qv(path: ItoPath, other: Optional[ItoPath] = None) -> np.ndarray:
    """Operator-valued cumulative optional bracket, shape (n_steps + 1, d, d)."""
    other = _check_pair(path, other)
    n = path.grid.n_steps
    d = path.dim_out
    steps = np.zeros((n, d, d))
    for j, mass, q in _flavor_terms(path, "continuous"):
        steps += np.einsum("kab,bc,kdc->kad", path.phis[:, j], q, other.phis[:, j]) * mass
    da, db = path.jumps["delta"], other.jumps["delta"]
    np.add.at(steps, path.jumps["step"], da[:, :, None] * db[:, None, :])
    out = np.zeros((n + 1, d, d))
    np.cumsum(steps, axis=0, out=out[1:])
    return out


@dataclass(frozen=True)
class RandomPartition:
    """A partition of the horizon into grid-aligned blocks.

    step_indices are strictly increasing grid steps from 0 to n_steps; the
    partition points are the corresponding grid times. ``kind`` records how
    it was built ("dyadic" or "adaptive").
    """

    step_indices: tuple
    kind: str
    level: float

    def __post_init__(self):
        idx = self.step_indices
        if len(idx) < 2 or idx[0] != 0:
            raise ValueError("partition must start at step 0 and contain the terminal step")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("partition steps must be strictly increasing")

    @property
    def n_blocks(self) -> int:
        return len(self.step_indices) - 1

    def mesh(self, dt: float) -> float:
        return float(max(b - a for a, b in zip(self.step_indices, self.step_indices[1:])) * dt)


def make_dyadic_partition(n_steps: int, level: int) -> RandomPartition:
    """2^level near-equal blocks of the grid; level must not out-refine it."""
    blocks = 2**level
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if blocks > n_steps:
        raise ValueError(f"2^{level} blocks cannot refine a {n_steps}-step grid")
    idx = tuple(int(round(i * n_steps / blocks)) for i in range(blocks + 1))
    return RandomPartition(step_indices=idx, kind="dyadic", level=float(level))


def make_adaptive_partition(path: ItoPath, delta: float) -> RandomPartition:
    """Refinement points chosen by the path itself, at resolution ``delta``.

    Starting from the last refinement point, the next one is placed at the
    first grid time where any of these crosses delta: elapsed time, the
    path's displacement (pre-jump values included), the continuous-flavor
    bracket mass, or the accumulated drift. Each trigger is computed from
    the step just completed, so refinement points are stopping times.
    """
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    n = path.grid.n_steps
    dt = path.grid.dt
    max_steps = max(1, int(np.floor(delta / dt)))
    cont_steps = np.diff(predictable_qv(path, "continuous"))
    # each jump's pre- and post-jump values, with per-step row ranges
    around = np.stack([path.jumps["pre"], path.jumps["pre"] + path.jumps["delta"]], axis=1)
    ends = np.searchsorted(path.jumps["step"], np.arange(n), side="right").tolist()
    idx = [0]
    last = lo = 0
    anchor = path.values[0]
    cont_mass = 0.0
    drift_var = 0.0
    for k in range(n):
        cont_mass += cont_steps[k]
        drift_var += float(np.linalg.norm(path.drift[k]))
        moved = float(np.linalg.norm(path.values[k + 1] - anchor))
        if ends[k] > lo:
            x = around[lo : ends[k]] - anchor
            moved = max(moved, float(np.sqrt(np.vecdot(x, x)).max()))
            lo = ends[k]
        if (k + 1 - last) >= max_steps or moved >= delta or cont_mass >= delta or drift_var >= delta:
            idx.append(k + 1)
            last = k + 1
            anchor = path.values[k + 1]
            cont_mass = 0.0
            drift_var = 0.0
    if idx[-1] != n:
        idx.append(n)
    return RandomPartition(step_indices=tuple(idx), kind="adaptive", level=delta)


def riemann_qv(path: ItoPath, partition: RandomPartition) -> float:
    """Sum of squared path increments over the partition blocks."""
    pts = path.values[list(partition.step_indices)]
    diffs = np.diff(pts, axis=0)
    return float(np.sum(diffs * diffs))


def riemann_weighted_bilinear(
    path: ItoPath, partition: RandomPartition, form: Callable[[float, np.ndarray], np.ndarray]
) -> float:
    """Riemann sum sum_i <dX_i, F(s_i, X_{s_i}) dX_i> with F frozen at each
    block's left endpoint."""
    total = 0.0
    times = path.grid.times
    for a, b in zip(partition.step_indices, partition.step_indices[1:]):
        x = path.values[a]
        d = path.values[b] - x
        f = np.asarray(form(float(times[a]), x))
        total += float(d @ f @ d)
    return total


def weighted_qv_target(path: ItoPath, form: Callable[[float, np.ndarray], np.ndarray]) -> float:
    """The limit the weighted Riemann sums approach on this path.

    Integrates F against the optional bracket: the continuous part pairs
    F(t_k, X_{t_k}) with the per-step continuous covariance, and every jump
    contributes <delta, F delta> with F frozen at the left endpoint of the
    jump's step.
    """
    times = path.grid.times
    total = 0.0
    n = path.grid.n_steps
    forms = [np.asarray(form(float(times[k]), path.values[k])) for k in range(n)]
    for j, mass, q in _flavor_terms(path, "continuous"):
        for k in range(n):
            phi = path.phis[k, j]
            total += float(np.trace(forms[k] @ phi @ q @ phi.T)) * mass
    for k, dx in zip(path.jumps["step"].tolist(), path.jumps["delta"]):
        total += float(dx @ forms[k] @ dx)
    return total


@dataclass(frozen=True)
class RefinementRow:
    """One refinement level of a convergence study."""

    level: float
    mesh: float
    median_abs_err: float
    q25: float
    q75: float
    n_paths: int


def qv_refinement_study(
    make_path: Callable[[int], ItoPath],
    levels,
    *,
    n_paths: int,
    kind: str = "dyadic",
    relative: bool = True,
) -> list:
    """Riemann-vs-optional-bracket error across refinement levels.

    make_path(i) walks path i; each level builds its partition (dyadic with
    2^level blocks, or adaptive at resolution 2^-level) and the per-path
    error |riemann - optional| (relative by default). Rows report the
    median and quartiles over paths.
    """
    if kind not in ("dyadic", "adaptive"):
        raise ValueError(f"unknown partition kind {kind!r}; expected dyadic or adaptive")
    errors = {lv: [] for lv in levels}
    meshes = {lv: [] for lv in levels}
    for i in range(n_paths):
        path = make_path(i)
        target = float(optional_qv(path)[-1])
        scale = abs(target) if relative and target != 0.0 else 1.0
        for lv in levels:
            if kind == "dyadic":
                part = make_dyadic_partition(path.grid.n_steps, int(lv))
            else:
                part = make_adaptive_partition(path, 2.0 ** (-float(lv)))
            err = abs(riemann_qv(path, part) - target) / scale
            errors[lv].append(err)
            meshes[lv].append(part.mesh(path.grid.dt))
    rows = []
    for lv in levels:
        e = np.asarray(errors[lv])
        rows.append(
            RefinementRow(
                level=float(lv),
                mesh=float(np.mean(meshes[lv])),
                median_abs_err=float(np.median(e)),
                q25=float(np.percentile(e, 25)),
                q75=float(np.percentile(e, 75)),
                n_paths=n_paths,
            )
        )
    return rows
