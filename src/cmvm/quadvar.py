"""Quadratic variation of walked integral paths.

Three related objects, all computed from a finished walk without
re-simulation:

* the predictable bracket, integrating the integrand against the noise
  field's control measure;
* the optional bracket, pairing the continuous flavor of the predictable
  bracket with the realized squared jumps, and the cross bracket of two
  paths walked on one driving sample;
* Riemann quadratic-variation sums over coarser partitions of the horizon,
  which converge to the optional bracket as the partition refines. The
  partitions may be deterministic (dyadic) or adaptive, with refinement
  points that are stopping times of the path. A weighted form pairs each
  block's increment with an operator frozen at its left endpoint; its limit
  integrates that operator against the optional bracket.

Every bracket reads the same per-step control-measure increments of
``_bracket_steps``, as operators or as their traces, plus the realized jump
products. The continuous/discontinuous flavors add up to the total exactly;
tests lean on that identity. The kernel, the brackets and the refinement
study take one ``ItoPath``, or an ``ItoChunk`` of P paths with a leading
(P, ...) axis on the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .integrate import ItoPath, _chunk_of, _Paths

__all__ = [
    "predictable_qv",
    "optional_qv",
    "RandomPartition",
    "make_dyadic_partition",
    "make_adaptive_partition",
    "riemann_qv",
    "riemann_weighted_bilinear",
    "weighted_qv_target",
    "qv_refinement_study",
]


def _bracket_steps(
    path: _Paths, flavor: str, other: Optional[_Paths] = None, operator: bool = False
) -> np.ndarray:
    """Per-step increments sum_j rate_j dt * phi_kj Q_j psi_kj^T of the
    flavor's control-measure bracket, over its active cells.

    psi is ``other``'s integrand (``path``'s own by default). Returns the
    operators, shape (n_steps, d, d), or their traces, shape (n_steps,),
    with a leading (P, ...) axis for a chunk of P paths.
    """
    chunk = _chunk_of(path)
    phi = chunk.phis
    psi = phi if other is None or other is path else _chunk_of(other).phis
    table = chunk.samples.spec.tables.flavor(flavor)
    grid, d = chunk.grid, chunk.values.shape[-1]
    steps = np.zeros((len(chunk), grid.n_steps) + ((d, d) if operator else ()))
    subscripts = "pkab,bc,pkdc->pkad" if operator else "pkab,bc,pkac->pk"
    for j, rate in enumerate(table.rate):
        if rate > 0.0:
            steps += np.einsum(subscripts, phi[:, :, j], table.field[j], psi[:, :, j]) * (rate * grid.dt)
    return steps[0] if isinstance(path, ItoPath) else steps


def _add_jumps(steps: np.ndarray, path: _Paths, other: _Paths) -> np.ndarray:
    """Add each realized jump's delta product (inner product into trace
    steps, outer product into operator steps) to the step it happens in, in
    place; ``steps`` are shaped as ``_bracket_steps`` returns them."""
    chunk = _chunk_of(path)
    da = chunk.jumps["delta"]
    db = da if other is path else _chunk_of(other).jumps["delta"]
    block = steps[None] if isinstance(path, ItoPath) else steps
    prods = da[:, :, None] * db[:, None, :] if block.ndim == 4 else np.vecdot(da, db)
    np.add.at(block, (chunk.samples.pid, chunk.jumps["step"]), prods)
    return steps


def _cumulative(steps: np.ndarray) -> np.ndarray:
    """Running sums of trace steps over the last axis, from zero at the origin."""
    return np.concatenate([np.zeros(steps.shape[:-1] + (1,)), np.cumsum(steps, axis=-1)], axis=-1)


def predictable_qv(path: _Paths, flavor: str = "total") -> np.ndarray:
    """Cumulative predictable bracket <I>_{t_k} for k = 0..n_steps: shape
    (n_steps + 1,) for one path, (P, n_steps + 1) for a chunk of P paths.

    Step k adds sum_j trace(phi_kj Q_j phi_kj^T) * mass_kj over the flavor's
    active cells. Nondecreasing, zero at the origin.
    """
    return _cumulative(_bracket_steps(path, flavor))


def _check_pair(path: _Paths, other: Optional[_Paths]) -> _Paths:
    """The second argument of a bracket: ``path`` itself, or a cross partner
    path by path walked on the same driving sample with the same jump rows."""
    if other is None:
        return path
    a, b = _chunk_of(path), _chunk_of(other)
    ka, kb = ((c.samples.seed, c.samples.path_index) for c in (a, b))
    if ka != kb or a.grid != b.grid or a.samples.spec is not b.samples.spec:
        raise ValueError(
            "cross bracket needs both paths walked on the same driving sample; got (seed, "
            f"path index) {ka} and {kb}"
        )
    rows = ["step", "time", "cell"]
    same = np.array_equal(a.samples.pid, b.samples.pid)
    if not same or not np.array_equal(a.jumps[rows], b.jumps[rows]):
        raise ValueError("paths disagree on the jump sequence")
    return other


def optional_qv(path: _Paths, other: Optional[_Paths] = None) -> np.ndarray:
    """Cumulative optional bracket [I]_{t_k} (or cross bracket [I, J]_{t_k}),
    shaped as ``predictable_qv``.

    The continuous part is the predictable bracket of the continuous flavor;
    every realized jump contributes the product of its deltas at the step it
    happens in. A cross bracket requires each other path to be walked on the
    same driving sample as its partner, with the same jumps at the same
    steps, times and cells.
    """
    other = _check_pair(path, other)
    return _cumulative(_add_jumps(_bracket_steps(path, "continuous", other), path, other))


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
        blocks = np.diff(idx)
        if (blocks <= 0).any():
            raise ValueError("partition steps must be strictly increasing")
        # derived once: a dyadic partition serves every path of a study
        object.__setattr__(self, "_index", np.array(idx))
        object.__setattr__(self, "_longest_block", int(blocks.max()))

    def mesh(self, dt: float) -> float:
        return float(self._longest_block * dt)


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
    cont_steps = _bracket_steps(path, "continuous")
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
    pts = path.values[partition._index]
    diffs = pts[1:] - pts[:-1]
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

    Integrates F against the optional bracket: sum_k <F(t_k, X_{t_k}), S_k>,
    where the operator step S_k carries the continuous control-measure
    increment and the outer product of every jump delta in step k, so each
    jump sees F frozen at the left endpoint of its step.
    """
    times = path.grid.times
    forms = np.array([form(float(times[k]), path.values[k]) for k in range(path.grid.n_steps)])
    steps = _add_jumps(_bracket_steps(path, "continuous", operator=True), path, path)
    return float(np.einsum("kab,kab->", forms, steps))


def _dyadic_levels(n_steps: int, levels) -> Callable[[ItoPath], list]:
    """2^level blocks per level; built once, since they do not depend on the path."""
    partitions = [make_dyadic_partition(n_steps, int(level)) for level in levels]
    return lambda path: partitions


def _adaptive_levels(n_steps: int, levels) -> Callable[[ItoPath], list]:
    """Resolution 2^-level per level; built on each path, whose stopping times they are."""
    return lambda path: [make_adaptive_partition(path, 2.0 ** (-float(level))) for level in levels]


# the partition kinds of a refinement study: kind -> (n_steps, levels) -> a
# function giving a path its partitions, one per level
_REFINEMENTS = {"dyadic": _dyadic_levels, "adaptive": _adaptive_levels}


def qv_refinement_study(path: _Paths, partitions: Callable[[ItoPath], list]) -> np.ndarray:
    """Riemann-vs-optional-bracket error of each path over refining partitions.

    partitions(path) gives a path its partitions, one per refinement level
    (see ``_REFINEMENTS``). For each, the relative error |riemann -
    optional| / |optional| (absolute when the bracket is 0) and the mesh.
    Returns shape (2, L) for one path, the errors, then the meshes, and (P,
    2, L) for a chunk, whose optional-bracket targets are priced in one call.
    """
    chunk = _chunk_of(path)
    blocks = []
    for one, target in zip(chunk, optional_qv(chunk)[:, -1].tolist()):
        scale = abs(target) if target != 0.0 else 1.0
        parts = partitions(one)
        errors = [abs(riemann_qv(one, part) - target) / scale for part in parts]
        blocks.append([errors, [part.mesh(chunk.grid.dt) for part in parts]])
    out = np.array(blocks, dtype=np.float64)
    return out[0] if isinstance(path, ItoPath) else out
