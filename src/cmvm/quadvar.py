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
tests lean on that identity. A path is a chunk of one: every function here
takes an ``ItoChunk`` of P paths and returns one row per path, with a
leading (P, ...) axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .integrate import ItoChunk
from .noise import _checked

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
    chunk: ItoChunk, flavor: str, other: Optional[ItoChunk] = None, operator: bool = False
) -> np.ndarray:
    """Per-step increments sum_j rate_j dt * phi_kj Q_j psi_kj^T of the
    flavor's control-measure bracket of each path, over its active cells.

    psi is ``other``'s integrand (``chunk``'s own by default). Returns the
    operators, shape (P, n_steps, d, d), or their traces, shape (P, n_steps).
    """
    phi = _checked(chunk, ItoChunk).phis
    psi = phi if other is None or other is chunk else _checked(other, ItoChunk).phis
    table = chunk.samples.spec.tables.flavor(flavor)
    grid, d = chunk.grid, chunk.values.shape[-1]
    steps = np.zeros((len(chunk), grid.n_steps) + ((d, d) if operator else ()))
    subscripts = "pkab,bc,pkdc->pkad" if operator else "pkab,bc,pkac->pk"
    for j, rate in enumerate(table.rate):
        if rate > 0.0:
            steps += np.einsum(subscripts, phi[:, :, j], table.field[j], psi[:, :, j]) * (rate * grid.dt)
    return steps


def _add_jumps(steps: np.ndarray, chunk: ItoChunk, other: ItoChunk) -> np.ndarray:
    """Add each realized jump's delta product (inner product into trace
    steps, outer product into operator steps) to the step it happens in, in
    place; ``steps`` are shaped as ``_bracket_steps`` returns them."""
    da, db = chunk.delta, other.delta
    prods = da[:, :, None] * db[:, None, :] if steps.ndim == 4 else np.vecdot(da, db)
    np.add.at(steps, (chunk.samples.pid, chunk.samples.jumps["step"]), prods)
    return steps


def _cumulative(steps: np.ndarray) -> np.ndarray:
    """Running sums of trace steps over the last axis, from zero at the origin."""
    return np.concatenate([np.zeros(steps.shape[:-1] + (1,)), np.cumsum(steps, axis=-1)], axis=-1)


def predictable_qv(chunk: ItoChunk, flavor: str = "total") -> np.ndarray:
    """Cumulative predictable bracket <I>_{t_k} of each path for k =
    0..n_steps, shape (P, n_steps + 1).

    Step k adds sum_j trace(phi_kj Q_j phi_kj^T) * mass_kj over the flavor's
    active cells. Nondecreasing, zero at the origin.
    """
    return _cumulative(_bracket_steps(chunk, flavor))


def _check_pair(chunk: ItoChunk, other: Optional[ItoChunk]) -> ItoChunk:
    """The second argument of a bracket: ``chunk`` itself, or a cross partner
    path by path walked on the same driving sample, whose jump rows agree."""
    if other is None:
        return chunk
    a, b = _checked(chunk, ItoChunk), _checked(other, ItoChunk)
    ka, kb = ((c.samples.seed, c.samples.path_index) for c in (a, b))
    if ka != kb or a.grid != b.grid or a.samples.spec is not b.samples.spec:
        raise ValueError(
            "cross bracket needs both paths walked on the same driving sample; got (seed, "
            f"path index) {ka} and {kb}"
        )
    rows = ["step", "time", "cell"]
    same = np.array_equal(a.samples.pid, b.samples.pid)
    if not same or not np.array_equal(a.samples.jumps[rows], b.samples.jumps[rows]):
        raise ValueError("paths disagree on the jump sequence")
    return other


def optional_qv(chunk: ItoChunk, other: Optional[ItoChunk] = None) -> np.ndarray:
    """Cumulative optional bracket [I]_{t_k} (or cross bracket [I, J]_{t_k})
    of each path, shaped as ``predictable_qv``.

    The continuous part is the predictable bracket of the continuous flavor;
    every realized jump contributes the product of its deltas at the step it
    happens in. A cross bracket requires each other path to be walked on the
    same driving sample as its partner, whose jump rows have the same steps,
    times and cells, and pairs the two walks' deltas row by row.
    """
    other = _check_pair(chunk, other)
    return _cumulative(_add_jumps(_bracket_steps(chunk, "continuous", other), chunk, other))


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


def make_adaptive_partition(chunk: ItoChunk, delta: float) -> list:
    """Refinement points chosen by each path itself, at resolution ``delta``:
    one partition per path of the chunk.

    Starting from the last refinement point, the next one is placed at the
    first grid time where any of these crosses delta: elapsed time, the
    path's displacement (pre-jump values included), the continuous-flavor
    bracket mass, or the accumulated drift. Each trigger is computed from
    the step just completed, so refinement points are stopping times. The
    continuous bracket steps are priced once for the chunk.
    """
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    n = _checked(chunk, ItoChunk).grid.n_steps
    dt = chunk.grid.dt
    max_steps = max(1, int(np.floor(delta / dt)))
    cont_steps = _bracket_steps(chunk, "continuous")
    drift_norms = [float(np.linalg.norm(step)) for step in chunk.drift]
    jump_steps = chunk.samples.jumps["step"]
    # each jump's pre- and post-jump values, with per-path, per-step row ranges
    around = np.stack([chunk.pre, chunk.pre + chunk.delta], axis=1)
    bounds = np.searchsorted(chunk.samples.pid, np.arange(len(chunk) + 1))
    partitions = []
    for p, values in enumerate(chunk.values):
        lo, hi = bounds[p], bounds[p + 1]
        ends = (lo + np.searchsorted(jump_steps[lo:hi], np.arange(n), side="right")).tolist()
        idx = [0]
        last = 0
        anchor = values[0]
        cont_mass = 0.0
        drift_var = 0.0
        for k in range(n):
            cont_mass += cont_steps[p, k]
            drift_var += drift_norms[k]
            moved = float(np.linalg.norm(values[k + 1] - anchor))
            if ends[k] > lo:
                x = around[lo : ends[k]] - anchor
                moved = max(moved, float(np.sqrt(np.vecdot(x, x)).max()))
                lo = ends[k]
            if (k + 1 - last) >= max_steps or moved >= delta or cont_mass >= delta or drift_var >= delta:
                idx.append(k + 1)
                last = k + 1
                anchor = values[k + 1]
                cont_mass = 0.0
                drift_var = 0.0
        if idx[-1] != n:
            idx.append(n)
        partitions.append(RandomPartition(step_indices=tuple(idx), kind="adaptive", level=delta))
    return partitions


def riemann_qv(chunk: ItoChunk, partitions: Sequence[RandomPartition]) -> np.ndarray:
    """Sum of squared path increments over the partition blocks, (P,).

    ``partitions`` gives each path its partition; paths that share one
    partition are priced together in one array pass.
    """
    chunk = _checked(chunk, ItoChunk)
    if len(partitions) != len(chunk):
        raise ValueError(f"{len(partitions)} partitions for {len(chunk)} paths")
    shared = {}
    for p, part in enumerate(partitions):
        shared.setdefault(part, []).append(p)
    out = np.empty(len(chunk))
    for part, paths in shared.items():
        pts = chunk.values[np.ix_(paths, part._index)]
        diffs = pts[:, 1:] - pts[:, :-1]
        # each path's squares summed as one flat array, as np.sum sums one path's
        out[paths] = (diffs * diffs).reshape(len(paths), -1).sum(axis=1)
    return out


def riemann_weighted_bilinear(
    chunk: ItoChunk, partition: RandomPartition, form: Callable[[float, np.ndarray], np.ndarray]
) -> np.ndarray:
    """Riemann sum sum_i <dX_i, F(s_i, X_{s_i}) dX_i> of each path, (P,),
    with F frozen at each block's left endpoint. F takes one point, so each
    path is summed on its own."""
    times = _checked(chunk, ItoChunk).grid.times
    out = np.zeros(len(chunk))
    for p, values in enumerate(chunk.values):
        for a, b in zip(partition.step_indices, partition.step_indices[1:]):
            x = values[a]
            d = values[b] - x
            out[p] += float(d @ np.asarray(form(float(times[a]), x)) @ d)
    return out


def weighted_qv_target(
    chunk: ItoChunk, form: Callable[[float, np.ndarray], np.ndarray]
) -> np.ndarray:
    """The limit the weighted Riemann sums approach on each path, (P,).

    Integrates F against the optional bracket: sum_k <F(t_k, X_{t_k}), S_k>,
    where the operator step S_k carries the continuous control-measure
    increment and the outer product of every jump delta in step k, so each
    jump sees F frozen at the left endpoint of its step. The steps are
    priced once for the chunk; F takes one point, so it is called path by
    path.
    """
    times = _checked(chunk, ItoChunk).grid.times
    steps = _add_jumps(_bracket_steps(chunk, "continuous", operator=True), chunk, chunk)
    out = np.zeros(len(chunk))
    for p, values in enumerate(chunk.values):
        forms = np.array([form(float(times[k]), values[k]) for k in range(chunk.grid.n_steps)])
        out[p] = np.einsum("kab,kab->", forms, steps[p])
    return out


def _dyadic_levels(n_steps: int, levels) -> Callable[[ItoChunk], list]:
    """2^level blocks per level; built once and shared by every path, since
    they do not depend on the path."""
    partitions = [make_dyadic_partition(n_steps, int(level)) for level in levels]
    return lambda chunk: [[part] * len(chunk) for part in partitions]


def _adaptive_levels(n_steps: int, levels) -> Callable[[ItoChunk], list]:
    """Resolution 2^-level per level; built on each path, whose stopping times they are."""
    return lambda chunk: [make_adaptive_partition(chunk, 2.0 ** (-float(level))) for level in levels]


# the partition kinds of a refinement study: kind -> (n_steps, levels) -> a
# function giving a chunk its partitions, per level one for each path
_REFINEMENTS = {"dyadic": _dyadic_levels, "adaptive": _adaptive_levels}


def qv_refinement_study(chunk: ItoChunk, partitions: Callable[[ItoChunk], list]) -> np.ndarray:
    """Riemann-vs-optional-bracket error of each path over refining partitions.

    partitions(chunk) gives, per refinement level, one partition for each
    path (see ``_REFINEMENTS``). For each level, the relative error
    |riemann - optional| / |optional| (absolute when the bracket is 0) and
    the mesh. Returns shape (P, 2, L), the errors, then the meshes; the
    optional-bracket targets are priced in one call and each level's
    Riemann sums in another.
    """
    targets = optional_qv(_checked(chunk, ItoChunk))[:, -1]
    scale = np.where(targets != 0.0, np.abs(targets), 1.0)
    errors, meshes = [], []
    for parts in partitions(chunk):
        errors.append(np.abs(riemann_qv(chunk, parts) - targets) / scale)
        meshes.append([part.mesh(chunk.grid.dt) for part in parts])
    return np.stack([np.transpose(errors), np.transpose(meshes)], axis=1)
