"""Quadratic variation of walked integral paths.

Three related objects, all computed from a finished walk without
re-simulation:

* the predictable bracket, integrating the integrand against the noise
  field's control measure;
* the optional bracket, pairing the continuous flavor of the predictable
  bracket with the realized squared jumps, and the cross bracket of two
  paths walked on one driving sample;
* Riemann quadratic-variation sums over coarser partitions of the horizon,
  which converge to the optional bracket as the partition refines. A
  partition is a bool mask of grid points: one (n_steps + 1,) mask shared by
  every path (dyadic), or a (P, n_steps + 1) mask of each path's stopping
  times (adaptive); a refinement study takes a stack of them, one per level.
  A weighted form pairs each block's increment with an operator frozen at
  its left endpoint; its limit integrates that operator against the
  optional bracket.

Every bracket reads the same per-step control-measure increments of
``_bracket_steps``, as operators or as their traces, plus the realized jump
products. The continuous/discontinuous flavors add up to the total exactly;
tests lean on that identity. A path is a chunk of one: every function here
takes an ``ItoChunk`` of P paths and returns one row per path, with a
leading (P, ...) axis.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .integrate import ItoChunk
from .noise import _checked

__all__ = [
    "predictable_qv",
    "optional_qv",
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


def _partition(chunk: ItoChunk, mask, per_path: bool = True) -> np.ndarray:
    """``mask`` checked as a partition: bools over the grid points, true at
    both ends, shared by every path or, if ``per_path``, one row per path."""
    n = _checked(chunk, ItoChunk).grid.n_steps
    mask, shapes = np.asarray(mask), [(n + 1,), (len(chunk), n + 1)][: 1 + per_path]
    if mask.dtype != bool or mask.shape not in shapes or not (mask[..., 0] & mask[..., -1]).all():
        raise ValueError(
            f"a partition is a bool mask of shape {' or '.join(map(str, shapes))}, true at "
            f"both ends; got {mask.dtype} {mask.shape}"
        )
    return mask


def _mesh(mask: np.ndarray, dt: float) -> np.ndarray:
    """The longest block of each row of a partition mask, times dt."""
    k = np.arange(mask.shape[-1])
    last = np.maximum.accumulate(np.where(mask, k, 0), axis=-1)  # latest point at or before k
    return (k[1:] - last[..., :-1]).max(axis=-1) * dt


def make_dyadic_partition(n_steps: int, level: int) -> np.ndarray:
    """2^level near-equal blocks of the grid, as a read-only (n_steps + 1,)
    mask that every path shares; level must not out-refine the grid."""
    blocks = 2**level
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if blocks > n_steps:
        raise ValueError(f"2^{level} blocks cannot refine a {n_steps}-step grid")
    mask = np.zeros(n_steps + 1, bool)
    mask[[int(round(i * n_steps / blocks)) for i in range(blocks + 1)]] = True
    mask.setflags(write=False)
    return mask


def make_adaptive_partition(chunk: ItoChunk, delta) -> np.ndarray:
    """Refinement points chosen by each path itself, at resolution ``delta``:
    a read-only mask of shape np.shape(delta) + (P, n_steps + 1), one row
    per path for each resolution.

    Starting from the last refinement point, the next one is placed at the
    first grid time where any of these crosses delta: elapsed time, the
    path's displacement (pre-jump values included), the continuous-flavor
    bracket mass, or the accumulated drift. Each trigger is computed from
    the step just completed, so refinement points are stopping times. One
    loop over steps decides every path at every resolution at once, and
    each resolution's rows are those of a call with it alone.
    """
    res = np.asarray(delta, float).reshape(-1, 1)  # (L, 1), one row per resolution
    if not ((0.0 < res) & (res < math.inf)).all():
        raise ValueError(f"delta must be positive and finite, got {delta}")
    n = _checked(chunk, ItoChunk).grid.n_steps
    drift_norms = np.sqrt(np.vecdot(chunk.drift, chunk.drift))
    # what each path accumulates since its last point, with the limit of each:
    # continuous mass, drift, and steps (capped at the grid: a coarse delta
    # passes the largest float in steps)
    grows = np.stack(np.broadcast_arrays(_bracket_steps(chunk, "continuous"), drift_norms, 1.0), -1)
    with np.errstate(over="ignore"):
        limits = np.stack([res, res, np.clip(np.floor(res / chunk.grid.dt), 1, n)], -1)  # (L, 1, 3)
    # each jump's pre- and post-jump values, (R, 2, d), and its path, in step order
    order = np.argsort(chunk.samples.jumps["step"], kind="stable")
    bounds = np.searchsorted(chunk.samples.jumps["step"][order], np.arange(n + 1)).tolist()
    around = np.stack([chunk.pre, chunk.pre + chunk.delta], axis=1)[order]
    pid = chunk.samples.pid[order]
    values, sums = chunk.values, np.zeros((len(res), len(chunk), 3))
    mask = np.zeros((len(res),) + values.shape[:2], bool)
    mask[..., 0] = mask[..., n] = True
    anchor = np.broadcast_to(values[:, 0], (len(res),) + values[:, 0].shape)
    for k in range(n):
        sums += grows[:, k]
        x = values[:, k + 1] - anchor
        moved = np.sqrt(np.vecdot(x, x))
        lo, hi = bounds[k], bounds[k + 1]
        if hi > lo:
            x = around[lo:hi] - anchor[:, pid[lo:hi], None]
            np.maximum.at(moved, (slice(None), pid[lo:hi]), np.sqrt(np.vecdot(x, x)).max(axis=-1))
        hit = (moved >= res) | (sums >= limits).any(axis=-1)
        mask[..., k + 1] |= hit
        anchor = np.where(hit[..., None], values[:, k + 1], anchor)
        sums[hit] = 0.0
    mask.setflags(write=False)
    return mask.reshape(np.shape(delta) + values.shape[:2])


def _squares(pts: np.ndarray) -> np.ndarray:
    """Each path's squared increments over its points (P, m, d), summed flat."""
    diffs = pts[:, 1:] - pts[:, :-1]
    return (diffs * diffs).reshape(len(pts), -1).sum(axis=1)


def riemann_qv(chunk: ItoChunk, partition: np.ndarray) -> np.ndarray:
    """Sum of squared path increments over the partition blocks, (P,).

    A shared (n_steps + 1,) mask prices every path in one array pass; a
    (P, n_steps + 1) mask prices each path over its own row.
    """
    mask = _partition(chunk, partition)
    if mask.ndim == 1:
        return _squares(chunk.values[:, mask])
    return np.concatenate([_squares(chunk.values[p : p + 1, row]) for p, row in enumerate(mask)])


def riemann_weighted_bilinear(
    chunk: ItoChunk, partition: np.ndarray, form: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> np.ndarray:
    """Riemann sum sum_i <dX_i, F(s_i, X_{s_i}) dX_i> of each path, (P,),
    over a shared (n_steps + 1,) partition mask, with F frozen at each
    block's left endpoint. F broadcasts as a SmoothFunction does, t (...)
    and x (..., d) giving (..., d, d), and is called once for the chunk; a
    constant F such as np.eye(d) passes."""
    idx = np.flatnonzero(_partition(chunk, partition, per_path=False))
    pts = chunk.values[:, idx]
    x, d = pts[:, :-1], pts[:, 1:] - pts[:, :-1]
    forms = form(np.broadcast_to(chunk.grid.times[idx[:-1]], x.shape[:-1]), x)
    return np.einsum("pia,piab,pib->p", d, np.broadcast_to(forms, x.shape + x.shape[-1:]), d)


def weighted_qv_target(
    chunk: ItoChunk, form: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> np.ndarray:
    """The limit the weighted Riemann sums approach on each path, (P,).

    Integrates F against the optional bracket: sum_k <F(t_k, X_{t_k}), S_k>,
    where the operator step S_k carries the continuous control-measure
    increment and the outer product of every jump delta in step k, so each
    jump sees F frozen at the left endpoint of its step. The steps are
    priced once for the chunk, and F, which broadcasts as in
    ``riemann_weighted_bilinear``, is called once.
    """
    x = _checked(chunk, ItoChunk).values[:, :-1]
    steps = _add_jumps(_bracket_steps(chunk, "continuous", operator=True), chunk, chunk)
    forms = form(np.broadcast_to(chunk.grid.times[:-1], x.shape[:-1]), x)
    return np.einsum("pkab,pkab->p", np.broadcast_to(forms, steps.shape), steps)


_REFINEMENTS = ("dyadic", "adaptive")  # the partition kinds of a refinement study


def qv_refinement_study(chunk: ItoChunk, masks: np.ndarray) -> np.ndarray:
    """Riemann-vs-optional-bracket error of each path over refining partitions.

    ``masks`` stacks one partition mask per level, (L, n_steps + 1) shared
    or (L, P, n_steps + 1) one row per path. For each level, the relative
    error |riemann - optional| / |optional| (absolute when the bracket is 0)
    and the mesh. Returns shape (P, 2, L), the errors, then the meshes; the
    optional-bracket targets are priced in one call and each level's Riemann
    sums in another.
    """
    targets = optional_qv(_checked(chunk, ItoChunk))[:, -1]
    scale = np.where(targets != 0.0, np.abs(targets), 1.0)
    masks = np.asarray(masks)
    errors = [np.abs(riemann_qv(chunk, mask) - targets) / scale for mask in masks]
    meshes = np.broadcast_to(_mesh(masks, chunk.grid.dt).T, (len(chunk), len(masks)))
    return np.stack([np.transpose(errors), meshes], axis=1)
