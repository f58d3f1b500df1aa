"""Discrete model of an orthogonal martingale-valued noise field.

The driving noise lives on a time grid [0, T] and a finite partition of the
mark space U = [0, 1). Each spatial cell carries two independent mean-zero
components:

* a Gaussian component whose increments over one step in cell j are
  N(0, dt * intensity_j * cov_j), and
* a compensated jump component: Poisson(rate_j * dt) many events per step,
  each with an independent mean-zero amplitude whose covariance is the cell's
  amplitude covariance.

Cells are sampled from separate counter-based random streams, so increments
over disjoint cells are independent and a path's content does not depend on
how many other paths an ensemble draws. A path is a chunk of one: every
draw is a ``SampleChunk`` of P paths with a leading path axis, and
``sample_path`` draws a chunk of one path.

All quadratic-variation bookkeeping is done against the normalized form of a
specification (covariance operators of unit operator norm, magnitudes folded
into intensities) produced by :func:`normalize_spec`. A normalized spec
carries one table per flavor ("total", "continuous", "discontinuous"): the
per-cell mass rate, the covariance field and its square root, all read-only
arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from operator import index
from typing import Optional, Sequence, Union

import numpy as np

from .hilbert import _check_dim, op_norm, psd_sqrt

__all__ = [
    "MAX_STEPS",
    "TimeGrid",
    "SpatialPartition",
    "TwoPointAmplitude",
    "GaussianAmplitude",
    "CellNoise",
    "NoiseSpec",
    "SampleChunk",
    "QV_FLAVORS",
    "normalize_spec",
    "substream",
    "sample_path",
    "sample_chunk",
    "coarsen",
    "evaluate",
    "spec_to_json",
    "spec_from_json",
    "load_noise_spec",
]

QV_FLAVORS = ("total", "continuous", "discontinuous")

# Operators whose norm is within this tolerance of 1 are treated as already
# normalized, which makes normalize_spec an exact fixed point on its range.
_NORM_ATOL = 1e-12

# Every positive rate, given or derived, must be at least this (see CellNoise).
_TINY = float(np.finfo(np.float64).tiny)

# Step cap of a time grid, as hilbert.MAX_DIM caps dimensions: a path's
# arrays grow with the step count, and numpy refuses to allocate the largest
# counts a config can name.
MAX_STEPS = 2**16


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_n = horizon with step horizon/n, at
    most MAX_STEPS steps."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if not 1 <= self.n_steps <= MAX_STEPS:
            raise ValueError(f"n_steps must lie in 1..{MAX_STEPS}, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @cached_property
    def times(self) -> np.ndarray:
        t = np.linspace(0.0, self.horizon, self.n_steps + 1)
        t.setflags(write=False)
        return t

    def index_of(self, t: float) -> int:
        """Grid index of t; raises if t is not a grid time."""
        k = int(round(t / self.dt))
        if k < 0 or k > self.n_steps or abs(t - k * self.dt) > 1e-9 * max(1.0, self.horizon):
            raise ValueError(f"t={t!r} is not a point of the {self.n_steps}-step grid")
        return k


@dataclass(frozen=True)
class SpatialPartition:
    """Disjoint half-open subintervals covering the mark space [0, 1)."""

    breaks: tuple

    def __init__(self, breaks: Sequence[float]):
        b = tuple(float(x) for x in breaks)
        if not all(np.isfinite(b)):
            raise ValueError(f"breaks must be finite, got {b}")
        if len(b) < 2:
            raise ValueError("partition needs at least one cell")
        if abs(b[0]) > 1e-12 or abs(b[-1] - 1.0) > 1e-12:
            raise ValueError(f"cells must cover [0, 1): breaks span [{b[0]}, {b[-1]}]")
        if any(hi <= lo for lo, hi in zip(b, b[1:])):
            raise ValueError("breaks must be strictly increasing")
        object.__setattr__(self, "breaks", b)

    @classmethod
    def uniform(cls, n_cells: int) -> "SpatialPartition":
        if n_cells < 1:
            raise ValueError(f"n_cells must be >= 1, got {n_cells}")
        return cls(np.linspace(0.0, 1.0, n_cells + 1))

    @property
    def n_cells(self) -> int:
        return len(self.breaks) - 1

    def validate_cells(self, cells: Sequence[int]) -> tuple:
        idx = tuple(int(j) for j in cells)
        if len(set(idx)) != len(idx):
            raise ValueError(f"duplicate cell indices in {cells}")
        for j in idx:
            if j < 0 or j >= self.n_cells:
                raise ValueError(f"cell index {j} outside 0..{self.n_cells - 1}")
        return idx


class TwoPointAmplitude:
    """Symmetric two-point jump amplitude: +/- vector with probability 1/2.

    Stored as a unit direction and a scalar scale, so the amplitude
    covariance splits as scale^2 * (unit rank-one operator).
    """

    kind = "two_point"

    def __init__(self, vector: Sequence[float]):
        v = np.asarray(vector, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError("two-point amplitude needs a vector")
        r = float(np.linalg.norm(v))
        if not (r > 0.0 and np.isfinite(r)):
            raise ValueError("two-point amplitude vector must be nonzero and finite")
        self.direction = v / r
        self.direction.setflags(write=False)
        self.scale = r

    @property
    def dim(self) -> int:
        return self.direction.shape[0]

    @cached_property
    def normalized_cov(self) -> np.ndarray:
        c = np.outer(self.direction, self.direction)
        c.setflags(write=False)
        return c

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        signs = rng.integers(0, 2, size=n) * 2.0 - 1.0
        return (self.scale * signs)[:, None] * self.direction[None, :]

    def params(self) -> dict:
        return {"kind": self.kind, "vector": (self.scale * self.direction).tolist()}


class GaussianAmplitude:
    """Centered Gaussian jump amplitude with the given covariance."""

    kind = "gaussian"

    def __init__(self, cov: Sequence[Sequence[float]]):
        c = np.asarray(cov, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError(f"covariance must be square, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("gaussian amplitude covariance contains non-finite entries")
        s = op_norm(c)
        if s <= 0.0:
            raise ValueError("gaussian amplitude covariance must be nonzero")
        self.normalized_cov = c / s if abs(s - 1.0) > _NORM_ATOL else np.array(c)
        self.normalized_cov.setflags(write=False)
        self.scale = float(np.sqrt(s))
        self._factor = psd_sqrt(self.normalized_cov)

    @property
    def dim(self) -> int:
        return self.normalized_cov.shape[0]

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        z = rng.standard_normal((n, self.dim))
        return self.scale * (z @ self._factor.T)

    def params(self) -> dict:
        return {"kind": self.kind, "cov": (self.scale**2 * self.normalized_cov).tolist()}


AmplitudeModel = Union[TwoPointAmplitude, GaussianAmplitude]

# amplitude kind -> (model, the params key its one argument is read from)
_AMPLITUDE_KINDS = {
    "two_point": (TwoPointAmplitude, "vector"),
    "gaussian": (GaussianAmplitude, "cov"),
}


def amplitude_from_params(params: dict) -> AmplitudeModel:
    kind = params.get("kind")
    if not isinstance(kind, str) or kind not in _AMPLITUDE_KINDS:
        raise ValueError(f"unknown amplitude kind {kind!r}; expected one of {sorted(_AMPLITUDE_KINDS)}")
    model, key = _AMPLITUDE_KINDS[kind]
    return model(params[key])


@dataclass(frozen=True, eq=False)
class CellNoise:
    """Noise content of one spatial cell.

    diffusion_cov is the Gaussian covariance shape (None for no diffusion),
    diffusion_intensity its rate per unit time. jump_rate is the Poisson
    event rate per unit time; jump_amplitude the amplitude model.
    diffusion_norm, the operator norm of diffusion_cov (0 without one), is
    computed once here and reused by normalization.
    """

    diffusion_cov: Optional[np.ndarray] = None
    diffusion_intensity: float = 0.0
    jump_rate: float = 0.0
    jump_amplitude: Optional[AmplitudeModel] = None
    diffusion_norm: float = field(init=False, repr=False, default=0.0)

    def __post_init__(self):
        if self.diffusion_cov is not None:
            c = np.array(self.diffusion_cov, dtype=np.float64)
            if c.ndim != 2 or c.shape[0] != c.shape[1]:
                raise ValueError(f"diffusion covariance must be square, got {c.shape}")
            if not np.all(np.isfinite(c)):
                raise ValueError("diffusion covariance contains non-finite entries")
            c.setflags(write=False)
            object.__setattr__(self, "diffusion_cov", c)
            object.__setattr__(self, "diffusion_norm", op_norm(c))
        if not (np.isfinite(self.diffusion_intensity) and np.isfinite(self.jump_rate)):
            raise ValueError("intensities must be finite")
        if self.diffusion_intensity < 0.0 or self.jump_rate < 0.0:
            raise ValueError("intensities must be nonnegative")
        if self.jump_rate > 0.0 and self.jump_amplitude is None:
            raise ValueError("jump_rate > 0 needs an amplitude model")
        # A positive rate below the smallest normal float loses its precision
        # in the derived tables or becomes 0 there, which leaves a dead field.
        # The derived rates are the products normalize_spec and the tables form.
        given = (("diffusion intensity", self.diffusion_intensity), ("jump rate", self.jump_rate))
        rates = [(what, rate) for what, rate in given if rate > 0.0]
        if self.has_diffusion:
            normalized = self.diffusion_intensity * self.diffusion_norm
            rates.append(("normalized diffusion intensity", normalized))
        if self.has_jumps:
            rates.append(("jump QV rate", self.jump_rate * self.jump_amplitude.scale**2))
        for what, rate in rates:
            if rate < _TINY:
                raise ValueError(f"{what} {rate!r} underflows below the smallest normal float")

    @property
    def has_diffusion(self) -> bool:
        return self.diffusion_intensity > 0.0 and self.diffusion_norm > 0.0

    @property
    def has_jumps(self) -> bool:
        return self.jump_rate > 0.0 and self.jump_amplitude is not None


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Full noise model: mark-space partition plus per-cell content."""

    dim: int
    partition: SpatialPartition
    cells: tuple

    def __init__(self, dim: int, partition: SpatialPartition, cells: Sequence[CellNoise]):
        _check_dim(dim, "noise")
        cells = tuple(cells)
        if len(cells) != partition.n_cells:
            raise ValueError(
                f"{len(cells)} cell specs for a partition with {partition.n_cells} cells"
            )
        for j, cell in enumerate(cells):
            if cell.diffusion_cov is not None and cell.diffusion_cov.shape != (dim, dim):
                raise ValueError(f"cell {j}: diffusion covariance is not {dim}x{dim}")
            if cell.jump_amplitude is not None and cell.jump_amplitude.dim != dim:
                raise ValueError(f"cell {j}: amplitude dim {cell.jump_amplitude.dim} != {dim}")
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "cells", cells)

    @property
    def n_cells(self) -> int:
        return self.partition.n_cells

    @cached_property
    def is_normalized(self) -> bool:
        """True when every cell is in canonical form: covariance operators of
        unit norm and no dead fields (a shape with zero intensity, an
        amplitude with zero rate)."""
        for cell in self.cells:
            if cell.has_diffusion:
                if abs(cell.diffusion_norm - 1.0) > _NORM_ATOL:
                    return False
            elif cell.diffusion_cov is not None or cell.diffusion_intensity != 0.0:
                return False
            if not cell.has_jumps and (cell.jump_rate != 0.0 or cell.jump_amplitude is not None):
                return False
        return True

    @cached_property
    def tables(self) -> "_NoiseTables":
        if not self.is_normalized:
            raise ValueError("derived tables require a normalized spec; call normalize_spec")
        return _NoiseTables(self)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _checked(value, kind: type):
    """value, when it is a ``kind``; anything else raises TypeError."""
    if not isinstance(value, kind):
        raise TypeError(f"expected a {kind.__name__}, got {type(value).__name__}")
    return value


@dataclass(frozen=True, eq=False)
class _FlavorTable:
    """One quadratic-variation flavor of a normalized spec, per cell.

    rate[j] is the flavor's mass per unit time on cell j; field[j] its
    normalized covariance operator and root[j] that operator's square root,
    both None where the cell carries no mass of the flavor.
    """

    rate: np.ndarray
    field: tuple
    root: tuple

    def __init__(self, rate: np.ndarray, covs: Sequence[Optional[np.ndarray]]):
        object.__setattr__(self, "rate", _frozen(rate))
        object.__setattr__(self, "field", tuple(covs))
        object.__setattr__(self, "root", tuple(None if q is None else psd_sqrt(q) for q in covs))


class _NoiseTables:
    """Per-cell derived quantities of a normalized spec, computed once and
    shared: one _FlavorTable per flavor, the Poisson event rates and the
    Gaussian sampling factors. Every array is read-only."""

    def __init__(self, spec: NoiseSpec):
        m = spec.n_cells
        cont_rate, jump_qv_rate, jump_rate = np.zeros(m), np.zeros(m), np.zeros(m)
        q_cont, q_jump, q_total = [None] * m, [None] * m, [None] * m
        for j, cell in enumerate(spec.cells):
            if cell.has_diffusion:
                cont_rate[j] = cell.diffusion_intensity
                q_cont[j] = cell.diffusion_cov
            if cell.has_jumps:
                amp = cell.jump_amplitude
                jump_rate[j] = cell.jump_rate
                jump_qv_rate[j] = cell.jump_rate * amp.scale**2
                q_jump[j] = amp.normalized_cov
        total_rate = cont_rate + jump_qv_rate
        for j in range(m):
            if total_rate[j] > 0.0:
                q = np.zeros((spec.dim, spec.dim))
                if cont_rate[j] > 0.0:
                    q += cont_rate[j] * q_cont[j]
                if jump_qv_rate[j] > 0.0:
                    q += jump_qv_rate[j] * q_jump[j]
                q /= total_rate[j]
                q_total[j] = _frozen(q)
        self.flavors = {
            "total": _FlavorTable(total_rate, q_total),
            "continuous": _FlavorTable(cont_rate, q_cont),
            "discontinuous": _FlavorTable(jump_qv_rate, q_jump),
        }
        self.jump_rate = _frozen(jump_rate)
        self.gauss_factor = tuple(
            None if root is None else _frozen(np.sqrt(cont_rate[j]) * root)
            for j, root in enumerate(self.flavors["continuous"].root)
        )

    def flavor(self, name: str) -> _FlavorTable:
        try:
            return self.flavors[name]
        except KeyError:
            raise ValueError(f"unknown flavor {name!r}; expected one of {QV_FLAVORS}") from None


def normalize_spec(spec: NoiseSpec) -> NoiseSpec:
    """Rescale every cell's operators to unit operator norm.

    The removed magnitude is folded into the cell's intensity, so increment
    distributions are unchanged. Jump amplitude models already store a
    norm-one covariance plus a scalar scale, hence only the diffusion part
    can need rescaling; the map is an exact fixed point on normalized specs.

    Raises:
        ValueError: if no cell carries any noise at all.
    """
    if not any(cell.has_diffusion or cell.has_jumps for cell in spec.cells):
        raise ValueError("noise spec carries no mass: every cell is inert")
    if spec.is_normalized:
        return spec
    new_cells = []
    for cell in spec.cells:
        diffusion_cov = None
        intensity = 0.0
        if cell.has_diffusion:
            s = cell.diffusion_norm
            if abs(s - 1.0) <= _NORM_ATOL:
                diffusion_cov, intensity = cell.diffusion_cov, cell.diffusion_intensity
            else:
                diffusion_cov = cell.diffusion_cov / s
                intensity = cell.diffusion_intensity * s
        jump_rate, amplitude = 0.0, None
        if cell.has_jumps:
            jump_rate, amplitude = cell.jump_rate, cell.jump_amplitude
        new_cells.append(
            CellNoise(
                diffusion_cov=diffusion_cov,
                diffusion_intensity=intensity,
                jump_rate=jump_rate,
                jump_amplitude=amplitude,
            )
        )
    return NoiseSpec(spec.dim, spec.partition, new_cells)


def substream(master_seed: int, stream: int, slot: int = 0) -> np.random.Generator:
    """Independent generator for (master_seed, stream, slot).

    Philox is counter-based: distinct key/counter-block pairs yield
    independent streams no matter how many are instantiated, so path
    ``stream`` of an ensemble draws the same numbers whether the ensemble has
    one path or a million.
    """
    key = np.array([master_seed % 2**64, stream % 2**64], dtype=np.uint64)
    counter = np.array([0, 0, slot % 2**64, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


@lru_cache(maxsize=None)
def _jump_dtype(dim: int) -> np.dtype:
    return np.dtype([("step", "i8"), ("cell", "i8"), ("time", "f8"), ("amp", "f8", (dim,))])


@dataclass(frozen=True, eq=False)
class SampleChunk:
    """P paths of one model and grid, path p being path_index[p] of the
    ensemble of ``seed``; a single path is a chunk of one.

    gauss[p, k, j] is the Gaussian increment of cell j over step k of path
    p. jumps is a read-only structured array, one row per jump event, each
    path's rows sorted by (step, time) and the paths in chunk order, with
    fields step and cell (int64), time (float64, in (t_step, t_step+1]) and
    amp (float64, (dim,)); pid[i] is the path of row i. jump_sums[p, k, j],
    the per-step per-cell amplitude totals, is built from the rows on first
    use. Every amplitude family is centered, so the compensator of the
    jumps is zero and the raw jump sums are already martingale increments.
    ``chunk[p]`` is path p as a chunk of one whose gauss and jumps are
    read-only views of the chunk's.
    """

    spec: NoiseSpec
    grid: TimeGrid
    seed: int
    path_index: tuple
    gauss: np.ndarray
    jumps: np.ndarray
    pid: np.ndarray

    def __len__(self) -> int:
        return len(self.path_index)

    def __getitem__(self, p: int) -> "SampleChunk":
        p = range(len(self))[index(p)]
        lo, hi = np.searchsorted(self.pid, (p, p + 1))
        pid = _frozen(np.zeros(hi - lo, np.int64))
        return replace(
            self, path_index=(self.path_index[p],), gauss=self.gauss[p : p + 1],
            jumps=self.jumps[lo:hi], pid=pid,
        )

    @cached_property
    def jump_sums(self) -> np.ndarray:
        sums, rows = np.zeros(self.gauss.shape), self.jumps
        # rows in (step, time) order, so each block's amplitudes add up in time order
        np.add.at(sums, (self.pid, rows["step"], rows["cell"]), rows["amp"])
        return _frozen(sums)


# Purpose slots inside one (seed, path, cell) stream family.
_SLOT_GAUSS, _SLOT_COUNTS, _SLOT_TIMES, _SLOT_AMPS = range(4)


def sample_path(spec: NoiseSpec, grid: TimeGrid, seed: int, path_index: int = 0) -> SampleChunk:
    """Draw one path of the noise field, deterministically in (seed,
    path_index), as a chunk of one."""
    spec = normalize_spec(spec)
    tab = spec.tables
    n, m, d = grid.n_steps, spec.n_cells, spec.dim
    dt = grid.dt
    sqrt_dt = np.sqrt(dt)
    gauss = np.zeros((1, n, m, d))
    parts = []  # per jumping cell: its step, cell, time and amplitude columns
    for j, cell in enumerate(spec.cells):
        if cell.has_diffusion:
            rg = substream(seed, path_index, 4 * j + _SLOT_GAUSS)
            z = rg.standard_normal((n, d))
            gauss[0, :, j, :] = sqrt_dt * (z @ tab.gauss_factor[j].T)
        if cell.has_jumps:
            rg_counts = substream(seed, path_index, 4 * j + _SLOT_COUNTS)
            counts = rg_counts.poisson(cell.jump_rate * dt, size=n)
            total = int(counts.sum())
            if total > 0:
                rg_times = substream(seed, path_index, 4 * j + _SLOT_TIMES)
                rg_amps = substream(seed, path_index, 4 * j + _SLOT_AMPS)
                step = np.repeat(np.arange(n), counts)
                # times in (t_k, t_{k+1}]: 1 - U with U uniform on [0, 1)
                time = grid.times[step] + dt * (1.0 - rg_times.random(total))
                amp = cell.jump_amplitude.sample(rg_amps, total)
                parts.append((step, np.full(total, j), time, amp))
    jumps = np.zeros(0, _jump_dtype(d))
    if parts:
        columns = [np.concatenate(column) for column in zip(*parts)]
        order = np.lexsort((columns[2], columns[0]))
        jumps = np.empty(len(order), jumps.dtype)
        for name, column in zip(jumps.dtype.names, columns):
            jumps[name] = column[order]
    pid = np.zeros(len(jumps), np.int64)
    gauss, jumps, pid = map(_frozen, (gauss, jumps, pid))
    return SampleChunk(spec, grid, int(seed), (int(path_index),), gauss, jumps, pid)


def _concat_records(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """A new writable array of the rows of record arrays of one structured
    dtype, byte for byte what np.concatenate returns. It joins their raw
    bytes, which skips numpy's per-field dtype promotion (most of
    np.concatenate's cost on the jump rows of a chunk) and the per-array
    view checks a concatenation of void views still pays."""
    dtype = arrays[0].dtype
    if any(a.dtype != dtype for a in arrays):
        raise ValueError("record arrays of one concatenation must share one dtype")
    return np.frombuffer(bytearray(b"".join([a.tobytes() for a in arrays])), dtype)


def _join(paths: Sequence[SampleChunk]) -> SampleChunk:
    """Chunks of one path, of one model, grid and seed, in the given order,
    as one chunk."""
    if not paths:
        raise ValueError("no path to join")
    pid = _frozen(np.repeat(np.arange(len(paths)), [len(s.jumps) for s in paths]))
    gauss = _frozen(np.concatenate([s.gauss for s in paths]))
    jumps = _frozen(_concat_records([s.jumps for s in paths]))
    indices = tuple(s.path_index[0] for s in paths)
    return SampleChunk(paths[0].spec, paths[0].grid, paths[0].seed, indices, gauss, jumps, pid)


def sample_chunk(spec: NoiseSpec, grid: TimeGrid, seed: int, path_indices) -> SampleChunk:
    """The ensemble's paths path_indices, drawn as one chunk: path p is, bit
    for bit, the chunk of one sample_path(spec, grid, seed, path_indices[p])."""
    return _join([sample_path(spec, grid, seed, i) for i in path_indices])


def coarsen(chunk: SampleChunk) -> SampleChunk:
    """The same noise on the grid with half as many steps.

    The chunk's grid must have an even step count. Coarse Gaussian increment
    k of a cell is fine[2k] + fine[2k+1]. Every jump row keeps its path,
    cell, time and amplitude and moves to step step // 2, which keeps each
    path's rows sorted by (step, time), as jump_sums needs. A coarse path
    depends on its own fine path alone, not on its chunk, and on a grid of
    2^L steps repeated halving gives every coarser level of one draw: the
    multilevel coupling of Giles (Oper. Res. 56(3), 2008).
    """
    _checked(chunk, SampleChunk)
    if chunk.grid.n_steps % 2:
        raise ValueError(f"cannot halve a grid of {chunk.grid.n_steps} steps")
    grid = TimeGrid(chunk.grid.horizon, chunk.grid.n_steps // 2)
    fine = chunk.gauss.reshape(len(chunk), grid.n_steps, 2, *chunk.gauss.shape[2:])
    jumps = chunk.jumps.copy()
    jumps["step"] //= 2
    gauss = _frozen(fine[:, :, 0] + fine[:, :, 1])
    return replace(chunk, grid=grid, gauss=gauss, jumps=_frozen(jumps))


def evaluate(
    chunk: SampleChunk, s: float, t: float, cells: Sequence[int], h: Sequence[float]
) -> np.ndarray:
    """Pairing <M((s, t], A), h> of each path's field with a direction h, (P,).

    A is the union of the given partition cells; s and t must be grid times
    with s <= t. The value is additive in the cell set and linear in h.
    """
    _checked(chunk, SampleChunk)
    k0 = chunk.grid.index_of(s)
    k1 = chunk.grid.index_of(t)
    if k0 > k1:
        raise ValueError(f"window is reversed: s={s} > t={t}")
    idx = chunk.spec.partition.validate_cells(cells)
    hv = np.asarray(h, dtype=np.float64)
    if hv.shape != (chunk.spec.dim,):
        raise ValueError(f"direction must have dim {chunk.spec.dim}, got shape {hv.shape}")
    if k0 == k1 or not idx:
        return np.zeros(len(chunk))
    block = chunk.gauss[:, k0:k1, idx, :] + chunk.jump_sums[:, k0:k1, idx, :]
    return np.vecdot(block.sum(axis=(1, 2)), hv)


# ---------------------------------------------------------------------------
# Serialization. The JSON layout is documented in docs/noise-spec.md.
# ---------------------------------------------------------------------------


def spec_to_json(spec: NoiseSpec) -> dict:
    cells = []
    for cell in spec.cells:
        doc = {}
        if cell.diffusion_cov is not None and cell.diffusion_intensity > 0.0:
            doc["diffusion"] = {
                "cov": cell.diffusion_cov.tolist(),
                "intensity": cell.diffusion_intensity,
            }
        else:
            doc["diffusion"] = None
        if cell.has_jumps:
            doc["jump"] = {
                "rate": cell.jump_rate,
                "amplitude": cell.jump_amplitude.params(),
            }
        else:
            doc["jump"] = None
        cells.append(doc)
    return {"dim": spec.dim, "partition": list(spec.partition.breaks), "cells": cells}


def spec_from_json(doc: dict) -> NoiseSpec:
    def field(key, convert):
        try:
            return convert(doc[key])
        except KeyError as exc:
            raise ValueError(f"noise spec document is missing field {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"noise spec field {key!r}: {exc}") from exc

    dim = field("dim", int)
    partition = field("partition", SpatialPartition)
    cell_docs = field("cells", list)
    cells = []
    for j, cd in enumerate(cell_docs):
        try:
            if not isinstance(cd, dict):
                raise TypeError(f"expected an object, got {cd!r}")
            diffusion = cd.get("diffusion")
            jump = cd.get("jump")
            kwargs = {}
            if diffusion is not None:
                kwargs["diffusion_cov"] = np.asarray(diffusion["cov"], dtype=np.float64)
                kwargs["diffusion_intensity"] = float(diffusion["intensity"])
            if jump is not None:
                kwargs["jump_rate"] = float(jump["rate"])
                kwargs["jump_amplitude"] = amplitude_from_params(jump["amplitude"])
            cells.append(CellNoise(**kwargs))
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ValueError(f"cell {j}: {exc}") from exc
    return NoiseSpec(dim, partition, cells)


def load_noise_spec(path: str) -> NoiseSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_json(json.load(fh))
