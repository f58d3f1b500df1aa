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
how many other paths an ensemble draws. Every stream is drawn from one
Philox generator per process, which ``substream`` restarts at the stream's
key and counter, so a stream is drawn to its end before the next one is asked
for. A path is a chunk of one: every draw is a ``SampleChunk`` of P paths
with a leading path axis. One sampler, ``sample_path``, draws them: given an
index it draws a chunk of one, given a sequence of indices one chunk, each
path from its own streams and everything else once per chunk.
A two-point jump's sign is one raw bit of its cell's amplitude stream: the
top bit of a 32-bit half of a 64-bit word, low half first, 1 for +vector.

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


# shifts that bring the top bit of a 64-bit word's low, then high, 32-bit half
# to bit 0, whatever the byte order
_SIGN_SHIFTS = np.array([31, 63], np.uint64)


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
        # the amplitude of sign bit 0 (-vector) and of sign bit 1 (+vector)
        self._rows = _frozen(np.stack([(r * -1.0) * self.direction, (r * 1.0) * self.direction]))

    @property
    def dim(self) -> int:
        return self.direction.shape[0]

    @cached_property
    def normalized_cov(self) -> np.ndarray:
        c = np.outer(self.direction, self.direction)
        c.setflags(write=False)
        return c

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n amplitudes from rng's raw stream: sign i is the top bit of the
        i-th 32-bit half of its 64-bit words, low half first, and 1 picks
        +vector. numpy 2's ``rng.integers(0, 2, size=n)`` returns the same
        bits."""
        raw = rng.bit_generator.random_raw((n + 1) // 2)
        bits = (raw[:, None] >> _SIGN_SHIFTS & 1).reshape(-1)[:n]
        return self._rows.take(bits, axis=0)

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


# The one generator that every substream call restarts, built on the first
# call: building it at import would charge numpy.random's import to setup.
_generator: Optional[np.random.Generator] = None

# The Philox state every substream call sets: only the key and the counter's
# slot word change from stream to stream, so one dict is overwritten in place.
_STATE = {
    "bit_generator": "Philox",
    "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
    "buffer": [0, 0, 0, 0],
    "buffer_pos": 4,
    "has_uint32": 0,
    "uinteger": 0,
}
_KEY, _COUNTER = _STATE["state"]["key"], _STATE["state"]["counter"]


def substream(master_seed: int, stream: int, slot: int = 0) -> np.random.Generator:
    """Generator positioned at the start of stream (master_seed, stream, slot).

    Philox is counter-based: distinct key/counter-block pairs yield
    independent streams no matter how many are drawn, so path ``stream`` of
    an ensemble draws the same numbers whether the ensemble has one path or
    a million. The next draw is bit for bit what a new
    ``Generator(Philox(key=[master_seed, stream], counter=[0, 0, slot, 0]))``
    would give.

    Every call returns the same process-wide generator, restarted: finish
    drawing from one stream before asking for another, since the next call
    moves the generator that an earlier call returned. It is not thread-safe.
    """
    global _generator
    if _generator is None:
        _generator = np.random.Generator(np.random.Philox(0))
    _KEY[0], _KEY[1], _COUNTER[2] = master_seed % 2**64, stream % 2**64, slot % 2**64
    _generator.bit_generator.state = _STATE
    return _generator


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


def sample_path(spec: NoiseSpec, grid: TimeGrid, seed: int, path_index=0) -> SampleChunk:
    """Draw the ensemble's path path_index, an int, as a chunk of one, or its
    paths path_index[p], a sequence, as one chunk, deterministically in
    (seed, index): path p is, bit for bit, the chunk of one its index draws
    alone, whatever the chunk.

    Each stream of each path is drawn by its own numpy call, as when the
    path is drawn alone; the rest runs once per chunk: one stacked product
    per diffusing cell, the jump steps and times of every cell and path at
    once, one sort of the rows by (path, step, time) and one record fill.
    """
    try:
        indices = (index(path_index),)
    except TypeError:
        indices = tuple(index(i) for i in path_index)
    if not indices:
        raise ValueError("no path to draw: path_index is empty")
    spec = normalize_spec(spec)
    tab = spec.tables
    P, n, m, d = len(indices), grid.n_steps, spec.n_cells, spec.dim
    dt = grid.dt
    sqrt_dt = np.sqrt(dt)
    gauss, z = np.zeros((P, n, m, d)), np.empty((P, n, d))
    jumping = [j for j, cell in enumerate(spec.cells) if cell.has_jumps]
    counts = np.empty((len(jumping), P, n), np.int64)
    for j, cell in enumerate(spec.cells):
        if cell.has_diffusion:
            for p, i in enumerate(indices):
                substream(seed, i, 4 * j + _SLOT_GAUSS).standard_normal(out=z[p])
            # a stacked product: bitwise each path's own (n, d) @ (d, d)
            gauss[:, :, j, :] = sqrt_dt * (z @ tab.gauss_factor[j].T)
    for c, j in enumerate(jumping):
        lam = spec.cells[j].jump_rate * dt
        for p, i in enumerate(indices):
            counts[c, p] = substream(seed, i, 4 * j + _SLOT_COUNTS).poisson(lam, size=n)
    # rows (jumping cell, path) block by block, each block in draw order
    sizes = counts.sum(axis=2)
    u, amp = np.empty(sizes.sum()), np.empty((sizes.sum(), d))
    lo = 0
    for c, j in enumerate(jumping):
        model = spec.cells[j].jump_amplitude
        for i, size in zip(indices, sizes[c].tolist()):
            if size:
                substream(seed, i, 4 * j + _SLOT_TIMES).random(out=u[lo : lo + size])
                # substream restarts one shared generator: the times are drawn
                # before the amplitudes' stream is asked for
                amp[lo : lo + size] = model.sample(substream(seed, i, 4 * j + _SLOT_AMPS), size)
                lo += size
    # each row's flat (jumping cell, path, step) index, in the same block order
    block, step = np.divmod(np.arange(counts.size).repeat(counts.ravel()), n)
    cell, pid = np.divmod(block, P)
    # times in (t_k, t_{k+1}]: 1 - U with U uniform on [0, 1)
    time = grid.times[step] + dt * (1.0 - u)
    # rows by (path, step, time): a cell's times within a step are drawn unsorted
    order = np.lexsort((time, step, pid))
    jumps = np.empty(len(order), _jump_dtype(d))
    for name, column in zip(jumps.dtype.names, (step, np.take(jumping, cell), time, amp)):
        jumps[name] = column[order]
    gauss, jumps, pid = map(_frozen, (gauss, jumps, pid[order]))
    return SampleChunk(spec, grid, int(seed), indices, gauss, jumps, pid)


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
    n = chunk.grid.n_steps
    if n % 2:
        raise ValueError(f"cannot halve a grid of {n} steps")
    fine = chunk.gauss.reshape(len(chunk), n // 2, 2, *chunk.gauss.shape[2:])
    jumps = chunk.jumps.copy()
    jumps["step"] //= 2
    # built field by field, at half the cost of dataclasses.replace
    return SampleChunk(
        chunk.spec, TimeGrid(chunk.grid.horizon, n // 2), chunk.seed, chunk.path_index,
        _frozen(fine[:, :, 0] + fine[:, :, 1]), _frozen(jumps), chunk.pid,
    )


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
