"""Stochastic integration against the sampled noise field.

The central object is the left-frozen integral walk: an operator-valued
integrand is evaluated once per (time step, spatial cell) from information
available at the step's left endpoint, then applied to every increment the
cell produces inside the step. The walk keeps enough per-step data
(evaluated integrand operators, the continuous stochastic increment, drift)
and one record array of the path's jumps with their refined pre-jump values,
so that the quadratic-variation and chain-rule modules work from a finished
path without re-walking it.

Within one step the increments apply in a fixed micro-order: drift first,
then the continuous block, then noise jumps sorted by their exact times,
then any finite-variation driver jump (which sits at the step's right
endpoint). Pre-jump values refer to this order, which is what makes
telescoping identities hold exactly path by path.

Evaluator protocol: the walk runs one step loop for a chunk of P paths of
one noise model and grid. An adapted evaluator is called once per (step,
cell) for the whole chunk; ``state.value`` has shape (P, dim_out), the
history readers return one row per path, and the evaluator returns either
one (dim_out, dim_in) operator for every path or a (P, dim_out, dim_in)
stack. A single sample is walked as a chunk of one.

Look-ahead discipline: evaluators receive the walk state and a guarded view
of the past. Reading at or beyond the current step raises LookAheadError.
An integrand that smuggles future increments in through a closure is not
detectable here; the isometry checks exist to expose exactly that.

Ensembles are measured by one private driver, ``_per_path``: it draws the
paths in chunks, hands each chunk to a measuring function and writes the
block of rows that function returns into a per-path array. The statistics
helpers beside it (mean with standard error, z-score, quartiles) reduce the
columns of that array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .hilbert import _check_dim
from .noise import QV_FLAVORS, SamplePath, TimeGrid, evaluate, normalize_spec, sample_path

__all__ = [
    "LookAheadError",
    "PathHistory",
    "AdaptedState",
    "Integrand",
    "constant_integrand",
    "deterministic_integrand",
    "state_linear_integrand",
    "SimpleBlock",
    "SimpleIntegrand",
    "integrate_simple",
    "ItoPath",
    "FVDriver",
    "ItoProcessSpec",
    "integrate",
    "simulate_ito_process",
    "realized_lambda2_mass",
    "lambda2_norm",
    "decompose_integral",
    "integrate_process",
    "compose_integrands",
]


class LookAheadError(ValueError):
    """An evaluator asked for information not yet revealed by the walk."""


class PathHistory:
    """Read-only view of a chunk of sample paths up to the walk's current step.

    Increments of step k become visible once the walk has moved past k, i.e.
    while the walk evaluates step ``cursor`` only steps < cursor are
    readable. Integral values are visible up to and including the cursor
    (the value at the step's left endpoint is known there). Every reader
    returns one row per path of the chunk: (P, dim) arrays, or (P,) for
    ``noise_pairing``.
    """

    def __init__(self, samples: Tuple[SamplePath, ...], values: np.ndarray):
        self._samples = samples
        self._values = values  # (n_steps + 1, P, dim), filled by the walk
        self._cursor = 0

    @cached_property
    def _gauss(self) -> np.ndarray:
        return np.stack([s.gauss for s in self._samples])

    @cached_property
    def _jump_sums(self) -> np.ndarray:
        return np.stack([s.jump_sums for s in self._samples])

    @property
    def step(self) -> int:
        return self._cursor

    def gauss_increment(self, k: int, cell: int) -> np.ndarray:
        self._check_past(k)
        return self._gauss[:, k, cell]

    def jump_sum(self, k: int, cell: int) -> np.ndarray:
        self._check_past(k)
        return self._jump_sums[:, k, cell]

    def noise_pairing(self, s: float, t: float, cells: Sequence[int], h) -> np.ndarray:
        """<M((s, t] x cells), h> of each path for a window that lies in the past."""
        k1 = self._samples[0].grid.index_of(t)
        if k1 > self._cursor:
            raise LookAheadError(
                f"window end t={t} is step {k1}, beyond the walk's step {self._cursor}"
            )
        return np.array([evaluate(sample, s, t, cells, h) for sample in self._samples])

    def value(self, k: int) -> np.ndarray:
        if k > self._cursor:
            raise LookAheadError(f"value at step {k} not yet computed (walk at {self._cursor})")
        return self._values[k]

    def _check_past(self, k: int) -> None:
        if k >= self._cursor:
            raise LookAheadError(
                f"increment of step {k} is not adapted at step {self._cursor}"
            )


@dataclass
class AdaptedState:
    """What an integrand may see when evaluated at a step's left endpoint.

    ``value`` is the running integral of each path of the walked chunk at
    time ``time``, shape (P, dim_out). Deterministic integrands are
    evaluated with value and history set to None, which makes any
    accidental state dependence fail loudly.
    """

    step: int
    time: float
    value: Optional[np.ndarray]
    history: Optional[PathHistory]


@dataclass(frozen=True, eq=False)
class Integrand:
    """Operator-valued integrand evaluated per (step, cell).

    evaluator(state, cell) is called once per (step, cell) for a chunk of P
    paths and must use only adapted information: ``state.value`` has shape
    (P, dim_out) and the history readers return (P, ...) rows. It returns
    one (dim_out, dim_in) operator shared by every path of the chunk, or a
    (P, dim_out, dim_in) stack. ``deterministic`` declares that the value
    depends on (step, time, cell) alone, which lets the walk precompute all
    operators, once per chunk, from a (dim_out, dim_in) return.
    ``constant_matrix`` short-circuits evaluation entirely.
    """

    evaluator: Callable[[AdaptedState, int], np.ndarray]
    dim_out: int
    dim_in: int
    deterministic: bool = False
    name: str = "custom"
    constant_matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        _check_dim(self.dim_out, "integrand output")
        _check_dim(self.dim_in, "integrand input")


def constant_integrand(matrix, name: str = "constant") -> Integrand:
    mat = np.array(matrix, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError(f"constant integrand needs a matrix, got shape {mat.shape}")
    mat.setflags(write=False)
    return Integrand(
        evaluator=lambda state, cell: mat,
        dim_out=mat.shape[0],
        dim_in=mat.shape[1],
        deterministic=True,
        name=name,
        constant_matrix=mat,
    )


def deterministic_integrand(
    fn: Callable[[int, float, int], np.ndarray], dim_out: int, dim_in: int, name: str = "deterministic"
) -> Integrand:
    """Integrand from fn(step, time, cell), independent of the path."""
    return Integrand(
        evaluator=lambda state, cell: fn(state.step, state.time, cell),
        dim_out=dim_out,
        dim_in=dim_in,
        deterministic=True,
        name=name,
    )


def state_linear_integrand(base, weight, gain: float, name: str = "state-linear") -> Integrand:
    """Adapted integrand base * (1 + gain * <weight, value>).

    Linear feedback from the running integral; with moderate gain over a
    unit horizon this stays well-behaved while being genuinely random.
    """
    mat = np.array(base, dtype=np.float64)
    w = np.array(weight, dtype=np.float64)
    if w.shape != (mat.shape[0],):
        raise ValueError(f"weight must match the output dim {mat.shape[0]}")

    def _eval(state: AdaptedState, cell: int) -> np.ndarray:
        return mat * (1.0 + gain * (state.value * w).sum(-1))[:, None, None]

    return Integrand(
        evaluator=_eval, dim_out=mat.shape[0], dim_in=mat.shape[1], deterministic=False, name=name
    )


@dataclass(frozen=True, eq=False)
class SimpleBlock:
    """One block of a simple integrand: a fixed operator on a step window
    and a cell set, optionally gated by a predicate decided at the window's
    left endpoint. The predicate sees (sample, start_step) and must only use
    increments of steps before start_step; the dual-route equality tests are
    the enforcement."""

    start: int
    stop: int
    cells: tuple
    matrix: np.ndarray
    predicate: Optional[Callable[[SamplePath, int], bool]] = None


class SimpleIntegrand:
    """Piecewise-constant integrand: a finite sum of gated blocks."""

    def __init__(self, blocks: Sequence[SimpleBlock], dim_out: int, dim_in: int):
        blocks = tuple(blocks)
        for b in blocks:
            if b.stop <= b.start or b.start < 0:
                raise ValueError(f"block window [{b.start}, {b.stop}) is empty or negative")
            if np.asarray(b.matrix).shape != (dim_out, dim_in):
                raise ValueError(f"block matrix shape {np.asarray(b.matrix).shape} != ({dim_out}, {dim_in})")
        self.blocks = blocks
        self.dim_out = dim_out
        self.dim_in = dim_in

    def as_general(self) -> Integrand:
        """The same integrand in per-(step, cell) evaluator form; a gated
        block's predicate is decided path by path on the history's samples."""
        blocks = self.blocks
        has_gates = any(b.predicate is not None for b in blocks)

        def _eval(state: AdaptedState, cell: int) -> np.ndarray:
            out = np.zeros((self.dim_out, self.dim_in))
            for b in blocks:
                if b.start <= state.step < b.stop and cell in b.cells:
                    if b.predicate is None:
                        out += b.matrix
                        continue
                    samples = state.history._samples
                    if out.ndim == 2:
                        out = np.repeat(out[None], len(samples), axis=0)
                    out[np.array([b.predicate(x, b.start) for x in samples], dtype=bool)] += b.matrix
            return out

        return Integrand(
            _eval, self.dim_out, self.dim_in, deterministic=not has_gates, name="simple"
        )


def integrate_simple(simple: SimpleIntegrand, sample: SamplePath) -> np.ndarray:
    """Terminal value of a simple integrand by the block-sum formula.

    Each block contributes gate * matrix @ M(window x cells) directly, with
    no step walk; this is the independent route the walk is tested against.
    """
    total = np.zeros(simple.dim_out)
    increments = sample.gauss + sample.jump_sums
    n = sample.grid.n_steps
    for b in simple.blocks:
        if b.start >= n:
            continue
        if b.predicate is not None and not b.predicate(sample, b.start):
            continue
        window = increments[b.start : min(b.stop, n)][:, list(b.cells), :].sum(axis=(0, 1))
        total += np.asarray(b.matrix) @ window
    return total


@lru_cache(maxsize=None)
def _jump_dtype(dim: int) -> np.dtype:
    vec = ("f8", (dim,))
    return np.dtype([("step", "i8"), ("time", "f8"), ("cell", "i8"), ("delta", *vec), ("pre", *vec)])


@dataclass(frozen=True, eq=False)
class ItoPath:
    """A walked integral/process path with its per-step records.

    values[k] is the path at t_k; phis[k, j] the operator used for cell j in
    step k; stoch_cont[k] the continuous stochastic increment; drift[k] the
    drift increment. jumps is a read-only structured array, one row per
    jump in the walk's micro-order, with fields step (int64), time
    (float64; t_{k+1} for a driver jump), cell (int64; -1 marks a jump of
    the finite-variation driver), delta (float64, (dim_out,)) and pre, the
    path value just before the jump. The identity

        values[k+1] == values[k] + drift[k] + stoch_cont[k] + sum of deltas

    holds exactly (bitwise) in the micro-order documented on the module.
    A path walked in a chunk holds read-only views of the chunk's arrays.
    """

    sample: SamplePath
    grid: TimeGrid
    initial: np.ndarray
    values: np.ndarray
    phis: np.ndarray
    stoch_cont: np.ndarray
    drift: np.ndarray
    jumps: np.ndarray

    @property
    def dim_out(self) -> int:
        return self.values.shape[1]

    @property
    def terminal(self) -> np.ndarray:
        return self.values[-1]


@dataclass(frozen=True, eq=False)
class FVDriver:
    """Deterministic pure-jump finite-variation driver.

    Jump i of size values[i] lands at the right endpoint of step
    jump_steps[i], after every noise increment of that step.
    """

    jump_steps: tuple
    values: np.ndarray

    def __init__(self, jump_steps: Sequence[int], values):
        steps = tuple(int(k) for k in jump_steps)
        vals = np.array(values, dtype=np.float64, ndmin=2)
        if len(steps) != vals.shape[0]:
            raise ValueError(f"{len(steps)} steps for {vals.shape[0]} jump values")
        vals.setflags(write=False)
        object.__setattr__(self, "jump_steps", steps)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, eq=False)
class ItoProcessSpec:
    """X = initial + drift + FV driver + stochastic integral of ``integrand``."""

    integrand: Integrand
    initial: np.ndarray
    drift_rate: np.ndarray
    driver: Optional[FVDriver] = None

    def __init__(self, integrand: Integrand, initial=None, drift_rate=None, driver=None):
        d = integrand.dim_out
        init = np.zeros(d) if initial is None else np.array(initial, dtype=np.float64)
        rate = np.zeros(d) if drift_rate is None else np.array(drift_rate, dtype=np.float64)
        if init.shape != (d,) or rate.shape != (d,):
            raise ValueError(f"initial and drift_rate must have shape ({d},)")
        if driver is not None and driver.values.shape[1] != d:
            raise ValueError(f"driver values must have dim {d}")
        init.setflags(write=False)
        rate.setflags(write=False)
        object.__setattr__(self, "integrand", integrand)
        object.__setattr__(self, "initial", init)
        object.__setattr__(self, "drift_rate", rate)
        object.__setattr__(self, "driver", driver)


def _deterministic_phis(integrand: Integrand, sample: SamplePath, active) -> np.ndarray:
    """Evaluate a path-independent integrand on the whole step-cell grid."""
    n = sample.grid.n_steps
    m = sample.spec.n_cells
    phis = np.zeros((n, m, integrand.dim_out, integrand.dim_in))
    if integrand.constant_matrix is not None:
        phis[:, active] = integrand.constant_matrix
        return phis
    times = sample.grid.times
    for k in range(n):
        state = AdaptedState(step=k, time=times[k], value=None, history=None)
        for j in active:
            phis[k, j] = _checked_eval(integrand, state, j)
    return phis


def _checked_eval(integrand: Integrand, state: AdaptedState, cell: int, n_paths=None) -> np.ndarray:
    """The evaluator's operator: (dim_out, dim_in), or a (n_paths, dim_out,
    dim_in) stack when the walk passes its chunk size."""
    mat = np.asarray(integrand.evaluator(state, cell), dtype=np.float64)
    shape = (integrand.dim_out, integrand.dim_in)
    if mat.shape != shape and (n_paths is None or mat.shape != (n_paths, *shape)):
        stacked = "" if n_paths is None else f" or ({n_paths}, {shape[0]}, {shape[1]})"
        raise ValueError(f"integrand returned shape {mat.shape}, expected {shape}{stacked}")
    return mat


def _walk(process: ItoProcessSpec, samples: Tuple[SamplePath, ...]) -> Tuple[ItoPath, ...]:
    """One step loop for a chunk of samples of one noise model and grid."""
    if not samples:
        raise ValueError("no sample to walk")
    integrand = process.integrand
    spec, grid = samples[0].spec, samples[0].grid
    if any(s.spec is not spec or s.grid != grid for s in samples):
        raise ValueError("the samples of one walk must share one noise model and grid")
    if integrand.dim_in != spec.dim:
        raise ValueError(f"integrand input dim {integrand.dim_in} != noise dim {spec.dim}")
    n_paths = len(samples)
    n = grid.n_steps
    m = spec.n_cells
    times = grid.times
    total_rate = spec.tables.flavor("total").rate
    active = [j for j in range(m) if total_rate[j] > 0.0]
    d_out = integrand.dim_out
    adapted = not integrand.deterministic

    driver = process.driver
    drv_steps = np.array(() if driver is None else driver.jump_steps, dtype=np.int64)
    for k in drv_steps.tolist():
        if not (0 <= k < n):
            raise ValueError(f"driver jump step {k} outside 0..{n - 1}")

    # step-major while walking, so that a step's rows are one cheap index
    values = np.zeros((n + 1, n_paths, d_out))
    values[0] = process.initial
    drift = np.zeros((n, d_out))
    dr = process.drift_rate * grid.dt
    has_drift = bool(process.drift_rate.any())
    if has_drift:
        drift[:] = dr

    # the chunk's noise jumps, path-major, each path's rows sorted by (step,
    # time); a lone sample's rows are used as they are, without a copy
    counts = [len(s.jumps) for s in samples]
    noise = samples[0].jumps if n_paths == 1 else np.concatenate([s.jumps for s in samples])
    pid = np.repeat(np.arange(n_paths), counts)
    step, cell, time, amp = noise["step"], noise["cell"], noise["time"], noise["amp"]
    delta = np.zeros((len(noise), d_out))
    if adapted:
        history = PathHistory(samples, values)
        gauss = history._gauss
        phis = np.zeros((n_paths, n, m, d_out, integrand.dim_in))
        stoch = np.zeros((n, n_paths, d_out))
    else:
        # operators, continuous contributions and noise-jump deltas of every
        # step in array passes, path by path
        phis = _deterministic_phis(integrand, samples[0], active)
        cells = slice(None) if len(active) == m else active  # a slice copies nothing
        stoch = np.empty((n, n_paths, d_out))
        for p, sample in enumerate(samples):
            np.einsum("kjab,kjb->ka", phis[:, cells], sample.gauss[:, cells], out=stoch[:, p])
        if len(noise):
            delta = (phis[step, cell] @ amp[:, :, None])[:, :, 0]

    # jump rows in each path's micro-order: a step's noise jumps by time,
    # then its driver jumps in the driver's order
    if len(drv_steps):
        paths = np.repeat(np.arange(n_paths), len(drv_steps))
        at = np.tile(drv_steps, n_paths)
        pos = np.searchsorted(pid * n + step, paths * n + at, side="right")
        pid, step = np.insert(pid, pos, paths), np.insert(step, pos, at)
        time, cell = np.insert(time, pos, times[at + 1]), np.insert(cell, pos, -1)
        amp = np.insert(amp, pos, 0.0, axis=0)
        delta = np.insert(delta, pos, np.tile(driver.values, (n_paths, 1)), axis=0)
    pre = np.zeros((len(step), d_out))
    # rows by step; the stable sort keeps each path's rows of a step in its
    # micro-order, and paths never share a running value
    order = np.argsort(step, kind="stable")
    ends = np.searchsorted(step[order], np.arange(n), side="right").tolist()
    row_path = list(zip(order.tolist(), pid[order].tolist()))

    hi = 0
    for k in range(n):
        if adapted:
            history._cursor = k
            state = AdaptedState(step=k, time=times[k], value=values[k].copy(), history=history)
            sc = np.zeros((n_paths, d_out))
            for j in active:
                mat = _checked_eval(integrand, state, j, n_paths)
                phis[:, k, j] = mat
                # elementwise products summed per row, so that each path's
                # arithmetic does not depend on the chunk it is walked in
                sc += (mat * gauss[:, k, j, None, :]).sum(-1)
            stoch[k] = sc
        if has_drift:
            v = values[k] + dr
            v += stoch[k]
        else:
            v = values[k] + stoch[k]
        lo, hi = hi, ends[k]
        if lo < hi:
            if adapted:
                rows = order[lo:hi]
                rows = rows[cell[rows] >= 0]
                delta[rows] = (phis[pid[rows], k, cell[rows]] * amp[rows, None, :]).sum(-1)
            for i, p in row_path[lo:hi]:
                running = v[p]
                pre[i] = running
                running += delta[i]
        values[k + 1] = v

    jumps = np.empty(len(step), _jump_dtype(d_out))
    for name, column in zip(jumps.dtype.names, (step, time, cell, delta, pre)):
        jumps[name] = column
    bounds = list(accumulate((c + len(drv_steps) for c in counts), initial=0))
    values, stoch = (np.ascontiguousarray(a.transpose(1, 0, 2)) for a in (values, stoch))
    for array in (jumps, values, phis, stoch, drift):
        array.setflags(write=False)
    return tuple(
        ItoPath(
            sample=sample,
            grid=grid,
            initial=process.initial,
            values=values[p],
            phis=phis[p] if adapted else phis,
            stoch_cont=stoch[p],
            drift=drift,
            jumps=jumps[bounds[p] : bounds[p + 1]],
        )
        for p, sample in enumerate(samples)
    )


_Samples = Union[SamplePath, Tuple[SamplePath, ...]]


def _walk_samples(process: ItoProcessSpec, sample: _Samples):
    if isinstance(sample, SamplePath):
        return _walk(process, (sample,))[0]
    return _walk(process, tuple(sample))


def integrate(integrand: Integrand, sample: _Samples) -> Union[ItoPath, Tuple[ItoPath, ...]]:
    """Walk the stochastic integral of ``integrand`` against one noise path,
    returning its ItoPath, or against each path of a tuple of samples of one
    model and grid, returning a tuple of ItoPaths walked by one step loop."""
    return _walk_samples(ItoProcessSpec(integrand), sample)


def simulate_ito_process(
    process: ItoProcessSpec, sample: _Samples
) -> Union[ItoPath, Tuple[ItoPath, ...]]:
    """Walk a process with drift and driver on top of the stochastic integral,
    against one sample or a tuple of them as ``integrate`` does."""
    return _walk_samples(process, sample)


def realized_lambda2_mass(
    path: ItoPath, flavor: str = "total", upto_step: Optional[int] = None
) -> float:
    """Realized weight sum_{k,j} ||phi_kj root_j||_HS^2 * mass_kj of one walk.

    ``root_j`` is the square root of the flavor's normalized covariance on
    cell j and mass_kj the flavor's measure of the step-cell block. For a
    deterministic integrand this IS the squared norm of the integrand over
    the window; for adapted integrands it is one sample of it.
    """
    table = path.sample.spec.tables.flavor(flavor)
    n = path.grid.n_steps if upto_step is None else upto_step
    dt = path.grid.dt
    total = 0.0
    for j in np.nonzero(table.rate)[0]:
        prods = path.phis[:n, j] @ table.root[j]
        total += float(np.sum(prods * prods)) * table.rate[j] * dt
    return total


def lambda2_norm(integrand: Integrand, spec, grid: TimeGrid, flavor: str = "total") -> float:
    """Squared norm of a deterministic integrand under the flavor's control
    measure, integrated exactly. An adapted integrand's norm is random, and
    estimating its mean is a Monte Carlo question for the caller, so it is
    refused with ValueError."""
    if flavor not in QV_FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; expected one of {QV_FLAVORS}")
    if not integrand.deterministic:
        raise ValueError(f"lambda2_norm needs a deterministic integrand, got {integrand.name!r}")
    # the walk's operators depend on the grid and the active cells only
    path = integrate(integrand, sample_path(normalize_spec(spec), grid, 0, 0))
    return realized_lambda2_mass(path, flavor)


# ------------------------------------------------------------- ensembles


# Paths per chunk of _per_path: the chunk's walk arrays grow with it (about
# 80 KB per 256-step path on a four-cell model), and the step loop's Python
# cost is paid once per chunk.
_CHUNK = 16


def _per_path(spec, grid: TimeGrid, seed: int, n_paths: int, measure, first: int = 0) -> np.ndarray:
    """The package's one Monte Carlo loop: measure paths first, ..., first +
    n_paths - 1 of the ensemble into a float64 array, one row per path.

    The samples that ``sample_path`` draws for those path indices are handed
    to measure in chunks of at most ``_CHUNK``, as a tuple in path order;
    measure(samples) walks what it needs and returns one row of k floats
    per sample, a (len(samples), k) block, which fills the chunk's rows of
    an (n_paths, k) array ((0, 0) without paths). Row i depends on path
    first + i alone, not on the chunking. Gates reduce the columns with the
    helpers below and np.max, so a non-finite path reaches every reduction
    instead of being dropped by a running maximum.
    """
    rows = np.empty((n_paths, 0))
    for lo in range(0, n_paths, _CHUNK):
        hi = min(n_paths, lo + _CHUNK)
        block = np.asarray(
            measure(tuple(sample_path(spec, grid, seed, first + i) for i in range(lo, hi))),
            dtype=np.float64,
        )
        if lo == 0:
            rows = np.empty((n_paths, block.shape[1]))
        rows[lo:hi] = block
    return rows


def _sample_by_sample(row):
    """A measure for _per_path that walks its chunk one sample at a time,
    row(sample) per path. Its callers are verify-isometry,
    verify-associativity and burkholder's walk_ensemble. Chunking the first
    and the last waits for the benchmark change of ROADMAP item 1: the
    bench self-test bounds the unattributed share of a 20-path traced run
    below 0.10, and output writing has no span, so a faster run reads a
    larger share. Chunked (with a re-keyed sampler), medians of 5 runs read
    0.089-0.100 (isometry-sampling) and 0.092-0.104 (burkholder-ensemble).
    Chunking verify-associativity is open under ROADMAP item 4."""
    return lambda samples: [row(sample) for sample in samples]


def _mean_se(samples: np.ndarray):
    """Sample mean and its standard error; the error is NaN below two samples."""
    mean = float(samples.mean())
    if len(samples) < 2:
        return mean, float("nan")
    return mean, float(samples.std(ddof=1) / np.sqrt(len(samples)))


def _z_score(diff: float, se: float) -> float:
    """diff / se, or NaN when se is not finite and positive, so that a
    z-gate without a spread estimate fails instead of passing on z = 0."""
    return diff / se if np.isfinite(se) and se > 0.0 else float("nan")


def _quartiles(values: np.ndarray) -> list:
    """Lower quartile, median and upper quartile, interpolated linearly
    between order statistics as np.quantile does by default, or NaNs when a
    value is NaN. np.quantile and np.median import numpy.ma on first use."""
    s = np.sort(values)
    if np.isnan(s[-1]):
        return [float("nan")] * 3
    positions = np.array([0.25, 0.5, 0.75]) * (len(s) - 1)
    return np.interp(positions, np.arange(len(s)), s).tolist()


def decompose_integral(path: ItoPath):
    """Split one walked path into continuous, jump and finite-variation parts.

    All three come from the records of the same walk (no re-simulation), so
    continuous + jump + fv reproduces the path values to rounding. Returns
    (continuous, jump, fv) as (n_steps + 1, dim) arrays; the fv part carries
    the initial value, drift and driver jumps.
    """
    n = path.grid.n_steps
    d = path.dim_out
    cont = np.zeros((n + 1, d))
    np.cumsum(path.stoch_cont, axis=0, out=cont[1:])
    jump_steps = np.zeros((n, d))
    fv_steps = np.zeros((n, d))
    noise = path.jumps["cell"] >= 0
    np.add.at(jump_steps, path.jumps["step"][noise], path.jumps["delta"][noise])
    np.add.at(fv_steps, path.jumps["step"][~noise], path.jumps["delta"][~noise])
    jump = np.zeros((n + 1, d))
    np.cumsum(jump_steps, axis=0, out=jump[1:])
    fv = np.zeros((n + 1, d))
    np.cumsum(path.drift + fv_steps, axis=0, out=fv[1:])
    fv += path.initial
    return cont, jump, fv


def integrate_process(
    outer: Callable[[int, float, np.ndarray], np.ndarray], driver: ItoPath, dim_out: int
) -> np.ndarray:
    """Left-frozen integral of an operator-valued map against a walked path.

    outer(step, time, value) is evaluated at each step's left endpoint with
    the OUTER integral's running value, as a chunk of one path (shape (1,
    dim_out), the protocol compose_integrands serves), and applied to the
    driver's whole step increment. Used as the direct route in
    associativity checks.
    """
    total = np.zeros(dim_out)
    times = driver.grid.times
    for k in range(driver.grid.n_steps):
        mat = np.asarray(outer(k, float(times[k]), total[None]))
        if mat.ndim == 3:
            mat = mat[0]
        total = total + mat @ (driver.values[k + 1] - driver.values[k])
    return total


def compose_integrands(
    outer: Callable[[int, float, np.ndarray], np.ndarray],
    inner: Integrand,
    dim_out: int,
    *,
    outer_deterministic: bool = False,
    name: str = "composed",
) -> Integrand:
    """Integrand (outer at the running value) composed with ``inner``.

    Walking the composition against the noise gives the same values as
    integrating ``outer`` against the walked inner integral, because the
    walk is left-frozen in both routes. outer(step, time, value) receives
    the chunk's running values, shape (P, dim_out), and returns one operator
    or a (P, ...) stack. An adapted ``inner`` sees its own running value,
    (P, inner.dim_out), not the composition's: the closure restarts it when
    a walk begins (a new history) and, on entering step k, adds the
    operators inner returned in step k - 1 applied to that step's noise
    increments, which the left-frozen walk makes exactly the inner integral
    at t_k.
    """
    inner_eval = inner.evaluator
    if not inner.deterministic:
        walk, step, value, mats = None, -1, None, {}

        def inner_eval(state: AdaptedState, cell: int) -> np.ndarray:
            nonlocal walk, step, value, mats
            if state.history is not walk:
                walk, step, mats = state.history, state.step, {}
                value = np.zeros((len(state.value), inner.dim_out))
            elif state.step != step:
                past, k = state.history, state.step - 1
                for j, mat in mats.items():
                    increment = past.gauss_increment(k, j) + past.jump_sum(k, j)
                    value = value + (mat * increment[:, None, :]).sum(-1)
                step, mats = state.step, {}
            own = AdaptedState(state.step, state.time, value, state.history)
            mats[cell] = mat = np.asarray(inner.evaluator(own, cell), dtype=np.float64)
            return mat

    def _eval(state: AdaptedState, cell: int) -> np.ndarray:
        mat = np.asarray(outer(state.step, state.time, state.value))
        return mat @ inner_eval(state, cell)

    return Integrand(
        evaluator=_eval,
        dim_out=dim_out,
        dim_in=inner.dim_in,
        deterministic=inner.deterministic and outer_deterministic,
        name=name,
    )
