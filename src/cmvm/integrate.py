"""Stochastic integration against the sampled noise field.

The central object is the left-frozen integral walk: an operator-valued
integrand gives one operator per (time step, spatial cell), evaluated from
information available at the step's left endpoint, then applied to every
increment the cell produces inside the step. The walk keeps enough
per-step data (evaluated integrand operators, the continuous stochastic
increment, drift) and, beside each jump row of its samples, the jump of
the integral and its refined pre-jump value, so that the quadratic-variation
and chain-rule modules work from a finished walk without re-walking it. A
jump's step, time, cell and path are read from the samples alone.

Within one step the increments apply in a fixed micro-order: drift first,
then the continuous block, then noise jumps sorted by their exact times.
Pre-jump values refer to this order, which is what makes telescoping
identities hold exactly path by path; ``_micro_values`` alone sums in it.

A path is a chunk of one: the walk takes a ``SampleChunk`` of P paths and
returns one ``ItoChunk`` of path-axis arrays, and every measure here and in
the bracket, chain-rule and moment modules takes that chunk as it is and
returns one row per path, with a leading (P, ...) axis. Anything else
raises TypeError.

Evaluator protocol: a deterministic integrand is walked in array passes,
an adapted one by one step loop for the whole chunk. Both apply a cell's
operator to its continuous increment by adding the input-axis terms in
order, then add the cells in cell order (``_contract`` by explicit adds),
so at up to two inputs their continuous increments agree bitwise. An
adapted evaluator is called once per step, as evaluator(state, cells), for
the whole chunk and the tuple of the C cells with positive mass, in cell
order; ``state.value`` has shape (P, dim_out) and the history readers
return one row per path. It returns one (dim_out, dim_in) operator for
every path and cell, or a 4-D stack that broadcasts to (P, C, dim_out,
dim_in).

Look-ahead discipline: evaluators receive the walk state and a guarded view
of the past. Reading at or beyond the current step raises LookAheadError.
An integrand that smuggles future increments in through a closure is not
detectable here; the isometry checks exist to expose exactly that.

Ensembles are measured by one private driver, ``_per_path``: it draws the
paths as ``SampleChunk``s, hands each to a measuring function and writes the
block of rows that function returns into a per-path array. Every measure
walks its chunk at once, except verify-associativity's, which draws a
fresh random integrand pair for each path and so walks its paths one at a
time. The statistics helpers beside it (mean with standard error,
quartiles) reduce the columns of that array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .hilbert import _check_dim
from .noise import QV_FLAVORS, SampleChunk, TimeGrid, _checked, evaluate
from .noise import normalize_spec, sample_path

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
    "ItoChunk",
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
    returns one row per path of the chunk: ``gauss_increment`` and
    ``jump_sum`` take a sequence of C cells and return (P, C, dim) arrays,
    ``value`` a (P, dim) array and ``noise_pairing`` a (P,) array.
    """

    def __init__(self, samples: SampleChunk, values: np.ndarray):
        self._samples = samples
        self._values = values  # (n_steps + 1, P, dim), filled by the walk
        self._cursor = 0

    @property
    def step(self) -> int:
        return self._cursor

    def gauss_increment(self, k: int, cells: Sequence[int]) -> np.ndarray:
        self._check_past(k)
        return self._samples.gauss[:, k, list(cells)]

    def jump_sum(self, k: int, cells: Sequence[int]) -> np.ndarray:
        self._check_past(k)
        return self._samples.jump_sums[:, k, list(cells)]

    def noise_pairing(self, s: float, t: float, cells: Sequence[int], h) -> np.ndarray:
        """<M((s, t] x cells), h> of each path for a window that lies in the past."""
        k1 = self._samples.grid.index_of(t)
        if k1 > self._cursor:
            raise LookAheadError(
                f"window end t={t} is step {k1}, beyond the walk's step {self._cursor}"
            )
        return evaluate(self._samples, s, t, cells, h)

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
    """Operator-valued integrand, evaluated once per step for every cell.

    evaluator(state, cells) is called once per step for a chunk of P paths
    and the tuple of the C active cells, and must use only adapted
    information: ``state.value`` has shape (P, dim_out) and the history
    readers return (P, ...) rows. It returns one (dim_out, dim_in) operator
    shared by every path and cell, or a 4-D stack that broadcasts to (P, C,
    dim_out, dim_in). ``deterministic`` declares that the value depends on
    (step, time, cell) alone, which lets the walk precompute all operators,
    once per chunk, from calls with P = 1 and no value or history.
    ``constant_matrix`` short-circuits evaluation entirely.
    """

    evaluator: Callable[[AdaptedState, Tuple[int, ...]], np.ndarray]
    dim_out: int
    dim_in: int
    deterministic: bool = False
    constant_matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        _check_dim(self.dim_out, "integrand output")
        _check_dim(self.dim_in, "integrand input")


def constant_integrand(matrix) -> Integrand:
    mat = np.array(matrix, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError(f"constant integrand needs a matrix, got shape {mat.shape}")
    mat.setflags(write=False)
    return Integrand(
        evaluator=lambda state, cells: mat,
        dim_out=mat.shape[0],
        dim_in=mat.shape[1],
        deterministic=True,
        constant_matrix=mat,
    )


def deterministic_integrand(
    fn: Callable[[int, float, int], np.ndarray], dim_out: int, dim_in: int
) -> Integrand:
    """Integrand from fn(step, time, cell), independent of the path; the
    evaluator stacks fn's operators over the cells."""
    return Integrand(
        evaluator=lambda state, cells: np.stack([fn(state.step, state.time, j) for j in cells])[None],
        dim_out=dim_out,
        dim_in=dim_in,
        deterministic=True,
    )


def state_linear_integrand(base, weight, gain: float) -> Integrand:
    """Adapted integrand base * (1 + gain * <weight, value>).

    Linear feedback from the running integral; with moderate gain over a
    unit horizon this stays well-behaved while being genuinely random.
    """
    mat = np.array(base, dtype=np.float64)
    w = np.array(weight, dtype=np.float64)
    if w.shape != (mat.shape[0],):
        raise ValueError(f"weight must match the output dim {mat.shape[0]}")

    def _eval(state: AdaptedState, cells) -> np.ndarray:
        return mat * (1.0 + gain * (state.value * w).sum(-1))[:, None, None, None]

    return Integrand(_eval, mat.shape[0], mat.shape[1], deterministic=False)


@dataclass(frozen=True, eq=False)
class SimpleBlock:
    """One block of a simple integrand: a fixed operator on a step window
    and a cell set, optionally gated by a predicate decided at the window's
    left endpoint. The cells are distinct non-negative indices, checked
    against the model by ``integrate_simple``. The predicate sees (samples,
    start_step), a chunk of P paths, and returns (P,) bools; it must only
    use increments of steps before start_step, and the dual-route equality
    tests are the enforcement."""

    start: int
    stop: int
    cells: tuple
    matrix: np.ndarray
    predicate: Optional[Callable[[SampleChunk, int], np.ndarray]] = None


class SimpleIntegrand:
    """Piecewise-constant integrand: a finite sum of gated blocks."""

    def __init__(self, blocks: Sequence[SimpleBlock], dim_out: int, dim_in: int):
        blocks = tuple(blocks)
        for b in blocks:
            if b.stop <= b.start or b.start < 0:
                raise ValueError(f"block window [{b.start}, {b.stop}) is empty or negative")
            ints = all(isinstance(j, (int, np.integer)) and j >= 0 for j in b.cells)
            if not ints or len(set(b.cells)) != len(b.cells):
                raise ValueError(f"block cells {b.cells} are not distinct non-negative integers")
            if np.asarray(b.matrix).shape != (dim_out, dim_in):
                raise ValueError(f"block matrix shape {np.asarray(b.matrix).shape} != ({dim_out}, {dim_in})")
        self.blocks = blocks
        self.dim_out = dim_out
        self.dim_in = dim_in

    def as_general(self) -> Integrand:
        """The same integrand in evaluator form: each block live at the step
        adds its matrix to the cells of its cell set, and a gated block's
        predicate is decided for every path of the history's samples in one
        call."""
        blocks = self.blocks
        has_gates = any(b.predicate is not None for b in blocks)

        def _eval(state: AdaptedState, cells) -> np.ndarray:
            out = np.zeros((1, len(cells), self.dim_out, self.dim_in))
            for b in blocks:
                if not b.start <= state.step < b.stop:
                    continue
                in_block = np.array([j in b.cells for j in cells], dtype=bool)
                if b.predicate is None:
                    out[:, in_block] += b.matrix
                    continue
                samples = state.history._samples
                if len(out) != len(samples):
                    out = np.repeat(out, len(samples), axis=0)
                gate = np.asarray(b.predicate(samples, b.start), dtype=bool)
                out[np.ix_(gate, in_block)] += b.matrix
            return out

        return Integrand(_eval, self.dim_out, self.dim_in, deterministic=not has_gates)


def integrate_simple(simple: SimpleIntegrand, samples: SampleChunk) -> np.ndarray:
    """Terminal value of a simple integrand on each path by the block-sum
    formula, (P, dim_out).

    Each block contributes gate * matrix @ M(window x cells) directly, with
    no step walk; this is the independent route the walk is tested against.
    """
    samples = _checked(samples, SampleChunk)
    total = np.zeros((len(samples), simple.dim_out))
    increments = samples.gauss + samples.jump_sums
    n = samples.grid.n_steps
    for b in simple.blocks:
        samples.spec.partition.validate_cells(b.cells)
        if b.start >= n:
            continue
        gate = slice(None)
        if b.predicate is not None:
            gate = np.asarray(b.predicate(samples, b.start), dtype=bool)
        window = increments[gate, b.start : min(b.stop, n)][:, :, list(b.cells)].sum(axis=(1, 2))
        total[gate] += (np.asarray(b.matrix) @ window[..., None])[..., 0]
    return total


@dataclass(frozen=True, eq=False)
class ItoChunk:
    """The P paths one walk made from a ``SampleChunk`` (a single path is a
    chunk of one), as read-only arrays with a leading path axis.

    values[p, k] is path p at t_k, shape (P, n_steps + 1, dim_out);
    phis[p, k, j] the operator used for cell j in step k (a deterministic
    integrand's one array, broadcast over the paths); stoch_cont[p, k] the
    continuous stochastic increment; drift[k], shared by the paths, the
    drift increment. delta[i] and pre[i], shape (R, dim_out), belong to
    jump row i of ``samples``, which gives its step, time, cell and path
    (pid): the integral's jump there and its value just before, in the
    walk's micro-order. ``grid`` is the samples' grid and values[:, 0] the
    initial value. The identity

        values[p, k+1] == values[p, k] + drift[k] + stoch_cont[p, k] + sum of p's deltas in k

    holds exactly (bitwise), as ``_micro_values`` sums in that micro-order.
    """

    samples: SampleChunk
    values: np.ndarray
    phis: np.ndarray
    stoch_cont: np.ndarray
    drift: np.ndarray
    delta: np.ndarray
    pre: np.ndarray

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def grid(self) -> TimeGrid:
        return self.samples.grid


def _sum_by_path(rows: np.ndarray, pid: np.ndarray, n_paths: int) -> np.ndarray:
    """Each path's rows summed in row order, (n_paths, *tail), whatever its chunk."""
    out = np.zeros((n_paths,) + rows.shape[1:])
    np.add.at(out, pid, rows)
    return out


@dataclass(frozen=True, eq=False)
class ItoProcessSpec:
    """X = initial + drift + stochastic integral of ``integrand``."""

    integrand: Integrand
    initial: np.ndarray
    drift_rate: np.ndarray

    def __init__(self, integrand: Integrand, initial=None, drift_rate=None):
        d = integrand.dim_out
        init = np.zeros(d) if initial is None else np.array(initial, dtype=np.float64)
        rate = np.zeros(d) if drift_rate is None else np.array(drift_rate, dtype=np.float64)
        if init.shape != (d,) or rate.shape != (d,):
            raise ValueError(f"initial and drift_rate must have shape ({d},)")
        for array in (init, rate):
            array.setflags(write=False)
        object.__setattr__(self, "integrand", integrand)
        object.__setattr__(self, "initial", init)
        object.__setattr__(self, "drift_rate", rate)


def _deterministic_phis(integrand: Integrand, samples: SampleChunk, cells, sel) -> np.ndarray:
    """Evaluate a path-independent integrand on the whole step-cell grid;
    ``sel`` selects the active ``cells`` from all of them."""
    n = samples.grid.n_steps
    phis = np.zeros((n, samples.spec.n_cells, integrand.dim_out, integrand.dim_in))
    if integrand.constant_matrix is not None:
        phis[:, sel] = integrand.constant_matrix
    else:
        times = samples.grid.times
        for k in range(n):
            state = AdaptedState(step=k, time=times[k], value=None, history=None)
            mats = _checked_eval(integrand, state, cells, 1)
            phis[k, sel] = mats[0] if mats.ndim == 4 else mats
    return phis


def _checked_eval(integrand: Integrand, state: AdaptedState, cells, n_paths: int) -> np.ndarray:
    """The evaluator's operators at one step: one (dim_out, dim_in) operator,
    or a 4-D stack that broadcasts to (n_paths, len(cells), dim_out, dim_in)."""
    mats = np.asarray(integrand.evaluator(state, cells), dtype=np.float64)
    op, shape = (integrand.dim_out, integrand.dim_in), mats.shape
    if shape != op and not (
        len(shape) == 4 and shape[0] in (1, n_paths) and shape[1] in (1, len(cells)) and shape[2:] == op
    ):
        raise ValueError(
            f"integrand returned shape {shape}, expected {op} or a 4-D stack that "
            f"broadcasts to {(n_paths, len(cells), *op)}"
        )
    return mats


def _contract(phis: np.ndarray, gauss: np.ndarray) -> np.ndarray:
    """Continuous increments (P, n, dim_out) of operators phis (n, C, dim_out,
    dim_in) shared by the paths, applied to gauss (P, n, C, dim_in): each
    cell's operator by adding its input-axis terms in order, starting from
    the first, then the cells added in cell order, then plus 0.0, which
    stores a -0.0 sum as 0.0. At up to two inputs the adapted step adds in
    this order too."""
    for c in range(phis.shape[1]):
        term = phis[:, c, :, 0] * gauss[:, :, c, None, 0]
        for b in range(1, phis.shape[3]):
            term += phis[:, c, :, b] * gauss[:, :, c, None, b]
        total = term if c == 0 else total + term
    return total + 0.0


def _micro_values(initial, dr, stoch, delta, samples: SampleChunk):
    """The one definition of the micro-order: each path's initial value,
    then per step its drift (none if ``dr`` is None), continuous increment
    and jump deltas in row order, zero-padded and summed by one
    ``np.add.accumulate``, which adds strictly in sequence. Returns values
    (P, n_steps + 1, d), the sums before each step, and pre (R, d), the sums
    before each row."""
    n_paths, n, d = stoch.shape
    pid, step = samples.pid, samples.jumps["step"]
    width = 1 if dr is None else 2
    # before[p, k]: path p's rows in the steps before k, k = 0..n
    before = np.bincount(pid * (n + 1) + step + 1, minlength=n_paths * (n + 1))
    before = before.reshape(n_paths, n + 1).cumsum(axis=1)
    length = n * width + int(before[:, -1].max(initial=0)) + 1
    # flat positions, path p's from p * length on, of the last entry before step k and row i
    at = np.arange(n_paths)[:, None] * length + np.arange(n + 1) * width + before
    slot = pid * length + (step + 1) * width + np.arange(len(pid)) - np.searchsorted(pid, pid)
    # each entry picks a row of parts: zero (the padding), initial, drift, stoch's and delta's rows
    fixed = [np.zeros(d), initial, np.zeros(d) if dr is None else dr]
    parts = np.concatenate([fixed, stoch.reshape(-1, d), delta])
    pick = np.zeros(n_paths * length, np.int64)
    pick[at[:, 0]] = 1
    if dr is not None:
        pick[at[:, :-1] + 1] = 2
    pick[at[:, :-1] + width] = np.arange(3, 3 + n_paths * n).reshape(n_paths, n)
    pick[slot + 1] = np.arange(3 + n_paths * n, len(parts))
    sums = np.add.accumulate(parts.take(pick, axis=0).reshape(n_paths, length, d), axis=1).reshape(-1, d)
    return sums.take(at, axis=0), sums.take(slot, axis=0)


def _walk(process: ItoProcessSpec, samples: SampleChunk) -> ItoChunk:
    """Walk a chunk: a deterministic integrand in array passes, an adapted one
    in one step loop; ``_micro_values`` sums the values of either."""
    _checked(samples, SampleChunk)
    integrand = process.integrand
    spec, grid = samples.spec, samples.grid
    if integrand.dim_in != spec.dim:
        raise ValueError(f"integrand input dim {integrand.dim_in} != noise dim {spec.dim}")
    n_paths, n, m, d_out = len(samples), grid.n_steps, spec.n_cells, integrand.dim_out
    total_rate = spec.tables.flavor("total").rate
    cells = tuple(j for j in range(m) if total_rate[j] > 0.0)
    sel = slice(None) if len(cells) == m else list(cells)  # a slice copies nothing
    # without a drift no drift entries at all, so that no + 0.0 flips a -0.0
    dr = process.drift_rate * grid.dt if process.drift_rate.any() else None
    drift = np.zeros((n, d_out)) if dr is None else np.tile(dr, (n, 1))
    # the chunk's noise jumps, path-major, each path's rows sorted by (step, time)
    pid, step, cell, amp = samples.pid, samples.jumps["step"], samples.jumps["cell"], samples.jumps["amp"]
    gauss = samples.gauss[:, :, sel]  # (P, n, C, dim_in)
    if integrand.deterministic:
        phis = _deterministic_phis(integrand, samples, cells, sel)
        stoch = _contract(phis[:, sel], gauss)
        delta = (phis[step, cell] @ amp[:, :, None])[:, :, 0]
    else:
        phis = np.zeros((n_paths, n, m, d_out, integrand.dim_in))
        stoch, delta = np.zeros((n_paths, n, d_out)), np.zeros((len(pid), d_out))
        # the running value feeds the evaluator, through the history too
        running = np.zeros((n + 1, n_paths, d_out))
        running[0] = process.initial
        history = PathHistory(samples, running)
        # rows by step; the stable sort keeps each path's rows of a step in time order
        order = np.argsort(step, kind="stable")
        ends = np.searchsorted(step[order], np.arange(n + 1)).tolist()
        for k in range(n):
            history._cursor = k
            state = AdaptedState(step=k, time=grid.times[k], value=running[k].copy(), history=history)
            mats = phis[:, k, sel] = _checked_eval(integrand, state, cells, n_paths)
            # elementwise products summed over the input axis, then over the
            # cells in cell order (accumulate adds strictly in sequence), so
            # that each path's arithmetic does not depend on its chunk; plus
            # 0.0, which stores a -0.0 sum as 0.0, as _contract's adds do
            inc = stoch[:, k] = np.add.accumulate((mats * gauss[:, k, :, None]).sum(-1), axis=1)[:, -1] + 0.0
            np.add(running[k] if dr is None else running[k] + dr, inc, out=running[k + 1])
            if ends[k] < ends[k + 1]:
                rows = order[ends[k] : ends[k + 1]]
                delta[rows] = (phis[pid[rows], k, cell[rows]] * amp[rows, None, :]).sum(-1)
                # ufunc.at adds a path's rows in index order, which is time order
                np.add.at(running[k + 1], pid[rows], delta[rows])
    values, pre = _micro_values(process.initial, dr, stoch, delta, samples)
    for array in (values, phis, stoch, drift, delta, pre):
        array.setflags(write=False)
    if integrand.deterministic:
        phis = np.broadcast_to(phis, (n_paths,) + phis.shape)
    return ItoChunk(samples, values, phis, stoch, drift, delta, pre)


def integrate(integrand: Integrand, samples: SampleChunk) -> ItoChunk:
    """Walk the stochastic integral of ``integrand`` against each path of a
    SampleChunk, returning their ItoChunk; anything else raises TypeError."""
    return _walk(ItoProcessSpec(integrand), samples)


def simulate_ito_process(process: ItoProcessSpec, samples: SampleChunk) -> ItoChunk:
    """Walk a process with an initial value and drift on top of the
    stochastic integral, against a chunk of samples as ``integrate`` does."""
    return _walk(process, samples)


def realized_lambda2_mass(
    chunk: ItoChunk, flavor: str = "total", upto_step: Optional[int] = None
) -> np.ndarray:
    """Realized weight sum_{k,j} ||phi_kj root_j||_HS^2 * mass_kj of each
    walked path, (P,).

    ``root_j`` is the square root of the flavor's normalized covariance on
    cell j and mass_kj the flavor's measure of the step-cell block. For a
    deterministic integrand this IS the squared norm of the integrand over
    the window; for adapted integrands it is one sample of it. ``upto_step``
    (0..n_steps) ends the window early; any other value raises ValueError.
    """
    chunk = _checked(chunk, ItoChunk)
    table = chunk.samples.spec.tables.flavor(flavor)
    n = chunk.grid.n_steps if upto_step is None else upto_step
    dt = chunk.grid.dt
    if not 0 <= n <= chunk.grid.n_steps:
        raise ValueError(f"upto_step must lie in 0..{chunk.grid.n_steps}, got {upto_step}")
    total = np.zeros(len(chunk))
    for j in np.nonzero(table.rate)[0]:
        prods = chunk.phis[:, :n, j] @ table.root[j]
        # each path's products summed as one flat array, as np.sum sums one path's
        total += (prods * prods).reshape(len(chunk), -1).sum(axis=1) * table.rate[j] * dt
    return total


def lambda2_norm(integrand: Integrand, spec, grid: TimeGrid, flavor: str = "total") -> float:
    """Squared norm of a deterministic integrand under the flavor's control
    measure, integrated exactly. An adapted integrand's norm is random, and
    estimating its mean is a Monte Carlo question for the caller, so it is
    refused with ValueError."""
    if flavor not in QV_FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; expected one of {QV_FLAVORS}")
    if not integrand.deterministic:
        raise ValueError("lambda2_norm needs a deterministic integrand, got an adapted integrand")
    # the walk's operators depend on the grid and the active cells only
    path = integrate(integrand, sample_path(normalize_spec(spec), grid, 0, 0))
    return float(realized_lambda2_mass(path, flavor)[0])


# ------------------------------------------------------------- ensembles


# Bytes of a chunk's operator table, an adapted walk's float64 (P, n_steps,
# n_cells, dim, dim) ``phis``: a fixed budget keeps a chunk's arrays the same
# size on every mesh, and few-step runs take large chunks, which pay the
# per-chunk Python costs (step loop, brackets, running sup) seldom. 2**19
# bytes is 16 paths at 256 steps on a four-cell model in d = 2.
_CHUNK_BYTES = 2**19


def _chunk_paths(spec, grid: TimeGrid) -> int:
    """Paths per chunk of ``_per_path``: as many as fit one operator table
    each in ``_CHUNK_BYTES``, and at least one."""
    return max(1, _CHUNK_BYTES // (8 * grid.n_steps * spec.n_cells * spec.dim**2))


def _per_path(spec, grid: TimeGrid, seed: int, n_paths: int, measure) -> np.ndarray:
    """The package's one Monte Carlo loop: measure paths 0, ..., n_paths - 1
    of the ensemble into a float64 array, one row per path.

    Those paths are drawn by ``sample_path`` and handed to measure in
    ``SampleChunk``s of ``_chunk_paths(spec, grid)`` paths (the last one
    shorter), in path order, so that a chunk's arrays take about the same
    bytes at every mesh; measure(samples) walks the chunk at once, with one
    ``integrate`` or ``simulate_ito_process`` call per integrand
    (verify-associativity's integrands differ from path to path, so it walks
    each path ``samples[p]`` as a chunk of one),
    and returns one row of k floats per sample, a (len(samples), k) block,
    which fills the chunk's rows of an (n_paths, k) array ((0, 0) without
    paths). Row i depends on path i alone, not on the chunking. Gates
    reduce the columns with ``_mean_se``, ``_quartiles`` and np.max, so a
    non-finite path reaches every reduction instead of being dropped by a
    running maximum.
    """
    rows = np.empty((n_paths, 0))
    size = _chunk_paths(spec, grid)
    for lo in range(0, n_paths, size):
        hi = min(n_paths, lo + size)
        block = np.asarray(measure(sample_path(spec, grid, seed, range(lo, hi))), dtype=np.float64)
        if lo == 0:
            rows = np.empty((n_paths, block.shape[1]))
        rows[lo:hi] = block
    return rows


def _mean_se(samples: np.ndarray):
    """Sample mean and its standard error; the error is NaN below two samples."""
    mean = float(samples.mean())
    if len(samples) < 2:
        return mean, float("nan")
    return mean, float(samples.std(ddof=1) / np.sqrt(len(samples)))


def _quartiles(values: np.ndarray) -> list:
    """Lower quartile, median and upper quartile, interpolated linearly
    between order statistics as np.quantile does by default, or NaNs when a
    value is NaN. np.quantile and np.median import numpy.ma on first use."""
    s = np.sort(values)
    if np.isnan(s[-1]):
        return [float("nan")] * 3
    positions = np.array([0.25, 0.5, 0.75]) * (len(s) - 1)
    return np.interp(positions, np.arange(len(s)), s).tolist()


def decompose_integral(chunk: ItoChunk):
    """Split each walked path into continuous, jump and finite-variation parts.

    All three come from the records of the same walk (no re-simulation), so
    continuous + jump + fv reproduces the path values to rounding. Returns
    (continuous, jump, fv) as (P, n_steps + 1, dim) arrays; the fv part
    carries the initial value and the drift.
    """
    chunk = _checked(chunk, ItoChunk)
    shape = chunk.values.shape
    cont, jump, fv = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    np.cumsum(chunk.stoch_cont, axis=1, out=cont[:, 1:])
    jump_steps = np.zeros(chunk.stoch_cont.shape)
    # each path's deltas added in row order, its micro-order
    np.add.at(jump_steps, (chunk.samples.pid, chunk.samples.jumps["step"]), chunk.delta)
    np.cumsum(jump_steps, axis=1, out=jump[:, 1:])
    fv[:, 1:] = np.cumsum(chunk.drift, axis=0)
    fv += chunk.values[:, :1]
    return cont, jump, fv


def integrate_process(
    outer: Callable[[int, float, np.ndarray], np.ndarray], driver: ItoChunk, dim_out: int
) -> np.ndarray:
    """Left-frozen integral of an operator-valued map against each walked
    path of a chunk, (P, dim_out).

    outer(step, time, value) is evaluated at each step's left endpoint with
    the OUTER integral's running values, shape (P, dim_out), the protocol
    compose_integrands serves, and returns one operator or a (P, ...) stack,
    applied to each driver path's whole step increment. Used as the direct
    route in associativity checks.
    """
    driver = _checked(driver, ItoChunk)
    values, times = driver.values, driver.grid.times
    total = np.zeros((len(driver), dim_out))
    for k in range(driver.grid.n_steps):
        mat = np.asarray(outer(k, float(times[k]), total))
        total = total + (mat @ (values[:, k + 1] - values[:, k])[..., None])[..., 0]
    return total


def compose_integrands(
    outer: Callable[[int, float, np.ndarray], np.ndarray],
    inner: Integrand,
    dim_out: int,
) -> Integrand:
    """Integrand (outer at the running value) composed with ``inner``, an
    adapted integrand whatever ``inner`` is.

    Walking the composition against the noise gives the same values as
    integrating ``outer`` against the walked inner integral, because the
    walk is left-frozen in both routes. outer(step, time, value) receives
    the chunk's running values, shape (P, dim_out), and returns one operator
    or a (P, ...) stack, which is applied to every cell. An adapted
    ``inner`` sees its own running value, (P, inner.dim_out), not the
    composition's: the closure restarts it when a walk begins (a new
    history) and, on entering step k, adds the operators inner returned in
    step k - 1 applied to that step's noise increments, cell by cell in
    cell order, which the left-frozen walk makes exactly the inner integral
    at t_k.
    """
    inner_eval = inner.evaluator
    if not inner.deterministic:
        walk, step, value, last = None, -1, None, None

        def inner_eval(state: AdaptedState, cells) -> np.ndarray:
            nonlocal walk, step, value, last
            if state.history is not walk:
                walk, step = state.history, state.step
                value = np.zeros((len(state.value), inner.dim_out))
            elif state.step != step:
                past, k, (seen, mats) = state.history, state.step - 1, last
                increment = past.gauss_increment(k, seen) + past.jump_sum(k, seen)
                terms = (mats * increment[:, :, None, :]).sum(-1)
                # the running value, then each cell's term, added in sequence
                value = np.add.accumulate(np.concatenate([value[:, None], terms], 1), 1)[:, -1]
                step = state.step
            own = AdaptedState(state.step, state.time, value, state.history)
            mats = np.asarray(inner.evaluator(own, cells), dtype=np.float64)
            last = cells, mats
            return mats

    def _eval(state: AdaptedState, cells) -> np.ndarray:
        mat = np.asarray(outer(state.step, state.time, state.value))
        if mat.ndim == 3:  # one operator per path, for every cell
            mat = mat[:, None]
        return mat @ inner_eval(state, cells)

    return Integrand(
        evaluator=_eval,
        dim_out=dim_out,
        dim_in=inner.dim_in,
    )
