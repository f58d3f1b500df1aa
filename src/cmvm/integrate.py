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

Look-ahead discipline: evaluators receive the walk state and a guarded view
of the past. Reading at or beyond the current step raises LookAheadError.
An integrand that smuggles future increments in through a closure is not
detectable here; the isometry checks exist to expose exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

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
    "Lambda2Result",
    "lambda2_norm",
    "EventCheck",
    "conditional_isometry_check",
    "decompose_integral",
    "integrate_process",
    "compose_integrands",
]


class LookAheadError(ValueError):
    """An evaluator asked for information not yet revealed by the walk."""


class PathHistory:
    """Read-only view of a sample path up to the walk's current step.

    Increments of step k become visible once the walk has moved past k, i.e.
    while the walk evaluates step ``cursor`` only steps < cursor are
    readable. Integral values are visible up to and including the cursor
    (the value at the step's left endpoint is known there).
    """

    def __init__(self, sample: SamplePath, values: np.ndarray):
        self._sample = sample
        self._values = values
        self._cursor = 0

    @property
    def step(self) -> int:
        return self._cursor

    def gauss_increment(self, k: int, cell: int) -> np.ndarray:
        self._check_past(k)
        return self._sample.gauss[k, cell]

    def jump_sum(self, k: int, cell: int) -> np.ndarray:
        self._check_past(k)
        return self._sample.jump_sums[k, cell]

    def noise_pairing(self, s: float, t: float, cells: Sequence[int], h) -> float:
        """<M((s, t] x cells), h> for a window that lies in the past."""
        k1 = self._sample.grid.index_of(t)
        if k1 > self._cursor:
            raise LookAheadError(
                f"window end t={t} is step {k1}, beyond the walk's step {self._cursor}"
            )
        return evaluate(self._sample, s, t, cells, h)

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

    ``value`` is the running integral at time ``time``. Deterministic
    integrands are evaluated with value and history set to None, which makes
    any accidental state dependence fail loudly.
    """

    step: int
    time: float
    value: Optional[np.ndarray]
    history: Optional[PathHistory]


@dataclass(frozen=True, eq=False)
class Integrand:
    """Operator-valued integrand evaluated per (step, cell).

    evaluator(state, cell) must return a (dim_out, dim_in) array using only
    adapted information. ``deterministic`` declares that the value depends on
    (step, time, cell) alone, which lets the walk precompute all operators.
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
        return mat * (1.0 + gain * float(w @ state.value))

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
        """The same integrand in per-(step, cell) evaluator form."""
        blocks = self.blocks
        has_gates = any(b.predicate is not None for b in blocks)

        def _eval(state: AdaptedState, cell: int) -> np.ndarray:
            out = np.zeros((self.dim_out, self.dim_in))
            for b in blocks:
                if b.start <= state.step < b.stop and cell in b.cells:
                    if b.predicate is None or b.predicate(state.history._sample, b.start):
                        out += b.matrix
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

    @classmethod
    def zero(cls, dim: int) -> "FVDriver":
        return cls((), np.zeros((0, dim)))


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


def _checked_eval(integrand: Integrand, state: AdaptedState, cell: int) -> np.ndarray:
    mat = np.asarray(integrand.evaluator(state, cell), dtype=np.float64)
    if mat.shape != (integrand.dim_out, integrand.dim_in):
        raise ValueError(
            f"integrand returned shape {mat.shape}, expected ({integrand.dim_out}, {integrand.dim_in})"
        )
    return mat


def _walk(process: ItoProcessSpec, sample: SamplePath) -> ItoPath:
    integrand = process.integrand
    spec = sample.spec
    if integrand.dim_in != spec.dim:
        raise ValueError(f"integrand input dim {integrand.dim_in} != noise dim {spec.dim}")
    grid = sample.grid
    n = grid.n_steps
    m = spec.n_cells
    dt = grid.dt
    times = grid.times
    total_rate = spec.tables.flavor("total").rate
    active = [j for j in range(m) if total_rate[j] > 0.0]
    d_out = integrand.dim_out

    driver = process.driver
    drv_steps = np.array(() if driver is None else driver.jump_steps, dtype=np.int64)
    for k in drv_steps.tolist():
        if not (0 <= k < n):
            raise ValueError(f"driver jump step {k} outside 0..{n - 1}")

    values = np.zeros((n + 1, d_out))
    values[0] = process.initial
    drift = np.zeros((n, d_out))
    dr = process.drift_rate * dt
    has_drift = bool(process.drift_rate.any())

    noise = sample.jumps
    delta = np.zeros((len(noise), d_out))
    if integrand.deterministic:
        phis = _deterministic_phis(integrand, sample, active)
        # one einsum for the continuous contributions of every step, one
        # stacked product for the deltas of every noise jump
        stoch = np.einsum("kjab,kjb->ka", phis[:, active], sample.gauss[:, active])
        if len(noise):
            delta = (phis[noise["step"], noise["cell"]] @ noise["amp"][:, :, None])[:, :, 0]
    else:
        phis = np.zeros((n, m, d_out, integrand.dim_in))
        stoch = np.zeros((n, d_out))
        history = PathHistory(sample, values)

    # jump rows in micro-order: a step's noise jumps by time, then its
    # driver jumps in the driver's order
    step, cell, time, amp = noise["step"], noise["cell"], noise["time"], noise["amp"]
    if len(drv_steps):
        pos = np.searchsorted(step, drv_steps, side="right")
        step, time = np.insert(step, pos, drv_steps), np.insert(time, pos, times[drv_steps + 1])
        cell, amp = np.insert(cell, pos, -1), np.insert(amp, pos, 0.0, axis=0)
        delta = np.insert(delta, pos, driver.values, axis=0)
    ends = np.searchsorted(step, np.arange(n), side="right").tolist()
    cells = cell.tolist()
    pre = np.zeros((len(step), d_out))

    hi = 0
    for k in range(n):
        lo, hi = hi, ends[k]
        v = values[k].copy()
        if has_drift:
            drift[k] = dr
            v += dr
        if not integrand.deterministic:
            history._cursor = k
            state = AdaptedState(step=k, time=times[k], value=values[k].copy(), history=history)
            sc = np.zeros(d_out)
            for j in active:
                mat = _checked_eval(integrand, state, j)
                phis[k, j] = mat
                sc += mat @ sample.gauss[k, j]
            stoch[k] = sc
            for i in range(lo, hi):
                if cells[i] >= 0:
                    delta[i] = phis[k, cells[i]] @ amp[i]
        v += stoch[k]
        for i in range(lo, hi):
            pre[i] = v
            v = v + delta[i]
        values[k + 1] = v

    jumps = np.empty(len(step), _jump_dtype(d_out))
    for name, column in zip(jumps.dtype.names, (step, time, cell, delta, pre)):
        jumps[name] = column
    jumps.setflags(write=False)
    values.setflags(write=False)
    phis.setflags(write=False)
    stoch.setflags(write=False)
    drift.setflags(write=False)
    return ItoPath(
        sample=sample,
        grid=grid,
        initial=process.initial,
        values=values,
        phis=phis,
        stoch_cont=stoch,
        drift=drift,
        jumps=jumps,
    )


def integrate(integrand: Integrand, sample: SamplePath) -> ItoPath:
    """Walk the stochastic integral of ``integrand`` against one noise path."""
    return _walk(ItoProcessSpec(integrand), sample)


def simulate_ito_process(process: ItoProcessSpec, sample: SamplePath) -> ItoPath:
    """Walk a process with drift and driver on top of the stochastic integral."""
    return _walk(process, sample)


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


@dataclass(frozen=True)
class Lambda2Result:
    value: float
    stderr: float
    n_paths: int


def lambda2_norm(
    integrand: Integrand,
    spec,
    grid: TimeGrid,
    flavor: str = "total",
    *,
    n_paths: int = 64,
    seed: int = 0,
) -> Lambda2Result:
    """Squared norm of an integrand under the flavor's control measure.

    Deterministic integrands are integrated exactly (stderr 0); adapted ones
    are estimated over ``n_paths`` fresh walks (stderr NaN for one walk).
    """
    if flavor not in QV_FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; expected one of {QV_FLAVORS}")
    spec = normalize_spec(spec)
    if integrand.deterministic:
        sample = sample_path(spec, grid, seed=seed, path_index=0)
        path = integrate(integrand, sample)
        return Lambda2Result(value=realized_lambda2_mass(path, flavor), stderr=0.0, n_paths=1)
    masses = np.empty(n_paths)
    for i in range(n_paths):
        sample = sample_path(spec, grid, seed=seed, path_index=i)
        masses[i] = realized_lambda2_mass(integrate(integrand, sample), flavor)
    mean, se = _mean_se(masses)
    return Lambda2Result(value=mean, stderr=se, n_paths=n_paths)


@dataclass(frozen=True)
class EventCheck:
    """Paired-difference test of the conditional isometry on one event."""

    name: str
    n_paths: int
    lhs: float
    rhs: float
    mean_diff: float
    stderr: float
    z: float
    event_rate: float


def conditional_isometry_check(
    integrand: Integrand,
    spec,
    grid: TimeGrid,
    s: float,
    t: float,
    events: dict,
    *,
    n_paths: int,
    seed: int = 0,
) -> list:
    """Test E[ ||I_t - I_s||^2 - (bracket_t - bracket_s) ; E ] = 0 per event.

    Each event must be decidable from the path's past at time s. Per path
    the paired difference (squared increment minus realized predictable
    bracket increment) is formed, weighted by the indicator; adaptedness
    makes its mean zero regardless of how the integrand feeds back on the
    path, so |z| is the headline number. z is NaN when the differences
    have no positive standard error (one path, or an event never hit).
    """
    spec = normalize_spec(spec)
    ks = grid.index_of(s)
    kt = grid.index_of(t)
    if ks >= kt:
        raise ValueError(f"need s < t on the grid, got steps {ks} >= {kt}")
    names = list(events)
    diffs = {name: np.empty(n_paths) for name in names}
    hits = {name: 0 for name in names}
    sq_sum = {name: 0.0 for name in names}
    br_sum = {name: 0.0 for name in names}
    for i in range(n_paths):
        sample = sample_path(spec, grid, seed=seed, path_index=i)
        path = integrate(integrand, sample)
        inc = path.values[kt] - path.values[ks]
        sq = float(inc @ inc)
        bracket = realized_lambda2_mass(path, "total", upto_step=kt) - realized_lambda2_mass(
            path, "total", upto_step=ks
        )
        for name in names:
            ind = 1.0 if events[name](path, ks) else 0.0
            diffs[name][i] = ind * (sq - bracket)
            if ind:
                hits[name] += 1
                sq_sum[name] += sq
                br_sum[name] += bracket
    out = []
    for name in names:
        mean, se = _mean_se(diffs[name])
        z = _z_score(mean, se)
        out.append(
            EventCheck(
                name=name,
                n_paths=n_paths,
                lhs=sq_sum[name] / n_paths,
                rhs=br_sum[name] / n_paths,
                mean_diff=mean,
                stderr=se,
                z=z,
                event_rate=hits[name] / n_paths,
            )
        )
    return out


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
    the OUTER integral's running value and applied to the driver's whole
    step increment. Used as the direct route in associativity checks.
    """
    total = np.zeros(dim_out)
    times = driver.grid.times
    for k in range(driver.grid.n_steps):
        mat = np.asarray(outer(k, float(times[k]), total))
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
    walk is left-frozen in both routes. An adapted ``inner`` sees its own
    running value, not the composition's: the closure restarts it at step 0
    and, on entering step k, adds the operators inner returned in step k - 1
    applied to that step's noise increments, which the left-frozen walk
    makes exactly the inner integral at t_k.
    """
    inner_eval = inner.evaluator
    if not inner.deterministic:
        step, value, mats = -1, None, {}

        def inner_eval(state: AdaptedState, cell: int) -> np.ndarray:
            nonlocal step, value, mats
            if state.step != step:
                if state.step == 0:
                    value, mats = np.zeros(inner.dim_out), {}
                past, k = state.history, state.step - 1
                for j, mat in mats.items():
                    value = value + mat @ (past.gauss_increment(k, j) + past.jump_sum(k, j))
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
