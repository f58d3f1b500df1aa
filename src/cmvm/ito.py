"""Discrete chain rule for functions of walked paths.

For a C^{1,2} function f and a walked path X the change f(T, X_T) - f(0, X_0)
splits into five terms, each a sum over the walk's micro-increments:

* time: left Riemann sum of the partial time derivative;
* fv: the gradient paired with the drift increments;
* stoch: the gradient paired with the continuous stochastic increments and
  with the noise jumps (at their refined pre-jump values);
* trace: half the Hessian against the continuous covariance, either in
  compensator form (integrand against the control measure) or realized form
  (the actual squared continuous increments);
* jump: the second-order jump correction f(post) - f(pre) - f_x(pre) dx
  over the noise jumps.

With the realized trace form, no drift and a quadratic f the five terms
telescope and reproduce the change exactly, path by path; everything beyond
that is a statistical statement in the step size.

The registered functions (``make_smooth``) carry hand-coded derivatives,
which ``finite_difference_check`` compares with central differences; the
p-th power of the norm is one of them, so its chain rule is ``ito_terms``
with ``norm_p:<p>``. Each function and derivative broadcasts over leading
axes of (t, x), so ``ito_terms`` prices a walked chunk at once (a path is
a chunk of one): it takes an ``ItoChunk``, and makes one call per
derivative over the chunk's (P, n, d) step-start points and one over its
jump rows at their pre- and post-jump values, each row tagged with its
path. A path's terms do not depend on its chunk; ``verify-ito`` and
``ito-converge`` price each chunk they walk in one call. The module also
carries the integral-form Taylor remainder (the object whose smallness
makes the trace term the right second-order price), evaluated at all
quadrature nodes in one call, and a sampled modulus for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .integrate import ItoChunk, _sum_by_path
from .noise import _checked, _frozen
from .quadvar import _bracket_steps

__all__ = [
    "SmoothFunction",
    "make_smooth",
    "SMOOTH_NAMES",
    "finite_difference_check",
    "ItoTerms",
    "ito_terms",
    "ito_residual",
    "taylor_remainder",
    "taylor_remainder_quadrature",
    "gamma_estimate",
]


@dataclass(frozen=True)
class SmoothFunction:
    """A C^{1,2} map f(t, x) with hand-coded derivatives.

    Each callable broadcasts over leading axes: t of shape (...) and x of
    shape (..., d), for any d the map supports, give value and d_t of shape
    (..., dim_value), Jacobians d_x (..., dim_value, d) and Hessian stacks
    d_xx (..., dim_value, d, d). A float t with a vector x is one point.
    """

    name: str
    dim_value: int
    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d_t: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d_x: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d_xx: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _zeros(x, *tail):
    """Zeros of shape (..., 1, *tail) for the leading axes of x."""
    return np.zeros(x.shape[:-1] + (1,) + tail)


def _outer(a, b):
    """Batched outer products: (..., d) x (..., d) -> (..., d, d)."""
    return a[..., :, None] * b[..., None, :]


def _quadratic() -> SmoothFunction:
    return SmoothFunction(
        name="quadratic",
        dim_value=1,
        value=lambda t, x: np.vecdot(x, x)[..., None],
        d_t=lambda t, x: _zeros(x),
        d_x=lambda t, x: (2.0 * x)[..., None, :],
        d_xx=lambda t, x: _zeros(x, x.shape[-1], x.shape[-1]) + 2.0 * np.eye(x.shape[-1]),
    )


def _linear(c: float) -> SmoothFunction:
    return SmoothFunction(
        name=f"linear:{c}",
        dim_value=1,
        value=lambda t, x: c * x.sum(axis=-1)[..., None],
        d_t=lambda t, x: _zeros(x),
        d_x=lambda t, x: np.full(x.shape[:-1] + (1, x.shape[-1]), c),
        d_xx=lambda t, x: _zeros(x, x.shape[-1], x.shape[-1]),
    )


def _norm_power(p: float) -> SmoothFunction:
    if p <= 2.0:
        raise ValueError(f"norm_p needs p > 2 for a C^2 function at the origin, got p={p}")

    # r ** (p - 2) is 0 at the origin, so value and d_x need no special case
    def d_x(t, x):
        r = np.sqrt(np.vecdot(x, x))
        return ((p * r ** (p - 2.0))[..., None] * x)[..., None, :]

    def d_xx(t, x):
        r = np.sqrt(np.vecdot(x, x))
        # r ** (p - 4) blows up at the origin for p < 4; the mask puts the
        # Hessian's limit, 0, there
        with np.errstate(divide="ignore", invalid="ignore"):
            h = (p * (p - 2.0) * r ** (p - 4.0))[..., None, None] * _outer(x, x) + (
                p * r ** (p - 2.0)
            )[..., None, None] * np.eye(x.shape[-1])
        return np.where((r > 0.0)[..., None, None], h, 0.0)[..., None, :, :]

    return SmoothFunction(
        name=f"norm_p:{p}",
        dim_value=1,
        value=lambda t, x: (np.sqrt(np.vecdot(x, x)) ** p)[..., None],
        d_t=lambda t, x: _zeros(x),
        d_x=d_x,
        d_xx=d_xx,
    )


def _gauss_cos() -> SmoothFunction:
    """exp(-|x|^2 / 2) * cos(t + <w, x>) with w_i = 1 / (i + 1).

    Bounded with bounded derivatives and genuinely time-dependent, which is
    what the step-size refinement studies need.
    """

    def parts(t, x):
        """w, the Gaussian factor g and the phase theta, over the leading axes."""
        w = 1.0 / (1.0 + np.arange(x.shape[-1]))
        return w, np.exp(-0.5 * np.vecdot(x, x)), t + np.vecdot(x, w)

    def value(t, x):
        _, g, theta = parts(t, x)
        return (g * np.cos(theta))[..., None]

    def d_t(t, x):
        _, g, theta = parts(t, x)
        return -(g * np.sin(theta))[..., None]

    def d_x(t, x):
        w, g, theta = parts(t, x)
        c, s = np.cos(theta)[..., None], np.sin(theta)[..., None]
        return (-g[..., None] * (x * c + w * s))[..., None, :]

    def d_xx(t, x):
        w, g, theta = parts(t, x)
        c, s = np.cos(theta)[..., None, None], np.sin(theta)[..., None, None]
        h = (
            _outer(x, x) * c
            + _outer(x, w) * s
            + _outer(w, x) * s
            - np.outer(w, w) * c
            - np.eye(x.shape[-1]) * c
        )
        return (g[..., None, None] * h)[..., None, :, :]

    return SmoothFunction(
        name="gauss_cos", dim_value=1, value=value, d_t=d_t, d_x=d_x, d_xx=d_xx
    )


SMOOTH_NAMES = ("quadratic", "linear:<c>", "norm_p:<p>", "gauss_cos")


def make_smooth(name: str) -> SmoothFunction:
    """Build a registered test function: quadratic, linear:<c>, norm_p:<p>,
    or gauss_cos."""
    if name == "quadratic":
        return _quadratic()
    if name == "gauss_cos":
        return _gauss_cos()
    if name.startswith(("linear:", "norm_p:")):
        kind, text = name.split(":", 1)
        param = float(text)
        if not np.isfinite(param):
            raise ValueError(f"{kind} needs a finite parameter, got {text!r}")
        return (_linear if kind == "linear" else _norm_power)(param)
    raise ValueError(f"unknown smooth function {name!r}; expected one of {SMOOTH_NAMES}")


# Central-difference step, and the bound on the finite-difference error of
# a correct derivative at that step: the registered functions stay below
# 1e-9, and a Hessian 1% off reads about 1e-2.
FD_STEP = 1e-5
FD_TOL = 1e-4


def finite_difference_check(f: SmoothFunction, t: float, x) -> dict:
    """Central-difference errors of the coded derivatives at one point.

    Returns absolute errors scaled by max(1, |derivative|); anything above
    ``FD_TOL`` means a wrong derivative rather than rounding.
    """
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[0]
    dt_num = (f.value(t + FD_STEP, x) - f.value(t - FD_STEP, x)) / (2 * FD_STEP)
    errs = {"d_t": float(np.abs(dt_num - f.d_t(t, x)).max())}
    jac = np.zeros((f.dim_value, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = FD_STEP
        jac[:, i] = (f.value(t, x + e) - f.value(t, x - e)) / (2 * FD_STEP)
    errs["d_x"] = float(np.abs(jac - f.d_x(t, x)).max() / max(1.0, np.abs(jac).max()))
    hess = np.zeros((f.dim_value, d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = FD_STEP
        hess[:, :, i] = (f.d_x(t, x + e) - f.d_x(t, x - e)) / (2 * FD_STEP)
    sym = 0.5 * (hess + np.swapaxes(hess, 1, 2))
    errs["d_xx"] = float(np.abs(sym - f.d_xx(t, x)).max() / max(1.0, np.abs(sym).max()))
    return errs


_TRACE_VARIANTS = ("compensator", "realized")


@dataclass(frozen=True)
class ItoTerms:
    """The five chain-rule terms of each path of a chunk of P paths, each of
    shape (P, dim_value)."""

    time: np.ndarray
    fv: np.ndarray
    stoch: np.ndarray
    trace: np.ndarray
    jump: np.ndarray
    variant: str

    @property
    def total(self) -> np.ndarray:
        return self.time + self.fv + self.stoch + self.trace + self.jump


def ito_terms(chunk: ItoChunk, f: SmoothFunction, trace_variant: str = "compensator") -> ItoTerms:
    """Chain-rule decomposition of f along each path of a walked chunk,
    priced together.

    The trace term prices the continuous second-order variation either
    against the control measure ("compensator") or against the realized
    squared continuous increments ("realized"). Jump-localized evaluations
    use the jump's own time and refined pre-jump value.
    """
    if trace_variant not in _TRACE_VARIANTS:
        raise ValueError(
            f"unknown trace variant {trace_variant!r}; expected one of {_TRACE_VARIANTS}"
        )
    grid = _checked(chunk, ItoChunk).grid
    n, n_paths = grid.n_steps, len(chunk)
    # step-start points (P, n, d) against the times (n,)
    t, x, stoch = grid.times[:n], chunk.values[:, :n], chunk.stoch_cont
    grad = f.d_x(t, x)
    hess = f.d_xx(t, x)
    if trace_variant == "compensator":
        # the continuous operator steps S_k price the trace as 0.5 <hess, S_k>
        steps = _bracket_steps(chunk, "continuous", operator=True)
        trace = 0.5 * np.einsum("pnkab,pnab->pk", hess, steps)
    else:
        trace = 0.5 * np.einsum("pnkab,pna,pnb->pk", hess, stoch, stoch)

    # the chunk's jump rows, each with the index of its path
    pid, time = chunk.samples.pid, chunk.samples.jumps["time"]
    pre, dx = chunk.pre, chunk.delta
    inc = np.einsum("jkd,jd->jk", f.d_x(time, pre), dx)
    jump = f.value(time, pre + dx) - f.value(time, pre) - inc
    terms = {
        "time": f.d_t(t, x).sum(axis=1) * grid.dt,
        "fv": np.einsum("pnkd,nd->pk", grad, chunk.drift),
        "stoch": np.einsum("pnkd,pnd->pk", grad, stoch) + _sum_by_path(inc, pid, n_paths),
        "trace": trace,
        "jump": _sum_by_path(jump, pid, n_paths),
    }
    return ItoTerms(**terms, variant=trace_variant)


def ito_residual(
    chunk: ItoChunk, f: SmoothFunction, trace_variant: str = "compensator"
) -> np.ndarray:
    """f(T, X_T) - f(0, X_0) minus the five-term total of each path, (P, dim_value)."""
    ends = _checked(chunk, ItoChunk).values[:, [0, -1]]
    change = f.value(float(chunk.grid.horizon), ends[:, 1]) - f.value(0.0, ends[:, 0])
    return change - ito_terms(chunk, f, trace_variant).total


def taylor_remainder(f: SmoothFunction, t: float, x, y) -> np.ndarray:
    """Second-order Taylor remainder of f(t, .) between x and y, directly."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    d = y - x
    return (
        f.value(t, y)
        - f.value(t, x)
        - f.d_x(t, x) @ d
        - 0.5 * np.einsum("qab,a,b->q", f.d_xx(t, x), d, d)
    )


@lru_cache(maxsize=None)
def _unit_gauss_legendre() -> tuple:
    """16 Gauss-Legendre nodes moved to [0, 1] and their weights, read-only;
    built on first use, since numpy.polynomial takes milliseconds to import."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    return _frozen(0.5 * (nodes + 1.0)), _frozen(0.5 * weights)


def taylor_remainder_quadrature(f: SmoothFunction, t: float, x, y) -> np.ndarray:
    """The same remainder in integral form.

    Integrates (1 - s) [f_xx(t, x + s(y - x)) - f_xx(t, x)](y - x, y - x) over
    s in [0, 1] with Gauss-Legendre nodes; 16 nodes are exact for any
    polynomial integrand the registered functions produce.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    d = y - x
    s_vals, w_vals = _unit_gauss_legendre()
    diff = f.d_xx(t, x + s_vals[:, None] * d) - f.d_xx(t, x)
    return np.einsum("s,sqab,a,b->q", w_vals * (1.0 - s_vals), diff, d, d)


def gamma_estimate(
    f: SmoothFunction,
    deltas: Sequence[float],
    *,
    dim: int,
    n_samples: int = 400,
    seed: int = 0,
) -> list:
    """Sampled modulus sup |remainder| / |y - x|^2 at each displacement scale.

    For each delta, draws times in [0, 1], base points in the ball of radius
    2 and displacements up to delta, and records the largest
    remainder-to-squared-displacement ratio. A C^2 function's modulus must
    decay as delta shrinks; sampling underestimates the true supremum, which
    is fine for a decay check.
    """
    rng = np.random.default_rng(seed)
    out = []
    for delta in deltas:
        ratios = np.zeros(n_samples)
        for i in range(n_samples):
            t = float(rng.uniform(0.0, 1.0))
            x = rng.standard_normal(dim)
            x *= rng.uniform(0.0, 2.0) / max(np.linalg.norm(x), 1e-12)
            v = rng.standard_normal(dim)
            v /= max(np.linalg.norm(v), 1e-12)
            r = float(rng.uniform(0.0, 1.0)) * delta
            if r == 0.0:
                continue
            y = x + r * v
            ratios[i] = float(np.linalg.norm(taylor_remainder(f, t, x, y))) / r**2
        out.append(float(np.max(ratios, initial=0.0)))  # a NaN ratio stays NaN
    return out
