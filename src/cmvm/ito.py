"""Discrete chain rule for functions of walked paths.

For a C^{1,2} function f and a walked path X the change f(T, X_T) - f(0, X_0)
splits into five terms, each a sum over the walk's micro-increments:

* time: left Riemann sum of the partial time derivative;
* fv: the gradient paired with drift increments and with driver jumps
  (at their refined pre-jump values);
* stoch: the gradient paired with the continuous stochastic increments and
  with the noise jumps (again at pre-jump values);
* trace: half the Hessian against the continuous covariance, either in
  compensator form (integrand against the control measure) or realized form
  (the actual squared continuous increments);
* jump: the second-order jump correction f(post) - f(pre) - f_x(pre) dx,
  over noise and driver jumps alike.

With the realized trace form, no drift and a quadratic f the five terms
telescope and reproduce the change exactly, path by path; everything beyond
that is a statistical statement in the step size.

The module also carries the integral-form Taylor remainder (the object whose
smallness makes the trace term the right second-order price) and a sampled
modulus for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .integrate import ItoPath

__all__ = [
    "SmoothFunction",
    "make_smooth",
    "SMOOTH_NAMES",
    "finite_difference_check",
    "ItoTerms",
    "ito_terms",
    "ito_residual",
    "NormPowerTerms",
    "norm_power_expansion",
    "taylor_remainder",
    "taylor_remainder_quadrature",
    "gamma_estimate",
]


@dataclass(frozen=True)
class SmoothFunction:
    """A C^{1,2} map f(t, x) with hand-coded derivatives.

    value returns shape (dim_value,); d_t the same; d_x the Jacobian
    (dim_value, d); d_xx the Hessian stack (dim_value, d, d). All take
    (t, x) with x a coordinate vector of any dimension the map supports.
    """

    name: str
    dim_value: int
    value: Callable[[float, np.ndarray], np.ndarray]
    d_t: Callable[[float, np.ndarray], np.ndarray]
    d_x: Callable[[float, np.ndarray], np.ndarray]
    d_xx: Callable[[float, np.ndarray], np.ndarray]


def _quadratic() -> SmoothFunction:
    return SmoothFunction(
        name="quadratic",
        dim_value=1,
        value=lambda t, x: np.array([float(x @ x)]),
        d_t=lambda t, x: np.zeros(1),
        d_x=lambda t, x: (2.0 * x)[None, :],
        d_xx=lambda t, x: 2.0 * np.eye(x.shape[0])[None, :, :],
    )


def _linear(c: float) -> SmoothFunction:
    return SmoothFunction(
        name=f"linear:{c}",
        dim_value=1,
        value=lambda t, x: np.array([c * float(x.sum())]),
        d_t=lambda t, x: np.zeros(1),
        d_x=lambda t, x: np.full((1, x.shape[0]), c),
        d_xx=lambda t, x: np.zeros((1, x.shape[0], x.shape[0])),
    )


def _norm_power(p: float) -> SmoothFunction:
    if p <= 2.0:
        raise ValueError(f"norm_p needs p > 2 for a C^2 function at the origin, got p={p}")

    def value(t, x):
        return np.array([float(np.linalg.norm(x) ** p)])

    def d_x(t, x):
        r = float(np.linalg.norm(x))
        if r == 0.0:
            return np.zeros((1, x.shape[0]))
        return (p * r ** (p - 2.0) * x)[None, :]

    def d_xx(t, x):
        d = x.shape[0]
        r = float(np.linalg.norm(x))
        if r == 0.0:
            return np.zeros((1, d, d))
        outer = np.outer(x, x)
        return (p * (p - 2.0) * r ** (p - 4.0) * outer + p * r ** (p - 2.0) * np.eye(d))[None]

    return SmoothFunction(
        name=f"norm_p:{p}",
        dim_value=1,
        value=value,
        d_t=lambda t, x: np.zeros(1),
        d_x=d_x,
        d_xx=d_xx,
    )


def _gauss_cos() -> SmoothFunction:
    """exp(-|x|^2 / 2) * cos(t + <w, x>) with w_i = 1 / (i + 1).

    Bounded with bounded derivatives and genuinely time-dependent, which is
    what the step-size refinement studies need.
    """

    def w_of(d):
        return 1.0 / (1.0 + np.arange(d))

    def value(t, x):
        w = w_of(x.shape[0])
        return np.array([float(np.exp(-0.5 * x @ x) * np.cos(t + w @ x))])

    def d_t(t, x):
        w = w_of(x.shape[0])
        return np.array([-float(np.exp(-0.5 * x @ x) * np.sin(t + w @ x))])

    def d_x(t, x):
        w = w_of(x.shape[0])
        g = float(np.exp(-0.5 * x @ x))
        theta = t + float(w @ x)
        return (-g * (x * np.cos(theta) + w * np.sin(theta)))[None, :]

    def d_xx(t, x):
        d = x.shape[0]
        w = w_of(d)
        g = float(np.exp(-0.5 * x @ x))
        theta = t + float(w @ x)
        c, s = np.cos(theta), np.sin(theta)
        h = (
            np.outer(x, x) * c
            + np.outer(x, w) * s
            + np.outer(w, x) * s
            - np.outer(w, w) * c
            - np.eye(d) * c
        )
        return (g * h)[None, :, :]

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
    if name.startswith("linear:"):
        return _linear(float(name.split(":", 1)[1]))
    if name.startswith("norm_p:"):
        return _norm_power(float(name.split(":", 1)[1]))
    raise ValueError(f"unknown smooth function {name!r}; expected one of {SMOOTH_NAMES}")


def finite_difference_check(f: SmoothFunction, t: float, x, step: float = 1e-5) -> dict:
    """Central-difference errors of the coded derivatives at one point.

    Returns absolute errors scaled by max(1, |derivative|); anything above
    about sqrt(step) means a wrong derivative rather than rounding.
    """
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[0]
    dt_num = (f.value(t + step, x) - f.value(t - step, x)) / (2 * step)
    errs = {"d_t": float(np.abs(dt_num - f.d_t(t, x)).max())}
    jac = np.zeros((f.dim_value, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = step
        jac[:, i] = (f.value(t, x + e) - f.value(t, x - e)) / (2 * step)
    errs["d_x"] = float(np.abs(jac - f.d_x(t, x)).max() / max(1.0, np.abs(jac).max()))
    hess = np.zeros((f.dim_value, d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = step
        hess[:, :, i] = (f.d_x(t, x + e) - f.d_x(t, x - e)) / (2 * step)
    sym = 0.5 * (hess + np.swapaxes(hess, 1, 2))
    errs["d_xx"] = float(np.abs(sym - f.d_xx(t, x)).max() / max(1.0, np.abs(sym).max()))
    return errs


_TRACE_VARIANTS = ("compensator", "realized")


@dataclass(frozen=True)
class ItoTerms:
    """The five chain-rule terms of one path, each of shape (dim_value,)."""

    time: np.ndarray
    fv: np.ndarray
    stoch: np.ndarray
    trace: np.ndarray
    jump: np.ndarray
    variant: str

    @property
    def total(self) -> np.ndarray:
        return self.time + self.fv + self.stoch + self.trace + self.jump


def ito_terms(path: ItoPath, f: SmoothFunction, trace_variant: str = "compensator") -> ItoTerms:
    """Chain-rule decomposition of f along one walked path.

    The trace term prices the continuous second-order variation either
    against the control measure ("compensator") or against the realized
    squared continuous increments ("realized"). Jump-localized evaluations
    use the jump's own time and refined pre-jump value.
    """
    if trace_variant not in _TRACE_VARIANTS:
        raise ValueError(
            f"unknown trace variant {trace_variant!r}; expected one of {_TRACE_VARIANTS}"
        )
    k_dim = f.dim_value
    n = path.grid.n_steps
    dt = path.grid.dt
    times = path.grid.times
    cont = path.sample.spec.tables.flavor("continuous")
    cont_rate, roots = cont.rate, cont.root

    time_term = np.zeros(k_dim)
    fv_term = np.zeros(k_dim)
    stoch_term = np.zeros(k_dim)
    trace_term = np.zeros(k_dim)
    jump_term = np.zeros(k_dim)

    for k in range(n):
        t = float(times[k])
        x = path.values[k]
        time_term += f.d_t(t, x) * dt
        grad = f.d_x(t, x)
        if path.drift[k].any():
            fv_term += grad @ path.drift[k]
        stoch_term += grad @ path.stoch_cont[k]
        hess = f.d_xx(t, x)
        if trace_variant == "realized":
            s = path.stoch_cont[k]
            trace_term += 0.5 * np.einsum("qab,a,b->q", hess, s, s)
        else:
            for j in np.nonzero(cont_rate)[0]:
                m = path.phis[k, j] @ roots[j]
                trace_term += 0.5 * cont_rate[j] * dt * np.einsum("qab,ac,bc->q", hess, m, m)

    for rec in path.jumps:
        tau, pre, dx = float(rec["time"]), rec["pre"], rec["delta"]
        step_inc = f.d_x(tau, pre) @ dx
        if rec["cell"] >= 0:
            stoch_term += step_inc
        else:
            fv_term += step_inc
        jump_term += f.value(tau, pre + dx) - f.value(tau, pre) - step_inc

    return ItoTerms(
        time=time_term,
        fv=fv_term,
        stoch=stoch_term,
        trace=trace_term,
        jump=jump_term,
        variant=trace_variant,
    )


def ito_residual(path: ItoPath, f: SmoothFunction, trace_variant: str = "compensator") -> np.ndarray:
    """f(T, X_T) - f(0, X_0) minus the five-term total."""
    change = f.value(float(path.grid.horizon), path.values[-1]) - f.value(0.0, path.values[0])
    return change - ito_terms(path, f, trace_variant).total


@dataclass(frozen=True)
class NormPowerTerms:
    """Chain-rule terms of |x|^p with the trace split into its two pieces.

    trace_outer carries the (p - 2)-weighted rank-one part <x, dx>^2 and
    trace_hs the isotropic part |dx|^2; their sum is the generic trace term.
    """

    p: float
    fv: float
    stoch: float
    trace_outer: float
    trace_hs: float
    jump: float
    variant: str

    @property
    def total(self) -> float:
        return self.fv + self.stoch + self.trace_outer + self.trace_hs + self.jump


def norm_power_expansion(path: ItoPath, p: float, trace_variant: str = "compensator") -> NormPowerTerms:
    """Specialized chain rule for f(x) = |x|^p, p > 2.

    Same change as the generic route, but with the Hessian's two pieces kept
    apart; the split is what the p-th moment bounds consume. For the
    compensator variant the rank-one piece uses |root^T x|^2, the partial
    trace of x (x) x along the cell's root.
    """
    if p <= 2.0:
        raise ValueError(f"norm power expansion needs p > 2, got p={p}")
    if trace_variant not in _TRACE_VARIANTS:
        raise ValueError(
            f"unknown trace variant {trace_variant!r}; expected one of {_TRACE_VARIANTS}"
        )
    n = path.grid.n_steps
    dt = path.grid.dt
    cont = path.sample.spec.tables.flavor("continuous")
    cont_rate, roots = cont.rate, cont.root

    fv = stoch = trace_outer = trace_hs = jump = 0.0
    for k in range(n):
        x = path.values[k]
        r = float(np.linalg.norm(x))
        grad = p * r ** (p - 2.0) * x if r > 0.0 else np.zeros_like(x)
        if path.drift[k].any():
            fv += float(grad @ path.drift[k])
        s = path.stoch_cont[k]
        stoch += float(grad @ s)
        c_outer = 0.5 * p * (p - 2.0) * r ** (p - 4.0) if r > 0.0 else 0.0
        c_hs = 0.5 * p * r ** (p - 2.0) if r > 0.0 else 0.0
        if trace_variant == "realized":
            trace_outer += c_outer * float(x @ s) ** 2
            trace_hs += c_hs * float(s @ s)
        else:
            for j in np.nonzero(cont_rate)[0]:
                m = path.phis[k, j] @ roots[j]
                proj = m.T @ x
                mass = cont_rate[j] * dt
                trace_outer += c_outer * float(proj @ proj) * mass
                trace_hs += c_hs * float(np.sum(m * m)) * mass

    for rec in path.jumps:
        pre, dx = rec["pre"], rec["delta"]
        r = float(np.linalg.norm(pre))
        grad_inc = p * r ** (p - 2.0) * float(pre @ dx) if r > 0.0 else 0.0
        if rec["cell"] >= 0:
            stoch += grad_inc
        else:
            fv += grad_inc
        jump += float(np.linalg.norm(pre + dx) ** p - r**p) - grad_inc

    return NormPowerTerms(
        p=p, fv=fv, stoch=stoch, trace_outer=trace_outer, trace_hs=trace_hs,
        jump=jump, variant=trace_variant,
    )


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


def taylor_remainder_quadrature(f: SmoothFunction, t: float, x, y, n_nodes: int = 16) -> np.ndarray:
    """The same remainder in integral form.

    Integrates (1 - s) [f_xx(t, x + s(y - x)) - f_xx(t, x)](y - x, y - x) over
    s in [0, 1] with Gauss-Legendre nodes; 16 nodes are exact for any
    polynomial integrand the registered functions produce.
    """
    if n_nodes < 16:
        raise ValueError(f"use at least 16 quadrature nodes, got {n_nodes}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    d = y - x
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    s_vals = 0.5 * (nodes + 1.0)
    w_vals = 0.5 * weights
    base = f.d_xx(t, x)
    out = np.zeros(f.dim_value)
    for s, w in zip(s_vals, w_vals):
        diff = f.d_xx(t, x + s * d) - base
        out += w * (1.0 - s) * np.einsum("qab,a,b->q", diff, d, d)
    return out


def gamma_estimate(
    f: SmoothFunction,
    deltas: Sequence[float],
    *,
    dim: int,
    n_samples: int = 400,
    seed: int = 0,
    t_max: float = 1.0,
    radius: float = 2.0,
) -> list:
    """Sampled modulus sup |remainder| / |y - x|^2 at each displacement scale.

    For each delta, draws base points in a ball and displacements up to
    delta, and records the largest remainder-to-squared-displacement ratio.
    A C^2 function's modulus must decay as delta shrinks; sampling
    underestimates the true supremum, which is fine for a decay check.
    """
    rng = np.random.default_rng(seed)
    out = []
    for delta in deltas:
        worst = 0.0
        for _ in range(n_samples):
            t = float(rng.uniform(0.0, t_max))
            x = rng.standard_normal(dim)
            x *= rng.uniform(0.0, radius) / max(np.linalg.norm(x), 1e-12)
            v = rng.standard_normal(dim)
            v /= max(np.linalg.norm(v), 1e-12)
            r = float(rng.uniform(0.0, 1.0)) * delta
            if r == 0.0:
                continue
            y = x + r * v
            h = taylor_remainder(f, t, x, y)
            worst = max(worst, float(np.linalg.norm(h)) / r**2)
        out.append(worst)
    return out
