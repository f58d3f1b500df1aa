"""Chain-rule decomposition, Taylor remainders and the registered derivatives."""

import numpy as np
import pytest

from cmvm.integrate import (
    ItoProcessSpec,
    constant_integrand,
    deterministic_integrand,
    integrate,
    integrate_process,
    compose_integrands,
    simulate_ito_process,
    state_linear_integrand,
)
from cmvm.ito import (
    FD_TOL,
    finite_difference_check,
    gamma_estimate,
    ito_residual,
    ito_terms,
    make_smooth,
    taylor_remainder,
    taylor_remainder_quadrature,
)
from cmvm.noise import TimeGrid, sample_path
from cmvm.presets import make_preset
from cmvm.quadvar import _bracket_steps

PHI = np.array([[0.9, 0.2], [-0.3, 1.1]])
REGISTERED = ["quadratic", "linear:0.7", "norm_p:4", "norm_p:3", "gauss_cos"]


@pytest.fixture(scope="module")
def mixed():
    return make_preset("mixed-default")


@pytest.fixture(scope="module")
def grid8():
    return TimeGrid(1.0, 8)


def _walk(spec, grid, integrand, *, seed, path_indices, drift=None):
    proc = ItoProcessSpec(integrand, drift_rate=drift)
    return simulate_ito_process(proc, sample_path(spec, grid, seed, path_indices))


# ---------------------------------------------------------------- registry


@pytest.mark.parametrize("name", REGISTERED)
@pytest.mark.parametrize("point", [[0.4, -1.1], [2.0, 0.3]])
def test_registry_derivatives_match_finite_differences(name, point):
    f = make_smooth(name)
    errs = finite_difference_check(f, 0.37, np.array(point))
    assert errs["d_t"] < FD_TOL
    assert errs["d_x"] < FD_TOL
    assert errs["d_xx"] < FD_TOL


@pytest.mark.parametrize("name", REGISTERED)
def test_smooth_functions_broadcast(name):
    """A batch of points gives the stacked single-point results, an empty
    batch gives empty stacks, and the origin (where norm_p's Hessian is a
    limit) is one of the points. norm_p may differ in the last bits, since
    numpy's array power and its scalar power may round differently."""
    f = make_smooth(name)
    rng = np.random.default_rng(11)
    d = 3
    t = rng.uniform(0.0, 1.0, 12)
    x = rng.uniform(-1.5, 1.5, (12, d))
    x[4] = 0.0
    for attr, tail in (("value", ()), ("d_t", ()), ("d_x", (d,)), ("d_xx", (d, d))):
        fn = getattr(f, attr)
        batch = fn(t, x)
        stacked = np.stack([fn(float(ti), xi) for ti, xi in zip(t, x)])
        assert batch.shape == stacked.shape == (12, 1) + tail
        assert np.all(np.isfinite(batch))
        if name.startswith("norm_p"):
            np.testing.assert_allclose(batch, stacked, rtol=1e-14, atol=0.0)
        else:
            np.testing.assert_array_equal(batch, stacked)
        assert fn(t.reshape(3, 4), x.reshape(3, 4, d)).shape == (3, 4, 1) + tail
        assert fn(np.zeros(0), np.zeros((0, d))).shape == (0, 1) + tail


@pytest.mark.parametrize("name", REGISTERED)
def test_taylor_helpers_broadcast(name):
    """Both remainder routes and the finite-difference check take a batch of
    points as the functions do: 12 points at d = 3, the origin among them,
    give the stacked point calls, and (3, 4) and empty batches give their
    shapes. norm_p is held to 1e-14 relative, for the reason above."""
    f = make_smooth(name)
    rng = np.random.default_rng(11)
    d = 3
    t = rng.uniform(0.0, 1.0, 12)
    x = rng.uniform(-1.5, 1.5, (12, d))
    x[4] = 0.0
    y = x + rng.uniform(-1.0, 1.0, (12, d))

    def same(batch, stacked):
        if name.startswith("norm_p"):
            np.testing.assert_allclose(batch, stacked, rtol=1e-14, atol=0.0)
        else:
            np.testing.assert_array_equal(batch, stacked)

    for route in (taylor_remainder, taylor_remainder_quadrature):
        batch = route(f, t, x, y)
        assert batch.shape == (12, 1) and np.all(np.isfinite(batch))
        same(batch, np.stack([route(f, float(ti), xi, yi) for ti, xi, yi in zip(t, x, y)]))
        assert route(f, t.reshape(3, 4), x.reshape(3, 4, d), y.reshape(3, 4, d)).shape == (3, 4, 1)
        assert route(f, np.zeros(0), np.zeros((0, d)), np.zeros((0, d))).shape == (0, 1)
    errs = finite_difference_check(f, t, x)
    points = [finite_difference_check(f, float(ti), xi) for ti, xi in zip(t, x)]
    assert list(errs) == ["d_t", "d_x", "d_xx"]
    for key, batch in errs.items():
        assert batch.shape == (12,) and np.all(batch < FD_TOL)
        same(batch, np.array([point[key] for point in points]))
    for shape, (tb, xb) in {(3, 4): (t.reshape(3, 4), x.reshape(3, 4, d)), (0,): (t[:0], x[:0])}.items():
        assert all(e.shape == shape for e in finite_difference_check(f, tb, xb).values())


def test_registry_rejects_unknown_and_shallow_powers():
    with pytest.raises(ValueError, match="unknown smooth function"):
        make_smooth("cubic-spline")
    with pytest.raises(ValueError, match="p > 2"):
        make_smooth("norm_p:2")
    with pytest.raises(ValueError, match="p > 2"):
        make_smooth("norm_p:1.5")


# ------------------------------------------------------- Taylor remainder


def test_taylor_remainder_frozen_quartic():
    # f(x) = x^4 in one dimension: f(2) - f(1) - f'(1) - f''(1)/2 = 16 - 1 - 4 - 6.
    f = make_smooth("norm_p:4")
    x, y = np.array([1.0]), np.array([2.0])
    direct = taylor_remainder(f, 0.0, x, y)
    quad = taylor_remainder_quadrature(f, 0.0, x, y)
    assert direct.shape == (1,)
    assert abs(direct[0] - 5.0) < 1e-12
    assert abs(quad[0] - 5.0) < 1e-12


@pytest.mark.parametrize("name", ["quadratic", "linear:1.5", "norm_p:4", "gauss_cos"])
def test_taylor_routes_agree_on_registered_set(name):
    f = make_smooth(name)
    rng = np.random.default_rng(7)
    for _ in range(40):
        t = float(rng.uniform(0.0, 1.0))
        x = rng.uniform(-1.5, 1.5, size=2)
        y = x + rng.uniform(-1.0, 1.0, size=2)
        direct = taylor_remainder(f, t, x, y)
        quad = taylor_remainder_quadrature(f, t, x, y)
        assert np.abs(direct - quad).max() < 1e-8
    if name in ("quadratic", "linear:1.5"):
        # second-order Taylor is already exact for these
        assert np.abs(taylor_remainder(f, 0.2, [1.0, -2.0], [0.5, 3.0])).max() < 1e-12


def test_gamma_modulus_decays():
    f = make_smooth("norm_p:4")
    sups = gamma_estimate(f, [1.0, 0.5, 0.25, 0.125], dim=2, n_samples=300, seed=5)
    assert all(a > b for a, b in zip(sups, sups[1:]))
    assert sups[-1] < 0.3 * sups[0]


# --------------------------------------------------------- chain rule


def test_quadratic_realized_residual_vanishes_per_path(mixed, grid8):
    """Driftless + quadratic + realized trace telescopes exactly, path by path."""
    jump_spec = make_preset("jump-default")
    models = [
        (mixed, constant_integrand(PHI)),
        (mixed, state_linear_integrand(PHI, [0.5, -0.3], 0.4)),
        (jump_spec, deterministic_integrand(lambda k, t, j: PHI * (1.0 + 0.5 * t * (1 + j)), 2, 2)),
    ]
    f = make_smooth("quadratic")
    for spec, integrand in models:
        paths = _walk(spec, grid8, integrand, seed=4100, path_indices=range(60))
        change = f.value(1.0, paths.values[:, -1]) - f.value(0.0, paths.values[:, 0])
        res = ito_residual(paths, f, trace_variant="realized")
        assert res.shape == change.shape == (60, 1)
        assert np.all(np.abs(res) <= 1e-10 * np.maximum(1.0, np.abs(change)))


def test_compensator_trace_residual_centers_on_zero(mixed, grid8):
    f = make_smooth("quadratic")
    integrand = constant_integrand(PHI)
    res = ito_residual(_walk(mixed, grid8, integrand, seed=6200, path_indices=range(1500)), f)[:, 0]
    assert res.std() > 1e-4  # the gap is genuinely random ...
    se = res.std(ddof=1) / np.sqrt(len(res))
    assert abs(res.mean()) < 4.0 * se  # ... and centered


def test_linear_function_sees_no_second_order_terms(mixed, grid8):
    f = make_smooth("linear:0.7")
    paths = _walk(mixed, grid8, constant_integrand(PHI), seed=88, path_indices=range(1, 6), drift=[0.3, -0.2])
    terms = ito_terms(paths, f)
    assert np.all(terms.trace == 0.0)
    assert np.abs(terms.jump).max() < 1e-13
    assert np.all(terms.time == 0.0)
    assert np.abs(ito_residual(paths, f)).max() < 1e-12
    drift_total = paths.drift.sum(axis=0)
    assert np.abs(terms.fv[:, 0] - 0.7 * drift_total.sum()).max() < 1e-12


def test_unknown_trace_variant_rejected(mixed, grid8):
    path = _walk(mixed, grid8, constant_integrand(PHI), seed=1, path_indices=[0])
    with pytest.raises(ValueError, match="trace variant"):
        ito_terms(path, make_smooth("quadratic"), trace_variant="midpoint")


def _loop_terms(paths, p, f, trace_variant):
    """The five terms of path p by a per-step and per-jump-row loop of
    single-point calls: the reference for ito_terms' array route."""
    terms = {name: np.zeros(f.dim_value) for name in ("time", "fv", "stoch", "trace", "jump")}
    cont = _bracket_steps(paths, "continuous", operator=True)[p]
    values, stoch = paths.values[p], paths.stoch_cont[p]
    for k in range(paths.grid.n_steps):
        t, x = float(paths.grid.times[k]), values[k]
        grad, hess = f.d_x(t, x), f.d_xx(t, x)
        terms["time"] += f.d_t(t, x) * paths.grid.dt
        terms["fv"] += grad @ paths.drift[k]
        terms["stoch"] += grad @ stoch[k]
        if trace_variant == "realized":
            s = stoch[k]
            terms["trace"] += 0.5 * np.einsum("qab,a,b->q", hess, s, s)
        else:
            terms["trace"] += 0.5 * np.einsum("qab,ab->q", hess, cont[k])
    rows = paths.samples.pid == p
    times = paths.samples.jumps["time"][rows].tolist()
    for tau, pre, dx in zip(times, paths.pre[rows], paths.delta[rows]):
        inc = f.d_x(tau, pre) @ dx
        terms["stoch"] += inc
        terms["jump"] += f.value(tau, pre + dx) - f.value(tau, pre) - inc
    return terms


@pytest.mark.parametrize("n_steps", [8, 64])
@pytest.mark.parametrize("trace_variant", ["compensator", "realized"])
def test_array_terms_match_per_step_loop(mixed, n_steps, trace_variant):
    """A chunk priced in one call gives each path its loop terms, and each
    path priced alone, as a chunk of one, gives its row of the chunk bit for
    bit. The chunk holds the first path with at least 8 jump rows and,
    third, the first path (from index 5 on) that draws no jump. Only the
    order of summation differs from the loop."""
    proc = ItoProcessSpec(state_linear_integrand(PHI, [0.5, -0.3], 0.4), drift_rate=[0.3, -0.2])
    grid = TimeGrid(1.0, n_steps)
    jumps = np.bincount(sample_path(mixed, grid, 909, range(500)).pid, minlength=500)
    busy = next(i for i in range(5, 500) if jumps[i] >= 8)
    quiet = next(i for i in range(5, 500) if jumps[i] == 0)
    order = (0, 1, quiet, 2, 3, 4, busy)
    samples = sample_path(mixed, grid, 909, order)
    paths = simulate_ito_process(proc, samples)
    rows = np.bincount(samples.pid, minlength=len(order))
    assert rows[2] == 0 and max(rows) >= 8
    alone = [simulate_ito_process(proc, samples[i]) for i in range(len(order))]
    for name in REGISTERED:
        f = make_smooth(name)
        got = ito_terms(paths, f, trace_variant)
        residual = ito_residual(paths, f, trace_variant)
        assert residual.shape == (len(paths), f.dim_value)
        for i, one in enumerate(alone):
            terms = ito_terms(one, f, trace_variant)
            for term, want in _loop_terms(paths, i, f, trace_variant).items():
                row = getattr(got, term)[i : i + 1]
                scale = max(1.0, float(np.abs(want).max()))
                assert np.abs(row[0] - want).max() <= 1e-12 * scale, (name, term)
                assert row.tobytes() == getattr(terms, term).tobytes(), (name, term)
            assert residual[i : i + 1].tobytes() == ito_residual(one, f, trace_variant).tobytes()


# -------------------------------------------------- cross-module routes


def test_stoch_term_matches_composed_integral_without_jumps(grid8):
    """On a continuous model the gradient-against-noise term is itself a
    stochastic integral; walking the composed integrand and integrating the
    gradient against the walked path must both reproduce it."""
    gauss = make_preset("gauss-default")
    f = make_smooth("gauss_cos")
    inner = constant_integrand(PHI)
    samples = sample_path(gauss, grid8, 2500, range(8))
    paths = integrate(inner, samples)
    direct = ito_terms(paths, f).stoch

    def grad_at(step, time, value):  # one row per path, for every cell
        return f.d_x(time, paths.values[:, step])

    via_process = integrate_process(grad_at, paths, dim_out=1)
    composed = compose_integrands(grad_at, inner, dim_out=1)
    via_walk = integrate(composed, samples).values[:, -1]
    assert direct.shape == via_process.shape == via_walk.shape == (8, 1)
    assert np.abs(direct - via_process).max() < 1e-12
    assert np.abs(direct - via_walk).max() < 1e-12


def test_compensator_trace_agrees_with_trace_helper(mixed, grid8):
    """Dual route for the trace term: 0.5 <zeta, S_k> over the continuous
    operator steps must equal the root-form partial trace
    sum_i zeta(m h_i, m h_i), cell by cell, taken over a random orthonormal
    basis (h_i), which the trace does not depend on."""
    f = make_smooth("gauss_cos")
    path = _walk(mixed, grid8, constant_integrand(PHI), seed=303, path_indices=[2])
    cont = mixed.tables.flavor("continuous")
    basis, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((2, 2)))
    dt = grid8.dt
    expected = np.zeros(1)
    for k in range(grid8.n_steps):
        zeta = f.d_xx(float(grid8.times[k]), path.values[0, k])
        for j in np.nonzero(cont.rate)[0]:
            mh = path.phis[0, k, j] @ cont.root[j] @ basis
            expected += 0.5 * cont.rate[j] * dt * np.einsum("kab,ai,bi->k", zeta, mh, mh)
    got = ito_terms(path, f).trace[0]
    assert np.abs(got - expected).max() < 1e-12


def test_residual_shrinks_with_mesh(mixed):
    f = make_smooth("gauss_cos")
    integrand = constant_integrand(PHI)

    def median_residual(n_steps):
        grid = TimeGrid(1.0, n_steps)
        paths = _walk(mixed, grid, integrand, seed=7070, path_indices=range(50), drift=[0.3, -0.2])
        res = np.abs(ito_residual(paths, f, trace_variant="realized")[:, 0])
        return float(np.median(res))

    coarse, fine = median_residual(8), median_residual(64)
    assert fine < 0.7 * coarse
