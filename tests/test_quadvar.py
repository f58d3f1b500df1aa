"""Quadratic-variation tests.

Structural identities (trace, flavor additivity, polarization, partition
bookkeeping) are exact up to rounding. Distributional facts (the optional
and predictable brackets share their mean, realized variance is unbiased,
Riemann sums tighten under refinement) use four-standard-error bands or
medians over a path ensemble.
"""

from dataclasses import replace

import numpy as np
import pytest

from cmvm.burkholder import BRACKET_FLAVORS, bracket_terminal, path_running_sup
from cmvm.integrate import (
    _per_path,
    _quartiles,
    constant_integrand,
    deterministic_integrand,
    integrate,
    realized_lambda2_mass,
    state_linear_integrand,
)
from cmvm.harness import apply_overrides, load_config
from cmvm.noise import QV_FLAVORS, TimeGrid, sample_chunk, sample_path
from cmvm.presets import make_preset
from cmvm.quadvar import (
    _REFINEMENTS,
    _add_jumps,
    _bracket_steps,
    make_adaptive_partition,
    make_dyadic_partition,
    optional_qv,
    predictable_qv,
    qv_refinement_study,
    riemann_qv,
    riemann_weighted_bilinear,
    weighted_qv_target,
)

PHI = np.array([[0.9, 0.2], [-0.3, 1.1]])


@pytest.fixture(scope="module")
def mixed():
    return make_preset("mixed-default")


@pytest.fixture(scope="module")
def grid8():
    return TimeGrid(1.0, 8)


@pytest.fixture(scope="module")
def paths(mixed, grid8):
    integrand = state_linear_integrand(PHI, [0.6, -0.2], 0.4)
    return [
        integrate(integrand, sample_path(mixed, grid8, seed=2211, path_index=i))
        for i in range(2000)
    ]


def test_predictable_bracket_monotone_and_consistent(paths):
    for p in paths[:50]:
        for flavor in ("total", "continuous", "discontinuous"):
            cum = predictable_qv(p, flavor)
            assert cum[0] == 0.0
            assert np.all(np.diff(cum) >= -1e-15)
        # same number through a different arithmetic route
        assert predictable_qv(p, "total")[-1] == pytest.approx(
            realized_lambda2_mass(p, "total"), rel=1e-12
        )
        total = predictable_qv(p, "total")
        split = predictable_qv(p, "continuous") + predictable_qv(p, "discontinuous")
        assert np.allclose(total, split, rtol=1e-12, atol=1e-15)
    # the running bracket against the per-step route of the realized mass
    for p in paths[:4]:
        for flavor in ("total", "continuous", "discontinuous"):
            steps = range(p.grid.n_steps + 1)
            per_step = [realized_lambda2_mass(p, flavor, upto_step=k) for k in steps]
            assert np.allclose(predictable_qv(p, flavor), per_step, rtol=1e-12, atol=0.0)


def test_operator_bracket_trace_and_psd(paths):
    """The operator steps of the bracket kernel: their running sums trace to
    the scalar bracket, and each step is symmetric PSD."""
    for p in paths[:30]:
        for flavor in ("total", "continuous"):
            inc = _bracket_steps(p, flavor, operator=True)
            op = np.cumsum(inc, axis=0)
            scalar = predictable_qv(p, flavor)
            assert np.allclose(np.trace(op, axis1=1, axis2=2), scalar[1:], rtol=1e-12, atol=1e-15)
            assert np.allclose(inc, np.swapaxes(inc, 1, 2), atol=1e-14)
            eigs = np.linalg.eigvalsh(inc)
            assert eigs.min() > -1e-12
    with pytest.raises(ValueError, match="flavor"):
        predictable_qv(paths[0], "everything")


def test_optional_bracket_structure(paths):
    for p in paths[:50]:
        opt = optional_qv(p)
        manual = predictable_qv(p, "continuous").copy()
        for rec in p.jumps:
            manual[rec["step"] + 1 :] += float(rec["delta"] @ rec["delta"])
        assert np.allclose(opt, manual, rtol=1e-12, atol=1e-15)
        op = np.cumsum(_add_jumps(_bracket_steps(p, "continuous", operator=True), p, p), axis=0)
        assert np.allclose(np.trace(op, axis1=1, axis2=2), opt[1:], rtol=1e-12, atol=1e-15)


def test_optional_polarization(mixed, grid8):
    """[A + B] = [A] + 2[A, B] + [B], all walked on one driving sample."""
    mat_b = np.array([[0.2, -0.5], [0.7, 0.1]])
    ia = constant_integrand(PHI)
    ib = constant_integrand(mat_b)
    iab = constant_integrand(PHI + mat_b)
    for idx in range(25):
        sample = sample_path(mixed, grid8, seed=31, path_index=idx)
        pa, pb, pab = integrate(ia, sample), integrate(ib, sample), integrate(iab, sample)
        lhs = optional_qv(pab)
        rhs = optional_qv(pa) + 2.0 * optional_qv(pa, pb) + optional_qv(pb)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_cross_bracket_requires_same_sample(mixed, grid8):
    ia = constant_integrand(PHI)
    p0 = integrate(ia, sample_path(mixed, grid8, seed=31, path_index=0))
    p1 = integrate(ia, sample_path(mixed, grid8, seed=31, path_index=1))
    with pytest.raises(ValueError, match="same driving sample"):
        optional_qv(p0, p1)
    # one sample, but a hand-built partner that lost its first jump row, so
    # its rows no longer pair with the path's
    assert len(p0.jumps) > 0
    with pytest.raises(ValueError, match="jump sequence"):
        optional_qv(p0, replace(p0, jumps=p0.jumps[1:]))


def test_realized_mass_window_must_lie_on_the_grid(paths):
    """upto_step runs over 0..n_steps; a negative or too large step would
    slice a different window without a word, so it raises."""
    p = paths[0]
    assert realized_lambda2_mass(p, upto_step=0) == 0.0
    assert realized_lambda2_mass(p, upto_step=8) == realized_lambda2_mass(p)
    for bad in (-1, 9, 99):
        with pytest.raises(ValueError, match="upto_step"):
            realized_lambda2_mass(p, "total", upto_step=bad)


# a chunk of paths with and without jump rows, on a short horizon where
# about a third of the paths of a jump model draw no jump
_SHORT = TimeGrid(0.25, 8)
_INTEGRANDS = {
    "time-varying": deterministic_integrand(lambda k, t, j: PHI * (1.0 + t * (1 + j)), 2, 2),
    "state-linear": state_linear_integrand(PHI, [0.6, -0.2], 0.4),
}


def _mixed_chunk(spec, seed):
    """Three paths with jump rows and three without, in path order (only
    the three without on a continuous model)."""
    samples = [sample_path(spec, _SHORT, seed=seed, path_index=i) for i in range(40)]
    busy = [s.path_index for s in samples if len(s.jumps)][:3]
    quiet = [s.path_index for s in samples if not len(s.jumps)][:3]
    return sample_chunk(spec, _SHORT, seed, sorted(busy + quiet))


@pytest.mark.parametrize("integrand", sorted(_INTEGRANDS))
@pytest.mark.parametrize("preset", ["gauss-default", "jump-default", "mixed-default"])
def test_chunk_gives_each_path_its_bits_alone(preset, integrand):
    """Every bracket measure priced on a chunk gives each path the bytes it
    gets priced alone: the predictable bracket in every flavor, the
    optional and cross brackets, the terminal bracket in every flavor, the
    running sup and the operator steps."""
    spec = make_preset(preset)
    samples = _mixed_chunk(spec, seed=61)
    if any(cell.has_jumps for cell in spec.cells):
        assert 0 < sum(1 for s in samples if len(s.jumps)) < len(samples)
    chunk = integrate(_INTEGRANDS[integrand], samples)
    partner = integrate(constant_integrand([[0.2, -0.5], [0.7, 0.1]]), samples)
    n = _SHORT.n_steps

    def same_rows(block, alone, shape):
        assert block.shape == (len(chunk), *shape)
        for i, path in enumerate(chunk):
            assert block[i].tobytes() == alone(path, partner[i]).tobytes()

    for flavor in QV_FLAVORS:
        same_rows(predictable_qv(chunk, flavor), lambda p, q: predictable_qv(p, flavor), (n + 1,))
        steps = _bracket_steps(chunk, flavor, operator=True)
        same_rows(steps, lambda p, q: _bracket_steps(p, flavor, operator=True), (n, 2, 2))
    same_rows(optional_qv(chunk), lambda p, q: optional_qv(p), (n + 1,))
    same_rows(optional_qv(chunk, partner), lambda p, q: optional_qv(p, q), (n + 1,))
    steps = _add_jumps(_bracket_steps(chunk, "continuous", operator=True), chunk, chunk)
    alone = lambda p, q: _add_jumps(_bracket_steps(p, "continuous", operator=True), p, p)
    same_rows(steps, alone, (n, 2, 2))
    for flavor in BRACKET_FLAVORS:
        terminal = bracket_terminal(chunk, flavor)
        same_rows(terminal, lambda p, q: np.float64(bracket_terminal(p, flavor)), ())
        assert isinstance(bracket_terminal(chunk[0], flavor), float)
    same_rows(path_running_sup(chunk), lambda p, q: np.float64(path_running_sup(p)), ())


def test_cross_bracket_of_chunks_checks_every_pair(mixed):
    """Two chunks whose paths pair up except in one place are refused, and
    so are a chunk paired with a single path and one paired with a shorter
    chunk."""
    samples = _mixed_chunk(mixed, seed=61)
    ia = constant_integrand(PHI)
    chunk = integrate(ia, samples)
    indices = samples.path_index
    swapped = sample_chunk(mixed, _SHORT, 61, indices[:2] + (99,) + indices[3:])
    with pytest.raises(ValueError, match="same driving sample"):
        optional_qv(chunk, integrate(ia, swapped))
    with pytest.raises(ValueError, match="same driving sample"):
        optional_qv(chunk, chunk[0])
    with pytest.raises(ValueError, match="same driving sample"):
        optional_qv(chunk, integrate(ia, sample_chunk(mixed, _SHORT, 61, indices[:-1])))


def test_realized_variance_is_unbiased(paths):
    """E[||I_T||^2 - [I]_T] = 0 and E[[I]_T - <I>_T] = 0."""
    sq = np.array([float(p.terminal @ p.terminal) for p in paths])
    opt = np.array([optional_qv(p)[-1] for p in paths])
    pred = np.array([predictable_qv(p, "total")[-1] for p in paths])
    d1 = sq - opt
    d2 = opt - pred
    for d in (d1, d2):
        se = d.std(ddof=1) / np.sqrt(len(d))
        assert abs(d.mean()) < 4.0 * se


def test_dyadic_partition_frozen():
    part = make_dyadic_partition(8, 2)
    assert part.step_indices == (0, 2, 4, 6, 8)
    assert part.mesh(0.125) == pytest.approx(0.25)
    full = make_dyadic_partition(8, 3)
    assert full.step_indices == tuple(range(9))
    with pytest.raises(ValueError, match="refine"):
        make_dyadic_partition(8, 4)
    # uneven grid still yields strictly increasing indices
    part251 = make_dyadic_partition(251, 5)
    assert len(part251.step_indices) == 33
    assert all(b > a for a, b in zip(part251.step_indices, part251.step_indices[1:]))


def test_adaptive_partition_triggers(paths):
    p = paths[0]
    dt = p.grid.dt
    coarse = make_adaptive_partition(p, 0.5)
    fine = make_adaptive_partition(p, 1e-9)
    # a resolution below one step forces a point at every grid step
    assert fine.step_indices == tuple(range(p.grid.n_steps + 1))
    # time trigger caps every gap at max(1, floor(delta / dt)) steps
    cap = max(1, int(np.floor(0.5 / dt)))
    assert max(np.diff(coarse.step_indices)) <= cap
    assert coarse.kind == "adaptive"
    with pytest.raises(ValueError, match="positive"):
        make_adaptive_partition(p, 0.0)


def test_adaptive_partition_sees_jump_excursions(mixed):
    """A large intra-step excursion must trigger refinement even when the
    step's end value settles back at the anchor. Built synthetically: a flat
    path whose only feature is one cancelled jump."""
    grid = TimeGrid(1.0, 16)
    real = integrate(constant_integrand(PHI), sample_path(mixed, grid, seed=7007, path_index=0))
    flat = dict(
        sample=real.sample,
        grid=grid,
        initial=np.zeros(2),
        values=np.zeros((17, 2)),
        phis=np.zeros_like(real.phis),
        stoch_cont=np.zeros((16, 2)),
        drift=np.zeros((16, 2)),
    )
    spike = np.zeros(1, real.jumps.dtype)
    spike["step"], spike["time"], spike["cell"] = 5, float(grid.times[5]) + 0.01, 0
    spike["delta"] = [10.0, 0.0]
    doctored = replace(real, jumps=spike, **flat)
    control = replace(real, jumps=spike[:0], **flat)
    assert make_adaptive_partition(doctored, 1.0).step_indices == (0, 6, 16)
    assert make_adaptive_partition(control, 1.0).step_indices == (0, 16)


def test_riemann_qv_at_full_resolution(paths):
    p = paths[0]
    part = make_dyadic_partition(p.grid.n_steps, 3)
    manual = float(np.sum(np.diff(p.values, axis=0) ** 2))
    assert riemann_qv(p, part) == pytest.approx(manual, rel=1e-14)


def test_riemann_refinement_tightens(mixed):
    grid = TimeGrid(1.0, 64)
    integrand = constant_integrand(PHI)

    def study(levels, n_paths, kind):
        """(mesh, q25, median, q75) of the relative errors at each level."""
        partitions = _REFINEMENTS[kind](grid.n_steps, levels)

        def measure(samples):
            chunk = integrate(integrand, samples)
            return qv_refinement_study(chunk, partitions).reshape(len(chunk), -1)

        rows = _per_path(mixed, grid, 909, n_paths, measure)
        errors, meshes = rows[:, : len(levels)], rows[:, len(levels) :]
        return [(meshes[:, j].mean(), *_quartiles(errors[:, j])) for j in range(len(levels))]

    path = integrate(integrand, sample_path(mixed, grid, 909, 0))
    dyadic = _REFINEMENTS["dyadic"](grid.n_steps, [1, 3, 5])
    assert [part.level for part in dyadic(path)] == [1.0, 3.0, 5.0]
    assert dyadic(path) is dyadic(path)  # built once, shared by every path
    assert qv_refinement_study(path, dyadic).shape == (2, 3)  # errors, then meshes
    rows = study([1, 3, 5], 60, "dyadic")
    assert rows[0][0] > rows[1][0] > rows[2][0]
    assert rows[0][2] > rows[1][2] > rows[2][2]
    assert all(q25 <= median <= q75 for _, q25, median, q75 in rows)
    adaptive = study([1, 4], 30, "adaptive")
    assert adaptive[0][2] > adaptive[1][2]
    with pytest.raises(ValueError, match="kind"):
        apply_overrides(load_config("qv-converge"), ["params.kind=random"])


def test_weighted_riemann_and_target(paths):
    p = paths[0]
    ident = lambda t, x: np.eye(2)
    part = make_dyadic_partition(p.grid.n_steps, 2)
    assert riemann_weighted_bilinear(p, part, ident) == pytest.approx(
        riemann_qv(p, part), rel=1e-14
    )
    # with the identity weight the target is the terminal optional bracket
    assert weighted_qv_target(p, ident) == pytest.approx(optional_qv(p)[-1], rel=1e-12)


def test_weighted_riemann_converges_to_target(mixed):
    grid = TimeGrid(1.0, 64)
    integrand = constant_integrand(PHI)

    def form(t, x):
        return np.array([[1.0 + 0.5 * t, 0.2], [0.2, 2.0 + np.tanh(x[1])]])

    errs = {lv: [] for lv in (1, 3, 6)}
    for i in range(60):
        p = integrate(integrand, sample_path(mixed, grid, seed=1717, path_index=i))
        target = weighted_qv_target(p, form)
        for lv in errs:
            part = make_dyadic_partition(grid.n_steps, lv)
            errs[lv].append(abs(riemann_weighted_bilinear(p, part, form) - target))
    med = [np.median(errs[lv]) for lv in (1, 3, 6)]
    assert med[0] > med[1] > med[2]
