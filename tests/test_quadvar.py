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
    ItoProcessSpec,
    realized_lambda2_mass,
    simulate_ito_process,
    state_linear_integrand,
)
from cmvm.harness import apply_overrides, load_config
from cmvm.noise import QV_FLAVORS, TimeGrid, sample_path
from cmvm.presets import make_preset
from cmvm.quadvar import (
    _add_jumps,
    _bracket_steps,
    _mesh,
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
    return integrate(integrand, sample_path(mixed, grid8, 2211, range(2000)))


@pytest.fixture(scope="module")
def head(mixed, grid8):
    """The first 50 paths of ``paths``, walked as their own chunk."""
    integrand = state_linear_integrand(PHI, [0.6, -0.2], 0.4)
    return integrate(integrand, sample_path(mixed, grid8, 2211, range(50)))


def test_predictable_bracket_monotone_and_consistent(head):
    for flavor in ("total", "continuous", "discontinuous"):
        cum = predictable_qv(head, flavor)
        assert cum.shape == (50, head.grid.n_steps + 1)
        assert np.all(cum[:, 0] == 0.0)
        assert np.all(np.diff(cum, axis=1) >= -1e-15)
    # same number through a different arithmetic route
    np.testing.assert_allclose(
        predictable_qv(head, "total")[:, -1], realized_lambda2_mass(head, "total"), rtol=1e-12
    )
    total = predictable_qv(head, "total")
    split = predictable_qv(head, "continuous") + predictable_qv(head, "discontinuous")
    assert np.allclose(total, split, rtol=1e-12, atol=1e-15)
    # the running bracket against the per-step route of the realized mass
    for flavor in ("total", "continuous", "discontinuous"):
        steps = range(head.grid.n_steps + 1)
        per_step = np.stack([realized_lambda2_mass(head, flavor, upto_step=k) for k in steps], 1)
        assert np.allclose(predictable_qv(head, flavor), per_step, rtol=1e-12, atol=0.0)


def test_operator_bracket_trace_and_psd(head):
    """The operator steps of the bracket kernel: their running sums trace to
    the scalar bracket, and each step is symmetric PSD."""
    for flavor in ("total", "continuous"):
        inc = _bracket_steps(head, flavor, operator=True)
        op = np.cumsum(inc, axis=1)
        scalar = predictable_qv(head, flavor)
        assert np.allclose(np.trace(op, axis1=2, axis2=3), scalar[:, 1:], rtol=1e-12, atol=1e-15)
        assert np.allclose(inc, np.swapaxes(inc, 2, 3), atol=1e-14)
        eigs = np.linalg.eigvalsh(inc)
        assert eigs.min() > -1e-12
    with pytest.raises(ValueError, match="flavor"):
        predictable_qv(head, "everything")


def test_optional_bracket_structure(head):
    opt = optional_qv(head)
    manual = predictable_qv(head, "continuous").copy()
    for p, k, dx in zip(head.samples.pid, head.samples.jumps["step"], head.delta):
        manual[p, k + 1 :] += float(dx @ dx)
    assert np.allclose(opt, manual, rtol=1e-12, atol=1e-15)
    steps = _add_jumps(_bracket_steps(head, "continuous", operator=True), head, head)
    op = np.cumsum(steps, axis=1)
    assert np.allclose(np.trace(op, axis1=2, axis2=3), opt[:, 1:], rtol=1e-12, atol=1e-15)


def test_optional_polarization(mixed, grid8):
    """[A + B] = [A] + 2[A, B] + [B], all walked on one driving sample."""
    mat_b = np.array([[0.2, -0.5], [0.7, 0.1]])
    ia = constant_integrand(PHI)
    ib = constant_integrand(mat_b)
    iab = constant_integrand(PHI + mat_b)
    samples = sample_path(mixed, grid8, 31, range(25))
    pa, pb, pab = integrate(ia, samples), integrate(ib, samples), integrate(iab, samples)
    lhs = optional_qv(pab)
    rhs = optional_qv(pa) + 2.0 * optional_qv(pa, pb) + optional_qv(pb)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_cross_bracket_requires_same_sample(mixed, grid8):
    ia = constant_integrand(PHI)
    p0 = integrate(ia, sample_path(mixed, grid8, seed=31, path_index=0))
    p1 = integrate(ia, sample_path(mixed, grid8, seed=31, path_index=1))
    with pytest.raises(ValueError, match="same driving sample"):
        optional_qv(p0, p1)
    # one sample, but a hand-built partner whose samples lost their first
    # jump row, with its delta and pre, so its rows no longer pair with the
    # path's; and one whose first jump row moved in time
    assert len(p0.samples.jumps) > 0
    lost = replace(p0.samples, jumps=p0.samples.jumps[1:], pid=p0.samples.pid[1:])
    moved = p0.samples.jumps.copy()
    moved["time"][0] -= 0.25 * grid8.dt
    for samples, rows in ((lost, slice(1, None)), (replace(p0.samples, jumps=moved), slice(None))):
        with pytest.raises(ValueError, match="jump sequence"):
            optional_qv(p0, replace(p0, samples=samples, delta=p0.delta[rows], pre=p0.pre[rows]))


def test_realized_mass_window_must_lie_on_the_grid(head):
    """upto_step runs over 0..n_steps; a negative or too large step would
    slice a different window without a word, so it raises."""
    p = head
    assert np.array_equal(realized_lambda2_mass(p, upto_step=0), np.zeros(len(p)))
    assert np.array_equal(realized_lambda2_mass(p, upto_step=8), realized_lambda2_mass(p))
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
    rows = np.bincount(sample_path(spec, _SHORT, seed, range(40)).pid, minlength=40)
    busy, quiet = np.flatnonzero(rows)[:3].tolist(), np.flatnonzero(rows == 0)[:3].tolist()
    return sample_path(spec, _SHORT, seed, sorted(busy + quiet))


@pytest.mark.parametrize("integrand", sorted(_INTEGRANDS))
@pytest.mark.parametrize("preset", ["gauss-default", "jump-default", "mixed-default"])
def test_chunk_gives_each_path_its_bits_alone(preset, integrand):
    """Every bracket measure priced on a chunk gives each path the bytes it
    gets as a chunk of one: the predictable bracket and the realized mass in
    every flavor, the optional and cross brackets, the terminal bracket in
    every flavor, the running sup, the operator steps, the adaptive
    partitions and the Riemann sums over shared and per-path partitions."""
    spec = make_preset(preset)
    samples = _mixed_chunk(spec, seed=61)
    if any(cell.has_jumps for cell in spec.cells):
        assert 0 < sum(1 for s in samples if len(s.jumps)) < len(samples)
    walk = lambda s: integrate(_INTEGRANDS[integrand], s)
    cross = lambda s: integrate(constant_integrand([[0.2, -0.5], [0.7, 0.1]]), s)
    chunk, partner = walk(samples), cross(samples)
    alone = [(walk(samples[i]), cross(samples[i])) for i in range(len(samples))]
    n = _SHORT.n_steps

    def same_rows(block, one, shape):
        assert block.shape == (len(chunk), *shape)
        for i, (p, q) in enumerate(alone):
            assert block[i : i + 1].tobytes() == one(p, q).tobytes()

    for flavor in QV_FLAVORS:
        same_rows(predictable_qv(chunk, flavor), lambda p, q: predictable_qv(p, flavor), (n + 1,))
        steps = _bracket_steps(chunk, flavor, operator=True)
        same_rows(steps, lambda p, q: _bracket_steps(p, flavor, operator=True), (n, 2, 2))
        same_rows(realized_lambda2_mass(chunk, flavor), lambda p, q: realized_lambda2_mass(p, flavor), ())
    same_rows(optional_qv(chunk), lambda p, q: optional_qv(p), (n + 1,))
    same_rows(optional_qv(chunk, partner), lambda p, q: optional_qv(p, q), (n + 1,))
    steps = _add_jumps(_bracket_steps(chunk, "continuous", operator=True), chunk, chunk)
    one = lambda p, q: _add_jumps(_bracket_steps(p, "continuous", operator=True), p, p)
    same_rows(steps, one, (n, 2, 2))
    for flavor in BRACKET_FLAVORS:
        same_rows(bracket_terminal(chunk, flavor), lambda p, q: bracket_terminal(p, flavor), ())
    same_rows(path_running_sup(chunk), lambda p, q: path_running_sup(p), ())
    adaptive = make_adaptive_partition(chunk, 0.2)
    assert np.array_equal(adaptive, np.concatenate([make_adaptive_partition(p, 0.2) for p, _ in alone]))
    assert len(np.unique(adaptive, axis=0)) > 1  # the paths refine differently
    shared = make_dyadic_partition(n, 2)
    for mask in (shared, adaptive):
        sums = riemann_qv(chunk, mask)
        for i, (p, _) in enumerate(alone):
            row = mask if mask.ndim == 1 else mask[i : i + 1]
            assert sums[i : i + 1].tobytes() == riemann_qv(p, row).tobytes()
    # the one pass over a shared mask sums as the row-by-row pass does
    per_row = np.broadcast_to(shared, (len(chunk), n + 1))
    assert riemann_qv(chunk, shared).tobytes() == riemann_qv(chunk, per_row).tobytes()


def test_cross_bracket_of_chunks_checks_every_pair(mixed):
    """Two chunks whose paths pair up except in one place are refused, and
    so are a chunk paired with one of its paths alone and one paired with a
    shorter chunk."""
    samples = _mixed_chunk(mixed, seed=61)
    ia = constant_integrand(PHI)
    chunk = integrate(ia, samples)
    indices = samples.path_index
    swapped = sample_path(mixed, _SHORT, 61, indices[:2] + (99,) + indices[3:])
    with pytest.raises(ValueError, match="same driving sample"):
        optional_qv(chunk, integrate(ia, swapped))
    with pytest.raises(ValueError, match="same driving sample"):
        optional_qv(chunk, integrate(ia, samples[0]))
    with pytest.raises(ValueError, match="same driving sample"):
        optional_qv(chunk, integrate(ia, sample_path(mixed, _SHORT, 61, indices[:-1])))


def test_realized_variance_is_unbiased(paths):
    """E[||I_T||^2 - [I]_T] = 0 and E[[I]_T - <I>_T] = 0."""
    end = paths.values[:, -1]
    sq = np.vecdot(end, end)
    opt = optional_qv(paths)[:, -1]
    pred = predictable_qv(paths, "total")[:, -1]
    d1 = sq - opt
    d2 = opt - pred
    for d in (d1, d2):
        se = d.std(ddof=1) / np.sqrt(len(d))
        assert abs(d.mean()) < 4.0 * se


def test_dyadic_partition_frozen():
    part = make_dyadic_partition(8, 2)
    assert part.shape == (9,) and part.dtype == bool and not part.flags.writeable
    assert np.flatnonzero(part).tolist() == [0, 2, 4, 6, 8]
    assert _mesh(part, 0.125) == pytest.approx(0.25)
    full = make_dyadic_partition(8, 3)
    assert np.flatnonzero(full).tolist() == list(range(9))
    with pytest.raises(ValueError, match="refine"):
        make_dyadic_partition(8, 4)
    # uneven grid still yields 2^level blocks
    part251 = make_dyadic_partition(251, 5)
    assert part251.sum() == 33 and part251[0] and part251[-1]


def test_adaptive_partition_triggers(head):
    dt = head.grid.dt
    coarse = make_adaptive_partition(head, 0.5)
    fine = make_adaptive_partition(head, 1e-9)
    assert coarse.shape == fine.shape == (len(head), head.grid.n_steps + 1)
    assert not coarse.flags.writeable
    # a resolution below one step forces a point at every grid step
    assert fine.all()
    # time trigger caps every gap at max(1, floor(delta / dt)) steps
    cap = max(1, int(np.floor(0.5 / dt)))
    assert all(max(np.diff(np.flatnonzero(row))) <= cap for row in coarse)
    assert np.array_equal(_mesh(coarse, dt), [max(np.diff(np.flatnonzero(row))) * dt for row in coarse])
    for delta in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="positive"):
            make_adaptive_partition(head, delta)


def _flat_path(mixed, rows=None, delta=None, **fields):
    """A walked 16-step path held flat at zero, with no drift and no
    continuous bracket mass, and only the jump rows given (pre-jump values
    zero), unless ``fields`` override its arrays."""
    grid = TimeGrid(1.0, 16)
    real = integrate(constant_integrand(PHI), sample_path(mixed, grid, seed=7007, path_index=0))
    if rows is None:
        rows, delta = real.samples.jumps[:0], np.zeros((0, 2))
    samples = replace(real.samples, jumps=rows, pid=np.zeros(len(rows), np.int64))
    flat = dict(
        values=np.zeros((1, 17, 2)),
        phis=np.zeros_like(real.phis),
        stoch_cont=np.zeros((1, 16, 2)),
        drift=np.zeros((16, 2)),
    )
    return replace(real, samples=samples, delta=delta, pre=np.zeros_like(delta), **(flat | fields))


def test_adaptive_partition_sees_jump_excursions(mixed):
    """A large intra-step excursion must trigger refinement even when the
    step's end value settles back at the anchor. Built synthetically: a flat
    path whose only feature is one cancelled jump."""
    flat = _flat_path(mixed)
    spike = np.zeros(1, flat.samples.jumps.dtype)
    spike["step"], spike["time"], spike["cell"] = 5, float(flat.grid.times[5]) + 0.01, 0
    spiked = _flat_path(mixed, spike, np.array([[10.0, 0.0]]))
    assert np.flatnonzero(make_adaptive_partition(spiked, 1.0)).tolist() == [0, 6, 16]
    assert np.flatnonzero(make_adaptive_partition(flat, 1.0)).tolist() == [0, 16]


def test_adaptive_partition_drift_and_mass_triggers(mixed):
    """On a flat path, the accumulated drift alone, or the continuous
    bracket mass alone, places the points where it crosses delta."""
    drifting = _flat_path(mixed, drift=np.tile([0.5, 0.0], (16, 1)))
    assert np.flatnonzero(make_adaptive_partition(drifting, 1.0)).tolist() == list(range(0, 17, 2))
    real = integrate(constant_integrand(PHI), sample_path(mixed, TimeGrid(1.0, 16), 7007, 0))
    massive = _flat_path(mixed, phis=real.phis)
    steps = _bracket_steps(massive, "continuous")[0]
    delta, want, mass = steps.sum() / 3.5, [0], 0.0
    for k, step in enumerate(steps):
        mass += step
        if mass >= delta:
            want, mass = want + [k + 1], 0.0
    assert len(want) == 4  # three points inside the horizon, none at its end
    assert np.flatnonzero(make_adaptive_partition(massive, delta)).tolist() == want + [16]


# the grid steps that each of paths 0-3 of mixed-default (64 steps, seed 5)
# leaves out of its adaptive partition, by (drift rate, level): the rule
# places a point at every other step
_ADAPTIVE_GAPS = {
    (None, 3): [
        [1, 16, 23, 33, 40, 43, 44, 46, 47, 49, 62],
        [1, 8, 9, 20, 21, 25, 30, 32, 33, 35, 36, 38, 39, 40, 41, 42, 44, 46, 49, 53, 54, 55, 56, 57,
         58, 60, 62, 63],
        [2, 9, 10, 13, 15, 19, 21, 36, 44, 45, 47, 48, 55, 57, 62],
        [10, 20, 21, 24, 30, 33, 41, 45, 49, 59, 63],
    ],
    (None, 5): [[], [41, 54, 60], [], []],
    ((0.3, -0.2), 3): [
        [1, 16, 23, 40, 43, 44, 46, 47, 49, 62],
        [1, 8, 9, 20, 22, 25, 30, 33, 35, 38, 39, 40, 41, 42, 44, 46, 49, 53, 54, 55, 57, 58, 60],
        [2, 9, 10, 13, 15, 19, 21, 36, 44, 47, 55, 57, 62],
        [10, 20, 21, 24, 33, 41, 45, 49, 59, 63],
    ],
    ((0.3, -0.2), 5): [[], [39, 41, 60], [], []],
}


@pytest.mark.parametrize("drift, level", list(_ADAPTIVE_GAPS))
def test_adaptive_partition_golden(mixed, drift, level):
    """Pinned partitions of an adapted walk with jumps, with and without a
    drift, so that any change to the rule's triggers or their arithmetic
    shows."""
    samples = sample_path(mixed, TimeGrid(1.0, 64), 5, range(4))
    process = ItoProcessSpec(state_linear_integrand(PHI, [0.6, -0.2], 0.4), drift_rate=drift)
    mask = make_adaptive_partition(simulate_ito_process(process, samples), 2.0**-level)
    assert [np.flatnonzero(~row).tolist() for row in mask] == _ADAPTIVE_GAPS[drift, level]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("drift", [None, (0.3, -0.2)])
@pytest.mark.parametrize("preset", ["mixed-default", "gauss-default", "jump-default"])
def test_adaptive_stack_is_each_resolution_alone(preset, drift):
    """One call over a stack of resolutions gives, level by level, the mask
    of a call at that resolution alone, bit for bit, from 2^1023 (whose time
    trigger, capped at the grid, would pass the largest float in steps) to
    2^-1074; the stack takes the shape of delta, and one bad entry refuses it."""
    samples = sample_path(make_preset(preset), TimeGrid(1.0, 64), 5, range(6))
    process = ItoProcessSpec(state_linear_integrand(PHI, [0.6, -0.2], 0.4), drift_rate=drift)
    chunk = simulate_ito_process(process, samples)
    deltas = np.ldexp(1.0, -np.array([-1023, -3, 0, 2, 3, 4, 5, 7, 12, 1074]))
    stack = make_adaptive_partition(chunk, deltas)
    assert stack.shape == (10, 6, 65) and not stack.flags.writeable
    for level, delta in enumerate(deltas):
        alone = make_adaptive_partition(chunk, float(delta))
        assert alone.shape == (6, 65) and stack[level].tobytes() == alone.tobytes()
    assert len(np.unique(stack, axis=0)) > 3  # the levels refine differently
    assert np.array_equal(make_adaptive_partition(chunk, deltas.reshape(2, 5)), stack.reshape(2, 5, 6, 65))
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="positive"):
            make_adaptive_partition(chunk, np.append(deltas, bad))


def test_adaptive_points_are_stopping_times(head):
    """Whether step k + 1 is a point depends on the path up to t_{k+1} alone:
    changing the values after t_k keeps every point up to t_k, and moves
    some later one."""
    mask = make_adaptive_partition(head, 0.5)
    for k in (0, 3, 6):
        values = head.values.copy()
        values[:, k + 1 :] *= 3.0
        moved = make_adaptive_partition(replace(head, values=values), 0.5)
        assert np.array_equal(moved[:, : k + 1], mask[:, : k + 1])
        assert (moved[:, k + 1 :] != mask[:, k + 1 :]).any()


def test_partition_masks_are_checked(head):
    n = head.grid.n_steps
    part = make_dyadic_partition(n, 2)
    no_end = np.ones(n + 1, bool)
    no_end[-1] = False
    for bad in (part.astype(int), part[:-1], no_end, np.broadcast_to(no_end, (len(head), n + 1))):
        with pytest.raises(ValueError, match="partition"):
            riemann_qv(head, bad)
    with pytest.raises(ValueError, match=r"shape \(9,\), true at both ends; got bool \(50, 9\)"):
        riemann_weighted_bilinear(head, make_adaptive_partition(head, 0.5), lambda t, x: np.eye(2))


def test_riemann_qv_at_full_resolution(head):
    part = make_dyadic_partition(head.grid.n_steps, 3)
    manual = np.sum(np.diff(head.values, axis=1) ** 2, axis=(1, 2))
    np.testing.assert_allclose(riemann_qv(head, part), manual, rtol=1e-14)
    with pytest.raises(ValueError, match=r"shape \(9,\) or \(50, 9\), .* got bool \(1, 9\)"):
        riemann_qv(head, part[None])


def test_riemann_refinement_tightens(mixed):
    grid = TimeGrid(1.0, 64)
    integrand = constant_integrand(PHI)

    def study(levels, n_paths, kind):
        """(mesh, q25, median, q75) of the relative errors at each level."""
        shared = np.stack([make_dyadic_partition(grid.n_steps, level) for level in levels])
        deltas = np.ldexp(1.0, [-level for level in levels])

        def measure(samples):
            chunk = integrate(integrand, samples)
            masks = shared if kind == "dyadic" else make_adaptive_partition(chunk, deltas)
            return qv_refinement_study(chunk, masks).reshape(len(chunk), -1)

        rows = _per_path(mixed, grid, 909, n_paths, measure)
        errors, meshes = rows[:, : len(levels)], rows[:, len(levels) :]
        return [(meshes[:, j].mean(), *_quartiles(errors[:, j])) for j in range(len(levels))]

    chunk = integrate(integrand, sample_path(mixed, grid, 909, range(3)))
    dyadic = np.stack([make_dyadic_partition(grid.n_steps, level) for level in (1, 3, 5)])
    assert qv_refinement_study(chunk, dyadic).shape == (3, 2, 3)  # errors, then meshes
    # each level of a stack, shared or per path, prices as that level alone
    for masks in (dyadic, make_adaptive_partition(chunk, [0.5, 0.125])):
        stacked = qv_refinement_study(chunk, masks)
        for j, mask in enumerate(masks):
            assert stacked[:, :, j].tobytes() == qv_refinement_study(chunk, mask[None])[:, :, 0].tobytes()
    rows = study([1, 3, 5], 60, "dyadic")
    assert rows[0][0] > rows[1][0] > rows[2][0]
    assert rows[0][2] > rows[1][2] > rows[2][2]
    assert all(q25 <= median <= q75 for _, q25, median, q75 in rows)
    adaptive = study([1, 4], 30, "adaptive")
    assert adaptive[0][2] > adaptive[1][2]
    with pytest.raises(ValueError, match="kind"):
        apply_overrides(load_config("qv-converge"), ["params.kind=random"])


def test_weighted_riemann_and_target(head):
    ident = lambda t, x: np.eye(2)
    part = make_dyadic_partition(head.grid.n_steps, 2)
    weighted = riemann_weighted_bilinear(head, part, ident)
    assert weighted.shape == (len(head),)
    np.testing.assert_allclose(weighted, riemann_qv(head, part), rtol=1e-14)
    # with the identity weight the target is the terminal optional bracket
    np.testing.assert_allclose(weighted_qv_target(head, ident), optional_qv(head)[:, -1], rtol=1e-12)


def test_weighted_riemann_converges_to_target(mixed):
    grid = TimeGrid(1.0, 64)
    integrand = constant_integrand(PHI)

    def form(t, x):  # broadcasts: t (...) and x (..., 2) give (..., 2, 2)
        out = np.empty(np.shape(t) + (2, 2))
        out[..., 0, 0] = 1.0 + 0.5 * t
        out[..., 0, 1] = out[..., 1, 0] = 0.2
        out[..., 1, 1] = 2.0 + np.tanh(x[..., 1])
        return out

    paths = integrate(integrand, sample_path(mixed, grid, 1717, range(60)))
    target = weighted_qv_target(paths, form)
    med = []
    for lv in (1, 3, 6):
        part = make_dyadic_partition(grid.n_steps, lv)
        med.append(np.median(np.abs(riemann_weighted_bilinear(paths, part, form) - target)))
    assert med[0] > med[1] > med[2]
