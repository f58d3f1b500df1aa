"""Integrator walk tests.

The statistical identities (martingale property, isometry, conditional
isometry) are checked with four-standard-error bands; the structural
identities (linearity, micro-order reconstruction, dual routes for simple
integrands, associativity of composition) are exact up to rounding and get
hard tolerances. A deliberately anticipating integrand serves as the
negative control: the same functional form reading one step into the future
must blow the martingale test, and the guarded history must refuse it.
"""

import dataclasses
import re

import numpy as np
import pytest

import cmvm.burkholder
import cmvm.harness
import cmvm.integrate
from cmvm.integrate import (
    AdaptedState,
    Integrand,
    ItoChunk,
    ItoProcessSpec,
    LookAheadError,
    PathHistory,
    SimpleBlock,
    SimpleIntegrand,
    _mean_se,
    _per_path,
    _z_score,
    compose_integrands,
    constant_integrand,
    decompose_integral,
    deterministic_integrand,
    integrate,
    integrate_process,
    integrate_simple,
    lambda2_norm,
    realized_lambda2_mass,
    simulate_ito_process,
    state_linear_integrand,
)
from cmvm.burkholder import bracket_terminal, path_running_sup
from cmvm.harness import apply_overrides, load_config, run
from cmvm.ito import ito_residual, ito_terms, make_smooth
from cmvm.noise import (
    CellNoise,
    GaussianAmplitude,
    NoiseSpec,
    SpatialPartition,
    TimeGrid,
    TwoPointAmplitude,
    evaluate,
    normalize_spec,
    sample_path,
)
from cmvm.presets import PRESETS, make_preset
from cmvm.quadvar import (
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
def samples(mixed, grid8):
    return sample_path(mixed, grid8, 515, range(3000))


@pytest.fixture(scope="module")
def walked(samples):
    return integrate(constant_integrand(PHI), samples)


def test_integral_is_mean_zero(walked, grid8):
    for k in (2, 4, 6, 8):
        vals = walked.values[:, k]
        se = vals.std(axis=0, ddof=1) / np.sqrt(len(vals))
        assert np.all(np.abs(vals.mean(axis=0)) < 4.0 * se), f"bias at step {k}"


def test_isometry_constant_integrand(walked, mixed, grid8):
    """E ||I_T||^2 against the exact squared integrand norm."""
    target = lambda2_norm(constant_integrand(PHI), mixed, grid8)
    end = walked.values[:, -1]
    sq = np.vecdot(end, end)
    se = sq.std(ddof=1) / np.sqrt(len(sq))
    assert abs(sq.mean() - target) < 4.0 * se


def test_isometry_each_flavor_on_restricted_cells(walked, mixed, grid8):
    """Second moment of the integral restricted (by the model) decomposes as
    the flavor masses; checked through the additivity of the realized weight."""
    tot = realized_lambda2_mass(walked, "total")
    parts = realized_lambda2_mass(walked, "continuous") + realized_lambda2_mass(walked, "discontinuous")
    assert tot.shape == (len(walked),)
    np.testing.assert_allclose(tot, parts, rtol=1e-12)


def test_linearity_per_path(mixed, grid8, samples):
    a = constant_integrand(PHI)
    b = constant_integrand(np.array([[0.1, -0.7], [0.4, 0.2]]))
    comb = constant_integrand(2.0 * PHI + np.array([[0.1, -0.7], [0.4, 0.2]]))
    lhs = integrate(comb, samples).values[:, -1]
    rhs = 2.0 * integrate(a, samples).values[:, -1] + integrate(b, samples).values[:, -1]
    assert np.allclose(lhs, rhs, atol=1e-12)


def _dense_jumps():
    """One cell of Gaussian-amplitude jumps at rate 256: on an 8-step grid a
    path has many jump rows in one step."""
    cell = CellNoise(jump_rate=256.0, jump_amplitude=GaussianAmplitude([[1.0, 0.3], [0.3, 0.5]]))
    return normalize_spec(NoiseSpec(2, SpatialPartition.uniform(1), [cell]))


@pytest.mark.parametrize("model", ["mixed", "rate-256"])
@pytest.mark.parametrize("drift", [False, True], ids=["no-drift", "drift"])
@pytest.mark.parametrize("kind", ["deterministic", "adapted"])
def test_walk_reconstructs_exactly(mixed, grid8, kind, drift, model):
    """values, drift, stoch_cont and the walked deltas of the samples' jump
    rows tile each step of each path exactly, for either integrand kind,
    with and without drift entries, and with many rows in one step."""
    integrand = {
        "deterministic": deterministic_integrand(lambda k, t, j: PHI * (1.0 + t * (1 + j)), 2, 2),
        "adapted": state_linear_integrand(PHI, [1.0, -0.5], 0.4),
    }[kind]
    proc = ItoProcessSpec(integrand)
    if drift:
        proc = ItoProcessSpec(integrand, initial=[0.2, -0.1], drift_rate=[0.3, -0.2])
    spec = mixed if model == "mixed" else _dense_jumps()
    samples = sample_path(spec, grid8, 77, range(4))
    paths = simulate_ito_process(proc, samples)
    assert len(samples[0].jumps) > 0
    steps, pid = samples.jumps["step"], samples.pid
    if model == "rate-256":
        assert np.bincount(pid * grid8.n_steps + steps).min() > 1
    for p in range(len(paths)):
        for k in range(grid8.n_steps):
            v = paths.values[p, k].copy()
            v += paths.drift[k]
            v += paths.stoch_cont[p, k]
            for i in np.flatnonzero((pid == p) & (steps == k)):
                assert np.array_equal(paths.pre[i], v)
                v = v + paths.delta[i]
            assert np.array_equal(paths.values[p, k + 1], v), f"path {p} step {k} does not tile"


def test_jumps_are_read_only_record_arrays(mixed, grid8):
    """The jump rows are one read-only structured array, in the samples: the
    walk keeps only delta and pre beside them, read-only (R, dim_out) float
    arrays whose row i belongs to the samples' jump row i."""
    sample = sample_path(mixed, grid8, seed=77, path_index=0)
    path = integrate(deterministic_integrand(lambda k, t, j: PHI[:1] * (1 + j), 1, 2), sample)
    assert sample.jumps.dtype.names == ("step", "cell", "time", "amp")
    assert sample.jumps.dtype["amp"].shape == (2,)
    assert len(sample.jumps) > 0 and path.samples is sample
    assert isinstance(sample.jumps, np.ndarray) and not sample.jumps.flags.writeable
    with pytest.raises(ValueError):
        sample.jumps["step"][0] = 0
    for array in (path.delta, path.pre):
        assert isinstance(array, np.ndarray) and array.dtype == np.float64
        assert array.shape == (len(sample.jumps), 1) and not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
    assert [f.name for f in dataclasses.fields(ItoChunk)] == [
        "samples", "values", "phis", "stoch_cont", "drift", "delta", "pre"
    ]
    assert not hasattr(path, "jumps") and not hasattr(path, "initial")
    assert path.grid is sample.grid


def test_lookahead_guard_raises(mixed, grid8):
    sample = sample_path(mixed, grid8, seed=3, path_index=0)

    def peeking(state, cells):
        g = state.history.gauss_increment(state.step, cells)  # not yet revealed
        return PHI * (1.0 + g.sum(-1))[:, :, None, None]

    with pytest.raises(LookAheadError):
        integrate(Integrand(peeking, 2, 2, deterministic=False), sample)

    def too_far_value(state, cells):
        ahead = state.history.value(state.step + 1)
        return PHI * (1.0 + ahead.sum(-1))[:, None, None, None]

    with pytest.raises(LookAheadError):
        integrate(Integrand(too_far_value, 2, 2, deterministic=False), sample)


def test_noise_pairing_sees_windows_up_to_the_cursor(mixed, grid8):
    sample = sample_path(mixed, grid8, 3, range(4))
    h = [0.4, -1.0]
    seen = {}

    def reads_to_cursor(state, cells):
        t = float(grid8.times[state.step])
        for cell in cells:
            seen[state.step, cell] = pairing = state.history.noise_pairing(0.0, t, [cell], h)
        return PHI * (1.0 + 0.0 * pairing)[:, None, None, None]

    integrate(Integrand(reads_to_cursor, 2, 2, deterministic=False), sample)
    assert {k for k, _ in seen} == set(range(grid8.n_steps))
    for (k, cell), value in seen.items():
        want = evaluate(sample, 0.0, float(grid8.times[k]), [cell], h)
        assert value.shape == (4,) and value.tobytes() == want.tobytes()

    def reads_one_step_ahead(state, cells):
        state.history.noise_pairing(0.0, float(grid8.times[state.step + 1]), cells, h)
        return PHI

    with pytest.raises(LookAheadError, match="beyond the walk's step 0"):
        integrate(Integrand(reads_one_step_ahead, 2, 2, deterministic=False), sample)


def test_anticipating_integrand_is_detected(mixed, grid8):
    """Negative control: the same feedback form, honest vs one step ahead.

    The honest variant reads the previous step's increment and keeps the
    martingale property. The cheat captures the raw sample in a closure and
    reads the current step's Gaussian increment (information the walk has
    not revealed); its integral picks up a drift many standard errors wide.
    """
    w = np.array([1.0, 1.0])
    n_paths = 1500

    def run(make_eval):
        samples = sample_path(mixed, grid8, 808, range(n_paths))
        integrand = Integrand(make_eval(samples), 2, 2, deterministic=False)
        means = integrate(integrand, samples).values[:, -1]
        se = means.std(axis=0, ddof=1) / np.sqrt(n_paths)
        return np.abs(means.mean(axis=0)) / se

    def honest(sample):
        def _eval(state, cells):
            if state.step == 0:
                return PHI
            g = state.history.gauss_increment(state.step - 1, cells)
            return PHI * (1.0 + 2.0 * (g * w).sum(-1))[:, :, None, None]

        return _eval

    def cheating(sample):
        def _eval(state, cells):
            g = sample.gauss[:, state.step, list(cells)]  # smuggled future
            return PHI * (1.0 + 2.0 * (g * w).sum(-1))[:, :, None, None]

        return _eval

    z_honest = run(honest)
    z_cheat = run(cheating)
    assert np.all(z_honest < 4.0), f"honest integrand looks biased: z={z_honest}"
    assert np.any(z_cheat > 6.0), f"anticipation went undetected: z={z_cheat}"


def test_conditional_isometry_adapted_feedback(mixed, grid8):
    """E[ |I_t - I_s|^2 - (<I>_t - <I>_s) ; E ] = 0 on events E decided at
    s, with an integrand that feeds back on the path, measured through the
    ensemble driver."""
    integrand = state_linear_integrand(PHI, [0.8, -0.3], 0.5)
    h = np.array([1.0, -0.2])
    ks, kt = grid8.index_of(grid8.times[1]), grid8.n_steps

    def first_sign(paths):
        return evaluate(paths.samples, 0.0, paths.grid.times[1], [0, 1], h) >= 0.0

    events = {"always": lambda paths: np.ones(len(paths), bool), "first-sign": first_sign}

    def measure(samples):
        paths = integrate(integrand, samples)
        inc = paths.values[:, kt] - paths.values[:, ks]
        bracket = realized_lambda2_mass(paths, "total", upto_step=kt) - realized_lambda2_mass(
            paths, "total", upto_step=ks
        )
        hits = [event(paths).astype(float) for event in events.values()]
        return np.stack(hits + [ind * (np.vecdot(inc, inc) - bracket) for ind in hits], axis=1)

    rows = _per_path(mixed, grid8, 99, 1200, measure)
    rates = dict(zip(events, rows[:, :2].mean(axis=0)))
    assert rates["always"] == 1.0
    assert 0.2 < rates["first-sign"] < 0.8
    for name, diffs in zip(events, rows[:, 2:].T):
        mean, se = _mean_se(diffs)
        z = _z_score(mean, se)
        assert abs(z) < 4.0, f"event {name}: z={z}"
        assert se > 0


def test_conditional_isometry_rejects_bad_window():
    """The conditioning time s must come before t, the horizon: a config
    whose s_step is the last grid step is refused when it is resolved."""
    cfg = load_config("verify-conditional-isometry")
    with pytest.raises(ValueError, match="s_step"):
        apply_overrides(cfg, ["n_steps=8", "params.s_step=8"])


def test_lambda2_norm_deterministic_vs_sampled(mixed, grid8):
    """The norm of a deterministic integrand is exact; an adapted one's is a
    random variable, which lambda2_norm refuses to estimate."""
    det = lambda2_norm(constant_integrand(PHI), mixed, grid8)
    # a state-feedback integrand with zero gain has the same norm on every path
    zero_gain = state_linear_integrand(PHI, [1.0, 0.0], 0.0)
    masses = _per_path(
        mixed, grid8, 1, 8, lambda ss: realized_lambda2_mass(integrate(zero_gain, ss))[:, None]
    )
    mean, se = _mean_se(masses[:, 0])
    assert se == pytest.approx(0.0, abs=1e-12)
    assert mean == pytest.approx(det, rel=1e-12)
    # one sampled walk carries no spread estimate
    assert np.isnan(_mean_se(masses[:1, 0])[1])
    with pytest.raises(ValueError, match="deterministic"):
        lambda2_norm(zero_gain, mixed, grid8)
    with pytest.raises(ValueError, match="flavor"):
        lambda2_norm(constant_integrand(PHI), mixed, grid8, flavor="spicy")


def test_decompose_parts_sum_exactly(mixed, grid8):
    proc = ItoProcessSpec(
        state_linear_integrand(PHI, [0.2, 0.9], 0.3),
        initial=[1.0, 2.0],
        drift_rate=[0.5, -0.1],
    )
    samples = sample_path(mixed, grid8, 21, range(25))
    paths = simulate_ito_process(proc, samples)
    parts = decompose_integral(paths)
    cont, jump, fv = parts
    assert cont.shape == jump.shape == fv.shape == paths.values.shape
    assert np.allclose(cont + jump + fv, paths.values, atol=1e-12)
    # continuous part has continuous increments only; jump part is flat
    # between noise jumps; fv carries initial and drift
    assert np.allclose(cont[:, 0], 0.0)
    assert np.allclose(jump[:, 0], 0.0)
    assert np.allclose(fv[:, 0], [1.0, 2.0])
    jump_totals = np.zeros((len(paths), 2))
    np.add.at(jump_totals, samples.pid, paths.delta)
    assert np.allclose(jump[:, -1], jump_totals, atol=1e-12)
    # each path's parts are, bit for bit, those of the path walked alone
    for p in (0, 7, 24):
        alone = decompose_integral(simulate_ito_process(proc, samples[p]))
        for part, one in zip(parts, alone):
            assert one.shape == (1, grid8.n_steps + 1, 2) and one.tobytes() == part[p : p + 1].tobytes()


def test_simple_integrand_two_routes(mixed, grid8):
    rng = np.random.default_rng(2)
    h = np.array([0.3, 0.7])
    for trial in range(50):
        blocks = []
        for _ in range(rng.integers(1, 4)):
            start = int(rng.integers(0, 7))
            stop = int(rng.integers(start + 1, 9))
            cells = tuple(rng.choice(4, size=rng.integers(1, 4), replace=False).tolist())
            matrix = rng.standard_normal((2, 2))
            if rng.random() < 0.5 and start > 0:
                def gate(samples, k0, _c=tuple(cells), _t=float(rng.normal(0, 0.2))):
                    return evaluate(samples, 0.0, samples.grid.times[k0], _c, h) >= _t
            else:
                gate = None
            blocks.append(SimpleBlock(start, stop, cells, matrix, gate))
        simple = SimpleIntegrand(blocks, 2, 2)
        samples = sample_path(mixed, grid8, 33, range(trial, trial + 4))
        direct = integrate_simple(simple, samples)
        walked = integrate(simple.as_general(), samples)
        assert direct.shape == (4, 2)
        assert np.allclose(direct, walked.values[:, -1], atol=1e-12), f"trial {trial}"


def test_simple_block_validation():
    with pytest.raises(ValueError, match="empty"):
        SimpleIntegrand([SimpleBlock(3, 3, (0,), np.eye(2))], 2, 2)
    with pytest.raises(ValueError, match="shape"):
        SimpleIntegrand([SimpleBlock(0, 1, (0,), np.eye(3))], 2, 2)


def test_simple_block_cells_are_checked(mixed, grid8):
    """Cells that are not distinct non-negative integers are refused when the
    integrand is built. A cell beyond the model's is refused by the block-sum
    route, which sees the model; the walk route does not see the cell count."""
    for cells in ((-1,), (0, 0)):
        with pytest.raises(ValueError, match="distinct non-negative integers"):
            SimpleIntegrand([SimpleBlock(0, 8, cells, np.eye(2))], 2, 2)
    beyond = SimpleIntegrand([SimpleBlock(0, 8, (4,), np.eye(2))], 2, 2)
    with pytest.raises(ValueError, match=r"cell index 4 outside 0\.\.3"):
        integrate_simple(beyond, sample_path(mixed, grid8, 3, range(2)))


def test_composition_matches_direct_route(mixed, grid8):
    """Integrating Psi against the walked inner integral equals one walk of
    the composed integrand, path by path."""
    inner = SimpleIntegrand(
        [
            SimpleBlock(0, 5, (0, 1), np.array([[1.0, 0.3], [0.0, 0.8]])),
            SimpleBlock(2, 8, (2, 3), np.array([[-0.4, 0.0], [0.2, 0.5]]),
                        predicate=lambda samples, k0: evaluate(
                            samples, 0.0, samples.grid.times[k0], [0], [1.0, 0.0]) >= 0.0),
        ],
        2,
        2,
    )
    psi_mats = [np.eye(2), np.array([[0.5, -0.2], [0.1, 0.9]])]

    def psi(step, time, value):
        return psi_mats[0] if step < 4 else psi_mats[1]

    general = inner.as_general()
    composed = compose_integrands(psi, general, dim_out=2)
    samples = sample_path(mixed, grid8, 44, range(40))
    direct = integrate_process(psi, integrate(general, samples), dim_out=2)
    fused = integrate(composed, samples).values[:, -1]
    assert direct.shape == (40, 2)
    assert np.allclose(direct, fused, atol=1e-12)


def test_composition_with_state_dependent_outer(mixed, grid8):
    """The outer map may read the running outer value; both routes see the
    same left-frozen value, so the identity survives."""
    inner = constant_integrand(PHI)

    def psi(step, time, value):  # value: (P, 2), one running outer value per path
        return np.eye(2) * (1.0 + 0.3 * np.tanh(value[:, 0]))[:, None, None]

    composed = compose_integrands(psi, inner, dim_out=2)
    samples = sample_path(mixed, grid8, 55, range(25))
    direct = integrate_process(psi, integrate(inner, samples), dim_out=2)
    fused = integrate(composed, samples).values[:, -1]
    assert np.allclose(direct, fused, atol=1e-12)


def test_composition_with_adapted_inner(mixed, grid8):
    """An inner integrand that feeds back on its own running value: the
    composition must hand it the inner integral, not the composed one."""
    inner = state_linear_integrand(PHI, [0.6, -0.2], 0.8)
    outer_mats = np.random.default_rng(5).uniform(-1.0, 1.0, size=(grid8.n_steps, 2, 2))

    def psi(step, time, value):
        return outer_mats[step]

    composed = compose_integrands(psi, inner, dim_out=2)
    samples = sample_path(mixed, grid8, 0, range(40))
    direct = integrate_process(psi, integrate(inner, samples), dim_out=2)
    fused = integrate(composed, samples).values[:, -1]
    scale = np.maximum(1.0, np.abs(direct).max(axis=1, keepdims=True))
    assert np.all(np.abs(direct - fused) <= 1e-12 * scale)


def test_deterministic_integrand_time_dependence(mixed, grid8):
    """Deterministic fast path agrees with the generic walk."""
    def fn(step, time, cell):
        return PHI * np.cos(time) * (1.0 + 0.1 * cell)

    det = deterministic_integrand(fn, 2, 2)

    def slow_eval(state, cells):
        return np.stack([fn(state.step, state.time, j) for j in cells])[None]

    slow = Integrand(slow_eval, 2, 2, deterministic=False)
    samples = sample_path(mixed, grid8, 66, range(20))
    a = integrate(det, samples)
    b = integrate(slow, samples)
    # both routes add the input-axis terms, then the cells, in one order
    assert a.phis.tobytes() == b.phis.tobytes()
    assert a.stoch_cont.tobytes() == b.stoch_cont.tobytes()
    # the deterministic route's deltas are one matmul, the adapted route's a
    # multiply-and-sum, so the values and the jump rows agree to rounding
    for field in ("values", "delta", "pre"):
        assert np.allclose(getattr(a, field), getattr(b, field), rtol=0.0, atol=1e-12), field


def _gauss_cells(dim, live):
    """A diffusion-only model of dim dimensions, one cell per entry of live,
    a cell without noise where it is False."""
    rng = np.random.default_rng(dim)
    cells = []
    for alive in live:
        root = rng.standard_normal((dim, dim))
        cov = root @ root.T + 0.1 * np.eye(dim)
        cells.append(CellNoise(diffusion_cov=cov, diffusion_intensity=1.3) if alive else CellNoise())
    return normalize_spec(NoiseSpec(dim, SpatialPartition.uniform(len(live)), cells))


# one to four active cells: four on mixed-default, two on the other presets
# and three of four around a dead cell
_CONTRACTION_MODELS = {"one-cell": (True,), "dead-cell": (True, False, True, True)}


@pytest.mark.parametrize(
    "shape, model",
    [(s, m) for s in ("2x2", "3x2") for m in ("mixed-default", "gauss-default", "jump-default", *_CONTRACTION_MODELS)]
    + [(s, m) for s in ("2x1", "1x1", "3x3", "16x16") for m in _CONTRACTION_MODELS],
)
def test_deterministic_contraction_matches_einsum(shape, model):
    """The deterministic walk's continuous increments against the einsum it
    replaced, "kjab,pkjb->pka" over the active cells: bitwise at the presets'
    two inputs and at 2x1, where the explicit adds take einsum's order, and
    within 1e-15 of the largest increment at 1x1, 3x3 and 16x16, where
    einsum adds in another order."""
    d_out, d_in = map(int, shape.split("x"))
    spec = make_preset(model) if model in PRESETS else _gauss_cells(d_in, _CONTRACTION_MODELS[model])
    op = np.random.default_rng(d_out * 100 + d_in).standard_normal((d_out, d_in))

    def fn(step, time, cell):
        return op * np.cos(3.0 * time) * (1.0 + 0.4 * cell)

    grid = TimeGrid(1.0, 16)
    active = np.flatnonzero(spec.tables.flavor("total").rate)
    phis = np.array([[fn(k, t, j) for j in active] for k, t in enumerate(grid.times[:-1])])
    integrand = deterministic_integrand(fn, d_out, d_in)
    chunk = sample_path(spec, grid, 29, range(16))
    for samples in (chunk, chunk[5]):
        got = integrate(integrand, samples).stoch_cont
        want = np.einsum("kjab,pkjb->pka", phis, samples.gauss[:, :, active])
        if d_in == 2 or shape == "2x1":
            assert got.tobytes() == want.tobytes()
        else:
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


# ------------------------------------------------ the chunked walk


def _loop_walk(process, sample):
    """The per-path step loop that the chunked walk replaced, kept as its
    reference: one path, a chunk of one, one evaluator call per step, each
    cell's operator applied on its own and each jump applied on its own in
    micro-order. Returns values, phis, stoch_cont, drift, and the jump rows'
    delta and pre, without the path axis."""
    integrand = process.integrand
    grid, spec = sample.grid, sample.spec
    n, m, times = grid.n_steps, spec.n_cells, grid.times
    total_rate = spec.tables.flavor("total").rate
    active = [j for j in range(m) if total_rate[j] > 0.0]
    d_out, d_in = integrand.dim_out, integrand.dim_in

    values = np.zeros((n + 1, d_out))
    values[0] = process.initial
    drift = np.zeros((n, d_out))
    dr = process.drift_rate * grid.dt
    phis = np.zeros((n, m, d_out, d_in))
    stoch = np.zeros((n, d_out))
    history = PathHistory(sample, values[:, None])
    noise = sample.jumps
    step, cell, amp = noise["step"], noise["cell"], noise["amp"]
    delta = np.zeros((len(noise), d_out))
    ends = np.searchsorted(step, np.arange(n), side="right").tolist()
    pre = np.zeros((len(noise), d_out))

    hi = 0
    for k in range(n):
        lo, hi = hi, ends[k]
        v = values[k].copy()
        if process.drift_rate.any():
            drift[k] = dr
            v += dr
        history._cursor = k
        state = AdaptedState(step=k, time=times[k], value=values[k][None].copy(), history=history)
        sc = np.zeros(d_out)
        mats = integrand.evaluator(state, tuple(active))
        mats = np.broadcast_to(mats, (1, len(active), d_out, d_in))
        for j, mat in zip(active, mats[0]):
            phis[k, j] = mat
            sc += mat @ sample.gauss[0, k, j]
        stoch[k] = sc
        for i in range(lo, hi):
            delta[i] = phis[k, cell[i]] @ amp[i]
        v += stoch[k]
        for i in range(lo, hi):
            pre[i] = v
            v = v + delta[i]
        values[k + 1] = v
    return {"values": values, "phis": phis, "stoch_cont": stoch, "drift": drift, "delta": delta, "pre": pre}


def _gated_simple():
    """A simple integrand with one ungated block and two gated ones, each
    gate decided at its window's left endpoint from the noise before it."""
    h = np.array([1.0, -0.4])

    def gate(samples, k0, _c=(0, 2)):
        return evaluate(samples, 0.0, samples.grid.times[k0], _c, h) >= 0.0

    return SimpleIntegrand(
        [
            SimpleBlock(0, 6, (0, 1), np.array([[1.0, 0.3], [0.0, 0.8]])),
            SimpleBlock(2, 8, (1, 2, 3), np.array([[-0.4, 0.0], [0.2, 0.5]]), predicate=gate),
            SimpleBlock(4, 7, (0, 3), np.array([[0.3, -0.6], [0.9, 0.1]]), predicate=gate),
        ],
        2,
        2,
    )


def _row(walked, p):
    """Path p of a walked chunk: its records without the path axis."""
    rows = walked.samples.pid == p
    return {"values": walked.values[p], "phis": walked.phis[p], "stoch_cont": walked.stoch_cont[p],
            "drift": walked.drift, "delta": walked.delta[rows], "pre": walked.pre[rows]}


def _chunk_processes():
    linear = state_linear_integrand(PHI, [0.6, -0.2], 0.8)
    outer_mats = np.random.default_rng(5).uniform(-1.0, 1.0, size=(8, 2, 2))

    def psi(step, time, value):  # reads the running outer value of each path
        return outer_mats[step] * (1.0 + 0.3 * np.tanh(value[:, :1]))[:, None]

    return {
        "state-linear": ItoProcessSpec(linear),
        "drift": ItoProcessSpec(
            state_linear_integrand(PHI, [1.0, -0.5], 0.4),
            initial=[0.2, -0.1],
            drift_rate=[0.3, -0.2],
        ),
        "gated-simple": ItoProcessSpec(_gated_simple().as_general()),
        "composed": ItoProcessSpec(compose_integrands(psi, linear, dim_out=2)),
    }


@pytest.mark.parametrize(
    "name, model",
    [pytest.param(name, "mixed", id=name) for name in sorted(_chunk_processes())]
    # the gated blocks name cells the one-cell model lacks
    + [pytest.param(name, "rate-256", id=f"{name}-rate-256")
       for name in sorted(_chunk_processes()) if name != "gated-simple"],
)
def test_chunked_walk_matches_per_path_loop(mixed, grid8, name, model):
    """One step loop over a chunk of paths reproduces the per-path loop on
    every record, path by path, to 1e-12 relative, also with many jump rows
    of a path in one step."""
    process = _chunk_processes()[name]
    spec = mixed if model == "mixed" else _dense_jumps()
    chunk = sample_path(spec, grid8, 4100, range(9))
    walked = simulate_ito_process(process, chunk)
    assert isinstance(walked, ItoChunk) and len(walked) == len(chunk)
    assert walked.samples is chunk and len(chunk.jumps) > 9
    for i in range(len(walked)):
        want = _loop_walk(process, sample_path(spec, grid8, seed=4100, path_index=i))
        got = _row(walked, i)
        for field, ref in want.items():
            assert got[field].shape == ref.shape, (name, field)
            scale = max(1.0, float(np.abs(ref).max(initial=0.0)))
            assert np.abs(got[field] - ref).max(initial=0.0) <= 1e-12 * scale, (name, field)


@pytest.mark.parametrize("kind", ["deterministic", "adapted"])
def test_chunk_index_is_the_path_walked_alone(mixed, grid8, kind):
    """Walking samples[p], path p as a chunk of one, gives bit for bit row p
    of the walked chunk, read-only; the walks and every chunk measure and
    reader refuse a tuple of samples or of walked paths."""
    integrand = {
        "deterministic": deterministic_integrand(lambda k, t, j: PHI * (1.0 + t * (1 + j)), 2, 2),
        "adapted": state_linear_integrand(PHI, [0.6, -0.2], 0.8),
    }[kind]
    samples = sample_path(mixed, grid8, 4100, range(5))
    chunk = integrate(integrand, samples)
    assert isinstance(chunk, ItoChunk) and len(chunk) == len(samples)
    assert 0 < len(chunk.delta) == len(samples.jumps) and chunk.samples is samples
    for i in range(5):
        alone = integrate(integrand, samples[i - 5 * (i % 2)])  # odd paths by a negative index
        assert len(alone) == 1 and alone.samples.path_index == (i,)
        assert alone.samples.jumps.tobytes() == samples.jumps[samples.pid == i].tobytes()
        for field, got in _row(chunk, i).items():
            want = _row(alone, 0)[field]
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), field
        for field in ("values", "phis", "stoch_cont", "drift", "delta", "pre"):
            assert not getattr(alone, field).flags.writeable, field
        stacked = make_adaptive_partition(alone, [0.5, 0.25])
        assert np.array_equal(stacked, make_adaptive_partition(chunk, [0.5, 0.25])[:, i : i + 1])
    f, dyadic = make_smooth("quadratic"), np.stack([make_dyadic_partition(grid8.n_steps, v) for v in (1, 2)])
    mask, form = dyadic[0], lambda t, x: np.eye(2)
    measures = (predictable_qv, optional_qv, bracket_terminal, path_running_sup,
                realized_lambda2_mass, decompose_integral,
                lambda c: ito_terms(c, f), lambda c: ito_residual(c, f),
                lambda c: qv_refinement_study(c, dyadic), lambda c: riemann_qv(c, mask),
                lambda c: riemann_weighted_bilinear(c, mask, form),
                lambda c: weighted_qv_target(c, form), lambda c: make_adaptive_partition(c, 0.5),
                lambda c: make_adaptive_partition(c, [0.5, 0.25]),
                lambda c: integrate_process(lambda k, t, v: np.eye(2), c, 2))
    process = ItoProcessSpec(integrand)
    walks = (lambda s: integrate(integrand, s), lambda s: simulate_ito_process(process, s),
             lambda s: evaluate(s, 0.0, 1.0, [0], [1.0, 0.0]),
             lambda s: integrate_simple(SimpleIntegrand([], 2, 2), s))
    one_each = tuple(integrate(integrand, samples[i]) for i in range(5))
    refusals = [(m, one_each, "ItoChunk") for m in measures]
    refusals += [(w, tuple(samples), "SampleChunk") for w in walks]
    for refused, given, kind in refusals:
        with pytest.raises(TypeError, match=f"expected an? {kind}, got tuple"):
            refused(given)


def _with_dead_cell():
    """Three cells, the middle one without noise: the walk's active cells
    are (0, 2)."""
    cells = [
        CellNoise(diffusion_cov=np.eye(2), diffusion_intensity=1.0),
        CellNoise(),
        CellNoise(jump_rate=3.0, jump_amplitude=TwoPointAmplitude([0.8, -0.5])),
    ]
    return normalize_spec(NoiseSpec(2, SpatialPartition.uniform(3), cells))


@pytest.mark.parametrize("model", ["mixed", "dead-cell"])
def test_adapted_evaluator_is_called_once_per_step_per_chunk(mixed, grid8, model):
    """One evaluator call per step hands the whole chunk every active cell
    at once, in cell order, and the walk matches the per-path loop. The
    running value each call sees is bitwise the returned value at its step."""
    spec = mixed if model == "mixed" else _with_dead_cell()
    active = (0, 1, 2, 3) if model == "mixed" else (0, 2)
    linear = state_linear_integrand(PHI, [0.6, -0.2], 0.8)
    calls, seen = [], []

    def counted(state, cells):
        calls.append((state.step, cells, len(state.value)))
        seen.append(state.value.copy())
        return linear.evaluator(state, cells)

    process = ItoProcessSpec(Integrand(counted, 2, 2, deterministic=False))
    walked = simulate_ito_process(process, sample_path(spec, grid8, 21, range(5)))
    assert calls == [(k, active, 5) for k in range(grid8.n_steps)]
    for k, value in enumerate(seen):
        assert value.tobytes() == walked.values[:, k].tobytes(), k
    for i in range(len(walked)):
        want = _loop_walk(process, sample_path(spec, grid8, seed=21, path_index=i))
        for field in ("values", "phis"):
            assert np.allclose(_row(walked, i)[field], want[field], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "shape, deterministic",
    [((5, 2, 2), False), ((5, 3, 2, 2), False), ((2, 4, 2, 2), False), ((5, 4, 2, 3), False),
     ((4, 2, 2), True), ((2, 4, 2, 2), True)],
)
def test_malformed_evaluator_return_names_the_accepted_shapes(mixed, grid8, shape, deterministic):
    """A 3-D (P, dim_out, dim_in) stack, a wrong path or cell count and a
    wrong operator shape are refused, naming what the walk accepts."""
    bad = Integrand(lambda state, cells: np.ones(shape), 2, 2, deterministic=deterministic)
    chunk = sample_path(mixed, grid8, 2, range(5))
    paths = 1 if deterministic else 5
    accepted = f"shape {shape}, expected (2, 2) or a 4-D stack that broadcasts to ({paths}, 4, 2, 2)"
    with pytest.raises(ValueError, match=re.escape(accepted)):
        integrate(bad, chunk)


@pytest.mark.parametrize(
    "scenario, overrides",
    [
        ("qv-converge", ["n_paths=7"]),
        ("verify-conditional-isometry", ["n_paths=7", "n_steps=16"]),
        ("ito-converge", ["n_paths=7", "params.levels=[3,5]"]),
        ("verify-ito", ["n_paths=7"]),
        ("verify-isometry", ["n_paths=7"]),
        ("burkholder", ["n_paths=7"]),
        ("verify-associativity", ["n_paths=7"]),
        ("verify-qv", ["n_paths=7"]),
        ("verify-decomposition", ["n_paths=7"]),
    ],
)
def test_per_path_rows_do_not_depend_on_chunk_size(scenario, overrides, tmp_path, monkeypatch):
    """The rows a scenario's measure writes are bitwise the same whether the
    paths are walked one at a time, three at a time or all together."""
    original = cmvm.harness._per_path
    blocks = {}

    for chunk in (1, 3, 7):
        monkeypatch.setattr(cmvm.integrate, "_CHUNK", chunk)
        seen = blocks[chunk] = []

        def recorded(*args, _seen=seen, **kwargs):
            rows = original(*args, **kwargs)
            _seen.append(rows)
            return rows

        # burkholder's walk_ensemble calls _per_path by its own module's name
        monkeypatch.setattr(cmvm.harness, "_per_path", recorded)
        monkeypatch.setattr(cmvm.burkholder, "_per_path", recorded)
        run(apply_overrides(load_config(scenario), overrides), str(tmp_path / str(chunk)))
    assert blocks[1] and all(b.shape[0] == 7 for b in blocks[1])
    for chunk in (3, 7):
        assert [b.tobytes() for b in blocks[chunk]] == [b.tobytes() for b in blocks[1]], chunk


def test_composed_inner_restarts_with_each_walk(mixed):
    """On a one-step grid every walk starts and ends at step 0; the adapted
    inner integral must still restart for each walk, whatever its chunk."""
    grid = TimeGrid(1.0, 1)
    inner = state_linear_integrand(PHI, [0.6, -0.2], 0.8)

    def psi(step, time, value):
        return np.array([[0.5, -0.2], [0.1, 0.9]])

    composed = compose_integrands(psi, inner, dim_out=2)
    for first, size in ((0, 3), (3, 2), (5, 1)):
        chunk = sample_path(mixed, grid, 12, range(first, first + size))
        ends = integrate(composed, chunk).values[:, -1]
        for p, i in enumerate(range(first, first + size)):
            alone = integrate(inner, sample_path(mixed, grid, seed=12, path_index=i))
            direct = integrate_process(psi, alone, dim_out=2)
            assert direct.shape == (1, 2)
            assert np.allclose(ends[p], direct[0], rtol=0.0, atol=1e-12)
