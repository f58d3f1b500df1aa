"""Integrator walk tests.

The statistical identities (martingale property, isometry, conditional
isometry) are checked with four-standard-error bands; the structural
identities (linearity, micro-order reconstruction, dual routes for simple
integrands, associativity of composition) are exact up to rounding and get
hard tolerances. A deliberately anticipating integrand serves as the
negative control: the same functional form reading one step into the future
must blow the martingale test, and the guarded history must refuse it.
"""

import numpy as np
import pytest

from cmvm.integrate import (
    FVDriver,
    Integrand,
    ItoProcessSpec,
    LookAheadError,
    SimpleBlock,
    SimpleIntegrand,
    compose_integrands,
    conditional_isometry_check,
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
from cmvm.noise import TimeGrid, evaluate, sample_path
from cmvm.presets import make_preset

PHI = np.array([[0.9, 0.2], [-0.3, 1.1]])


@pytest.fixture(scope="module")
def mixed():
    return make_preset("mixed-default")


@pytest.fixture(scope="module")
def grid8():
    return TimeGrid(1.0, 8)


@pytest.fixture(scope="module")
def samples(mixed, grid8):
    return [sample_path(mixed, grid8, seed=515, path_index=i) for i in range(3000)]


@pytest.fixture(scope="module")
def walked(samples):
    phi = constant_integrand(PHI)
    return [integrate(phi, s) for s in samples]


def test_integral_is_mean_zero(walked, grid8):
    for k in (2, 4, 6, 8):
        vals = np.stack([p.values[k] for p in walked])
        se = vals.std(axis=0, ddof=1) / np.sqrt(len(vals))
        assert np.all(np.abs(vals.mean(axis=0)) < 4.0 * se), f"bias at step {k}"


def test_isometry_constant_integrand(walked, mixed, grid8):
    """E ||I_T||^2 against the exact squared integrand norm."""
    target = lambda2_norm(constant_integrand(PHI), mixed, grid8).value
    sq = np.array([float(p.terminal @ p.terminal) for p in walked])
    se = sq.std(ddof=1) / np.sqrt(len(sq))
    assert abs(sq.mean() - target) < 4.0 * se


def test_isometry_each_flavor_on_restricted_cells(walked, mixed, grid8):
    """Second moment of the integral restricted (by the model) decomposes as
    the flavor masses; checked through the additivity of the realized weight."""
    for p in walked[:100]:
        tot = realized_lambda2_mass(p, "total")
        parts = realized_lambda2_mass(p, "continuous") + realized_lambda2_mass(p, "discontinuous")
        assert tot == pytest.approx(parts, rel=1e-12)


def test_linearity_per_path(mixed, grid8, samples):
    a = constant_integrand(PHI, name="a")
    b = constant_integrand(np.array([[0.1, -0.7], [0.4, 0.2]]), name="b")
    comb = constant_integrand(2.0 * PHI + np.array([[0.1, -0.7], [0.4, 0.2]]))
    for s in samples[:40]:
        lhs = integrate(comb, s).terminal
        rhs = 2.0 * integrate(a, s).terminal + integrate(b, s).terminal
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_walk_reconstructs_exactly(mixed, grid8):
    """values, drift, stoch_cont and the jump records tile each step exactly."""
    proc = ItoProcessSpec(
        state_linear_integrand(PHI, [1.0, -0.5], 0.4),
        initial=[0.2, -0.1],
        drift_rate=[0.3, -0.2],
        driver=FVDriver([2, 5], [[0.05, 0.0], [-0.02, 0.04]]),
    )
    sample = sample_path(mixed, grid8, seed=77, path_index=0)
    path = simulate_ito_process(proc, sample)
    assert len(sample.jumps) > 0
    jumps = path.jumps
    for k in range(grid8.n_steps):
        v = path.values[k].copy()
        v += path.drift[k]
        v += path.stoch_cont[k]
        for rec in jumps[jumps["step"] == k]:
            assert np.array_equal(rec["pre"], v)
            v = v + rec["delta"]
        assert np.array_equal(path.values[k + 1], v), f"step {k} does not tile"
    # driver jumps land at right endpoints, after every noise jump of the step
    driver = jumps["cell"] == -1
    assert jumps["step"][driver].tolist() == [2, 5]
    assert np.allclose(jumps["time"][driver], grid8.times[jumps["step"][driver] + 1])
    for k in (2, 5):
        in_step = jumps["cell"][jumps["step"] == k]
        assert in_step[-1] == -1 and np.all(in_step[:-1] >= 0)


def test_jumps_are_read_only_record_arrays(mixed, grid8):
    """Sampled and walked jumps are structured arrays, one row per jump;
    driver rows are marked by cell -1 at the right end of their step."""
    sample = sample_path(mixed, grid8, seed=77, path_index=0)
    proc = ItoProcessSpec(
        constant_integrand(PHI), driver=FVDriver([2, 5], [[0.05, 0.0], [-0.02, 0.04]])
    )
    path = simulate_ito_process(proc, sample)
    assert sample.jumps.dtype.names == ("step", "cell", "time", "amp")
    assert sample.jumps.dtype["amp"].shape == (2,)
    assert path.jumps.dtype.names == ("step", "time", "cell", "delta", "pre")
    assert path.jumps.dtype["delta"].shape == path.jumps.dtype["pre"].shape == (2,)
    assert len(sample.jumps) > 0
    assert len(path.jumps) == len(sample.jumps) + 2
    for jumps in (sample.jumps, path.jumps):
        assert isinstance(jumps, np.ndarray) and not jumps.flags.writeable
        with pytest.raises(ValueError):
            jumps["step"][0] = 0
    noise = path.jumps["cell"] >= 0
    for field in ("step", "cell", "time"):
        assert np.array_equal(path.jumps[field][noise], sample.jumps[field])
    driver = path.jumps[~noise]
    assert np.all(driver["cell"] == -1)
    assert driver["step"].tolist() == [2, 5]
    assert np.array_equal(driver["time"], grid8.times[driver["step"] + 1])
    assert np.array_equal(driver["delta"], proc.driver.values)


def test_lookahead_guard_raises(mixed, grid8):
    sample = sample_path(mixed, grid8, seed=3, path_index=0)

    def peeking(state, cell):
        state.history.gauss_increment(state.step, cell)  # not yet revealed
        return PHI

    with pytest.raises(LookAheadError):
        integrate(Integrand(peeking, 2, 2, deterministic=False, name="peek"), sample)

    def too_far_value(state, cell):
        state.history.value(state.step + 1)
        return PHI

    with pytest.raises(LookAheadError):
        integrate(Integrand(too_far_value, 2, 2, deterministic=False, name="peek2"), sample)


def test_noise_pairing_sees_windows_up_to_the_cursor(mixed, grid8):
    sample = sample_path(mixed, grid8, seed=3, path_index=0)
    h = [0.4, -1.0]
    seen = {}

    def reads_to_cursor(state, cell):
        t = float(grid8.times[state.step])
        seen[state.step, cell] = state.history.noise_pairing(0.0, t, [cell], h)
        return PHI

    integrate(Integrand(reads_to_cursor, 2, 2, deterministic=False, name="past"), sample)
    assert {k for k, _ in seen} == set(range(grid8.n_steps))
    for (k, cell), value in seen.items():
        assert value == evaluate(sample, 0.0, float(grid8.times[k]), [cell], h)

    def reads_one_step_ahead(state, cell):
        state.history.noise_pairing(0.0, float(grid8.times[state.step + 1]), [cell], h)
        return PHI

    with pytest.raises(LookAheadError, match="beyond the walk's step 0"):
        integrate(Integrand(reads_one_step_ahead, 2, 2, deterministic=False, name="ahead"), sample)


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
        means = np.zeros((n_paths, 2))
        for i in range(n_paths):
            sample = sample_path(mixed, grid8, seed=808, path_index=i)
            integrand = Integrand(make_eval(sample), 2, 2, deterministic=False, name="ctl")
            means[i] = integrate(integrand, sample).terminal
        se = means.std(axis=0, ddof=1) / np.sqrt(n_paths)
        return np.abs(means.mean(axis=0)) / se

    def honest(sample):
        def _eval(state, cell):
            if state.step == 0:
                return PHI
            g = state.history.gauss_increment(state.step - 1, cell)
            return PHI * (1.0 + 2.0 * float(w @ g))

        return _eval

    def cheating(sample):
        def _eval(state, cell):
            g = sample.gauss[state.step, cell]  # smuggled future
            return PHI * (1.0 + 2.0 * float(w @ g))

        return _eval

    z_honest = run(honest)
    z_cheat = run(cheating)
    assert np.all(z_honest < 4.0), f"honest integrand looks biased: z={z_honest}"
    assert np.any(z_cheat > 6.0), f"anticipation went undetected: z={z_cheat}"


def test_conditional_isometry_adapted_feedback(mixed, grid8):
    integrand = state_linear_integrand(PHI, [0.8, -0.3], 0.5)
    h = np.array([1.0, -0.2])

    def first_sign(path, ks):
        return evaluate(path.sample, 0.0, path.grid.times[1], [0, 1], h) >= 0.0

    checks = conditional_isometry_check(
        integrand,
        mixed,
        grid8,
        s=grid8.times[1],
        t=1.0,
        events={"always": lambda path, ks: True, "first-sign": first_sign},
        n_paths=1200,
        seed=99,
    )
    by_name = {c.name: c for c in checks}
    assert by_name["always"].event_rate == 1.0
    assert 0.2 < by_name["first-sign"].event_rate < 0.8
    for c in checks:
        assert abs(c.z) < 4.0, f"event {c.name}: z={c.z}"
        assert c.stderr > 0


def test_conditional_isometry_rejects_bad_window(mixed, grid8):
    with pytest.raises(ValueError, match="s < t"):
        conditional_isometry_check(
            constant_integrand(PHI), mixed, grid8, s=0.5, t=0.5, events={}, n_paths=2
        )


def test_lambda2_norm_deterministic_vs_sampled(mixed, grid8):
    det = lambda2_norm(constant_integrand(PHI), mixed, grid8)
    assert det.stderr == 0.0
    # a state-feedback integrand with zero gain has the same norm, found by MC
    sampled = lambda2_norm(
        state_linear_integrand(PHI, [1.0, 0.0], 0.0), mixed, grid8, n_paths=8, seed=1
    )
    assert sampled.stderr == pytest.approx(0.0, abs=1e-12)
    assert sampled.value == pytest.approx(det.value, rel=1e-12)
    # one sampled walk carries no spread estimate
    single = lambda2_norm(state_linear_integrand(PHI, [1.0, 0.0], 0.4), mixed, grid8, n_paths=1)
    assert np.isnan(single.stderr)
    with pytest.raises(ValueError, match="flavor"):
        lambda2_norm(constant_integrand(PHI), mixed, grid8, flavor="spicy")


def test_decompose_parts_sum_exactly(mixed, grid8):
    proc = ItoProcessSpec(
        state_linear_integrand(PHI, [0.2, 0.9], 0.3),
        initial=[1.0, 2.0],
        drift_rate=[0.5, -0.1],
        driver=FVDriver([3], [[0.1, -0.1]]),
    )
    for idx in range(25):
        sample = sample_path(mixed, grid8, seed=21, path_index=idx)
        path = simulate_ito_process(proc, sample)
        cont, jump, fv = decompose_integral(path)
        assert np.allclose(cont + jump + fv, path.values, atol=1e-12)
        # continuous part has continuous increments only; jump part is flat
        # between noise jumps; fv carries initial, drift and driver
        assert np.allclose(cont[0], 0.0)
        assert np.allclose(jump[0], 0.0)
        assert np.allclose(fv[0], [1.0, 2.0])
        noise_total = path.jumps["delta"][path.jumps["cell"] >= 0].sum(axis=0)
        assert np.allclose(jump[-1], noise_total, atol=1e-12)


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
                def gate(sample, k0, _c=tuple(cells), _t=float(rng.normal(0, 0.2))):
                    return evaluate(sample, 0.0, sample.grid.times[k0], _c, h) >= _t
            else:
                gate = None
            blocks.append(SimpleBlock(start, stop, cells, matrix, gate))
        simple = SimpleIntegrand(blocks, 2, 2)
        sample = sample_path(mixed, grid8, seed=33, path_index=trial)
        direct = integrate_simple(simple, sample)
        walked_path = integrate(simple.as_general(), sample)
        assert np.allclose(direct, walked_path.terminal, atol=1e-12), f"trial {trial}"


def test_simple_block_validation():
    with pytest.raises(ValueError, match="empty"):
        SimpleIntegrand([SimpleBlock(3, 3, (0,), np.eye(2))], 2, 2)
    with pytest.raises(ValueError, match="shape"):
        SimpleIntegrand([SimpleBlock(0, 1, (0,), np.eye(3))], 2, 2)


def test_composition_matches_direct_route(mixed, grid8):
    """Integrating Psi against the walked inner integral equals one walk of
    the composed integrand, path by path."""
    inner = SimpleIntegrand(
        [
            SimpleBlock(0, 5, (0, 1), np.array([[1.0, 0.3], [0.0, 0.8]])),
            SimpleBlock(2, 8, (2, 3), np.array([[-0.4, 0.0], [0.2, 0.5]]),
                        predicate=lambda sample, k0: evaluate(
                            sample, 0.0, sample.grid.times[k0], [0], [1.0, 0.0]) >= 0.0),
        ],
        2,
        2,
    )
    psi_mats = [np.eye(2), np.array([[0.5, -0.2], [0.1, 0.9]])]

    def psi(step, time, value):
        return psi_mats[0] if step < 4 else psi_mats[1]

    general = inner.as_general()
    composed = compose_integrands(psi, general, dim_out=2, outer_deterministic=True)
    for idx in range(40):
        sample = sample_path(mixed, grid8, seed=44, path_index=idx)
        inner_path = integrate(general, sample)
        direct = integrate_process(psi, inner_path, dim_out=2)
        fused = integrate(composed, sample).terminal
        assert np.allclose(direct, fused, atol=1e-12), f"path {idx}"


def test_composition_with_state_dependent_outer(mixed, grid8):
    """The outer map may read the running outer value; both routes see the
    same left-frozen value, so the identity survives."""
    inner = constant_integrand(PHI)

    def psi(step, time, value):
        return np.eye(2) * (1.0 + 0.3 * float(np.tanh(value[0] if value is not None else 0.0)))

    composed = compose_integrands(psi, inner, dim_out=2)
    for idx in range(25):
        sample = sample_path(mixed, grid8, seed=55, path_index=idx)
        direct = integrate_process(psi, integrate(inner, sample), dim_out=2)
        fused = integrate(composed, sample).terminal
        assert np.allclose(direct, fused, atol=1e-12)


def test_composition_with_adapted_inner(mixed, grid8):
    """An inner integrand that feeds back on its own running value: the
    composition must hand it the inner integral, not the composed one."""
    inner = state_linear_integrand(PHI, [0.6, -0.2], 0.8)
    outer_mats = np.random.default_rng(5).uniform(-1.0, 1.0, size=(grid8.n_steps, 2, 2))

    def psi(step, time, value):
        return outer_mats[step]

    composed = compose_integrands(psi, inner, dim_out=2)
    for idx in range(40):
        sample = sample_path(mixed, grid8, seed=0, path_index=idx)
        direct = integrate_process(psi, integrate(inner, sample), dim_out=2)
        fused = integrate(composed, sample).terminal
        assert np.allclose(direct, fused, rtol=0.0, atol=1e-12 * max(1.0, np.abs(direct).max()))


def test_deterministic_integrand_time_dependence(mixed, grid8):
    """Deterministic fast path agrees with the generic walk."""
    def fn(step, time, cell):
        return PHI * np.cos(time) * (1.0 + 0.1 * cell)

    det = deterministic_integrand(fn, 2, 2)
    slow = Integrand(lambda state, cell: fn(state.step, state.time, cell), 2, 2,
                     deterministic=False, name="slow-twin")
    for idx in range(20):
        sample = sample_path(mixed, grid8, seed=66, path_index=idx)
        a = integrate(det, sample)
        b = integrate(slow, sample)
        assert np.allclose(a.values, b.values, atol=1e-12)
        assert np.allclose(a.phis, b.phis, atol=0.0)
