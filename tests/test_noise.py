"""Noise-field model tests.

Structural and law checks for the sampled field: normalization, derived
quadratic-variation tables, stream independence, and the second-moment
identities the integrator builds on. Monte Carlo assertions use a four
standard-error band around the analytic target.

Oracle values frozen below come from closed forms evaluated by hand: the top
eigenvalue of a symmetric 2x2 matrix is (tr + sqrt(tr^2 - 4 det)) / 2, and
the two-point amplitude [0.6, -0.2] has squared length 0.4.
"""

import json
import pathlib
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cmvm.hilbert
import cmvm.noise
from cmvm.noise import (
    MAX_STEPS,
    CellNoise,
    GaussianAmplitude,
    NoiseSpec,
    SpatialPartition,
    TimeGrid,
    TwoPointAmplitude,
    coarsen,
    evaluate,
    load_noise_spec,
    normalize_spec,
    sample_path,
    spec_from_json,
    spec_to_json,
    substream,
)
from cmvm.presets import make_preset

# top eigenvalue of [[1, .3], [.3, .5]]: tr = 1.5, det = 0.41
_LAM_Q0 = (1.5 + np.sqrt(1.5**2 - 4 * 0.41)) / 2.0
# squared length of the two-point amplitude [0.6, -0.2]
_AMP0_SQ = 0.4


@pytest.fixture(scope="module")
def mixed():
    return make_preset("mixed-default")


@pytest.fixture(scope="module")
def grid8():
    return TimeGrid(1.0, 8)


@pytest.fixture(scope="module")
def ensemble(mixed, grid8):
    return sample_path(mixed, grid8, 2024, range(4000))


def test_time_grid():
    g = TimeGrid(2.0, 4)
    assert g.dt == pytest.approx(0.5)
    assert np.allclose(g.times, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert g.index_of(0.0) == 0
    assert g.index_of(2.0) == 4
    with pytest.raises(ValueError, match="grid"):
        g.index_of(0.3)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    with pytest.raises(ValueError, match="n_steps"):
        TimeGrid(1.0, MAX_STEPS + 1)


def test_partition():
    p = SpatialPartition.uniform(4)
    assert p.n_cells == 4
    with pytest.raises(ValueError, match="duplicate"):
        p.validate_cells([1, 1])
    with pytest.raises(ValueError, match="outside"):
        p.validate_cells([4])
    with pytest.raises(ValueError, match="cover"):
        SpatialPartition([0.0, 0.5, 0.9])
    with pytest.raises(ValueError, match="increasing"):
        SpatialPartition([0.0, 0.6, 0.4, 1.0])


def test_two_point_amplitude_frozen():
    amp = TwoPointAmplitude([0.6, -0.2])
    assert amp.scale == pytest.approx(np.sqrt(_AMP0_SQ))
    assert np.linalg.norm(amp.direction) == pytest.approx(1.0)
    # rank-one normalized covariance has unit operator norm
    assert np.trace(amp.normalized_cov) == pytest.approx(1.0)
    draws = amp.sample(np.random.default_rng(7), 200)
    target = np.array([0.6, -0.2])
    for row in draws:
        assert np.allclose(row, target) or np.allclose(row, -target)
    assert amp.params() == {"kind": "two_point", "vector": pytest.approx([0.6, -0.2])}
    with pytest.raises(ValueError):
        TwoPointAmplitude([0.0, 0.0])


def test_gaussian_amplitude_frozen():
    cov = np.array([[0.4, 0.1], [0.1, 0.3]])
    # top eigenvalue by the 2x2 closed form: tr = 0.7, det = 0.11
    lam = (0.7 + np.sqrt(0.7**2 - 4 * 0.11)) / 2.0
    amp = GaussianAmplitude(cov)
    assert amp.scale**2 == pytest.approx(lam)
    assert np.allclose(amp.scale**2 * amp.normalized_cov, cov)
    draws = amp.sample(np.random.default_rng(11), 200_000)
    emp = draws.T @ draws / len(draws)
    se = 4.0 * np.abs(cov).max() / np.sqrt(len(draws))
    assert np.abs(emp - cov).max() < 3.0 * se + 4e-3
    assert np.allclose(amp.params()["cov"], cov)
    with pytest.raises(ValueError):
        GaussianAmplitude(np.zeros((2, 2)))


def test_cell_noise_validation():
    with pytest.raises(ValueError, match="amplitude"):
        CellNoise(jump_rate=1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        CellNoise(diffusion_cov=np.eye(2), diffusion_intensity=-1.0)
    with pytest.raises(ValueError, match="square"):
        CellNoise(diffusion_cov=np.ones((2, 3)), diffusion_intensity=1.0)


def test_non_finite_model_values_rejected(tmp_path):
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            CellNoise(diffusion_cov=[[1.0, 0.0], [0.0, bad]], diffusion_intensity=1.0)
        with pytest.raises(ValueError, match="finite"):
            CellNoise(diffusion_cov=np.eye(2), diffusion_intensity=bad)
        with pytest.raises(ValueError, match="finite"):
            CellNoise(jump_rate=bad, jump_amplitude=TwoPointAmplitude([1.0, 0.0]))
        with pytest.raises(ValueError, match="non-finite"):
            GaussianAmplitude([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            SpatialPartition([0.0, bad, 1.0])
    doc = spec_to_json(make_preset("gauss-default"))
    doc["cells"][1]["diffusion"]["intensity"] = float("nan")
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="cell 1: intensities must be finite"):
        load_noise_spec(str(model))
    # positive rates that underflow: a subnormal intensity, and a normal one
    # whose product with the covariance norm (the normalized intensity) is 0
    for cov, intensity in (([[0.0, 0.0], [0.0, 0.25]], 5e-324), (1e-30 * np.eye(2), 1e-300)):
        with pytest.raises(ValueError, match="underflows"):
            CellNoise(diffusion_cov=cov, diffusion_intensity=intensity)
    with pytest.raises(ValueError, match="jump QV rate .* underflows"):
        CellNoise(jump_rate=1e-300, jump_amplitude=TwoPointAmplitude([1e-5, 0.0]))
    doc["cells"][1]["diffusion"]["intensity"] = 5e-324
    model.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="cell 1: diffusion intensity 5e-324 underflows"):
        load_noise_spec(str(model))


def test_spec_validation():
    p = SpatialPartition.uniform(2)
    good = CellNoise(diffusion_cov=np.eye(2), diffusion_intensity=1.0)
    with pytest.raises(ValueError, match="cell specs"):
        NoiseSpec(2, p, [good])
    with pytest.raises(ValueError, match="2x2"):
        NoiseSpec(2, p, [good, CellNoise(diffusion_cov=np.eye(3), diffusion_intensity=1.0)])
    with pytest.raises(ValueError, match="dim"):
        NoiseSpec(
            2, p, [good, CellNoise(jump_rate=1.0, jump_amplitude=TwoPointAmplitude([1.0, 0.0, 0.0]))]
        )


def test_normalize_folds_magnitude_into_intensity():
    spec = NoiseSpec(
        2,
        SpatialPartition.uniform(1),
        [CellNoise(diffusion_cov=np.array([[4.0, 0.0], [0.0, 1.0]]), diffusion_intensity=0.5)],
    )
    norm = normalize_spec(spec)
    cell = norm.cells[0]
    assert np.allclose(cell.diffusion_cov, [[1.0, 0.0], [0.0, 0.25]])
    assert cell.diffusion_intensity == pytest.approx(2.0)
    # the product intensity * covariance, i.e. the law, is unchanged
    assert np.allclose(
        cell.diffusion_intensity * cell.diffusion_cov,
        spec.cells[0].diffusion_intensity * spec.cells[0].diffusion_cov,
    )


def test_normalize_is_exact_fixed_point(mixed):
    again = normalize_spec(mixed)
    assert again is mixed


def test_normalize_drops_dead_fields():
    spec = NoiseSpec(
        2,
        SpatialPartition.uniform(2),
        [
            CellNoise(diffusion_cov=np.eye(2), diffusion_intensity=0.0, jump_rate=0.0,
                      jump_amplitude=TwoPointAmplitude([1.0, 0.0])),
            CellNoise(diffusion_cov=np.eye(2), diffusion_intensity=1.0),
        ],
    )
    norm = normalize_spec(spec)
    assert norm.cells[0].diffusion_cov is None
    assert norm.cells[0].jump_amplitude is None


def test_normalize_rejects_inert_spec():
    spec = NoiseSpec(2, SpatialPartition.uniform(2), [CellNoise(), CellNoise()])
    with pytest.raises(ValueError, match="inert"):
        normalize_spec(spec)


def test_qv_measure_frozen_values(mixed):
    """The control measure of a step-cell block is dt times the flavor's rate."""
    tab = mixed.tables
    disc, cont, total = (tab.flavor(f).rate for f in ("discontinuous", "continuous", "total"))
    # cell 0: jump part carries rate * scale^2 = 1.5 * 0.4 per unit time
    assert disc[0] == pytest.approx(1.5 * _AMP0_SQ)
    # cell 0: diffusion part carries intensity * ||Q||, 0.8 * lam(Q0)
    assert cont[0] == pytest.approx(0.8 * _LAM_Q0)
    # cell 2 is diffusion-only, cell 3 jump-only
    assert disc[2] == 0.0
    assert cont[3] == 0.0
    assert np.all(total > 0.0)
    # the total flavor is the entrywise sum of the other two
    assert np.allclose(total, cont + disc, rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="flavor"):
        tab.flavor("everything")


def test_covariance_field_norms_and_identity(mixed):
    field = {name: table.field for name, table in mixed.tables.flavors.items()}
    rate = {name: table.rate for name, table in mixed.tables.flavors.items()}
    # single-flavor cells: the normalized field has unit operator norm
    for cell, flavor in [(2, "continuous"), (3, "discontinuous"), (2, "total"), (3, "total")]:
        q = field[flavor][cell]
        assert np.abs(np.linalg.eigvalsh(q)).max() == pytest.approx(1.0)
    # mixed cells: the total field is the mass-weighted convex combination
    for cell in (0, 1):
        lhs = rate["total"][cell] * field["total"][cell]
        rhs = rate["continuous"][cell] * field["continuous"][cell]
        rhs = rhs + rate["discontinuous"][cell] * field["discontinuous"][cell]
        assert np.abs(lhs - rhs).max() < 1e-14
        assert np.abs(np.linalg.eigvalsh(field["total"][cell])).max() <= 1.0 + 1e-12
    # off a flavor's support the field is undefined, and the table holds None
    assert field["continuous"][3] is None
    assert field["discontinuous"][2] is None


def test_sampling_is_deterministic(mixed, grid8):
    a = sample_path(mixed, grid8, seed=99, path_index=3)
    b = sample_path(mixed, grid8, seed=99, path_index=3)
    assert np.array_equal(a.gauss, b.gauss)
    assert len(a.jumps) == len(b.jumps)
    for field in ("step", "cell", "time", "amp"):
        assert np.array_equal(a.jumps[field], b.jumps[field])
    c = sample_path(mixed, grid8, seed=99, path_index=4)
    assert not np.array_equal(a.gauss, c.gauss)
    d = sample_path(mixed, grid8, seed=100, path_index=3)
    assert not np.array_equal(a.gauss, d.gauss)


def test_sample_path_makes_no_op_norm_calls(mixed, grid8, monkeypatch):
    # norms are taken once, when a cell is built; sampling reuses them
    calls = []

    def counting(op, _orig=cmvm.hilbert.op_norm):
        calls.append(1)
        return _orig(op)

    monkeypatch.setattr(cmvm.noise, "op_norm", counting)
    monkeypatch.setattr(cmvm.hilbert, "op_norm", counting)
    for i in range(3):
        sample_path(mixed, grid8, seed=5, path_index=i)
    assert calls == []


def test_streams_are_cell_local(grid8):
    """Editing one cell must not perturb draws in any other cell."""
    base = make_preset("mixed-default")
    cells = list(base.cells)
    cells[3] = CellNoise(jump_rate=7.0, jump_amplitude=cells[3].jump_amplitude)
    bumped = NoiseSpec(base.dim, base.partition, cells)
    a = sample_path(base, grid8, seed=5)
    b = sample_path(bumped, grid8, seed=5)
    assert np.array_equal(a.gauss[..., :3, :], b.gauss[..., :3, :])
    assert np.array_equal(a.jump_sums[..., :3, :], b.jump_sums[..., :3, :])
    assert not np.array_equal(a.jump_sums[..., 3, :], b.jump_sums[..., 3, :])


def test_substream_independence():
    r1 = substream(1, 2, 3).random(5)
    r2 = substream(1, 2, 3).random(5)
    assert np.array_equal(r1, r2)
    assert not np.array_equal(r1, substream(1, 2, 4).random(5))
    assert not np.array_equal(r1, substream(1, 3, 3).random(5))


# The draw kinds sample_path makes: Gaussian increments and amplitudes,
# Poisson counts, jump times and two-point signs.
_DRAWS = {
    "standard_normal": lambda rg: rg.standard_normal(9),
    "poisson": lambda rg: rg.poisson(0.7, size=9),
    "random": lambda rg: rg.random(9),
    "integers": lambda rg: rg.integers(0, 2, size=9),
}


def _new_philox(master_seed, stream, slot):
    key = np.array([master_seed % 2**64, stream % 2**64], dtype=np.uint64)
    counter = np.array([0, 0, slot % 2**64, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


@pytest.mark.parametrize("draw", sorted(_DRAWS))
@pytest.mark.parametrize("master_seed", [0, 2**63 + 5, 2**64 - 1])
def test_substream_draws_what_a_new_philox_generator_draws(master_seed, draw):
    """The stream layout: (seed, stream, slot) is Philox key [seed, stream]
    and counter [0, 0, slot, 0], wherever the shared generator was left."""
    for stream, slot in [(0, 0), (3, 13), (2**64 - 1, 2**64 - 1)]:
        expected = _DRAWS[draw](_new_philox(master_seed, stream, slot))
        assert np.array_equal(_DRAWS[draw](substream(master_seed, stream, slot)), expected)
        # leave the shared generator mid-buffer, half of a 64-bit word kept
        left = substream(1, 2, 3)
        left.integers(0, 2**31, dtype=np.int32)
        state = left.bit_generator.state
        assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
        assert np.array_equal(_DRAWS[draw](substream(master_seed, stream, slot)), expected)


@pytest.mark.parametrize("master_seed", [0, 2**64 - 1])
@pytest.mark.parametrize("stream, slot", [(0, 0), (3, 13), (2**64 - 1, 2**64 - 1)])
def test_two_point_signs_are_raw_top_bits(master_seed, stream, slot):
    """Sign i of a two-point amplitude is the top bit of the i-th 32-bit half
    of the raw stream, low half first, 1 picking +vector: bitwise what the
    formula with integers(0, 2, size=n) drew, for every count n."""
    amp = TwoPointAmplitude([0.6, -0.2])
    for n in range(1, 66):
        signs = substream(master_seed, stream, slot).integers(0, 2, size=n) * 2.0 - 1.0
        want = (amp.scale * signs)[:, None] * amp.direction[None, :]
        assert amp.sample(substream(master_seed, stream, slot), n).tobytes() == want.tobytes(), n


def test_two_point_sign_bits_are_pinned():
    """One stream's signs as literal bits, so that the rule holds whatever
    numpy's integers comes to draw."""
    amp = TwoPointAmplitude([0.6, -0.2])
    bits = "11111001000111111000110100010110111100100100000110001011011101100"
    draws = amp.sample(substream(0, 3, 13), len(bits))
    assert draws.tobytes() == np.array([(amp.scale * float(2 * int(b) - 1)) * amp.direction for b in bits]).tobytes()


def _rows(jumps):
    return [(r["step"], r["cell"], r["time"], tuple(r["amp"].tolist())) for r in jumps]


def test_sample_path_golden_values(mixed, grid8):
    """Draws of the stream layout, frozen: a change to the layout, the slot
    order or the draw order inside a stream moves them."""
    path = sample_path(mixed, grid8, seed=99, path_index=3)
    assert path.gauss[0, 0, 0, 0] == 0.35449678711606336
    assert path.gauss[0, 3, 1, 1] == -0.3698687338256438
    assert path.gauss[0, 7, 2, 0] == -0.24710610310142073
    assert _rows(path.jumps) == [(3, 3, 0.44770271382147536, (0.25, 0.45))]
    path = sample_path(mixed, grid8, seed=99, path_index=4)
    assert path.gauss[0, 0, 0, 0] == 0.12455714029739152
    assert path.gauss[0, 5, 2, 1] == -0.01645251503630048
    assert _rows(path.jumps) == [
        (2, 1, 0.3073428875393579, (-0.12087671016665931, 0.5034116392194423)),
        (3, 0, 0.45799648249952885, (-0.6, 0.2)),
        (4, 1, 0.6249390038517366, (-1.0873092446869561, -0.06603161052513372)),
        (5, 3, 0.6426261497585329, (-0.25, -0.45)),
        (7, 3, 0.9380970638515754, (-0.25, -0.45)),
    ]


def test_no_state_leaks_between_draws(mixed, grid8):
    before = sample_path(mixed, grid8, 7, range(6))
    substream(5, 5, 5).random(3)
    after = sample_path(mixed, grid8, 7, range(6))
    for name in ("gauss", "jumps", "pid"):
        assert getattr(after, name).tobytes() == getattr(before, name).tobytes()


def test_jump_bookkeeping(ensemble, grid8):
    dt = grid8.dt
    for p in range(50):
        path = ensemble[p]
        jumps = path.jumps
        t_lo = grid8.times[jumps["step"]]
        assert np.all((t_lo < jumps["time"]) & (jumps["time"] <= t_lo + dt + 1e-15))
        sums = np.zeros_like(path.jump_sums)
        for step, cell, amp in zip(jumps["step"], jumps["cell"], jumps["amp"]):
            sums[0, step, cell] += amp
        assert np.allclose(sums, path.jump_sums, atol=1e-15)
        steps = list(zip(jumps["step"].tolist(), jumps["time"].tolist()))
        assert steps == sorted(steps)


def test_poisson_event_rate(ensemble):
    # cell 3 fires at rate 2 on a unit horizon
    counts = np.bincount(ensemble.pid[ensemble.jumps["cell"] == 3], minlength=len(ensemble))
    se = counts.std(ddof=1) / np.sqrt(len(counts))
    assert abs(counts.mean() - 2.0) < 4.0 * se


def test_evaluate_window_and_errors(ensemble, mixed, grid8):
    """evaluate gives one pairing per path, each bit for bit the pairing of
    the path alone; it is additive in cells and time, linear in the
    direction, and refuses a reversed or off-grid window, a wrong
    direction and anything but a chunk."""
    path = ensemble
    h = [0.3, 1.1]
    pairing = evaluate(ensemble, 0.0, 0.5, [0, 2, 3], h)
    assert pairing.shape == (len(ensemble),)
    for p in (0, 1, 2, 3999):
        alone = evaluate(ensemble[p], 0.0, 0.5, [0, 2, 3], h)
        assert alone.shape == (1,) and alone.tobytes() == pairing[p : p + 1].tobytes()
    full = evaluate(path, 0.0, 1.0, range(4), h)
    parts = sum(evaluate(path, 0.0, 1.0, [j], h) for j in range(4))
    assert full == pytest.approx(parts, abs=1e-12)
    # additivity in time
    split = evaluate(path, 0.0, 0.5, range(4), h) + evaluate(path, 0.5, 1.0, range(4), h)
    assert full == pytest.approx(split, abs=1e-12)
    # linearity in the direction
    h2 = [-0.5, 0.2]
    lin = evaluate(path, 0.0, 1.0, range(4), np.add(h, h2))
    assert lin == pytest.approx(full + evaluate(path, 0.0, 1.0, range(4), h2), abs=1e-12)
    assert np.array_equal(evaluate(path, 0.25, 0.25, range(4), h), np.zeros(len(path)))
    with pytest.raises(ValueError, match="reversed"):
        evaluate(path, 0.5, 0.25, [0], h)
    with pytest.raises(ValueError, match="grid"):
        evaluate(path, 0.0, 0.3, [0], h)
    with pytest.raises(ValueError, match="dim"):
        evaluate(path, 0.0, 1.0, [0], [1.0, 2.0, 3.0])
    with pytest.raises(TypeError, match="expected a SampleChunk, got tuple"):
        evaluate((path[0],), 0.0, 1.0, [0], h)


def test_increments_are_mean_zero(ensemble):
    h = np.array([0.7, -0.4])
    for j in range(4):
        vals = evaluate(ensemble, 0.0, 1.0, [j], h)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean()) < 4.0 * se, f"cell {j} increments are biased"


def test_second_moment_matches_intensity(ensemble, mixed, grid8):
    """E <M((0, T], U), h>^2 equals the total directional intensity
    T * sum_j rate_j <Q_j h, h>."""
    h = np.array([0.7, -0.4])
    total = mixed.tables.flavor("total")
    target = grid8.horizon * sum(r * float(h @ q @ h) for r, q in zip(total.rate, total.field))
    sq = evaluate(ensemble, 0.0, 1.0, range(4), h) ** 2
    se = sq.std(ddof=1) / np.sqrt(len(sq))
    assert abs(sq.mean() - target) < 4.0 * se


def test_disjoint_cells_uncorrelated(ensemble):
    h = np.array([1.0, 0.5])
    a = evaluate(ensemble, 0.0, 1.0, [0], h)
    b = evaluate(ensemble, 0.0, 1.0, [3], h)
    prod = a * b
    se = prod.std(ddof=1) / np.sqrt(len(prod))
    assert abs(prod.mean()) < 4.0 * se


def test_gaussian_step_variance(ensemble, mixed, grid8):
    """Pooled per-step increments of the diffusion-only cell match dt * intensity * <Qh, h>."""
    h = np.array([0.2, 0.9])
    cont = mixed.tables.flavor("continuous")
    target = grid8.dt * cont.rate[2] * float(h @ cont.field[2] @ h)
    samples = ((ensemble.gauss[:, :, 2, :] @ h) ** 2).ravel()
    se = samples.std(ddof=1) / np.sqrt(len(samples))
    assert abs(samples.mean() - target) < 4.0 * se


def test_serialization_roundtrip(tmp_path, mixed):
    doc = spec_to_json(mixed)
    text = json.dumps(doc)
    back = spec_from_json(json.loads(text))
    assert spec_to_json(back) == doc
    f = tmp_path / "spec.json"
    f.write_text(text)
    loaded = load_noise_spec(str(f))
    assert spec_to_json(loaded) == doc
    assert loaded.dim == mixed.dim
    assert loaded.partition.breaks == mixed.partition.breaks


def test_docs_example_is_the_committed_model_file():
    """The example of docs/noise-spec.md is tests/models/noise-spec-example.json,
    which the output manifest runs; it loads and normalizes."""
    root = pathlib.Path(__file__).resolve().parent
    text = (root.parent / "docs" / "noise-spec.md").read_text()
    example = text.split("## Example", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    path = root / "models" / "noise-spec-example.json"
    assert json.loads(example) == json.loads(path.read_text())
    assert normalize_spec(load_noise_spec(str(path))).dim == 2


_FLOAT = st.floats(-2.0, 2.0)


_RATE = st.floats(5e-324, 5.0)


@st.composite
def _noise_models(draw):
    """A model as (dim, breaks, per-cell keyword arguments): 1-3 dims, 1-3
    cells on drawn breaks, each cell with an optional diffusion and an
    optional two-point or Gaussian jump part. Intensities and rates reach
    down to the smallest subnormal float."""
    dim = draw(st.integers(1, 3))
    inner = draw(st.lists(st.floats(0.01, 0.99), max_size=2, unique=True))
    breaks = [0.0, *sorted(inner), 1.0]
    assume(min(np.diff(breaks)) > 1e-3)

    def psd():
        a = np.array(draw(st.lists(_FLOAT, min_size=dim * dim, max_size=dim * dim)))
        m = a.reshape(dim, dim) @ a.reshape(dim, dim).T
        m = 0.5 * (m + m.T)
        assume(np.linalg.norm(m) > 1e-3)
        return m

    cells = []
    for _ in range(len(breaks) - 1):
        kwargs = {}
        if draw(st.booleans()):
            intensity = draw(st.one_of(st.just(0.0), _RATE))
            kwargs.update(diffusion_cov=psd(), diffusion_intensity=intensity)
        if draw(st.booleans()):
            if draw(st.booleans()):
                vec = draw(st.lists(_FLOAT, min_size=dim, max_size=dim))
                assume(np.linalg.norm(vec) > 1e-3)
                amplitude = TwoPointAmplitude(vec)
            else:
                amplitude = GaussianAmplitude(psd())
            kwargs.update(jump_rate=draw(_RATE), jump_amplitude=amplitude)
        cells.append(kwargs)
    return dim, breaks, cells


@settings(max_examples=60, deadline=None)
@given(_noise_models())
def test_json_round_trip_keeps_every_flavor_table(model):
    """Every model is rejected at construction, for a rate that underflows,
    or survives the JSON round trip with every flavor table intact."""
    dim, breaks, cell_kwargs = model
    try:
        cells = [CellNoise(**kwargs) for kwargs in cell_kwargs]
    except ValueError as exc:
        assert "underflows" in str(exc)
        return
    assume(any(c.has_diffusion or c.has_jumps for c in cells))
    spec = NoiseSpec(dim, SpatialPartition(breaks), cells)
    back = spec_from_json(json.loads(json.dumps(spec_to_json(spec))))
    assert back.partition == spec.partition
    want, got = normalize_spec(spec).tables, normalize_spec(back).tables
    np.testing.assert_allclose(got.jump_rate, want.jump_rate, rtol=1e-12)
    for flavor in ("total", "continuous", "discontinuous"):
        a, b = want.flavor(flavor), got.flavor(flavor)
        np.testing.assert_allclose(b.rate, a.rate, rtol=1e-12)
        # the square root of a rank-deficient field moves by about the square
        # root of the field's rounding, hence the looser root tolerance
        for ops_a, ops_b, atol in ((a.field, b.field, 1e-12), (a.root, b.root, 1e-7)):
            assert [q is None for q in ops_b] == [q is None for q in ops_a]
            for qa, qb in zip(ops_a, ops_b):
                if qa is not None:
                    np.testing.assert_allclose(qb, qa, rtol=1e-12, atol=atol)


def test_from_json_errors():
    with pytest.raises(ValueError, match="missing"):
        spec_from_json({"dim": 2})
    bad = {
        "dim": 2,
        "partition": [0.0, 1.0],
        "cells": [{"jump": {"rate": 1.0, "amplitude": {"kind": "levy"}}}],
    }
    with pytest.raises(ValueError, match="cell 0"):
        spec_from_json(bad)
    # a dim, rate, intensity or array entry of the wrong JSON type is not converted
    doc = spec_to_json(make_preset("mixed-default"))
    for spoil, message in (
        (lambda d: d.update(dim=2.7), "dim must be an integer, got 2.7"),
        (lambda d: d.update(dim=2.0), "dim must be an integer, got 2.0"),
        (lambda d: d.update(dim="2"), "dim must be an integer, got '2'"),
        (lambda d: d.update(dim=True), "dim must be an integer, got True"),
        (lambda d: d["cells"][1]["jump"].update(rate=True), "cell 1: jump rate must be a number, got True"),
        (lambda d: d["cells"][1]["jump"].update(rate="1.5"), "cell 1: jump rate must be a number, got '1.5'"),
        (lambda d: d["cells"][0]["diffusion"].update(intensity=True), "cell 0: diffusion intensity must be"),
        (lambda d: d["cells"][1]["diffusion"].update(cov=[[0.4, 0], [0, True]]),
         "cell 1: diffusion cov entry must be a number, got True"),
        (lambda d: d["cells"][1]["jump"]["amplitude"].update(cov=[[0.4, 0.1], [0.1, "0.3"]]),
         "cell 1: amplitude cov entry must be a number, got '0.3'"),
        (lambda d: d["cells"][0]["jump"]["amplitude"].update(vector=[0.6, False]),
         "cell 0: amplitude vector entry must be a number, got False"),
        (lambda d: d.update(partition=["0", 0.25, 0.5, 0.75, 1.0]), "partition entry must be a number, got '0'"),
        (lambda d: d.update(partition=[0.0, 0.5, 10**400]), "noise spec field 'partition': int too large"),
    ):
        spoiled = json.loads(json.dumps(doc))
        spoil(spoiled)
        with pytest.raises(ValueError, match=re.escape(message)):
            spec_from_json(spoiled)


@pytest.fixture(scope="module")
def fine_chunk(mixed):
    """Six paths on a 64-step grid whose step is not a power of two."""
    return sample_path(mixed, TimeGrid(0.7, 64), 7, range(6))


@pytest.mark.parametrize("indices", [range(5), (3, 0, 4, 1, 2), (6,)])
def test_chunk_path_is_the_path_drawn_alone(mixed, indices):
    """Path p of a drawn chunk, chunk[p], is a chunk of one of read-only
    views and, bit for bit, the chunk of one its index draws alone, in any
    index order; the chunk's jump_sums row p is that path's jump_sums."""
    grid = TimeGrid(0.7, 64)
    chunk = sample_path(mixed, grid, 7, indices)
    assert len(chunk) == len(indices) and chunk.path_index == tuple(indices)
    assert 0 < len(chunk.jumps) == sum(len(path.jumps) for path in chunk)
    for p, i in enumerate(indices):
        alone = sample_path(mixed, grid, 7, i)
        for path in (chunk[p], chunk[p - len(chunk)]):
            assert len(path) == len(alone) == 1
            assert (path.seed, path.path_index, path.grid) == (7, (i,), grid)
            for name in ("gauss", "jumps", "pid", "jump_sums"):
                got, want = getattr(path, name), getattr(alone, name)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
                assert not got.flags.writeable, name
            assert np.shares_memory(path.gauss, chunk.gauss)
        assert chunk.jump_sums[p].tobytes() == alone.jump_sums[0].tobytes()
    arrays = (chunk.gauss, chunk.jumps, chunk.pid, chunk.jump_sums)
    assert not any(a.flags.writeable for a in arrays)
    for past_end in (len(chunk), -len(chunk) - 1):
        with pytest.raises(IndexError):
            chunk[past_end]


def test_coarsen_sums_gaussian_pairs_exactly(fine_chunk):
    for fine, half in zip(fine_chunk, coarsen(fine_chunk)):
        assert half.grid == TimeGrid(0.7, 32)
        assert (half.spec, half.seed, half.path_index) == (fine.spec, fine.seed, fine.path_index)
        assert half.gauss.tobytes() == (fine.gauss[:, 0::2] + fine.gauss[:, 1::2]).tobytes()
        assert not any(a.flags.writeable for a in (half.gauss, half.jumps, half.jump_sums))


def test_coarsen_keeps_every_jump_row(fine_chunk):
    """Cell, time and amplitude are bitwise unchanged, the step halves, and
    each time lies in its coarse step (t_k, t_{k+1}]."""
    assert sum(len(s.jumps) for s in fine_chunk) > 10  # not vacuous
    for fine, half in zip(fine_chunk, coarsen(fine_chunk)):
        for name in ("cell", "time", "amp"):
            assert half.jumps[name].tobytes() == fine.jumps[name].tobytes()
        assert np.array_equal(half.jumps["step"], fine.jumps["step"] // 2)
        k, times = half.jumps["step"], half.grid.times
        assert np.all(times[k] < half.jumps["time"]) and np.all(half.jumps["time"] <= times[k + 1])


def test_jump_sums_add_the_rows_in_row_order(fine_chunk):
    """Drawn and coarsened chunks, and a path of one, alike build jump_sums
    from their rows."""
    for chunk in (fine_chunk, coarsen(fine_chunk), fine_chunk[2]):
        want = np.zeros_like(chunk.gauss)
        for p, row in zip(chunk.pid, chunk.jumps):
            want[p, row["step"], row["cell"]] += row["amp"]
        assert chunk.jump_sums.tobytes() == want.tobytes()


def test_coarsen_does_not_depend_on_the_chunk(mixed, fine_chunk):
    """Halving a chunk gives each path bitwise what halving it alone gives,
    at every level down to one step."""
    chunk = fine_chunk
    alone = [sample_path(mixed, chunk.grid, 7, [i]) for i in chunk.path_index]
    while chunk.grid.n_steps > 1:
        chunk, alone = coarsen(chunk), [coarsen(one) for one in alone]
        assert chunk.pid is fine_chunk.pid
        for half, one in zip(chunk, alone):
            for name in ("gauss", "jumps", "jump_sums"):
                assert getattr(one, name).tobytes() == getattr(half, name).tobytes()


def test_coarsen_refuses_odd_grids_and_mixed_chunks(mixed, grid8):
    """An odd grid cannot be halved, and a tuple of paths, of one model and
    grid or mixed, is not a chunk."""
    with pytest.raises(ValueError, match="cannot halve a grid of 5 steps"):
        coarsen(sample_path(mixed, TimeGrid(1.0, 5), 0, [0]))
    gauss = make_preset("gauss-default")
    for paths in (
        (sample_path(mixed, grid8, 0, 0), sample_path(mixed, grid8, 0, 1)),
        (sample_path(mixed, grid8, 0, 0), sample_path(gauss, grid8, 0, 1)),
    ):
        with pytest.raises(TypeError, match="expected a SampleChunk, got tuple"):
            coarsen(paths)


def _three_dim_spec():
    """d = 3: a diffusing cell whose jump amplitude is Gaussian with
    off-diagonal covariance, next to a two-point cell and a diffusion-only
    cell."""
    cells = [
        CellNoise(
            diffusion_cov=np.array([[1.0, 0.2, 0.1], [0.2, 0.7, -0.3], [0.1, -0.3, 0.9]]),
            diffusion_intensity=0.9,
            jump_rate=2.5,
            jump_amplitude=GaussianAmplitude([[0.5, 0.2, -0.1], [0.2, 0.4, 0.15], [-0.1, 0.15, 0.3]]),
        ),
        CellNoise(jump_rate=3.0, jump_amplitude=TwoPointAmplitude([0.3, -0.4, 0.2])),
        CellNoise(diffusion_cov=2.0 * np.eye(3), diffusion_intensity=0.4),
    ]
    return normalize_spec(NoiseSpec(3, SpatialPartition.uniform(3), cells))


@pytest.mark.parametrize(
    "preset, n_steps, indices",
    [
        ("three-dim", 9, (4, 1, 4, 0, 7, 30)),
        ("mixed-default", 7, (5, 0, 5, 2)),
        ("three-dim", 1, range(3)),
    ],
)
def test_chunk_path_is_the_path_drawn_alone_beyond_the_presets(preset, n_steps, indices):
    """A chunk's path p is, bit for bit, the path its index draws alone at a
    noise dimension other than 2, next to Gaussian amplitudes with
    off-diagonal covariance, on odd step counts and for unordered and
    repeated indices; each Gaussian increment is its own stream's (n, d)
    block times the cell's factor, as a 2-D product."""
    spec = _three_dim_spec() if preset == "three-dim" else make_preset(preset)
    grid = TimeGrid(0.9, n_steps)
    chunk = sample_path(spec, grid, 17, indices)
    assert chunk.path_index == tuple(indices)
    assert set(chunk.jumps["cell"].tolist()) >= {0, 1}
    for p, i in enumerate(indices):
        alone = sample_path(spec, grid, 17, i)
        for name in ("gauss", "jumps", "pid", "jump_sums"):
            assert getattr(chunk[p], name).tobytes() == getattr(alone, name).tobytes(), name
        for j, factor in enumerate(spec.tables.gauss_factor):
            if factor is not None:
                z = substream(17, i, 4 * j).standard_normal((n_steps, spec.dim))
                assert chunk.gauss[p, :, j].tobytes() == (np.sqrt(grid.dt) * (z @ factor.T)).tobytes()


def test_one_sampler_draws_paths_and_chunks_and_refuses_no_path(mixed, grid8):
    """sample_path is the one sampler, under one name: an int draws a chunk
    of one, a sequence a chunk, and an empty sequence is refused."""
    assert "sample_chunk" not in vars(cmvm.noise)
    assert sample_path(mixed, grid8, 3, 2).path_index == (2,)
    one, listed = sample_path(mixed, grid8, 3, np.int64(2)), sample_path(mixed, grid8, 3, [2])
    assert one.gauss.tobytes() == listed.gauss.tobytes()
    for empty in ([], (), range(0)):
        with pytest.raises(ValueError, match="no path"):
            sample_path(mixed, grid8, 3, empty)
