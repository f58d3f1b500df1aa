"""Moment-bound constants, ensemble statistics and report policy."""

import dataclasses
import json
import math

import numpy as np
import pytest

from cmvm.burkholder import (
    BRACKET_FLAVORS,
    Ensemble,
    bracket_power_constant,
    bracket_terminal,
    check,
    continuous_constant,
    path_running_sup,
    terminal_isometry_gap,
    walk_ensemble,
)
from cmvm.integrate import ItoProcessSpec, constant_integrand, simulate_ito_process
from cmvm.noise import TimeGrid, sample_path
from cmvm.presets import make_preset

PHI = np.array([[0.9, 0.2], [-0.3, 1.1]])


@pytest.fixture(scope="module")
def grid8():
    return TimeGrid(1.0, 8)


@pytest.fixture(scope="module")
def gauss_paths(grid8):
    spec = make_preset("gauss-default")
    proc = ItoProcessSpec(constant_integrand(PHI))
    return walk_ensemble(proc, spec, grid8, n_paths=3000, seed=4501)


@pytest.fixture(scope="module")
def mixed_paths(grid8):
    spec = make_preset("mixed-default")
    proc = ItoProcessSpec(constant_integrand(PHI))
    return walk_ensemble(proc, spec, grid8, n_paths=2000, seed=4502)


def test_constants_frozen_values():
    assert continuous_constant(1.0) == 3.0
    assert continuous_constant(1.5) == 5.0
    assert continuous_constant(2.0) == 1.0
    # independent log-space route for the p = 3 constant
    oracle3 = math.exp(1.5 * (math.log(3.0) + math.log(1.5) / 3.0))
    assert abs(continuous_constant(3.0) - oracle3) < 1e-12
    assert abs(continuous_constant(3.0) - 6.3639610306789285) < 1e-12
    assert abs(continuous_constant(4.0) - 48.0) < 1e-10
    assert abs(bracket_power_constant(4.0) - math.sqrt(48.0)) < 1e-10


def test_constants_reject_bad_orders():
    with pytest.raises(ValueError, match="positive"):
        continuous_constant(0.0)
    with pytest.raises(ValueError, match="positive"):
        continuous_constant(-1.0)
    with pytest.raises(ValueError, match="p > 2"):
        bracket_power_constant(2.0)


@pytest.mark.parametrize("p", [1.0, 3.0, 4.0])
def test_continuous_sup_bounds_hold(gauss_paths, p):
    report = check(gauss_paths, p, flavor="optional")
    assert report.constant_source == "closed-form"
    assert report.constant == continuous_constant(p)
    assert report.lhs > 0.0 and report.rhs_core > 0.0
    assert report.satisfied


def test_terminal_second_moment_is_an_identity(gauss_paths, mixed_paths):
    for paths in (gauss_paths, mixed_paths):
        gap, se = terminal_isometry_gap(paths)
        assert abs(gap) < 4.0 * se
        report = check(paths, 2.0, flavor="predictable", moment="terminal")
        assert report.constant == 1.0
        assert report.constant_source == "closed-form"
        assert report.satisfied


def test_doob_band_diagnostic(gauss_paths):
    report = check(gauss_paths, 2.0, flavor="predictable", moment="sup")
    # Doob's L^2 band: constant 4, with the slack of three standard errors that check allows
    rel = report.lhs_stderr / report.lhs + report.rhs_stderr / report.rhs_core
    assert report.lhs <= 4.0 * report.rhs_core * (1.0 + 3.0 * rel)
    sup_m = report.lhs
    term_m = check(gauss_paths, 2.0, flavor="predictable", moment="terminal").lhs
    assert sup_m >= term_m


def test_jump_model_gets_empirical_constant(grid8, mixed_paths):
    report = check(mixed_paths, 3.0, flavor="optional")
    assert report.constant_source == "empirical"
    assert report.constant == report.ratio
    assert report.satisfied

    spec = make_preset("mixed-default")
    proc = ItoProcessSpec(constant_integrand(PHI))
    other = check(walk_ensemble(proc, spec, grid8, n_paths=1000, seed=9100), 3.0, flavor="optional")
    assert max(report.ratio, other.ratio) < 2.0 * min(report.ratio, other.ratio)


def test_jump_model_below_square_is_flagged_heuristic(mixed_paths):
    report = check(mixed_paths, 1.0, flavor="predictable")
    assert report.constant_source == "heuristic"
    assert report.constant == 3.0
    assert report.satisfied


def test_bracket_flavors_add_up(mixed_paths):
    saw_jump = False
    for row in mixed_paths.stats[:200]:
        cont = row["continuous"]
        jumps = row["jumps"]
        opt = row["optional"]
        assert abs(opt - (cont + jumps)) < 1e-12 * max(1.0, opt)
        assert row["predictable"] >= cont
        saw_jump = saw_jump or jumps > 0.0
    assert saw_jump


def test_unknown_bracket_flavor(grid8, mixed_paths):
    proc = ItoProcessSpec(constant_integrand(PHI))
    path = simulate_ito_process(proc, sample_path(make_preset("mixed-default"), grid8, seed=4502))
    with pytest.raises(ValueError, match="predictable.*optional"):
        bracket_terminal(path, "realised")
    with pytest.raises(ValueError, match="unknown bracket flavor.*predictable.*optional"):
        check(mixed_paths, 2.0, flavor="realised")


def test_ensemble_rows_match_paths_walked_alone(grid8):
    """Each row holds the statistics of the same (seed, index) path walked on
    its own, as a chunk of one; the rows are read-only and no path object
    is kept."""
    spec = make_preset("mixed-default")
    proc = ItoProcessSpec(constant_integrand(PHI))
    ens = walk_ensemble(proc, spec, grid8, n_paths=6, seed=4503)
    assert isinstance(ens, Ensemble) and len(ens.stats) == 6 and ens.has_jumps
    assert ens.stats.dtype.names == ("sup", "terminal", "terminal_sq") + BRACKET_FLAVORS
    for i, row in enumerate(ens.stats):
        path = simulate_ito_process(proc, sample_path(spec, grid8, seed=4503, path_index=i))
        end = path.values[0, -1]
        assert [row["sup"]] == path_running_sup(path).tolist()
        assert row["terminal"] == float(np.linalg.norm(end))
        assert row["terminal_sq"] == float(end @ end)
        for flavor in BRACKET_FLAVORS:
            assert [row[flavor]] == bracket_terminal(path, flavor).tolist()
    assert not ens.stats.flags.writeable
    with pytest.raises(ValueError):
        ens.stats["sup"][0] = 0.0


def test_jump_model_flag_survives_an_ensemble_without_jumps(grid8):
    """has_jumps comes from the noise model, not from the draws: a one-path
    jump ensemble that realized no jump still gets the jump-model policy."""
    spec = make_preset("jump-default")
    proc = ItoProcessSpec(constant_integrand(PHI))
    seed = next(s for s in range(4504, 5004) if not len(sample_path(spec, grid8, seed=s).jumps))
    one = walk_ensemble(proc, spec, grid8, n_paths=1, seed=seed)
    assert one.stats["jumps"][0] == 0.0
    assert one.has_jumps
    assert check(one, 1.0, flavor="predictable").constant_source == "heuristic"


def test_report_round_trips_through_json(gauss_paths):
    report = check(gauss_paths, 1.0)
    blob = json.loads(json.dumps(report.to_dict()))
    assert blob["p"] == 1.0
    assert blob["constant_source"] == "closed-form"
    assert isinstance(blob["satisfied"], bool)
    assert set(blob) == set(report.to_dict())
    # the shallow copy is the dataclass record, field for field and in order
    assert list(report.to_dict().items()) == list(dataclasses.asdict(report).items())


def test_check_rejects_bad_arguments(grid8, gauss_paths):
    with pytest.raises(ValueError, match="sup.*terminal"):
        check(gauss_paths, 2.0, moment="running")
    with pytest.raises(ValueError, match="positive"):
        check(gauss_paths, 0.0)
    proc = ItoProcessSpec(constant_integrand(PHI))
    empty = walk_ensemble(proc, make_preset("gauss-default"), grid8, n_paths=0, seed=1)
    with pytest.raises(ValueError, match="non-empty ensemble"):
        check(empty, 2.0)


def test_sup_includes_refined_jump_positions(grid8):
    """A path whose largest excursion happens inside a step (at a jump) must
    report that excursion, not just the grid values."""
    spec = make_preset("jump-default")
    proc = ItoProcessSpec(constant_integrand(PHI))
    paths = simulate_ito_process(proc, sample_path(spec, grid8, 6800, range(200)))
    grid_sup = np.linalg.norm(paths.values, axis=2).max(axis=1)
    sup = path_running_sup(paths)
    assert np.all(sup >= grid_sup)
    assert np.any(sup > grid_sup + 1e-12)
