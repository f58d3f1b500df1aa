"""End-to-end acceptance gates.

One test per criterion, run at the stated ensemble sizes and tolerances.
Statistical gates use four-standard-error bands (or the scenario's 3-sigma
rule); structural identities are held to fixed absolute tolerances. Each
test finishes by printing a single verdict line, so a verbose run reads as
a ten-line scorecard.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from cmvm.burkholder import check as burkholder_check, walk_ensemble
from cmvm.harness import apply_overrides, load_config, run
from cmvm.integrate import (
    ItoProcessSpec,
    constant_integrand,
    deterministic_integrand,
    integrate,
    realized_lambda2_mass,
)
from cmvm.noise import TimeGrid, sample_path
from cmvm.presets import make_preset
from cmvm.quadvar import (
    make_dyadic_partition,
    riemann_weighted_bilinear,
    weighted_qv_target,
)

PHI = np.array([[0.9, 0.2], [-0.3, 1.1]])


def _verdict(num: int, title: str, detail: str) -> None:
    print(f"criterion {num:02d} [{title}]: PASS ({detail})")


def _run_scenario(name: str, out_dir, *overrides: str):
    cfg = load_config(name)
    if overrides:
        cfg = apply_overrides(cfg, list(overrides))
    return run(cfg, str(out_dir))


def test_criterion_01_isometry(tmp_path):
    started = time.monotonic()
    res = _run_scenario("verify-isometry", tmp_path, "n_paths=20000")
    elapsed = time.monotonic() - started
    assert res.passed, res.checks
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    m = res.metrics
    assert abs(m["z"]) < 4.0
    assert m["rel_err"] < 0.05
    _verdict(1, "isometry", f"z={m['z']:+.2f} rel={m['rel_err']:.4f} {elapsed:.1f}s")


def test_criterion_02_conditional_isometry(tmp_path):
    res = _run_scenario("verify-conditional-isometry", tmp_path, "n_paths=50000")
    assert res.passed, res.checks
    zs = {name: res.metrics[name]["z"] for name in ("always", "first-up", "first-down")}
    assert all(abs(z) < 4.0 for z in zs.values()), zs
    rates = [res.metrics[name]["event_rate"] for name in ("first-up", "first-down")]
    assert abs(sum(rates) - 1.0) < 1e-12
    _verdict(2, "conditional isometry", " ".join(f"{k}:z={v:+.2f}" for k, v in zs.items()))


@pytest.mark.parametrize("preset", ["gauss-default", "jump-default", "mixed-default"])
def test_criterion_03_quadratic_exactness(tmp_path, preset):
    res = _run_scenario("verify-ito", tmp_path / preset, "n_paths=1000", f"preset={preset}")
    assert res.passed, res.checks
    m = res.metrics
    assert m["realized_max_rel_residual"] < 1e-10
    assert abs(m["compensator_z"]) < 4.0
    _verdict(
        3,
        f"quadratic exactness ({preset})",
        f"max_rel={m['realized_max_rel_residual']:.2e} comp_z={m['compensator_z']:+.2f}",
    )


def test_criterion_04_ito_mesh_convergence(tmp_path):
    res = _run_scenario("ito-converge", tmp_path)  # levels 4..8, 200 paths, each drawn once
    assert res.passed, res.checks
    med = res.metrics["medians"]
    assert all(a > b for a, b in zip(med, med[1:]))
    assert med[-1] <= 0.25 * med[0]
    _verdict(4, "chain-rule mesh convergence", f"medians {med[0]:.2e} -> {med[-1]:.2e}")


def test_criterion_05_riemann_qv_convergence(tmp_path):
    res = _run_scenario("qv-converge", tmp_path)  # defaults: 256-step grid, levels 3..7
    assert res.passed, res.checks
    med = res.metrics["medians"]
    assert all(a > b for a, b in zip(med, med[1:]))
    assert med[-1] < 0.10

    # weighted variant against its own closed-form target
    spec = make_preset("mixed-default")
    grid = TimeGrid(1.0, 256)
    integrand = constant_integrand(PHI)

    def form(t, x):  # broadcasts: t (...) and x (..., 2) give (..., 2, 2)
        out = np.empty(np.shape(t) + (2, 2))
        out[..., 0, 0] = 1.0 + 0.5 * t
        out[..., 0, 1] = out[..., 1, 0] = 0.2
        out[..., 1, 1] = 2.0 + np.tanh(x[..., 1])
        return out

    levels = (3, 4, 5, 6, 7)
    paths = integrate(integrand, sample_path(spec, grid, 515_05, range(200)))
    target = weighted_qv_target(paths, form)
    wmed = []
    for lv in levels:
        part = make_dyadic_partition(grid.n_steps, lv)
        approx = riemann_weighted_bilinear(paths, part, form)
        wmed.append(float(np.median(np.abs(approx - target) / np.abs(target))))
    assert all(a > b for a, b in zip(wmed, wmed[1:]))
    assert wmed[-1] < 0.10
    _verdict(
        5,
        "Riemann bracket convergence",
        f"plain {med[0]:.3f} -> {med[-1]:.3f}, weighted {wmed[0]:.3f} -> {wmed[-1]:.3f}",
    )


def test_criterion_06_decomposition_and_additivity(tmp_path):
    res = _run_scenario("verify-decomposition", tmp_path, "n_paths=1000")
    assert res.passed, res.checks
    m = res.metrics
    assert m["parts_sum_max_rel"] <= 1e-12
    assert m["covariance_mixture_max_frob"] < 1e-12

    # mass additivity for deterministic integrands, both constant and
    # time-varying, checked directly on top of the scenario's adapted one
    spec = make_preset("mixed-default")
    grid = TimeGrid(1.0, 16)
    det_models = [
        constant_integrand(PHI),
        deterministic_integrand(lambda k, t, j: PHI * (1.0 + 0.3 * t + 0.1 * j), 2, 2),
    ]
    worst = 0.0
    samples = sample_path(spec, grid, 606, range(50))
    for integrand in det_models:
        paths = integrate(integrand, samples)
        total = realized_lambda2_mass(paths, "total")
        split = realized_lambda2_mass(paths, "continuous") + realized_lambda2_mass(
            paths, "discontinuous"
        )
        worst = max(worst, float(np.max(np.abs(total - split) / np.maximum(1.0, total))))
    assert worst <= 1e-12
    _verdict(
        6,
        "decomposition and additivity",
        f"parts={m['parts_sum_max_rel']:.1e} mix={m['covariance_mixture_max_frob']:.1e} add={worst:.1e}",
    )


def test_criterion_07_burkholder_continuous(tmp_path):
    res = _run_scenario("burkholder", tmp_path, "n_paths=20000")
    assert res.passed, res.checks
    reports = res.metrics["reports"]
    closed = {r["p"]: r for r in reports if r["constant_source"] == "closed-form" and r["moment"] == "sup"}
    assert set(closed) == {1.0, 3.0, 4.0}
    assert all(r["satisfied"] for r in closed.values()), closed
    term = next(r for r in reports if r["moment"] == "terminal")
    assert term["p"] == 2.0 and term["constant"] == 1.0 and term["satisfied"]
    assert abs(res.metrics["terminal_gap_z"]) < 4.0
    ratios = {p: r["ratio"] / r["constant"] for p, r in closed.items()}
    _verdict(
        7,
        "moment bounds, continuous",
        "ratio/constant " + " ".join(f"p{p:g}:{v:.2f}" for p, v in sorted(ratios.items())),
    )


def test_criterion_08_burkholder_jump_ratios():
    spec = make_preset("jump-default")
    proc = ItoProcessSpec(constant_integrand(PHI))
    ratios = {3.0: [], 4.0: []}
    for n_steps in (8, 32):
        grid = TimeGrid(1.0, n_steps)
        big = walk_ensemble(proc, spec, grid, n_paths=20000, seed=8800)
        for paths in (replace(big, stats=big.stats[:5000]), big):
            for p in (3.0, 4.0):
                rep = burkholder_check(paths, p, flavor="optional")
                assert rep.constant_source == "empirical"
                assert rep.satisfied and np.isfinite(rep.ratio) and rep.ratio > 0.0
                ratios[p].append(rep.ratio)
    spreads = {}
    for p, vals in ratios.items():
        spreads[p] = max(vals) / min(vals)
        assert spreads[p] < 2.0, (p, vals)

    # source flags stay correct across model classes
    gauss_paths = walk_ensemble(proc, make_preset("gauss-default"), TimeGrid(1.0, 8), 500, 8801)
    assert burkholder_check(gauss_paths, 3.0).constant_source == "closed-form"
    jump_small = walk_ensemble(proc, spec, TimeGrid(1.0, 8), 500, 8802)
    assert burkholder_check(jump_small, 1.0, flavor="predictable").constant_source == "heuristic"
    _verdict(
        8,
        "moment ratios, pure-jump",
        " ".join(f"p{p:g}:spread={s:.2f}" for p, s in sorted(spreads.items())),
    )


def test_criterion_09_associativity(tmp_path):
    res = _run_scenario("verify-associativity", tmp_path, "n_paths=1000")
    assert res.passed, res.checks
    assert res.metrics["max_rel_diff"] <= 1e-12
    assert res.metrics["n_pairs"] == 1000
    _verdict(9, "associativity", f"1000 pairs max_rel={res.metrics['max_rel_diff']:.2e}")


def test_criterion_10_taylor_remainder(tmp_path):
    res = _run_scenario("verify-taylor", tmp_path)
    assert res.passed, res.checks
    gaps = res.metrics["route_gaps"]
    assert set(gaps) == {"quadratic", "linear:1.5", "norm_p:4", "gauss_cos"}
    assert all(v <= 1e-8 for v in gaps.values())
    sups = res.metrics["modulus"]
    assert res.metrics["deltas"] == [1.0, 0.5, 0.25, 0.125]
    assert all(a > b for a, b in zip(sups, sups[1:]))
    _verdict(
        10,
        "Taylor remainder",
        f"max route gap {max(gaps.values()):.1e}, modulus {sups[0]:.2f} -> {sups[-1]:.2f}",
    )
