"""Gate power: each named gate passes on the code as it is and fails once a
planted defect (a mutant) replaces one function of the package."""

import dataclasses
import functools

import numpy as np
import pytest

import cmvm.harness
import cmvm.ito
import cmvm.noise
import cmvm.presets
import cmvm.quadvar
from cmvm.harness import apply_overrides, load_config, run
from cmvm.integrate import Integrand
from cmvm.noise import GaussianAmplitude, TwoPointAmplitude


def _amplitudes(monkeypatch, change):
    """Pass every sampled jump amplitude, of both families, through change."""
    for cls in (TwoPointAmplitude, GaussianAmplitude):
        original = cls.sample
        monkeypatch.setattr(cls, "sample", lambda self, rng, n, _f=original: change(_f(self, rng, n)))


def _hessian_off_by_one_percent(monkeypatch):
    original = cmvm.ito._gauss_cos

    def mutant():
        f = original()
        return dataclasses.replace(f, d_xx=lambda t, x: 1.01 * f.d_xx(t, x))

    monkeypatch.setattr(cmvm.ito, "_gauss_cos", mutant)


def _realized_trace_doubled(monkeypatch):
    """ito_terms with 1.0 in place of the 0.5 of the realized trace term."""
    original = cmvm.ito.ito_terms

    def mutant(path, f, trace_variant="compensator"):
        terms = original(path, f, trace_variant)
        if trace_variant != "realized":
            return terms
        return dataclasses.replace(terms, trace=2.0 * terms.trace)

    monkeypatch.setattr(cmvm.ito, "ito_terms", mutant)


def _compose_with_outer_value(monkeypatch):
    """compose_integrands as it was when the inner integrand was handed the
    composed integral's running value in place of its own."""

    def mutant(outer, inner, dim_out):
        def _eval(state, cells):
            mat = np.asarray(outer(state.step, state.time, state.value))
            return mat @ inner.evaluator(state, cells)

        return Integrand(_eval, dim_out, inner.dim_in, name="composed")

    monkeypatch.setattr(cmvm.harness, "compose_integrands", mutant)


def _jumps_left_out_of_brackets(monkeypatch):
    """_add_jumps as a no-op: the optional bracket loses its jump part."""
    monkeypatch.setattr(cmvm.quadvar, "_add_jumps", lambda steps, path, other: steps)


def _rate_shifted_to_jumps(monkeypatch):
    """Flavor tables that move 20% of each mixed cell's continuous rate into
    its discontinuous rate. The sampler reads the Gaussian factors and the
    jump rates, which stay as they were. Specs cache their tables and the
    presets are built once per process, so the presets are rebuilt after
    the mutant is in place."""
    tables = cmvm.noise._NoiseTables
    original, table = tables.__init__, cmvm.noise._FlavorTable

    def mutant(self, spec):
        original(self, spec)
        cont, disc = self.flavors["continuous"], self.flavors["discontinuous"]
        moved = np.where((cont.rate > 0.0) & (disc.rate > 0.0), 0.2 * cont.rate, 0.0)
        self.flavors = dict(
            self.flavors,
            continuous=table(cont.rate - moved, cont.field),
            discontinuous=table(disc.rate + moved, disc.field),
        )

    monkeypatch.setattr(tables, "__init__", mutant)
    rebuilt = functools.lru_cache(maxsize=None)(cmvm.presets._built.__wrapped__)
    monkeypatch.setattr(cmvm.presets, "_built", rebuilt)


# mutant -> (planting function, scenario, overrides, the gate that must fail)
MUTANTS = {
    "jump-amplitudes-x3": (
        lambda mp: _amplitudes(mp, lambda amp: 3.0 * amp),
        "burkholder",
        ["n_paths=400"],
        "jump-terminal-equality-p2-z",
    ),
    "jump-amplitudes-shifted": (
        lambda mp: _amplitudes(mp, lambda amp: amp + 0.3),
        "burkholder",
        ["n_paths=400"],
        "jump-terminal-equality-p2-z",
    ),
    "isometry-jump-amplitudes-x3": (
        lambda mp: _amplitudes(mp, lambda amp: 3.0 * amp),
        "verify-isometry",
        ["n_paths=200"],
        "second-moment-z",
    ),
    "isometry-jump-amplitudes-shifted": (
        lambda mp: _amplitudes(mp, lambda amp: amp + 0.3),
        "verify-isometry",
        ["n_paths=400"],
        "second-moment-z",
    ),
    "add-jumps-noop": (
        _jumps_left_out_of_brackets,
        "verify-qv",
        ["n_paths=5"],
        "optional-additivity",
    ),
    "gauss-cos-hessian-x1.01": (
        _hessian_off_by_one_percent,
        "verify-taylor",
        [],
        "derivatives-gauss_cos",
    ),
    "ito-realized-trace-x2": (
        _realized_trace_doubled,
        "verify-ito",
        ["n_paths=20"],
        "realized-residual-max-rel",
    ),
    "ito-converge-realized-trace-x2": (
        _realized_trace_doubled,
        "ito-converge",
        ["n_paths=40"],
        "median-abs-residual-finest",
    ),
    "rate-shift-to-jumps": (
        _rate_shifted_to_jumps,
        "verify-decomposition",
        ["n_paths=5"],
        "flavor-mass-additivity",
    ),
    "compose-with-outer-value": (
        _compose_with_outer_value,
        "verify-associativity",
        ["n_paths=20"],
        "iterated-vs-fused-max-rel",
    ),
}


def _gate(scenario, overrides, gate, out_dir):
    cfg = apply_overrides(load_config(scenario), overrides)
    return next(c for c in run(cfg, str(out_dir)).checks if c["name"] == gate)


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_gate_fails_on_planted_defect(mutant, monkeypatch, tmp_path):
    plant, scenario, overrides, gate = MUTANTS[mutant]
    clean = _gate(scenario, overrides, gate, tmp_path / "clean")
    assert clean["passed"], clean
    plant(monkeypatch)
    planted = _gate(scenario, overrides, gate, tmp_path / "mutant")
    assert not planted["passed"], planted
