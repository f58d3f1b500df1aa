"""The public surface: every exported name resolves, and every exported
function is reached by a scenario run or is a named test reference."""

import importlib
import inspect
import json
import pkgutil
import sys

import pytest

import cmvm
from cmvm.cli import main
from cmvm.harness import scenario_names
from cmvm.noise import spec_to_json
from cmvm.presets import make_preset

MODULES = sorted(info.name for info in pkgutil.iter_modules(cmvm.__path__))

# Exported functions that no scenario calls, each kept for a named reason.
ALLOWED_UNREACHED = {
    # the block-sum route test_simple_integrand_two_routes compares the walk against
    ("integrate", "integrate_simple"),
    # the field pairing: PathHistory.noise_pairing serves it, and the noise
    # tests use it as their oracle
    ("noise", "evaluate"),
    # the writer of the docs/noise-spec.md format that load_noise_spec reads
    ("noise", "spec_to_json"),
    # criterion 05, the Riemann representation of the abstract; as a scenario
    # gate they would add per-step Python form calls to qv-converge
    ("quadvar", "riemann_weighted_bilinear"),
    ("quadvar", "weighted_qv_target"),
}


@pytest.mark.parametrize("module", MODULES)
def test_all_exports_resolve(module):
    mod = importlib.import_module(f"cmvm.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def _exported_functions():
    for module in MODULES:
        mod = importlib.import_module(f"cmvm.{module}")
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if inspect.isfunction(obj):
                yield module, name, obj


def test_every_exported_function_backs_a_scenario_or_is_allowed(tmp_path, capsys):
    """Run every scenario at a tiny size, the two non-default convergence
    variants, a noise-model file preset and list-scenarios under a call
    recorder; each exported function must have been called or be on the
    commented allow-list."""
    model = tmp_path / "model.json"
    model.write_text(json.dumps(spec_to_json(make_preset("jump-default"))))
    runs = [[name, "--set", "n_paths=2"] for name in scenario_names()]
    runs += [
        ["qv-converge", "--set", "n_paths=2", "--set", "params.kind=adaptive"],
        ["ito-converge", "--set", "n_paths=2", "--set", "params.variant=compensator"],
        ["verify-qv", "--set", "n_paths=2", "--set", f"preset={model}"],
    ]
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(record)
    try:
        for i, argv in enumerate(runs):
            main(["run", *argv, "--out", str(tmp_path / f"run{i}")])
        assert main(["list-scenarios"]) == 0
    finally:
        sys.setprofile(None)
    capsys.readouterr()

    exported = {(module, name): fn for module, name, fn in _exported_functions()}
    unreached = {key for key, fn in exported.items() if fn.__code__ not in called}
    assert sorted(unreached - ALLOWED_UNREACHED) == [], "exported but never called"
    assert sorted(ALLOWED_UNREACHED - set(exported)) == [], "allow-listed but no longer exported"
