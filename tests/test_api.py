"""The public surface: every exported name resolves, and every exported
function and class is reached by a scenario run or is a named test
reference."""

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

# Exported classes none of whose own functions a scenario calls, each kept
# for a named reason.
ALLOWED_UNREACHED_CLASSES = {
    # an exception with no code of its own; test_lookahead_guard_raises
    # checks that the walk's guarded history raises it
    ("integrate", "LookAheadError"),
}


@pytest.mark.parametrize("module", MODULES)
def test_all_exports_resolve(module):
    mod = importlib.import_module(f"cmvm.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def _exports() -> dict:
    """(module, name) -> object, for every name in a module's __all__."""
    out = {}
    for module in MODULES:
        mod = importlib.import_module(f"cmvm.{module}")
        for name in getattr(mod, "__all__", ()):
            out[module, name] = getattr(mod, name)
    return out


def _own_code(cls) -> set:
    """Code objects of the Python functions a class defines itself: methods,
    static and class methods, property and cached-property accessors, and
    the methods a dataclass decorator generates. A decorator's wrapper is
    unwrapped, since one wrapper's code can serve many classes (dataclass
    reprs share one)."""
    codes = set()
    for attr in vars(cls).values():
        wrapped = (getattr(attr, key, None) for key in ("__func__", "fget", "func"))
        for fn in (attr, *wrapped):
            if inspect.isfunction(fn):
                codes.add(inspect.unwrap(fn).__code__)
    return codes


@pytest.fixture(scope="module")
def called(tmp_path_factory) -> set:
    """Code objects called while running every scenario at a tiny size, the
    two non-default convergence variants, a noise-model file preset and
    list-scenarios under a call recorder."""
    tmp_path = tmp_path_factory.mktemp("api")
    model = tmp_path / "model.json"
    model.write_text(json.dumps(spec_to_json(make_preset("jump-default"))))
    runs = [[name, "--set", "n_paths=2"] for name in scenario_names()]
    runs += [
        ["qv-converge", "--set", "n_paths=2", "--set", "params.kind=adaptive"],
        ["ito-converge", "--set", "n_paths=2", "--set", "params.variant=compensator"],
        ["verify-qv", "--set", "n_paths=2", "--set", f"preset={model}"],
    ]
    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(record)
    try:
        for i, argv in enumerate(runs):
            main(["run", *argv, "--out", str(tmp_path / f"run{i}")])
        assert main(["list-scenarios"]) == 0
    finally:
        sys.setprofile(None)
    return codes


def _assert_reached_or_allowed(exported: dict, called: set, allowed: set) -> None:
    """Each exported name must have one of its code objects called or be on
    the allow-list, and each allow-listed name must still be exported."""
    unreached = {key for key, codes in exported.items() if not codes & called}
    assert sorted(unreached - allowed) == [], "exported but never called"
    assert sorted(allowed - set(exported)) == [], "allow-listed but no longer exported"


def test_every_exported_function_backs_a_scenario_or_is_allowed(called):
    """A function counts as reached when a scenario calls it."""
    functions = {key: {obj.__code__} for key, obj in _exports().items() if inspect.isfunction(obj)}
    _assert_reached_or_allowed(functions, called, ALLOWED_UNREACHED)


def test_every_exported_class_backs_a_scenario_or_is_allowed(called):
    """A class counts as reached when a scenario calls one of its own
    functions; an exception or other class without code of its own must
    be allow-listed."""
    classes = {key: _own_code(obj) for key, obj in _exports().items() if inspect.isclass(obj)}
    _assert_reached_or_allowed(classes, called, ALLOWED_UNREACHED_CLASSES)
