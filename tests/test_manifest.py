"""Every scenario's output bytes, pinned.

``manifest.json`` holds, for each run below, the SHA-256 of the scenario's
CSV and JSON files and its verdict, together with the numpy version that
wrote them (until the sampler owns its streams, numpy's stream algorithms
decide the draws). The test reruns every entry and names each file that
moved. A change that moves outputs on purpose regenerates the manifest with

    PYTHONPATH=src python tests/test_manifest.py

which prints each entry and file (csv, json, passed) that moved from the
committed manifest, and each entry that is new or gone, for the change to
say which moved and why.

A run on a noise-model file writes the preset string into its config JSON,
so every run starts in the repository root and names its model file by a
path relative to it: the bytes do not depend on where the checkout lives.
"""

import hashlib
import json
import os
import pathlib
import sys
import tempfile

import numpy as np

from cmvm.harness import apply_overrides, load_config, run, scenario_names

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = pathlib.Path(__file__).with_name("manifest.json")
PRESETS = ("mixed-default", "gauss-default", "jump-default")
SIZE = ("n_paths=40", "seed=5")
# overrides that reach code the defaults do not
VARIANTS = (("qv-converge", "params.kind=adaptive"), ("ito-converge", "params.variant=compensator"))
# committed noise-model files, relative to ROOT
ONE_D, SIXTEEN_D = "tests/models/one-d.json", "tests/models/sixteen-d.json"
EXAMPLE = "tests/models/noise-spec-example.json"  # the docs/noise-spec.md example
SHAPES = ("3x2", "1x1", "2x1", "16x16")


def shape_overrides(scenario: str, shape: str) -> list:
    """The run of verify-qv or verify-decomposition on an integrand of
    another shape than 2x2: phi 3x2 on mixed-default, phi 1x1 and 2x1 on a
    two-cell 1-d model file, and phi diag(1/k) on a two-cell 16-d one."""
    if shape == "3x2":
        params = {"phi": [[0.9, 0.2], [-0.3, 1.1], [0.4, 0.5]], "weight": [0.6, -0.2, 0.3]}
        params["phi_b"] = [[0.2, -0.5], [0.7, 0.1], [-0.4, 0.3]]
        preset = "mixed-default"
    elif shape == "16x16":
        k = np.arange(1, 17)
        params = {"phi": np.diag(1.0 / k).tolist(), "weight": np.linspace(0.6, -0.6, 16).tolist()}
        params["phi_b"] = (np.diag(np.cos(k)) + 0.1 * np.eye(16, k=1)).tolist()
        preset = SIXTEEN_D
    else:
        params = {"phi": [[0.9]], "weight": [0.6], "phi_b": [[-0.4]]}
        if shape == "2x1":
            params = {"phi": [[0.9], [-0.5]], "weight": [0.6, -0.2], "phi_b": [[-0.4], [0.3]]}
        preset = ONE_D
    if scenario == "verify-decomposition":
        del params["phi_b"]
    overrides = [f"preset={preset}", "n_paths=40"]
    return overrides + [f"params.{key}={json.dumps(value)}" for key, value in params.items()]


def entries() -> list:
    """(scenario, overrides) of every pinned run: each scenario on each
    preset, except burkholder on gauss-default, which it refuses (it walks
    the preset as its jump ensemble), then each variant on each preset, the
    documented model file, and the runs on other shapes."""
    runs = [
        (name, (f"preset={preset}",) + SIZE)
        for preset in PRESETS
        for name in scenario_names()
        if (name, preset) != ("burkholder", "gauss-default")
    ]
    runs += [(name, (f"preset={preset}",) + SIZE + (extra,)) for name, extra in VARIANTS for preset in PRESETS]
    runs.append(("verify-isometry", (f"preset={EXAMPLE}",) + SIZE))
    runs += [
        (name, tuple(shape_overrides(name, shape)))
        for shape in SHAPES
        for name in ("verify-qv", "verify-decomposition")
    ]
    return runs


def digests(scenario: str, overrides, out_dir: pathlib.Path) -> dict:
    """One run's verdict and the SHA-256 of its CSV and JSON files."""
    res = run(apply_overrides(load_config(scenario), list(overrides)), str(out_dir))
    files = {kind: hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
             for kind, path in (("csv", res.csv_path), ("json", res.json_path))}
    return dict(files, passed=res.passed)


def label(scenario: str, overrides) -> str:
    return f"{scenario} {' '.join(overrides)}"


def moved(pinned: dict, got: dict) -> list:
    """`<scenario> <overrides>: <file>` for each of csv, json and passed
    whose value differs between a pinned entry and a rerun."""
    run_label = label(pinned["scenario"], pinned["overrides"])
    return [f"{run_label}: {key}" for key in ("csv", "json", "passed") if got[key] != pinned[key]]


def test_outputs_match_the_manifest(tmp_path, monkeypatch):
    manifest = json.loads(MANIFEST.read_text())
    assert manifest["numpy"] == np.__version__, (
        f"the manifest was written under numpy {manifest['numpy']}, and this is numpy "
        f"{np.__version__}; the draws follow numpy's stream algorithms, so compare under "
        "the manifest's version or regenerate it and say why its entries moved"
    )
    assert [(e["scenario"], tuple(e["overrides"])) for e in manifest["entries"]] == entries()
    monkeypatch.chdir(ROOT)
    lines = []
    for i, entry in enumerate(manifest["entries"]):
        lines += moved(entry, digests(entry["scenario"], entry["overrides"], tmp_path / str(i)))
    assert not lines, "outputs moved from the manifest:\n" + "\n".join(lines)


def main() -> None:
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as out:
        rows = [
            dict(scenario=name, overrides=list(overrides), **digests(name, overrides, pathlib.Path(out) / str(i)))
            for i, (name, overrides) in enumerate(entries())
        ]
    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {"numpy": None, "entries": []}
    if old["numpy"] != np.__version__:
        print(f"numpy {old['numpy']} -> {np.__version__}", file=sys.stderr)
    pinned = {(e["scenario"], tuple(e["overrides"])): e for e in old["entries"]}
    for row in rows:
        key = (row["scenario"], tuple(row["overrides"]))
        for line in moved(pinned.pop(key), row) if key in pinned else [f"{label(*key)}: new"]:
            print(line, file=sys.stderr)
    for key in pinned:  # entries the manifest no longer runs
        print(f"{label(*key)}: gone", file=sys.stderr)
    lines = ",\n".join(f"  {json.dumps(row)}" for row in rows)  # one entry a line
    MANIFEST.write_text(f'{{"numpy": "{np.__version__}", "entries": [\n{lines}\n]}}\n')
    print(f"wrote {len(rows)} entries to {MANIFEST}", file=sys.stderr)


if __name__ == "__main__":
    main()
