"""Every scenario's output bytes, pinned.

``manifest.json`` holds, for each run below, the SHA-256 of the scenario's
CSV and JSON files and its verdict, together with the numpy version that
wrote them (until the sampler owns its streams, numpy's stream algorithms
decide the draws). The test reruns every entry and names each file that
moved. A change that moves outputs on purpose regenerates the manifest with

    PYTHONPATH=src python tests/test_manifest.py

and says which entries moved, and why.
"""

import hashlib
import json
import pathlib
import sys
import tempfile

import numpy as np

from cmvm.harness import apply_overrides, load_config, run, scenario_names

MANIFEST = pathlib.Path(__file__).with_name("manifest.json")
PRESETS = ("mixed-default", "gauss-default", "jump-default")
SIZE = ("n_paths=40", "seed=5")
# overrides that reach code the defaults do not
VARIANTS = (("qv-converge", "params.kind=adaptive"), ("ito-converge", "params.variant=compensator"))


def entries() -> list:
    """(scenario, overrides) of every pinned run: each scenario on each
    preset, except burkholder on gauss-default, which it refuses (it walks
    the preset as its jump ensemble), then each variant on each preset."""
    runs = [
        (name, (f"preset={preset}",) + SIZE)
        for preset in PRESETS
        for name in scenario_names()
        if (name, preset) != ("burkholder", "gauss-default")
    ]
    runs += [(name, (f"preset={preset}",) + SIZE + (extra,)) for name, extra in VARIANTS for preset in PRESETS]
    return runs


def digests(scenario: str, overrides, out_dir: pathlib.Path) -> dict:
    """One run's verdict and the SHA-256 of its CSV and JSON files."""
    res = run(apply_overrides(load_config(scenario), list(overrides)), str(out_dir))
    files = {kind: hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
             for kind, path in (("csv", res.csv_path), ("json", res.json_path))}
    return dict(files, passed=res.passed)


def test_outputs_match_the_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    assert manifest["numpy"] == np.__version__, (
        f"the manifest was written under numpy {manifest['numpy']}, and this is numpy "
        f"{np.__version__}; the draws follow numpy's stream algorithms, so compare under "
        "the manifest's version or regenerate it and say why its entries moved"
    )
    assert [(e["scenario"], tuple(e["overrides"])) for e in manifest["entries"]] == entries()
    moved = []
    for i, entry in enumerate(manifest["entries"]):
        got = digests(entry["scenario"], entry["overrides"], tmp_path / str(i))
        label = f"{entry['scenario']} {' '.join(entry['overrides'])}"
        moved += [f"{label}: {key}" for key in ("csv", "json", "passed") if got[key] != entry[key]]
    assert not moved, "outputs moved from the manifest:\n" + "\n".join(moved)


def main() -> None:
    with tempfile.TemporaryDirectory() as out:
        rows = [
            dict(scenario=name, overrides=list(overrides), **digests(name, overrides, pathlib.Path(out) / str(i)))
            for i, (name, overrides) in enumerate(entries())
        ]
    lines = ",\n".join(f"  {json.dumps(row)}" for row in rows)  # one entry a line
    MANIFEST.write_text(f'{{"numpy": "{np.__version__}", "entries": [\n{lines}\n]}}\n')
    print(f"wrote {len(rows)} entries to {MANIFEST}", file=sys.stderr)


if __name__ == "__main__":
    main()
