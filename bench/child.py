"""One timed cmvm scenario run in a fresh process.

    python3 bench/child.py SCENARIO --seed N --out DIR [--set KEY=VALUE ...] [--spans FILE]

Times the set-up (importing cmvm, resolving the config, building the
normalized presets with their tables) and ``cmvm.harness.run``, then prints
one JSON line: setup_s, run_s, peak_rss_mb, passed, the failed check names,
the python and numpy versions, and, with ``--spans``, whether the tracer
put every rebound attribute back. With ``--spans`` the run is traced and its
spans are written to FILE after the run.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("scenario")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--set", action="append", default=[], dest="overrides")
    parser.add_argument("--spans")
    args = parser.parse_args()

    import numpy

    from cmvm import harness
    from cmvm.presets import make_preset, preset_names

    cfg = harness.apply_overrides(
        harness.load_config(args.scenario), args.overrides + [f"seed={args.seed}"]
    )
    presets = [cfg.preset] + [v for k, v in cfg.params.items() if k.endswith("preset")]
    for name in presets:
        if name in preset_names():
            make_preset(name).tables
    setup_s = time.perf_counter() - _T0

    report = {}
    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        started = time.perf_counter()
        result = harness.run(cfg, args.out)
        run_s = time.perf_counter() - started
    finally:
        if tracer is not None:
            report["restored"] = tracer.uninstall()
    if tracer is not None:
        tracer.dump(args.spans)

    report.update(
        setup_s=setup_s,
        run_s=run_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        passed=result.passed,
        failed_checks=[c["name"] for c in result.checks if not c["passed"]],
        python=platform.python_version(),
        numpy=numpy.__version__,
    )
    print(json.dumps(report))


if __name__ == "__main__":
    main()
