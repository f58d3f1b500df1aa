"""cmvm benchmark: time to a verdict on four Monte Carlo workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a cmvm checkout. Each workload is one scenario on one
preset at fixed step and path counts; the seed reaches cmvm only as the
config's ``seed``. For S seconds the benchmark starts one fresh child
process at a time (bench/child.py, one thread each) that sets up and runs
the scenario through ``cmvm.harness.run``, and it checks every run: the
scenario's checks must pass and its ``<scenario>.csv`` and
``<scenario>.json`` must be byte-identical across the runs.

With ``--trace 0`` it reports the end-to-end metrics as medians over the
runs. With ``--trace 1`` it alternates untraced and traced runs and reports
the per-layer metrics from the traced runs' spans (bench/tracing.py); the
traced runs' outputs must match the untraced bytes too.

Every metric is printed with its unit, and the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code is
0 when every run passed, 1 when any failed, and 2 when the directory is not
a cmvm checkout.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, BENCH_DIR)
from tracing import summarize, unit_of  # noqa: E402

# name -> (scenario, config overrides). Every field that defines the work is
# pinned here, so a change of scenario defaults does not change a workload.
# Path counts give each statistical gate about four standard errors of
# margin (spreads estimated over 15 to 30 seeds), so that no seed is expected to
# fail a gate by chance, and a run takes a few seconds.
WORKLOADS = {
    # constant integrand: sampling plus the deterministic walk, no adapted
    # walk, bracket or chain-rule code. The 5% relative-error gate is four
    # standard errors only from about 8000 paths on.
    "isometry-sampling": (
        "verify-isometry",
        ["preset=mixed-default", "n_steps=32", "n_paths=8000"],
    ),
    # state-linear integrand at 256 steps: the adapted walk dominates, driven
    # through the single-path make_path(i) callback
    "qv-adapted-256": (
        "qv-converge",
        ["preset=mixed-default", "n_steps=256", "n_paths=400", "params.levels=[3,4,5,6,7]"],
    ),
    # chain-rule terms across mesh levels 16..256 steps; below about 100
    # paths the level-to-level medians can fail to decrease by chance
    "ito-mesh": (
        "ito-converge",
        ["preset=mixed-default", "n_paths=100", "params.levels=[4,5,6,7,8]"],
    ),
    # two whole ensembles kept in memory at 8 steps: fixed per-path costs
    # dominate and peak memory grows with the ensemble
    "burkholder-ensemble": (
        "burkholder",
        [
            "preset=mixed-default",
            "params.continuous_preset=gauss-default",
            "n_steps=8",
            "n_paths=2000",
        ],
    ),
}

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"), ("passed_frac", "frac"))

CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONPATH": SRC,
}
CHILD_TIMEOUT_S = 120
MIN_RUNS = 3
MIN_RUNS_TRACED = 4
# trace.unattributed_frac above this means a layer went unmeasured
UNATTRIBUTED_LIMIT = 0.10


def highest_percentile(values):
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it, or None."""
    n = len(values)
    best = None
    for q in (75, 90, 95, 99):
        if n * (100 - q) / 100.0 >= 10:
            best = (q, sorted(values)[min(n - 1, int(n * q / 100.0))])
    return best


def run_metadata(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {"cpu": cpu, "nproc": os.cpu_count(), "seed": seed, "src_lines": src_lines}


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_child(workload: str, seed: int, out_dir: str, spans: str | None) -> dict:
    """One fresh-process run; returns its report plus output digests or an error."""
    scenario, overrides = WORKLOADS[workload]
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), scenario, "--seed", str(seed),
           "--out", out_dir]
    for item in overrides:
        cmd += ["--set", item]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, **CHILD_ENV)
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s", "wall_s": time.monotonic() - started}
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"error": f"exit {proc.returncode}: " + " | ".join(tail), "wall_s": wall}
    report = json.loads(lines[-1])
    report["wall_s"] = wall
    report["spans"] = spans
    report["digests"] = {
        name: digest(os.path.join(out_dir, f"{scenario}.{name}")) for name in ("csv", "json")
    }
    return report


def failure_of(report: dict, reference: dict | None) -> str | None:
    """Why a run failed, or None when it passed."""
    if "error" in report:
        return report["error"]
    if not report["passed"]:
        return "scenario checks failed: " + ", ".join(report["failed_checks"])
    if report.get("restored") is False:
        return "tracer left a cmvm attribute rebound"
    if reference is not None and report["digests"] != reference["digests"]:
        differ = [k for k in report["digests"] if report["digests"][k] != reference["digests"][k]]
        return "output bytes differ from the first run: " + ", ".join(differ)
    return None


def measure(workload: str, seed: int, seconds: int, trace: bool, work: str) -> list:
    """Run children one at a time until the window is used; returns their reports."""
    reports = []
    deadline = time.monotonic() + seconds
    least = MIN_RUNS_TRACED if trace else MIN_RUNS
    while True:
        i = len(reports)
        traced = trace and i % 2 == 1
        out_dir = os.path.join(work, f"run-{i}")
        spans = os.path.join(work, f"spans-{i}.json") if traced else None
        reports.append(run_child(workload, seed, out_dir, spans))
        typical = median([r["wall_s"] for r in reports])
        if len(reports) >= least and time.monotonic() + typical > deadline:
            return reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cmvm", "harness.py")):
        print(f"error: no cmvm sources under {SRC}; run from a cmvm checkout", file=sys.stderr)
        return 2

    meta = run_metadata(args.seed)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        reports = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
        reference = next((r for r in reports if "error" not in r), None)
        failures = [failure_of(r, reference) for r in reports]
        ok = [r for r, why in zip(reports, failures) if why is None]
        if reference is not None:
            meta.update(python=reference["python"], numpy=reference["numpy"])
        print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
        print("meta " + json.dumps(meta, sort_keys=True))
        for i, (r, why) in enumerate(zip(reports, failures)):
            kind = "traced" if r.get("spans") else "plain"
            times = "" if "error" in r else (
                f"setup {r['setup_s']:.4f} s  run {r['run_s']:.4f} s  rss {r['peak_rss_mb']:.1f} MB"
            )
            print(f"run {i:2d} {kind:6s} {times}  {'ok' if why is None else 'FAILED: ' + why}")
        failed = len(reports) - len(ok)
        if failed:
            print(f"FAILED: {failed} of {len(reports)} runs", file=sys.stderr)
        plain = [r for r in ok if not r["spans"]]
        traced = [r for r in ok if r["spans"]]
        if not plain or (args.trace and not traced):
            print("error: no run finished; nothing to report", file=sys.stderr)
            return 1

        if args.trace:
            metrics = summarize(
                [r["spans"] for r in traced],
                [r["run_s"] for r in traced],
                [r["run_s"] for r in plain],
            )
            units = {name: unit_of(name) for name in metrics}
            if metrics["trace.unattributed_frac"] > UNATTRIBUTED_LIMIT:
                print(
                    f"WARNING: trace.unattributed_frac {metrics['trace.unattributed_frac']:.3f} "
                    f"exceeds {UNATTRIBUTED_LIMIT}; some layer has no span",
                    file=sys.stderr,
                )
            shutil.copy(traced[0]["spans"], os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"))
        else:
            metrics = {
                "setup_s": median([r["setup_s"] for r in plain]),
                "run_s": median([r["run_s"] for r in plain]),
                "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
                "passed_frac": len(ok) / len(reports),
            }
            units = dict(END_TO_END)
            print(f"failed_frac {failed / len(reports)!r} frac ({failed} of {len(reports)} runs)")
            for name in ("setup_s", "run_s"):
                values = [r[name] for r in plain]
                high = highest_percentile(values)
                tail = f"p{high[0]} {high[1]:.4f} s" if high else "no percentile above the median has ten samples beyond it"
                print(f"{name}: median {metrics[name]:.4f} s over n={len(values)} runs; {tail}")
        for name, value in metrics.items():
            print(f"{name} {value!r} {units[name]}")

        result = {
            "correct": failed == 0,
            "attempted": len(reports),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
        with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "runs": reports, **result}, fh, indent=1, sort_keys=True)
        print(json.dumps(result))
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
