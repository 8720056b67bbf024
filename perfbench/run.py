"""The repository benchmark: seed-round throughput, set-up time and memory.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the checkout root is the parent of this directory. Every
measurement runs in a fresh single-threaded interpreter (``worker.py``)
against the sources under ``src/``. With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it runs the workload once plain and
once traced, and prints the per-layer metrics. Each metric is printed on
its own line as ``name value unit``; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``README.md`` beside this file explains every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE_DIR = os.path.join(ROOT, "src", "treebandit")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
DIGESTS = os.path.join(HERE, "digests.json")

SETUP_PROBES = 7
# Median seconds of worker.speed_probe on the reference machine (README.md).
REFERENCE_PROBE_S = 0.083
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env.update({name: "1" for name in THREAD_VARS})
    return env


def run_worker(args, tag: str, seconds: float = 0.0, trace: bool = False,
               setup_only: bool = False) -> dict:
    """Run one fresh workload process and return its report."""
    out = os.path.join(OUT_DIR, args.workload, tag)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    report_path = os.path.join(out, "report.json")
    spec = {
        "workload": args.workload,
        "seed": args.seed,
        "tiny": args.tiny,
        "seconds": seconds,
        "trace": trace,
        "setup_only": setup_only,
        "out": out,
        "report": report_path,
        "package_dir": PACKAGE_DIR,
    }
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=worker_env(), timeout=seconds + 60,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{tag} worker did not finish within {seconds + 60:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{tag} worker exited with code {proc.returncode}")
    with open(report_path) as fh:
        return json.load(fh)


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def wall_rate(report: dict) -> float:
    """Median over passes of seed-rounds per wall second."""
    per_pass = report["seed_rounds_per_pass"]
    return statistics.median(per_pass / s for s in report["pass_seconds"])


def rate(report: dict) -> float:
    """Median over passes of seed-rounds per second at the reference host speed.

    Each pass's wall rate is scaled by the mean of the speed probes just
    before and after it, divided by the probe's reference time: a pass that
    ran while the shared host was 20% slower also saw a 20% slower probe.
    """
    per_pass = report["seed_rounds_per_pass"]
    probes = report["probe_seconds"]
    return statistics.median(
        per_pass / s * (probes[i] + probes[i + 1]) / (2 * REFERENCE_PROBE_S)
        for i, s in enumerate(report["pass_seconds"])
    )


def check_digests(args, reports: list[dict]) -> list[str]:
    """At the default seed, compare output digests with the recorded ones.

    A mismatch fails every seed-run of the report it appears in.
    """
    if args.seed != workloads.DEFAULT_SEED:
        return []
    size = "tiny" if args.tiny else "full"
    recorded = {}
    if os.path.exists(args.digests):
        with open(args.digests) as fh:
            recorded = json.load(fh)
    if args.write_digests:
        recorded.setdefault(size, {})[args.workload] = reports[0]["digests"]
        with open(args.digests, "w") as fh:
            json.dump(recorded, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return []
    reference = recorded.get(size, {}).get(args.workload)
    problems = []
    for report in reports:
        if report["digests"] != reference:
            report["failed"] = report["attempted"]
            problems.append(f"outputs differ from the {size} digests in {args.digests}")
    return problems


def end_to_end(args) -> tuple[dict, list[dict], dict]:
    run_worker(args, "setup-warmup", setup_only=True)  # fills bytecode and page caches
    setups = [run_worker(args, f"setup-{k}", setup_only=True)["setup_s"]
              for k in range(SETUP_PROBES)]
    report = run_worker(args, "plain", seconds=args.seconds)
    metrics = {
        "seed_rounds_per_s": (rate(report), "seed-rounds/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (report["peak_rss_kib"] / 1024.0, "MiB"),
    }
    return metrics, [report], {"setup_s_samples": setups}


def per_layer(args) -> tuple[dict, list[dict], dict]:
    plain = run_worker(args, "plain", seconds=args.seconds / 2)
    traced = run_worker(args, "traced", seconds=args.seconds / 2, trace=True)
    if traced["digests"] != plain["digests"]:
        traced["failed"] = traced["attempted"]
        traced["errors"].append("traced outputs differ from the plain run's")
    trace = traced["trace"]
    if trace["negative_self"]:
        raise BenchError(f"{trace['negative_self']} traced calls had negative self time")

    passes = len(traced["pass_seconds"])
    rounds = traced["seed_rounds_per_pass"] * passes
    runs = traced["replications_per_pass"] * passes

    def calls(name):
        return trace["acc"].get(name, [0, 0])[0]

    def self_ns(name):
        return trace["acc"].get(name, [0, 0])[1]

    metrics = {
        "cli.import_s": (traced["import_s"], "s"),
        "harness.load_validate_ms": (traced["load_validate_s"] * 1e3, "ms"),
        "harness.run_one_self_us_per_run": (self_ns("harness.run_one") / runs / 1e3, "us/run"),
        "harness.aggregate_ms": (self_ns("harness.run_experiment") / passes / 1e6, "ms/pass"),
        "harness.write_ms": (self_ns("harness.write_outputs") / passes / 1e6, "ms/pass"),
        "topology.build_us_per_run": (self_ns("topology.build") / runs / 1e3, "us/run"),
        "harness.build_env_us_per_run": (self_ns("harness.build_env") / runs / 1e3, "us/run"),
        "harness.build_policies_us_per_run":
            (self_ns("harness.build_policies") / runs / 1e3, "us/run"),
        "engine.init_us_per_run": (self_ns("engine.init") / runs / 1e3, "us/run"),
        "engine.self_us_per_round": (self_ns("engine.run") / rounds / 1e3, "us/round"),
        "engine.ledger_us_per_round": (self_ns("engine.ledger") / rounds / 1e3, "us/round"),
    }
    for layer, name in (
        ("env", "costs"),
        ("env", "expected_costs"),
        ("policy", "select"),
        ("policy", "update"),
        ("policy", "distribution"),
        ("policy", "observe_all"),
        ("policy", "set_expected_costs"),
        ("policy", "softmax"),
    ):
        key = f"{layer}.{name}"
        metrics[f"{key}_us_per_round"] = (self_ns(key) / rounds / 1e3, "us/round")
        metrics[f"{key}_calls_per_round"] = (calls(key) / rounds, "calls/round")
    metrics["env.rng_calls_per_round"] = (trace["rng_calls"]["env"] / rounds, "calls/round")
    metrics["policy.rng_calls_per_round"] = (
        trace["rng_calls"]["policy"] / rounds, "calls/round")
    metrics["trace.overhead_frac"] = (1.0 - rate(traced) / rate(plain), "frac")
    return metrics, [plain, traced], {"spans": len(trace["spans"])}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help="workload seed, passed to every config as master_seed")
    parser.add_argument("--seconds", type=float, default=22.0,
                        help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every config to two short horizons (self-test size)")
    parser.add_argument("--digests", default=DIGESTS,
                        help="reference output digests checked at the default seed")
    parser.add_argument("--write-digests", action="store_true",
                        help="record this run's output digests instead of checking them")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        print(f"error: no treebandit sources in {PACKAGE_DIR}", file=sys.stderr)
        return 2
    try:
        metrics, reports, extra = (per_layer if args.trace else end_to_end)(args)
        problems = check_digests(args, reports)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    for report in reports:
        problems.extend(report["errors"])
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        **reports[0]["versions"],
    }
    print("context " + json.dumps(context, sort_keys=True))
    for key, us in sorted(reports[0]["us_per_round_by_policy"].items()):
        print(f"info {key} {us:.4g} us/round")
    print(f"info seed_rounds_per_wall_s {wall_rate(reports[0]):.6g} seed-rounds/s")
    print(f"info speed_probe_ms {1e3 * statistics.median(reports[0]['probe_seconds']):.4g} ms")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {failed / attempted:.6g} failed/attempted seed-runs")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, args.workload, f"result-trace{args.trace}.json"), "w") as fh:
        json.dump({"context": context, **extra, **result}, fh, indent=2)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
