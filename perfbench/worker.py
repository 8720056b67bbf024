"""One workload process of the benchmark.

    python3 perfbench/worker.py '<spec as JSON>'

``run.py`` starts every measurement in a fresh interpreter running this
script. It sets up (imports the program, loads and validates the workload's
configs) and, unless the spec asks for set-up only, repeats passes over the
workload until the spec's seconds are used, checks every pass's outputs and
writes a JSON report to ``spec["report"]``.
"""

from __future__ import annotations

import collections
import csv
import hashlib
import json
import math
import os
import resource
import sys
import time

import workloads
from tracer import Tracer

OUTPUT_FILES = ("per_seed.csv", "results.csv")


def file_digests(out_dir: str) -> dict[str, str]:
    out = {}
    for name in OUTPUT_FILES:
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def failed_seed_runs(path: str, config) -> int:
    """Seed-runs of ``config`` without exactly one valid ``per_seed.csv`` row.

    A row is valid when every number is finite, regret equals
    cumulative_cost - optimal_stationary_cost exactly, and both costs lie in
    [0, T]. A missing or duplicated row fails its seed-run.
    """
    expected = {
        (str(p.get("label", p["name"])), T, seed)
        for p in config.policies
        for T in config.horizons
        for seed in range(config.seeds)
    }
    seen: collections.Counter = collections.Counter()
    valid = set()
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            try:
                key = (row["policy"], int(row["T"]), int(row["seed"]))
                cost = float(row["cumulative_cost"])
                best = float(row["optimal_stationary_cost"])
                regret = float(row["regret"])
            except (KeyError, TypeError, ValueError):
                continue
            seen[key] += 1
            T = key[1]
            if (
                row["scenario"] == config.scenario
                and all(math.isfinite(v) for v in (cost, best, regret))
                and regret == cost - best
                and 0.0 <= cost <= T
                and 0.0 <= best <= T
            ):
                valid.add(key)
    return sum(1 for key in expected if seen[key] != 1 or key not in valid)


def speed_probe() -> float:
    """Seconds taken by a fixed piece of work that uses no treebandit code.

    The work mixes what a seed-round spends its time on: small numpy draws
    and array arithmetic, a softmax, and Python-level loops, dict updates
    and float math. Its time moves with the host's speed, not the program's.
    """
    import numpy as np  # not at the top: setup_s times the package's own numpy import

    rng = np.random.default_rng(12345)
    weights = np.zeros(8)
    table: dict[int, list] = {}
    total = 0.0
    start = time.perf_counter()
    for i in range(4000):
        weights = weights * 0.99 + rng.random(8)
        shifted = np.exp(weights - weights.max())
        probs = shifted / shifted.sum()
        k = int(np.searchsorted(np.cumsum(probs), rng.random())) % 8
        node = table.setdefault(k, [0, 0.0])
        node[0] += 1
        node[1] += math.log1p(float(probs[k]))
        for j in range(12):
            total += (i * j) % 7 * 0.5
    return time.perf_counter() - start


def main() -> int:
    spec = json.loads(sys.argv[1])
    start = time.perf_counter()
    import treebandit.cli  # noqa: F401  the CLI's own import of the package

    imported = time.perf_counter()
    from treebandit import harness

    configs = [
        (label, harness.ExperimentConfig.from_dict(raw))
        for label, raw in workloads.raw_configs(
            harness, spec["workload"], spec["seed"], spec["tiny"]
        )
    ]
    ready = time.perf_counter()

    if os.path.dirname(os.path.abspath(treebandit.__file__)) != spec["package_dir"]:
        print(f"worker: imported treebandit from {treebandit.__file__}, "
              f"not from {spec['package_dir']}", file=sys.stderr)
        return 3
    report = {
        "import_s": imported - start,
        "load_validate_s": ready - imported,
        "setup_s": ready - start,
    }
    if not spec["setup_only"]:
        report.update(measure(spec, harness, configs))
    with open(spec["report"], "w") as fh:
        json.dump(report, fh)
    return 0


def measure(spec: dict, harness, configs) -> dict:
    import numpy
    import scipy

    tracer = None
    if spec["trace"]:
        tracer = Tracer(spec["workload"])
        tracer.install()
    block_seconds: dict[str, float] = {}
    block_rounds: dict[str, int] = {}

    def progress_for(label: str, seeds: int):
        def progress(policy, T, mean, std, secs):
            key = f"{label}/{policy}"
            block_seconds[key] = block_seconds.get(key, 0.0) + secs
            block_rounds[key] = block_rounds.get(key, 0) + T * seeds

        return progress

    pass_seconds: list[float] = []
    speed_probe()  # warm-up: first calls into numpy are slower
    probe_seconds = [speed_probe()]  # pass i lies between probes i and i + 1
    attempted = failed = 0
    errors: list[str] = []
    first: dict[str, dict[str, str]] | None = None
    deadline = time.perf_counter() + spec["seconds"]
    while True:
        raised: dict[str, str] = {}
        began = time.perf_counter()
        for label, config in configs:
            try:
                results = harness.run_experiment(
                    config, progress=progress_for(label, config.seeds)
                )
                harness.write_outputs(results, os.path.join(spec["out"], label))
            except Exception as exc:  # a run that raises is a failed run, not a crash
                raised[label] = f"{label}: {type(exc).__name__}: {exc}"
        ended = time.perf_counter()
        pass_seconds.append(ended - began)
        probe_seconds.append(speed_probe())

        digests: dict[str, dict[str, str]] = {}
        for label, config in configs:
            runs = workloads.replications(config)
            attempted += runs
            if label in raised:
                failed += runs
                errors.append(raised[label])
                continue
            out_dir = os.path.join(spec["out"], label)
            digests[label] = file_digests(out_dir)
            bad = failed_seed_runs(os.path.join(out_dir, "per_seed.csv"), config)
            if first is not None and digests[label] != first.get(label):
                bad = runs
                errors.append(f"{label}: outputs differ from the first pass")
            failed += bad
        if first is None:
            first = digests
        if time.perf_counter() >= deadline:
            break

    return {
        "pass_seconds": pass_seconds,
        "probe_seconds": probe_seconds,
        "seed_rounds_per_pass": sum(workloads.seed_rounds(c) for _, c in configs),
        "replications_per_pass": sum(workloads.replications(c) for _, c in configs),
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        "digests": first,
        "us_per_round_by_policy": {
            key: 1e6 * block_seconds[key] / block_rounds[key] for key in block_seconds
        },
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "trace": tracer.dump() if tracer is not None else None,
    }


if __name__ == "__main__":
    sys.exit(main())
