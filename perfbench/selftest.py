"""Self-test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/selftest.py

Every workload runs at the ``--tiny`` size, traced and untraced, and must
print every metric that BENCHMARK.json names, with its unit, and no failed
seed-run. A wrong reference digest must fail every seed-run. A host that
slows down must not move the corrected rate. The file name
keeps it out of the repository's default pytest collection, whose run time
it would otherwise add to.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import workloads
from run import REFERENCE_PROBE_S, rate
from worker import failed_seed_runs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def bench(*args: str, cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--tiny", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def printed(lines: list[str]) -> dict[str, tuple[float, str]]:
    """The ``name value unit`` lines a run printed before its JSON line."""
    out = {}
    for line in lines[:-1]:
        parts = line.split(" ", 2)
        if len(parts) == 3:
            try:
                out[parts[0]] = (float(parts[1]), parts[2])
            except ValueError:
                pass
    return out


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric_without_failures(workload, trace):
    code, lines = bench("--workload", workload, "--trace", trace)
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    shown = printed(lines)
    assert shown["failed_frac"][0] == 0.0
    wanted = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"])
        assert shown[metric["name"]][1] == metric["unit"]


def test_wrong_reference_digest_fails_every_seed_run(tmp_path):
    with open(os.path.join(HERE, "digests.json")) as fh:
        digests = json.load(fh)
    for files in digests["tiny"]["short-horizons"].values():
        files["per_seed.csv"] = "0" * 64
    wrong = tmp_path / "digests.json"
    wrong.write_text(json.dumps(digests))
    code, lines = bench("--workload", "short-horizons", "--digests", str(wrong))
    result = json.loads(lines[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert printed(lines)["failed_frac"][0] == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", "bandit-D4L4", cwd=str(tmp_path))
    assert code != 0
    assert not lines


def test_row_checker_catches_each_broken_invariant(tmp_path):
    config = SimpleNamespace(scenario="s", policies=[{"name": "p"}], horizons=[10], seeds=6)
    rows = [
        "0,5.0,2.0,3.0",  # valid
        "1,nan,2.0,nan",  # not finite
        "2,5.0,2.0,2.5",  # regret != cost - best
        "3,11.0,2.0,9.0",  # cost above T
        "4,5.0,-1.0,6.0",  # best below 0
        # seed 5 has no row
    ]
    path = tmp_path / "per_seed.csv"
    path.write_text(
        "scenario,policy,T,seed,cumulative_cost,optimal_stationary_cost,regret\n"
        + "".join(f"s,p,10,{row}\n" for row in rows)
    )
    assert failed_seed_runs(str(path), config) == 5
    path.write_text(path.read_text() + "s,p,10,0,5.0,2.0,3.0\n")  # duplicate of seed 0
    assert failed_seed_runs(str(path), config) == 6


def test_rate_corrects_for_host_speed_but_not_program_speed():
    ref = REFERENCE_PROBE_S
    steady = {"seed_rounds_per_pass": 1000, "pass_seconds": [0.5, 0.5, 0.5],
              "probe_seconds": [ref, ref, ref, ref]}
    assert rate(steady) == pytest.approx(2000.0)
    # The host runs at half speed: passes and probes slow alike.
    slow_host = dict(steady, pass_seconds=[1.0, 1.0, 1.0], probe_seconds=[2 * ref] * 4)
    assert rate(slow_host) == pytest.approx(2000.0)
    # The program gets twice as slow: passes slow, probes do not.
    slow_program = dict(steady, pass_seconds=[1.0, 1.0, 1.0])
    assert rate(slow_program) == pytest.approx(1000.0)
