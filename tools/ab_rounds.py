"""A/B round cost: CPU µs per round of a git revision's ``src/`` against the
working tree's, both loaded into one process.

Usage: python tools/ab_rounds.py [REF] [--t T] [--reps N] [--scenarios A,B,...]

REF (default HEAD) has its ``src/`` exported with ``git archive`` by
``tools/byte_gate.py``'s ``export_src``. Both packages are imported into
this process under the one name ``treebandit``, one after the other, each
keeping its own modules. For every policy of every named scenario (a
bundled scenario, or a config under ``perfbench/configs/``) the two sides
then run ``run_one`` at horizon T in turn, N times, on seeds 0..N-1 and with
the first side alternating, all in this process (so ``jobs=1``). Each line
gives the best of the N CPU times per round on each side, their ratio, and
whether the two sides' seed rows were equal on every seed. The exit code is
1 if any case's rows differ, else 0.

Separate processes cannot resolve a change of a few percent where a shared
host's speed drifts between processes by more than that. Alternating in one
process puts both sides under the same drift.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import tempfile
import time
from dataclasses import astuple
from pathlib import Path

import yaml
from byte_gate import export_src

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_SCENARIOS = "fig7-D4L4,fig10-multihop,oracle-chain-d3,eg-onehop-f4d2"


def load_harness(src: Path):
    """Import ``treebandit.harness`` from ``src``, then drop the package from
    ``sys.modules`` so that the next side imports its own; the modules already
    loaded keep the names they imported."""
    sys.path.insert(0, str(src))
    try:
        return importlib.import_module("treebandit.harness")
    finally:
        sys.path.remove(str(src))
        for name in [m for m in sys.modules if m == "treebandit" or m.startswith("treebandit.")]:
            del sys.modules[name]


def read_config(name: str) -> dict:
    for path in (ROOT / "src" / "treebandit" / "scenarios" / f"{name}.yaml",
                 ROOT / "perfbench" / "configs" / f"{name}.yaml"):
        if path.is_file():
            return yaml.safe_load(path.read_text())
    raise SystemExit(f"error: no bundled scenario or perfbench config named {name!r}")


def prepare(harness, raw: dict, T: int) -> list:
    """(label, run(seed) -> (cpu seconds, seed row)) for each policy of the config."""
    config = harness.ExperimentConfig.from_dict(raw)
    topology = harness.build_topology(config.topology)
    env = harness.build_env(config.env, topology, T)
    runs = []
    for entry in config.policies:
        def run(seed, entry=entry):
            make = lambda: harness.build_policies(entry, topology, T, env)  # noqa: E731
            t0 = time.process_time()
            row, _ = harness.run_one(config, entry, T, seed, topology, env, make)
            return time.process_time() - t0, astuple(row)
        runs.append((harness.policy_label(entry), run))
    return runs


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", nargs="?", default="HEAD")
    parser.add_argument("--t", type=int, default=10_000, help="horizon (default 10000)")
    parser.add_argument("--reps", type=int, default=7, help="runs per side (default 7)")
    parser.add_argument("--scenarios", default=DEFAULT_SCENARIOS,
                        help=f"comma-separated names (default {DEFAULT_SCENARIOS})")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ab_rounds_") as tmp:
        sides = {args.ref: load_harness(export_src(args.ref, Path(tmp))),
                 "tree": load_harness(ROOT / "src")}
    differ = False
    print(f"CPU µs per round at T={args.t}, best of {args.reps}: {args.ref} -> tree")
    for name in args.scenarios.split(","):
        raw = read_config(name)
        prepared = {side: prepare(harness, raw, args.t) for side, harness in sides.items()}
        for k, (label, _) in enumerate(prepared["tree"]):
            best = {side: float("inf") for side in sides}
            rows = {side: [] for side in sides}
            for seed in range(args.reps):
                order = list(sides) if seed % 2 == 0 else list(sides)[::-1]
                for side in order:
                    secs, row = prepared[side][k][1](seed)
                    best[side] = min(best[side], secs)
                    rows[side].append(row)
            ref_us, tree_us = (best[side] * 1e6 / args.t for side in sides)
            equal = rows[args.ref] == rows["tree"]
            differ = differ or not equal
            print(f"{name} {label}: {ref_us:.2f} -> {tree_us:.2f} ({tree_us / ref_us:.3f}x), "
                  + ("rows equal" if equal else "ROWS DIFFER"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
