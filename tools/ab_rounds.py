"""A/B round cost: CPU µs per round of a git revision's ``src/`` against the
working tree's, both loaded into one process.

Usage: python tools/ab_rounds.py [REF] [--t T] [--reps N] [--scenarios A,B,...]

REF (default HEAD) has its ``src/`` exported with ``git archive`` by
``tools/byte_gate.py``'s ``export_src``, into a directory that lives until
the comparison ends. Both packages are imported into this process under the
one name ``treebandit``, each keeping its own modules, and a side's modules
and ``src/`` are current in ``sys.modules`` and ``sys.path`` only while that
side runs, so a function-level import finds its own side's module. For every
policy of every named scenario (a bundled scenario, or a config under
``perfbench/configs/``) the two sides then run ``run_one`` at horizon T in
turn, N times, on seeds 0..N-1 and with the first side alternating, all in
this process (so ``jobs=1``), after one untimed run of each side: a case's
first run pays the process's first-touch costs, which read as a threefold
change at ``--reps 1``. Each line gives the best of the N CPU times per
round on each side, their ratio, whether the two sides' seed rows were equal
on every seed, and the route each side's engine took: ``compiled`` where its
``Simulation`` ran the compiled round, else ``python``. The exit code is 1 if
any case's rows differ, else 0.

Separate processes cannot resolve a change of a few percent where a shared
host's speed drifts between processes by more than that. Alternating in one
process puts both sides under the same drift. The ratios still resolve no
change finer than the tool's own A/A spread (the same tree on both sides),
which grows as N falls: one-rep ratios, as CI runs them, say nothing about a
change of less than about 20%, and only their routes and rows check carry
information.
"""

from __future__ import annotations

import argparse
import contextlib
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


class Side:
    """One side's ``treebandit``, imported from ``src``. Only inside
    ``current()`` are its modules in ``sys.modules`` and its ``src`` first on
    ``sys.path``; outside, the other side can import and run its own.
    ``routes`` collects the route of each ``Simulation.run`` of this side."""

    def __init__(self, src: Path) -> None:
        self.src, self.modules, self.routes = str(src), {}, set()
        with self.current():
            self.harness = importlib.import_module("treebandit.harness")
            engine = sys.modules["treebandit.engine"]
            run, routes = engine.Simulation.run, self.routes

            def recorded(sim, *args, **kwargs):
                ledger = run(sim, *args, **kwargs)
                # only the compiled route leaves _compilable set after a run
                routes.add("compiled" if getattr(sim, "_compilable", False) else "python")
                return ledger

            engine.Simulation.run = recorded
            if "treebandit._round" in sys.modules:  # build it before timing, as run_experiment does
                sys.modules["treebandit._round"].load()

    @contextlib.contextmanager
    def current(self):
        sys.path.insert(0, self.src)
        sys.modules.update(self.modules)
        try:
            yield
        finally:
            sys.path.remove(self.src)
            self.modules = {name: sys.modules.pop(name) for name in list(sys.modules)
                            if name == "treebandit" or name.startswith("treebandit.")}


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
    differ = False
    with tempfile.TemporaryDirectory(prefix="ab_rounds_") as tmp:
        sides = {args.ref: Side(export_src(args.ref, Path(tmp))), "tree": Side(ROOT / "src")}
        print(f"CPU µs per round at T={args.t}, best of {args.reps}: {args.ref} -> tree")
        for name in args.scenarios.split(","):
            raw = read_config(name)
            prepared = {}
            for side_name, side in sides.items():
                with side.current():
                    prepared[side_name] = prepare(side.harness, raw, args.t)
            for k, (label, _) in enumerate(prepared["tree"]):
                best = {side: float("inf") for side in sides}
                rows = {side: [] for side in sides}
                for side_name, side in sides.items():
                    side.routes.clear()
                    with side.current():  # untimed, so that no timed run is a cold one
                        prepared[side_name][k][1](0)
                for seed in range(args.reps):
                    order = list(sides) if seed % 2 == 0 else list(sides)[::-1]
                    for side in order:
                        with sides[side].current():
                            secs, row = prepared[side][k][1](seed)
                        best[side] = min(best[side], secs)
                        rows[side].append(row)
                ref_us, tree_us = (best[side] * 1e6 / args.t for side in sides)
                equal = rows[args.ref] == rows["tree"]
                differ = differ or not equal
                routes = ", ".join(f"{side_name} {'+'.join(sorted(side.routes))}"
                                   for side_name, side in sides.items())
                print(f"{name} {label}: {ref_us:.2f} -> {tree_us:.2f} ({tree_us / ref_us:.3f}x), "
                      + ("rows equal" if equal else "ROWS DIFFER") + f"; {routes}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
