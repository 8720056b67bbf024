"""Command-line entry point.

Subcommands:
  run        execute an experiment config (bundled scenario name or YAML path)
  scenarios  list the bundled scenario configs
  validate   check a config and report every problem, writing nothing
  trace      run with windowed probability traces enabled

Exit codes: 0 success, 1 config error, 2 runtime numerical error, 3 a worker
process died before returning its results (rerun with --jobs 1).
The default master seed is a fixed constant, so bare invocations are
reproducible; pass --master-seed to change the replication stream.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from treebandit.engine import EngineError
from treebandit.env import EnvError
from treebandit.harness import (
    ConfigError,
    ExperimentConfig,
    WorkerError,
    load_config_file,
    load_scenario,
    policy_label,
    run_experiment,
    scenario_names,
    write_outputs,
)
from treebandit.policy import NumericalError, PolicyError
from treebandit.topology import TopologyError


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the contract here is 1."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("config", nargs="?", default=None,
                     help="bundled scenario name or path to a YAML config")
    sub.add_argument("--t", default=None,
                     help="comma-separated horizon list overriding the config grid")
    sub.add_argument("--seeds", type=int, default=None, help="replication count override")
    sub.add_argument("--policy", default=None, help="run only the policy with this label")
    sub.add_argument("--master-seed", type=int, default=None, help="master seed override")
    sub.add_argument("--trace-window", type=int, default=None,
                     help="trace window length override")
    sub.add_argument("--out", default="results", help="output directory for CSV files")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="treebandit",
                     description="tree-structured online learning simulator")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("run", "run an experiment and write CSV outputs"),
        ("validate", "validate a config without running or writing"),
        ("trace", "run with windowed probability traces enabled"),
    ):
        sub = subs.add_parser(name, help=text)
        _add_common(sub)
        if name != "validate":
            sub.add_argument("--jobs", type=int, default=None,
                             help="worker processes, this one included (default: "
                                  "every usable core, and never more); outputs do "
                                  "not depend on it")
    subs.add_parser("scenarios", help="list bundled scenario configs")
    return parser


def resolve_raw_config(args) -> dict:
    name = args.config
    if not name:
        raise ConfigError(["no config given: pass a bundled scenario name or a YAML path"])
    if os.path.exists(name) or name.endswith((".yaml", ".yml")) or os.sep in name:
        return load_config_file(name)
    return load_scenario(name)


def apply_overrides(raw: dict, args) -> dict:
    raw = dict(raw)
    if args.t is not None:
        try:
            raw["horizons"] = [int(part) for part in args.t.split(",") if part]
        except ValueError:
            raise ConfigError([f"--t: expected comma-separated integers, got {args.t!r}"])
    if args.seeds is not None:
        raw["seeds"] = args.seeds
    if args.master_seed is not None:
        raw["master_seed"] = args.master_seed
    if args.policy is not None and isinstance(raw.get("policies", []), list):
        keep = [p for p in raw.get("policies", [])
                if isinstance(p, dict) and policy_label(p) == args.policy]
        if not keep:
            raise ConfigError([f"--policy: no policy labelled {args.policy!r} in the config"])
        raw["policies"] = keep
    # a config without a trace section has no window to override
    if args.trace_window is not None and isinstance(raw.get("trace"), dict):
        raw["trace"] = {**raw["trace"], "window": args.trace_window}
    return raw


def _cmd_scenarios() -> int:
    for name in scenario_names():
        raw = load_scenario(name)
        print(f"{name}: {raw.get('description', '')}")
    return 0


def _cmd_validate(args) -> int:
    config = ExperimentConfig.from_dict(apply_overrides(resolve_raw_config(args), args))
    print(f"config OK: scenario {config.scenario!r}, "
          f"{len(config.policies)} policies, horizons {config.horizons}, "
          f"{config.seeds} seeds")
    return 0


def _cmd_run(args, with_trace: bool) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise ConfigError(["--jobs: must be an integer >= 1"])
    raw = apply_overrides(resolve_raw_config(args), args)
    config = ExperimentConfig.from_dict(raw)
    if with_trace:
        if config.trace is None:
            raise ConfigError(["trace: config has no trace section (window + watched pairs)"])
        # a trace holds only full windows, so these horizons would write no trace file
        window = config.trace["window"]
        short = [T for T in config.horizons if T < window]
        if short:
            raise ConfigError([f"trace.window: {window} is longer than horizons {short}; "
                               "every horizon must fit a full window"])
    existing, made = args.out, []  # its nearest existing path must be a directory
    while existing and not os.path.exists(existing):
        made.append(existing)  # deepest first
        existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        raise ConfigError([f"--out: {existing} is not a directory"])

    def progress(label, T, mean, std, secs):
        print(f"{config.scenario} {label} T={T}: mean_ta_regret={mean:.6g} "
              f"stddev={std:.6g} [{config.seeds} seeds, {secs:.1f}s]", file=sys.stderr)

    try:
        try:  # made before any replication runs
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError([f"--out: {exc}"]) from None
        results = run_experiment(config, with_trace=with_trace, progress=progress, jobs=args.jobs)
        try:
            written = write_outputs(results, args.out)
        except OSError as exc:
            raise ConfigError([f"--out: {exc}"]) from None
    except BaseException:  # a failed run leaves none of the directories it made
        for path in made:
            with contextlib.suppress(OSError):
                os.rmdir(path)  # only an empty directory; never a file
        raise
    for path in written:
        print(f"wrote {path}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "scenarios":
            return _cmd_scenarios()
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_run(args, with_trace=args.command == "trace")
    except ConfigError as exc:
        for msg in exc.errors:
            print(f"error: {msg}", file=sys.stderr)
        return 1
    except (TopologyError, EnvError, PolicyError, EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
