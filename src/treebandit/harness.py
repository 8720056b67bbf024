"""Experiment orchestration.

Loads a YAML experiment config (or a bundled scenario), validates it
exhaustively, runs every (policy, horizon, seed) combination on a fresh
engine, and aggregates time-average regret into diff-stable CSV tables.
Also provides the log-log slope fit used to check regret growth rates.

Determinism contract: a run is keyed by (master_seed, T, seed index); the
environment stream and every node stream derive from that key, so re-running
a config with the same master seed reproduces every file byte for byte.

Replications are independent, so ``run_experiment`` spreads them over
worker processes, one per usable core unless ``jobs`` says fewer: the calling
process is one of them, and the others are forked children that return only
result rows. The rows are read back in grid and seed order; the outputs are
therefore the same bytes for every ``jobs``.
"""

from __future__ import annotations

import importlib.resources
import math
import os
import pickle
import time
from dataclasses import astuple, dataclass, field, fields
from typing import Callable

import numpy as np
import yaml

from treebandit.engine import FeedbackModel, Simulation, TraceRecorder
from treebandit.env import (
    BernoulliTreeEnv,
    CostEnvironment,
    CsvMatrixEnv,
    EnvError,
    LowerBoundChainEnv,
    bernoulli_tree_means,
    make_mec_env,
    make_multihop_env,
)
from treebandit.policy import (
    AnytimeEpsilonExp3,
    EpsilonExp3,
    Exp3Baseline,
    NodePolicy,
    NormalizedEG,
    OraclePolicy,
    StationaryPolicy,
    UniformRandomPolicy,
    classic_exp3_gamma,
    constant_forward_prob,
    default_params,
    eg_default_eta,
    exp_decay_forward_prob,
)
from treebandit.topology import TreeTopology, build_chain_tree, build_uniform_tree

DEFAULT_MASTER_SEED = 20240517

POLICY_NAMES = (
    "eps_exp3",
    "anytime_eps_exp3",
    "normalized_eg",
    "exp3",
    "uniform",
    "stationary",
    "oracle_chain",
)
ENV_KINDS = (
    "bernoulli_tree",
    "lower_bound_chain",
    "deadline_mec",
    "deadline_multihop",
    "csv",
)


class HarnessError(ValueError):
    """Raised for invalid analysis inputs (bad fit points)."""


class WorkerError(RuntimeError):
    """A forked worker process died (killed, or out of memory) before it
    returned its results."""


class ConfigError(ValueError):
    """Invalid experiment config; ``errors`` lists every problem found."""

    def __init__(self, errors: list[str]) -> None:
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))

    def __reduce__(self):  # pickle rebuilds from the list, not from the joined message
        return type(self), (self.errors,)


# --------------------------------------------------------------------------
# config model


@dataclass
class ExperimentConfig:
    """A checked config. ``topology``, ``env`` and each ``policies`` entry
    stay raw mappings that ``run_experiment`` reads once per (policy, T), not
    per seed; ``trace`` is the resolved ``TraceRecorder`` arguments."""

    scenario: str
    topology: dict
    env: dict
    policies: list[dict]
    horizons: list[int]
    seeds: int
    master_seed: int
    trace: dict | None
    description: str

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        return _strict(_read_config, raw)


# --------------------------------------------------------------------------
# config readers
#
# One reader per mapping: the top level, topology, env, each policy entry
# and trace. A reader asks for every key once, through ``_Reader.get``,
# which holds the key's check and default; the reader then hands the value
# to the constructor. ``validate_config_dict`` collects what the readers
# report and ``build_*`` raise it as ConfigError. A reader builds only once
# its own keys read cleanly and it has a topology and a horizon; the policy
# reader returns a function that builds one run's policies. Validation builds
# everything at the largest horizon, so a constructor's own rejection is
# reported up front, against the mapping it came from.

_REQUIRED = object()
_NAME_NEED = "without commas, quotes, line breaks or slashes"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_name(x) -> bool:  # fits in a CSV field and in a file name
    return isinstance(x, str) and x != "" and not any(c in x for c in ',"\r\n/\\')


def _is_num(x) -> bool:
    """A finite number, or a string that float() reads as one (PyYAML leaves 1e-3 a string)."""
    if isinstance(x, str):
        try:
            x = float(x)
        except ValueError:
            return False
    return _is_int(x) or (isinstance(x, float) and math.isfinite(x))


def _positive(x) -> bool:
    return _is_num(x) and float(x) > 0


def _unit(x) -> bool:
    return _is_num(x) and 0.0 <= float(x) <= 1.0


def _pair(check):
    return lambda x: isinstance(x, (list, tuple)) and len(x) == 2 and all(map(check, x))


def _floats(x) -> tuple[float, ...]:
    return tuple(map(float, x))


class _Reader:
    """One config mapping, read key by key; every problem goes to ``errors``
    as ``<where>.<key>: <message>``."""

    def __init__(self, raw, where: str, errors: list[str]) -> None:
        self.where = where
        self.errors = errors
        self._start = len(errors)
        self._read: set = set()
        if not isinstance(raw, dict):
            errors.append(f"{where}: must be a mapping")
            raw = {}
        self.raw = raw

    @property
    def ok(self) -> bool:
        """True while nothing has been reported since this reader started."""
        return len(self.errors) == self._start

    def fail(self, key, message: str) -> None:
        self.errors.append(f"{self.where}.{key}: {message}" if self.where else f"{key}: {message}")

    def get(self, key: str, check=None, need: str = "", default=_REQUIRED):
        """``raw[key]`` if ``check`` is None or accepts it; ``default`` if the
        key is absent. A rejected value, or a missing key without a default,
        is reported and yields the default (None if there is none)."""
        self._read.add(key)
        if key in self.raw:
            value = self.raw[key]
            if check is None or check(value):
                return value
            self.fail(key, f"{need}, got {value!r}")
        elif default is _REQUIRED:
            self.fail(key, f"{need}, got nothing")
        return None if default is _REQUIRED else default

    def given(self, out: dict, key: str, check, need: str, convert) -> None:
        """Put ``convert(raw[key])`` into ``out`` if the key is set; a key
        left out takes the constructor's own default."""
        value = self.get(key, check, need, None)
        if value is not None:
            out[key] = convert(value)

    def finish(self) -> None:
        for key in self.raw:
            if key not in self._read:
                self.fail(key, "unknown key")


def _strict(read, *args):
    """Run a reader and raise everything it reported as one ConfigError."""
    errors: list[str] = []
    value = read(errors, *args)
    if errors:
        raise ConfigError(errors)
    return value


def _collect(errors: list[str], where: str, read, *args):
    """Run a reader during validation; a constructor's own rejection of the
    values it was handed becomes an error against ``where``."""
    try:
        return read(errors, *args)
    except (ValueError, OSError) as exc:
        errors.append(f"{where}: {exc}")
        return None


def _read_config(errors: list[str], raw) -> ExperimentConfig | None:
    if not isinstance(raw, dict):
        errors.append("config: top level must be a mapping")
        return None
    r = _Reader(raw, "", errors)
    scenario = r.get("scenario", _is_name, f"must be a non-empty string {_NAME_NEED}")
    description = r.get("description", default="")
    horizons = r.get(
        "horizons",
        lambda v: isinstance(v, list) and v != [] and all(_is_int(t) and t >= 1 for t in v)
        and len(set(v)) == len(v),
        "must be a non-empty list of distinct integers >= 1",
    )
    seeds = r.get("seeds", lambda v: _is_int(v) and v >= 1, "must be an integer >= 1", 20)
    master_seed = r.get("master_seed", lambda v: _is_int(v) and v >= 0,
                        "must be a non-negative integer", DEFAULT_MASTER_SEED)
    T = max(horizons) if horizons else None
    topology_spec = r.get("topology", default={})
    topology = _collect(errors, "topology", _read_topology, topology_spec)
    env_spec = r.get("env", default={})
    env = _collect(errors, "env", _read_env, env_spec, topology, T)
    # exp3's shift_matched eta reads the env, so policies are built only on a good one
    policy_T = T if env is not None else None
    policies = r.get("policies", lambda v: isinstance(v, list) and v != [],
                     "must be a non-empty list")
    labels: set[str] = set()
    for k, entry in enumerate(policies or []):
        where = f"policies[{k}]"
        make = _collect(errors, where, _read_policy, entry, where, topology, policy_T, env)
        _collect(errors, where, lambda _: make and make())
        if isinstance(entry, dict):
            label = policy_label(entry)
            if label in labels:
                errors.append(f"{where}.label: duplicate policy label {label!r}")
            labels.add(label)
    trace = _collect(errors, "trace", _read_trace, r.get("trace", default=None), topology)
    r.finish()
    if not r.ok:
        return None
    return ExperimentConfig(
        scenario=scenario,
        topology=dict(topology_spec),
        env=dict(env_spec),
        policies=[dict(p) for p in policies],
        horizons=list(horizons),
        seeds=seeds,
        master_seed=master_seed,
        trace=trace,
        description=str(description),
    )


def _read_topology(errors: list[str], spec) -> TreeTopology | None:
    r = _Reader(spec, "topology", errors)
    kind = r.get("kind", lambda v: v in ("uniform", "chain"), "must be 'uniform' or 'chain'")
    if kind is None:
        return None
    if kind == "uniform":
        fanout = r.get("fanout", lambda v: _is_int(v) and v >= 2, "must be an integer >= 2")
        depth = r.get("depth", lambda v: _is_int(v) and v >= 1, "must be an integer >= 1")
    else:
        depth = r.get("depth", lambda v: _is_int(v) and v >= 2,
                      "must be an integer >= 2 for a chain")
    r.finish()
    if not r.ok:
        return None
    return build_uniform_tree(fanout, depth) if kind == "uniform" else build_chain_tree(depth)


def _read_env(errors: list[str], spec, topology: TreeTopology | None, T: int | None):
    r = _Reader(spec, "env", errors)
    kind = r.get("kind", lambda v: v in ENV_KINDS, f"must be one of {ENV_KINDS}")
    if kind is None:
        return None
    leaves = topology.leaves if topology is not None else None
    if kind == "bernoulli_tree":
        p_min = r.get("p_min", _unit, "must be in [0,1]", None)
        means = r.get("means", lambda v: isinstance(v, list) and all(map(_unit, v)),
                      "must be a list of numbers in [0,1]", None)
        fraction = r.get("shift_fraction", lambda v: v is None or (_unit(v) and float(v) > 0),
                         "must be in (0,1]", None)
        shift = r.get("shift_round", lambda v: v is None or (_is_int(v) and v >= 1),
                      "must be an integer >= 1", None)
        shift_leaf = r.get(
            "shift_leaf", lambda v: v is None or leaves is None or (_is_int(v) and v in leaves),
            "must be a leaf of the topology", None,
        )
        if r.ok and (p_min is None) == (means is None):
            errors.append("env: give exactly one of p_min or means")
        if r.ok and shift is not None and fraction is not None:
            r.fail("shift_round", "give at most one of shift_round or shift_fraction")
        if r.ok and shift_leaf is not None and shift is None and fraction is None:
            r.fail("shift_leaf", "needs a shift: give shift_round or shift_fraction")
        if means is not None and leaves is not None and len(means) != len(leaves):
            r.fail("means", f"{len(means)} entries for {len(leaves)} leaves")

        def make():
            return BernoulliTreeEnv(
                [float(m) for m in means] if means is not None
                else bernoulli_tree_means(len(leaves), float(p_min)),
                shift_round=shift if fraction is None else max(1, round(T * float(fraction))),
                shift_leaf=None if shift_leaf is None else topology.leaf_index(shift_leaf),
            )
    elif kind == "lower_bound_chain":
        if topology is not None and len(leaves) != topology.depth + 1:
            r.fail("kind", "lower_bound_chain needs a chain topology")
        limit = 2.0 ** -topology.depth if topology is not None else math.inf
        delta = r.get("delta", lambda v: v is None or (_is_num(v) and 0.0 < float(v) < limit),
                      f"must satisfy 0 < delta < {limit}", None)
        opts: dict = {}
        r.given(opts, "best_last_leaf", lambda v: isinstance(v, bool), "must be true or false",
                bool)

        def make():
            if delta is None:
                return LowerBoundChainEnv(topology.depth, 2.0 ** -(topology.depth + 1), **opts)
            return LowerBoundChainEnv(topology.depth, float(delta), **opts)
    elif kind in ("deadline_mec", "deadline_multihop"):
        if kind == "deadline_mec" and topology is not None and topology.depth != 2:
            r.fail("kind", "deadline_mec needs topology.depth == 2")
        opts = {}
        r.given(opts, "constant_rate", _positive, "must be a number > 0", float)
        r.given(opts, "ramp", _pair(_positive), "must be 2 numbers > 0", _floats)
        r.given(opts, "deadline", _positive, "must be a number > 0", float)
        if kind == "deadline_mec":
            r.given(opts, "proc_range", _pair(_is_num), "must be 2 numbers", _floats)
            r.given(opts, "miss_range", _pair(lambda v: _unit(v) and float(v) > 0),
                    "must be 2 numbers in (0,1]", _floats)
        build = make_mec_env if kind == "deadline_mec" else make_multihop_env

        def make():
            return build(topology, T, **opts)
    else:  # csv
        path = r.get("path", lambda v: isinstance(v, str) and v != "",
                     "must name the cost matrix CSV file")
        if path and not os.path.exists(path):
            r.fail("path", f"file not found: {path}")

        def make():
            try:
                env = CsvMatrixEnv(path)
            except EnvError as exc:  # a bad file, reported as <file>:<line>: ...
                r.fail("path", str(exc))
                return None
            if tuple(env.leaf_ids) != leaves:
                r.fail("path", f"header leaf ids {env.leaf_ids} must be the topology's "
                               f"leaves in order, {list(leaves)}")
            elif env.n_rounds < T:
                r.fail("path", f"{env.n_rounds} cost rows, fewer than the horizon {T}")
            return env
    r.finish()
    if not r.ok or topology is None or T is None:
        return None
    env = make()
    return env if r.ok else None


def _read_policy(
    errors: list[str], entry, where: str, topology: TreeTopology | None, T: int | None,
    env: CostEnvironment | None,
) -> Callable[[], dict[int, NodePolicy]] | None:
    r = _Reader(entry, where, errors)
    name = r.get("name", lambda v: v in POLICY_NAMES, f"must be one of {POLICY_NAMES}")
    if name is None:
        return None
    r.get("label", lambda v: (isinstance(v, str) or _is_num(v)) and _is_name(str(v)),
          f"must be a non-empty string or a number {_NAME_NEED}", None)  # see policy_label()
    L = topology.depth if topology is not None else None
    D = topology.max_fanout if topology is not None else None
    if name == "eps_exp3":
        eta = r.get("eta", lambda v: v == "horizon_tuned" or _positive(v),
                    "must be 'horizon_tuned' or a number > 0", "horizon_tuned")
        eps = r.get("epsilon", lambda v: v == "horizon_tuned" or _unit(v),
                    "must be 'horizon_tuned' or in [0,1]", "horizon_tuned")

        # (eta, epsilon) of each node, worked out once per (policy, T): the tuned
        # values take one of two pairs, by whether the node's children are all leaves
        params = {}
        if r.ok and topology is not None and T is not None:
            pairs = {}
            for flag in (False, True):
                tuned_eta, tuned_eps = default_params(T, L, D, flag)
                pairs[flag] = (tuned_eta if eta == "horizon_tuned" else float(eta),
                               tuned_eps if eps == "horizon_tuned" else float(eps))
            params = {n: pairs[topology.children_all_leaves(n)] for n in topology.non_leaves}

        def make(node, K):
            return EpsilonExp3(K, *params[node])
    elif name == "anytime_eps_exp3":
        def make(node, K):
            return AnytimeEpsilonExp3(
                K, depth=L, max_fanout=D, children_all_leaves=topology.children_all_leaves(node)
            )
    elif name == "normalized_eg":
        eta = r.get("eta", lambda v: v == "horizon_tuned" or _positive(v),
                    "must be 'horizon_tuned' or a number > 0", "horizon_tuned")

        def make(node, K):
            return NormalizedEG(
                K, eta=eg_default_eta(K, T) if eta == "horizon_tuned" else float(eta)
            )
    elif name == "exp3":
        gamma = r.get("gamma", lambda v: v == "classic" or _unit(v),
                      "must be 'classic' or in [0,1]", "classic")
        eta = r.get("eta", lambda v: v in ("classic", "shift_matched") or _positive(v),
                    "must be 'classic', 'shift_matched' or a number > 0", "classic")
        scale = r.get("eta_scale", _positive, "must be a number > 0", None)
        if r.ok and eta == "classic" and gamma != "classic" and float(gamma) == 0.0:
            r.fail("gamma", f"must be > 0 when eta is 'classic' (eta = gamma / K), got {gamma!r}")
        if scale is not None and eta not in ("shift_matched", None):
            r.fail("eta_scale", "applies only with eta: shift_matched")
        if eta == "shift_matched" and T is not None:
            shift = getattr(env, "shift_round", None)  # only BernoulliTreeEnv has one
            if shift is None:
                r.fail("eta", "shift_matched needs an environment with a cost shift")
            else:
                eta = float(10.0 if scale is None else scale) / shift

        def make(node, K):
            g = classic_exp3_gamma(K, T) if gamma == "classic" else float(gamma)
            return Exp3Baseline(K, eta=g / K if eta == "classic" else float(eta), gamma=g)
    elif name == "uniform":
        def make(node, K):
            return UniformRandomPolicy(K)
    elif name == "stationary":
        leaf = r.get("leaf", lambda v: topology is None or (_is_int(v) and v in topology.leaves),
                     "must be a leaf of the topology")
        pins: dict[int, int] = {}  # route node -> position of the child toward leaf
        if r.ok and topology is not None:
            cur = leaf
            while cur != 0:
                up = topology.parent[cur]
                pins[up] = topology.children[up].index(cur)
                cur = up

        def make(node, K):
            # Nodes off the root-to-leaf route never receive the job, so
            # their pinned child is arbitrary; position 0 keeps it valid.
            return StationaryPolicy(K, pins.get(node, 0))
    else:  # oracle_chain
        if topology is not None and topology.max_fanout != 2:
            r.fail("name", "oracle_chain needs binary non-leaf nodes")
        profile = r.get("profile", lambda v: v in ("constant", "exp_decay"),
                        "must be 'constant' or 'exp_decay'", "constant")
        q_spec = r.get("q", lambda v: v == "horizon_tuned" or _positive(v),
                       "must be 'horizon_tuned' or a number > 0", "horizon_tuned")

        def make(node, K):
            q = T ** (-1.0 / L) if q_spec == "horizon_tuned" else float(q_spec)
            fn = constant_forward_prob(q) if profile == "constant" else exp_decay_forward_prob(q)
            return OraclePolicy(K, fn)
    r.finish()
    if not r.ok or topology is None or T is None:
        return None
    return lambda: {node: make(node, len(topology.children[node])) for node in topology.non_leaves}


def _read_trace(errors: list[str], spec, topology: TreeTopology | None) -> dict | None:
    if spec is None:
        return None
    r = _Reader(spec, "trace", errors)
    window = r.get("window", lambda v: _is_int(v) and v >= 1, "must be an integer >= 1", 1000)
    watched = r.get("watched", lambda v: isinstance(v, list) and v != [],
                    "must be a non-empty list of [node, child] pairs")
    for pair in watched or []:
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_int, pair))):
            r.fail("watched", f"bad pair {pair!r}")
        elif topology is not None:
            node, child = pair
            if not 0 <= node < topology.node_count or topology.is_leaf(node):
                r.fail("watched", f"node {node} is not a non-leaf node")
            elif child not in topology.children[node]:
                r.fail("watched", f"({node},{child}) is not an edge")
    r.finish()
    if not r.ok:
        return None
    return {"window": window, "watched": tuple((a, b) for a, b in watched)}


def validate_config_dict(raw) -> list[str]:
    """Collect every problem with the config; an empty list means valid."""
    errors: list[str] = []
    _read_config(errors, raw)
    return errors


# --------------------------------------------------------------------------
# bundled scenarios


def scenario_names() -> list[str]:
    root = importlib.resources.files("treebandit") / "scenarios"
    return sorted(p.name[: -len(".yaml")] for p in root.iterdir() if p.name.endswith(".yaml"))


def load_scenario(name: str) -> dict:
    root = importlib.resources.files("treebandit") / "scenarios"
    path = root / f"{name}.yaml"
    if not path.is_file():
        raise ConfigError(
            [f"scenario: no bundled scenario named {name!r}; available: {scenario_names()}"]
        )
    return yaml.safe_load(path.read_text())


def load_config_file(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError([f"config: file not found: {path}"])
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError([f"config: {path} does not contain a mapping"])
    return raw


# --------------------------------------------------------------------------
# factories


def build_topology(spec: dict) -> TreeTopology:
    return _strict(_read_topology, spec)


def build_env(env_spec: dict, topology: TreeTopology, T: int) -> CostEnvironment:
    return _strict(_read_env, env_spec, topology, T)


def build_policies(
    entry: dict, topology: TreeTopology, T: int, env: CostEnvironment | None
) -> dict[int, NodePolicy]:
    """Instantiate one policy object per non-leaf node for one seeded run on ``env``."""
    return _strict(_read_policy, entry, "policy", topology, T, env)()


def policy_label(entry: dict) -> str:
    """The name a policy entry's rows carry in the outputs."""
    return str(entry.get("label", entry.get("name")))

# --------------------------------------------------------------------------
# experiment runner


@dataclass(frozen=True)
class AggregateResult:
    """One results row: replicated runs of one policy at one horizon."""

    scenario: str
    policy: str
    D: int
    L: int
    T: int
    seed_count: int
    mean_time_avg_regret: float
    stddev: float


@dataclass(frozen=True)
class SeedResult:
    scenario: str
    policy: str
    T: int
    seed: int
    cumulative_cost: float
    optimal_stationary_cost: float
    regret: float


@dataclass
class ExperimentResults:
    aggregates: list[AggregateResult] = field(default_factory=list)
    seed_rows: list[SeedResult] = field(default_factory=list)
    traces: dict[tuple[str, int], list[tuple[int, int, int, float]]] = field(
        default_factory=dict
    )

    def regret_by_T(self, policy: str) -> dict[int, float]:
        """Mean TOTAL regret per horizon for one policy label."""
        return {row.T: row.mean_time_avg_regret * row.T
                for row in self.aggregates if row.policy == policy}


def run_one(
    config: ExperimentConfig,
    policy_entry: dict,
    T: int,
    seed: int,
    topology: TreeTopology,
    env: CostEnvironment,
    make_policies: Callable[[], dict[int, NodePolicy]],
    with_trace: bool = False,
):
    """Run one seeded replication on ``env``, which every seed of ``T`` shares, with
    the fresh policies ``make_policies()`` builds; returns (SeedResult, trace rows)."""
    policies = make_policies()
    # normalized_eg learns from every child's cost (one-hop feedback); every
    # other policy learns from the end-to-end cost alone
    one_hop = isinstance(policies[0], NormalizedEG)
    feedback = FeedbackModel.COMPLETE_ONE_HOP if one_hop else FeedbackModel.END_TO_END_BANDIT
    sim = Simulation(topology, policies, env, feedback, entropy=(config.master_seed, T, seed))
    trace = TraceRecorder(**config.trace) if with_trace and config.trace is not None else None
    ledger = sim.run(T, trace=trace)
    row = SeedResult(
        scenario=config.scenario,
        policy=policy_label(policy_entry),
        T=T,
        seed=seed,
        cumulative_cost=float(ledger.cumulative_algorithm_cost),
        optimal_stationary_cost=float(ledger.optimal_stationary_cost()),
        regret=float(ledger.regret()),
    )
    return row, (trace.rows if trace is not None else [])


def worker_count(jobs: int | None = None) -> int:
    """Processes ``run_experiment`` may use: ``jobs``, by default every usable
    core, capped at the usable cores; 1 on a platform without ``fork``."""
    if jobs is not None and not (_is_int(jobs) and jobs >= 1):
        raise ConfigError([f"jobs: must be an integer >= 1, got {jobs!r}"])
    if not hasattr(os, "fork"):
        return 1
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    return usable if jobs is None else min(jobs, usable)


def run_experiment(
    config: ExperimentConfig,
    with_trace: bool = False,
    progress=None,
    jobs: int | None = None,
) -> ExperimentResults:
    """Run the full (policy x horizon x seed) grid and aggregate.

    A task is one (policy, T) block's range of seeds. With more than one
    worker (``worker_count(jobs)``, capped at the task count) the tasks run
    longest first, in this process and in forked children that inherit the
    topology, envs and policy factories built here (``_run_forked``);
    otherwise they run here one by one. Either way the results are read in
    grid and seed order, so the aggregates, the trace sums, the progress
    calls and the first error raised do not depend on ``jobs``.
    ``progress(label, T, mean, std, secs)`` gets a block's own seconds: its
    set-up here plus its replications' wall time. A child that dies before
    it returns its results raises ``WorkerError``.
    """
    workers = worker_count(jobs)
    topology = build_topology(config.topology)
    D = topology.max_fanout
    L = topology.depth
    blocks = []  # (policy entry, T, env, policy factory, set-up seconds) in grid order
    for entry in config.policies:
        for T in sorted(config.horizons):
            t0 = time.perf_counter()
            env = build_env(config.env, topology, T)
            # read once per (policy, T); each seed's policies are built fresh
            make = _strict(_read_policy, entry, "policy", topology, T, env)
            blocks.append((entry, T, env, make, time.perf_counter() - t0))
    workers = min(workers, len(blocks) * config.seeds)
    step = -(-config.seeds // workers)
    ranges = [(lo, min(lo + step, config.seeds)) for lo in range(0, config.seeds, step)]
    shared = (config, topology, blocks, with_trace)
    tasks = [(b, lo, hi) for b in range(len(blocks)) for lo, hi in ranges]
    outcomes, dead = (_run_forked(shared, tasks, min(workers, len(tasks))) if workers > 1
                      else (None, ""))
    results = ExperimentResults()
    for b, (entry, T, _, _, secs) in enumerate(blocks):
        label = policy_label(entry)
        ta_values = []
        trace_acc: np.ndarray | None = None
        trace_key_rows: list[tuple[int, int, int]] | None = None
        for lo, hi in ranges:
            outcome = _run_seeds(shared, b, lo, hi) if outcomes is None else outcomes.get((b, lo))
            if outcome is None:  # only a dead child leaves a task without an outcome
                raise WorkerError(f"{dead} before returning the results of {label} T={T}; "
                                  "rerun with --jobs 1 to run every replication in one process")
            if isinstance(outcome, Exception):
                raise outcome
            runs, run_secs = outcome
            secs += run_secs
            for row, trace_rows in runs:
                results.seed_rows.append(row)
                ta_values.append(row.regret / T if T > 0 else 0.0)
                if trace_rows:
                    if trace_acc is None:
                        trace_key_rows = [(r[0], r[1], r[2]) for r in trace_rows]
                        trace_acc = np.zeros(len(trace_rows))
                    trace_acc += [r[3] for r in trace_rows]
        mean = float(np.mean(ta_values))
        std = float(np.std(ta_values, ddof=1)) if len(ta_values) > 1 else 0.0
        results.aggregates.append(
            AggregateResult(config.scenario, label, D, L, T, config.seeds, mean, std)
        )
        if trace_acc is not None and trace_key_rows is not None:
            results.traces[(label, T)] = [
                (we, n, c, float(p))
                for (we, n, c), p in zip(trace_key_rows, trace_acc / config.seeds)
            ]
        if progress is not None:
            progress(label, T, mean, std, secs)
    results.aggregates.sort(key=lambda r: (r.scenario, r.policy, r.T))
    results.seed_rows.sort(key=lambda r: (r.scenario, r.policy, r.T, r.seed))
    return results


def _run_seeds(shared, b: int, lo: int, hi: int):
    """Seeds ``lo..hi-1`` of block ``b``: their (SeedResult, trace rows) and wall
    seconds, or the exception that stopped them, which ``run_experiment`` raises
    when it reaches this task in grid order."""
    config, topology, blocks, with_trace = shared
    entry, T, env, make, _ = blocks[b]
    t0 = time.perf_counter()
    try:
        runs = [run_one(config, entry, T, seed, topology, env, make, with_trace)
                for seed in range(lo, hi)]
    except Exception as exc:
        return exc
    return runs, time.perf_counter() - t0


def _take_tasks(shared, tasks, queue, outcomes: dict) -> dict:
    """Run the tasks whose indices this process reads from ``queue``, until it
    is empty, into ``outcomes``."""
    while index := queue.read(4):
        b, lo, hi = tasks[int.from_bytes(index, "little")]
        outcomes[b, lo] = _run_seeds(shared, b, lo, hi)
    return outcomes


def _run_forked(shared, tasks, workers: int):
    """Run ``tasks`` longest first in this process and ``workers - 1`` forked
    children; returns ``{(b, lo): outcome}`` and a description of the children
    that died, whose tasks have no outcome.

    ``fork`` hands the children ``shared`` without pickling it, so envs and
    policy factories never cross a pipe; each child sends back one pickled
    dict of outcomes. Every process reads task indices, 4 bytes each, from one
    queue pipe until it is empty. No child outlives the call: on any error,
    KeyboardInterrupt included, the children still running are killed and
    reaped.
    """
    import signal

    blocks = shared[2]
    # longest first, so that no long task is left to run alone at the end
    order = sorted(range(len(tasks)), reverse=True,
                   key=lambda i: blocks[tasks[i][0]][1] * (tasks[i][2] - tasks[i][1]))
    queue_r, queue_w = os.pipe()
    queue, feed = open(queue_r, "rb", buffering=0), open(queue_w, "wb", buffering=0)
    children = {}  # pid -> the read end of its result pipe, until it is reaped
    try:
        for _ in range(workers - 1):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    for pipe in (feed, *children.values()):
                        pipe.close()
                    os.close(r)
                    with open(w, "wb") as out:
                        pickle.dump(_take_tasks(shared, tasks, queue, {}), out)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children[pid] = open(r, "rb", buffering=0)
        # The queue is written after the forks and without blocking, so it
        # never waits on a reader: while the pipe is full (64 KiB, 16,384
        # indices on Linux) this process runs the shortest unqueued task itself.
        # Each write is at most 512 bytes, POSIX's least PIPE_BUF, so it lands
        # whole or not at all and every read gets one whole index.
        os.set_blocking(queue_w, False)
        packed = b"".join(i.to_bytes(4, "little") for i in order)
        outcomes = {}
        head, tail = 0, len(order)
        while head < tail:
            end = min(head + 128, tail)
            if feed.write(packed[4 * head:4 * end]) is not None:
                head = end
            else:
                tail -= 1
                b, lo, hi = tasks[order[tail]]
                outcomes[b, lo] = _run_seeds(shared, b, lo, hi)
        feed.close()
        outcomes = _take_tasks(shared, tasks, queue, outcomes)
        dead = []
        for pid, pipe in list(children.items()):
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pipe.close()
            del children[pid]
            if code == 0:  # a child exits 0 only after it has sent all its outcomes
                outcomes.update(pickle.loads(data))
            else:
                dead.append(f"worker process {pid} " + (
                    f"exited with code {code}" if code > 0 else f"was killed by signal {-code}"))
        return outcomes, " and ".join(dead)
    finally:
        for pid, pipe in children.items():  # still running only if this call failed
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
        queue.close()
        feed.close()


# --------------------------------------------------------------------------
# analysis


def fit_loglog_slope(points) -> float:
    """OLS slope of log(regret) against log(T); regrets below 1e-9 count as 1e-9."""
    pts = sorted((int(t), float(r)) for t, r in points)
    if len(pts) < 3:
        raise HarnessError(f"need at least 3 points to fit a slope, got {len(pts)}")
    if any(t <= 0 for t, _ in pts):
        raise HarnessError("every horizon must be positive")
    if len({t for t, _ in pts}) != len(pts):
        raise HarnessError("horizons must be distinct")
    logt = np.log([t for t, _ in pts])
    logr = np.log([max(r, 1e-9) for _, r in pts])
    return float(np.polyfit(logt, logr, 1)[0])


# --------------------------------------------------------------------------
# CSV output


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_outputs(results: ExperimentResults, out_dir: str) -> list[str]:
    """Write every output table for a finished experiment; returns paths.
    A row dataclass's fields are its table's columns, in order."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, cls, rows in (("results.csv", AggregateResult, results.aggregates),
                            ("per_seed.csv", SeedResult, results.seed_rows)):
        path = os.path.join(out_dir, name)
        _write_csv(path, [f.name for f in fields(cls)], map(astuple, rows))
        written.append(path)
    for (label, T) in sorted(results.traces):
        path = os.path.join(out_dir, f"trace_{label}_T{T}.csv")
        _write_csv(path, ["round_window_end", "node_id", "child_id", "mean_selection_probability"],
                   results.traces[(label, T)])
        written.append(path)
    return written
