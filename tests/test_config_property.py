"""Property test: ``validate`` accepts a config exactly when it runs.

Each config is drawn from valid values fitted to a drawn tree, then given
at most one fault: a value that must be refused, a misspelled key, or a
left-out key. A config that ``validate_config_dict`` accepts must run to
the end and produce rows; one it rejects must have every message start with
the dotted key path of the value at fault. One fault at a time keeps the
accepted side busy: with every key free to go wrong, nearly every config
has some bad value.
"""

import re

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from treebandit.harness import ExperimentConfig, run_experiment, validate_config_dict
from treebandit.topology import build_chain_tree, build_uniform_tree

KEY_PATH = re.compile(r"^(config|[A-Za-z_]\w*(\[\d+\])?(\.\w+)*): ")

# Valid values for the optional keys of each env kind and policy.
ENV_KEYS = {
    "bernoulli_tree": {
        "shift_fraction": [0.1, 1.0, None],
        "shift_round": [1, 5, None],
    },
    "lower_bound_chain": {"delta": [0.01, 0.1, None], "best_last_leaf": [True, False]},
    "deadline_mec": {
        "constant_rate": [8.0, 1],
        "ramp": [[2.0, 200.0], [2, 5]],
        "deadline": [1.0, 0.5],
        "proc_range": [[0.5, 0.2], [0, 0]],
        "miss_range": [[0.005, 0.1], [0.5, 1]],
    },
    "deadline_multihop": {
        "constant_rate": [8.0, 1],
        "ramp": [[2.0, 200.0], [2, 5]],
        "deadline": [1.0, 0.5],
    },
}
POLICY_KEYS = {
    "eps_exp3": {"eta": ["horizon_tuned", 0.5, 1], "epsilon": ["horizon_tuned", 0.0, 0.1, 1]},
    "anytime_eps_exp3": {},
    "normalized_eg": {"eta": ["horizon_tuned", 0.5, "5e-1"]},
    "exp3": {
        "eta": ["classic", "shift_matched", 0.5],
        "gamma": ["classic", 0, 0.01, 1.0],
        "eta_scale": [10.0, 1],
    },
    "uniform": {},
    "stationary": {},
    "oracle_chain": {"q": ["horizon_tuned", 0.1, 2], "profile": ["constant", "exp_decay"]},
}

# Values that must be refused, or that some mappings must refuse.
INVALID = {
    "scenario": ["", 5],
    "kind": ["ring", "weather", "csv", "lower_bound_chain", "deadline_mec", "uniform"],
    "name": ["sarsa", "oracle_chain"],
    "fanout": [1, 2.0, "2"],
    "depth": [0, 1, "3"],
    "p_min": [1.5, -0.1, None],
    "means": [[0.9, 0.1], [1.5, 0.0, 0.0, 0.0], "x"],
    "shift_fraction": [0.0, 2.0],
    "shift_round": [0, 2.5],
    "shift_leaf": [99, True, 0],
    "delta": [0.125, 0.3, 0.0],
    "best_last_leaf": ["yes"],
    "constant_rate": [0, -1.0, True],
    "ramp": [[0, 5], 5, [1, 2, 3]],
    "deadline": [0, -1],
    "proc_range": ["a"],
    "miss_range": [[0.0, 0.1], [0.5, 2.0]],
    "path": ["", "missing.csv"],
    "eta": ["classic", "horizon_tuned", 0, -1.0, "fast"],
    "epsilon": [5, -0.5],
    "gamma": [2.0],
    "eta_scale": [0, -1],
    "q": [0, -1],
    "profile": ["linear"],
    "leaf": [0, 99],
    "label": ["second", None],
    "topology": [None, "uniform"],
    "env": [None],
    "policies": [[], {"name": "uniform"}, ["uniform"]],
    "horizons": [[3, 3], [0], [], "10"],
    "seeds": [0],
    "master_seed": [-1],
    "window": [0],
    "watched": [[], [[0]], [[-1, 1]], [[0, 99]]],
}
TYPOS = ["feedback", "epsilom", "shfit_round", "fanuot", "seed"]


@st.composite
def optional(draw, pools):
    """A random subset of the keys in ``pools``, each with a valid value."""
    return {k: draw(st.sampled_from(v)) for k, v in pools.items() if draw(st.booleans())}


@st.composite
def valid_configs(draw):
    """A valid config; for each of its mappings, the keys it may hold; and
    the (mapping, key) pairs it cannot do without."""
    kind = draw(st.sampled_from(["uniform", "chain"]))
    depth = draw(st.integers(2 if kind == "chain" else 1, 3))
    topology = {"kind": kind, "depth": depth}
    if kind == "uniform":
        topology["fanout"] = draw(st.integers(2, 3))
        tree = build_uniform_tree(topology["fanout"], depth)
    else:
        tree = build_chain_tree(depth)
    leaves = list(tree.leaves)

    env_kinds = ["bernoulli_tree", "deadline_multihop"]
    env_kinds += ["lower_bound_chain"] if kind == "chain" else []
    env_kinds += ["deadline_mec"] if depth == 2 else []
    env = {"kind": draw(st.sampled_from(env_kinds))}
    if env["kind"] == "bernoulli_tree":
        # exactly one of p_min and means
        if draw(st.booleans()):
            env["p_min"] = draw(st.sampled_from([0.0, 0.2, 1.0, "0.2"]))
        else:
            env["means"] = draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0]),
                                         min_size=len(leaves), max_size=len(leaves)))
    env.update(draw(optional(ENV_KEYS[env["kind"]])))
    # at most one of shift_round and shift_fraction, and a shift leaf only with a shift
    shifts = [k for k in ("shift_round", "shift_fraction") if env.get(k) is not None]
    if len(shifts) == 2:
        del env[draw(st.sampled_from(shifts))]
    if env["kind"] == "bernoulli_tree" and draw(st.booleans()):
        env["shift_leaf"] = draw(st.sampled_from(leaves + [None] if shifts else [None]))

    names = sorted(POLICY_KEYS)
    if tree.max_fanout != 2:
        names.remove("oracle_chain")
    policies = []
    for k in range(draw(st.integers(1, 2))):
        entry = {"name": draw(st.sampled_from(names))}
        entry.update(draw(optional(POLICY_KEYS[entry["name"]])))
        if entry.get("eta") != "shift_matched":
            entry.pop("eta_scale", None)  # it applies only to shift_matched
        if entry["name"] == "stationary":
            entry["leaf"] = draw(st.sampled_from(leaves))
        if k == 1:
            entry["label"] = "second"
        policies.append(entry)

    raw = {
        "scenario": "prop",
        "topology": topology,
        "env": env,
        "policies": policies,
        "horizons": draw(st.sampled_from([[1], [3], [10], [1, 10]])),
        "seeds": 1,
        **draw(optional({"master_seed": [0, 7]})),
    }
    slots = [
        (raw, ["scenario", "horizons", "seeds", "master_seed", "policies", "topology", "env"]),
        (topology, ["kind", "fanout", "depth"]),
        (env, ["kind", "p_min", "means", "shift_leaf", *ENV_KEYS["deadline_mec"],
               *ENV_KEYS["bernoulli_tree"], *ENV_KEYS["lower_bound_chain"], "path"]),
        *((entry, ["name", "label", "leaf", "eta", "epsilon", "gamma", "eta_scale", "q",
                   "profile"]) for entry in policies),
    ]
    if draw(st.booleans()):
        edges = [[n, c] for n in tree.non_leaves for c in tree.children[n]]
        raw["trace"] = {
            "watched": draw(st.lists(st.sampled_from(edges), min_size=1, max_size=2,
                                     unique_by=tuple)),
            **draw(optional({"window": [1, 3, 1000]})),
        }
        slots.append((raw["trace"], ["window", "watched"]))
    needed = [(raw, k) for k in ("scenario", "topology", "env", "policies", "horizons")]
    needed += [(topology, k) for k in topology] + [(env, "kind")]
    needed += [(env, k) for k in ("p_min", "means") if k in env]
    if env.get("shift_leaf") is not None:
        needed += [(env, k) for k in shifts if k in env]
    needed += [(entry, k) for entry in policies for k in ("name", "leaf") if k in entry]
    needed += [(raw["trace"], "watched")] if "trace" in raw else []
    return raw, slots, needed


@st.composite
def configs(draw):
    """A valid config with at most one fault."""
    raw, slots, needed = draw(valid_configs())
    fault = draw(st.sampled_from([None, "value", "typo", "missing"]))
    if fault == "missing":
        mapping, key = draw(st.sampled_from(needed))
        del mapping[key]
    elif fault == "typo":
        mapping, _ = draw(st.sampled_from(slots))
        mapping[draw(st.sampled_from(TYPOS))] = 1
    elif fault == "value":
        mapping, keys = draw(st.sampled_from(slots))
        key = draw(st.sampled_from([k for k in keys if k in INVALID]))
        mapping[key] = draw(st.sampled_from(INVALID[key]))
    return raw


@settings(
    max_examples=800,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(configs())
def test_validate_accepts_exactly_the_configs_that_run(raw):
    errors = validate_config_dict(raw)
    event("rejected" if errors else "accepted")
    if errors:
        for msg in errors:
            assert KEY_PATH.match(msg), msg
        return
    config = ExperimentConfig.from_dict(raw)
    results = run_experiment(config, with_trace=config.trace is not None)
    # an accepted config runs something: at least one policy, and a trace
    # section watches at least one edge
    assert results.seed_rows
    assert len(results.seed_rows) == len(config.policies) * len(config.horizons) * config.seeds
    assert config.trace is None or config.trace["watched"]
