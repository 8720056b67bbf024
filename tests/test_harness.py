"""Harness tests: config validation, bundled scenarios, factories,
experiment aggregation, slope analysis, and CSV output."""

import math
import os
import pickle
import signal
import time

import numpy as np
import pytest
import yaml

from treebandit.engine import EngineError, FeedbackModel
from treebandit.env import (
    BernoulliTreeEnv,
    CsvMatrixEnv,
    DeadlineLatencyEnv,
    EnvError,
    LowerBoundChainEnv,
    bernoulli_tree_means,
)
from treebandit import harness
from treebandit.harness import (
    DEFAULT_MASTER_SEED,
    AggregateResult,
    ConfigError,
    ExperimentConfig,
    ExperimentResults,
    HarnessError,
    SeedResult,
    build_env,
    build_policies,
    build_topology,
    fit_loglog_slope,
    load_config_file,
    load_scenario,
    run_experiment,
    run_one,
    scenario_names,
    validate_config_dict,
    worker_count,
    write_outputs,
)
from treebandit.policy import (
    AnytimeEpsilonExp3,
    EpsilonExp3,
    Exp3Baseline,
    NormalizedEG,
    NumericalError,
    OraclePolicy,
    PolicyError,
    StationaryPolicy,
    UniformRandomPolicy,
    classic_exp3_gamma,
    default_params,
    eg_default_eta,
)
from treebandit.topology import TopologyError, build_chain_tree, build_uniform_tree

needs_two_cores = pytest.mark.skipif(
    worker_count(2) < 2,
    reason="a pool of 2 workers needs 2 usable cores and fork; "
           "with fewer, jobs=2 runs in-process like jobs=1",
)


class CsvText(str):
    """A cost-matrix CSV body in a config patch: the test writes it to a
    file and puts the file's path in its place."""


def run_seed(cfg, T, seed, entry=None):
    """``run_one`` on a topology, env and policy entry read afresh for this seed."""
    entry = cfg.policies[0] if entry is None else entry
    topo = build_topology(cfg.topology)
    env = build_env(cfg.env, topo, T)
    return run_one(cfg, entry, T, seed, topo, env, lambda: build_policies(entry, topo, T, env))


def base_config(**overrides):
    raw = {
        "scenario": "unit",
        "topology": {"kind": "uniform", "fanout": 2, "depth": 2},
        "env": {"kind": "bernoulli_tree", "p_min": 0.2},
        "policies": [{"name": "uniform"}],
        "horizons": [10, 20],
        "seeds": 2,
        "master_seed": 99,
    }
    raw.update(overrides)
    return raw


# --------------------------------------------------------------------------
# validation


def test_valid_config_has_no_errors():
    assert validate_config_dict(base_config()) == []


def test_readme_config_example_validates():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    section = open(readme).read().split("## Config format", 1)[1]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    assert validate_config_dict(yaml.safe_load(block)) == []


def test_top_level_must_be_mapping():
    assert validate_config_dict([1, 2]) == ["config: top level must be a mapping"]


def test_missing_scenario_reported():
    raw = base_config()
    del raw["scenario"]
    assert any(msg.startswith("scenario:") for msg in validate_config_dict(raw))


@pytest.mark.parametrize("key", ["topology", "env", "policies", "horizons"])
def test_missing_required_key_reported(key):
    raw = base_config()
    del raw[key]
    errors = validate_config_dict(raw)
    assert any(msg.startswith(f"{key}:") or msg.startswith(f"{key}.") for msg in errors), errors
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize(
    "patch, key",
    [
        ({"topology": {"kind": "ring"}}, "topology.kind"),
        ({"topology": {"kind": "uniform", "fanout": 1, "depth": 2}}, "topology.fanout"),
        ({"topology": {"kind": "uniform", "fanout": 2, "depth": 0}}, "topology.depth"),
        ({"topology": {"kind": "chain", "depth": 1}}, "topology.depth"),
        ({"env": {"kind": "weather"}}, "env.kind"),
        ({"env": {"kind": "bernoulli_tree", "p_min": 1.5}}, "env.p_min"),
        ({"env": {"kind": "bernoulli_tree", "p_min": 0.2, "shift_fraction": 2}}, "env.shift_fraction"),
        ({"env": {"kind": "bernoulli_tree", "p_min": 0.2, "shift_round": 0}}, "env.shift_round"),
        ({"env": {"kind": "bernoulli_tree", "p_min": 0.2, "shift_leaf": 1}}, "env.shift_leaf"),
        ({"policies": [{"name": "sarsa"}]}, "policies[0].name"),
        ({"policies": [{"name": "stationary", "leaf": 1}]}, "policies[0].leaf"),
        ({"policies": [{"name": "exp3", "gamma": 2.0}]}, "policies[0].gamma"),
        ({"policies": [{"name": "exp3", "eta": "shift_matched"}]}, "policies[0].eta"),
        ({"seeds": 0}, "seeds"),
        ({"master_seed": -1}, "master_seed"),
        ({"trace": {"window": 0, "watched": [[0, 1]]}}, "trace.window"),
        ({"trace": {"window": 5, "watched": [[0, 3]]}}, "trace.watched"),
        ({"trace": {"window": 5, "watched": [[3, 7]]}}, "trace.watched"),
        ({"trace": {"window": 5}}, "trace.watched"),
        ({"trace": {}}, "trace.watched"),
        ({"policies": []}, "policies"),
        # each of these passed validation and then failed at run time, or
        # was silently ignored
        ({"policies": [{"name": "eps_exp3", "eta": 0}]}, "policies[0].eta"),
        ({"policies": [{"name": "eps_exp3", "epsilon": 5}]}, "policies[0].epsilon"),
        ({"env": {"kind": "deadline_multihop", "ramp": 5}}, "env.ramp"),
        ({"env": {"kind": "deadline_mec", "deadline": -1}}, "env.deadline"),
        (
            {
                "env": {"kind": "bernoulli_tree", "p_min": 0.2, "shift_fraction": 0.1},
                "policies": [{"name": "exp3", "eta": "shift_matched", "eta_scale": 0}],
            },
            "policies[0].eta_scale",
        ),
        ({"policies": [{"name": "normalized_eg", "feedback": "bandit"}]}, "policies[0].feedback"),
        ({"policies": [{"name": "eps_exp3", "feedback": "one_hop"}]}, "policies[0].feedback"),
        (
            {"policies": [{"name": "normalized_eg", "feedback": "one_hop_complete"}]},
            "policies[0].feedback",
        ),
        ({"policies": [{"name": "eps_exp3", "epsilom": 0.1}]}, "policies[0].epsilom"),
        ({"env": {"kind": "bernoulli_tree", "p_min": 0.2, "shfit_round": 5}}, "env.shfit_round"),
        ({"policies": [{"name": "exp3", "gamma": 0}]}, "policies[0]"),
        ({"env": {"kind": "csv", "path": 5}}, "env.path"),
        ({"trace": {"window": 5, "watched": [[-1, 1]]}}, "trace.watched"),
        ({"seed": 3}, "seed"),
        # a bad cost file is reported against env.path, not as a bare env error
        ({"env": {"kind": "csv", "path": CsvText("3,4,x,6\n0,0,0,0\n")}}, "env.path"),
        ({"env": {"kind": "csv", "path": CsvText("3,4,5,6\n0,abc,0,0\n")}}, "env.path"),
        ({"env": {"kind": "csv", "path": CsvText("3,4,5,6\n0,1.5,0,0\n")}}, "env.path"),
        ({"env": {"kind": "csv", "path": CsvText("3,4,5,6\n0,0,0\n")}}, "env.path"),
        ({"env": {"kind": "csv", "path": CsvText("")}}, "env.path"),
        # these were silently ignored: the run equalled the run without them
        ({"env": {"kind": "bernoulli_tree", "p_min": 0.2, "shift_leaf": 3}}, "env.shift_leaf"),
        (
            {"env": {"kind": "bernoulli_tree", "p_min": 0.2, "shift_round": 5,
                     "shift_fraction": 0.5}},
            "env.shift_round",
        ),
        ({"policies": [{"name": "exp3", "eta_scale": 5.0}]}, "policies[0].eta_scale"),
        ({"policies": [{"name": "exp3", "eta": 0.5, "eta_scale": 5.0}]}, "policies[0].eta_scale"),
        # these broke the outputs: a trace file name, an extra CSV column, rows
        # labelled None
        ({"policies": [{"name": "uniform", "label": "a/b"}]}, "policies[0].label"),
        ({"policies": [{"name": "uniform", "label": "a,b"}]}, "policies[0].label"),
        ({"policies": [{"name": "uniform", "label": None}]}, "policies[0].label"),
        ({"policies": [{"name": "uniform", "label": ""}]}, "policies[0].label"),
        ({"policies": [{"name": "uniform", "label": 'say "hi"'}]}, "policies[0].label"),
        ({"policies": [{"name": "uniform", "label": "two\nlines"}]}, "policies[0].label"),
        ({"policies": [{"name": "uniform", "label": "a\\b"}]}, "policies[0].label"),
        ({"policies": [{"name": "uniform", "label": True}]}, "policies[0].label"),
        ({"scenario": "a,b"}, "scenario"),
        ({"scenario": "a\rb"}, "scenario"),
        ({"scenario": None}, "scenario"),
        ({"scenario": 5}, "scenario"),
        # classic eta is gamma / K, so gamma 0 is the key at fault
        ({"policies": [{"name": "exp3", "gamma": 0}]}, "policies[0].gamma"),
        ({"policies": [{"name": "exp3", "gamma": 0, "eta": "classic"}]}, "policies[0].gamma"),
    ],
)
def test_errors_name_the_offending_key(patch, key, tmp_path):
    env = patch.get("env", {})
    if isinstance(env.get("path"), CsvText):
        path = tmp_path / "costs.csv"
        path.write_text(env["path"])
        patch = {**patch, "env": {**env, "path": str(path)}}
    errors = validate_config_dict(base_config(**patch))
    assert errors, f"expected an error for {patch}"
    assert any(msg.startswith(f"{key}:") or msg.startswith(f"{key}.") for msg in errors), errors


def test_zero_gamma_with_explicit_eta_runs():
    raw = base_config(policies=[{"name": "exp3", "gamma": 0, "eta": 0.5}])
    assert validate_config_dict(raw) == []
    rows = run_experiment(ExperimentConfig.from_dict(raw)).seed_rows
    assert len(rows) == 4 and all(math.isfinite(row.regret) for row in rows)


def test_means_length_checked_against_leaves():
    raw = base_config(env={"kind": "bernoulli_tree", "means": [0.1, 0.2, 0.3]})
    assert any("4 leaves" in msg for msg in validate_config_dict(raw))


def test_pmin_and_means_are_exclusive():
    raw = base_config(env={"kind": "bernoulli_tree", "p_min": 0.2, "means": [0.1] * 4})
    assert any("exactly one of p_min or means" in msg for msg in validate_config_dict(raw))
    raw = base_config(env={"kind": "bernoulli_tree"})
    assert any("exactly one of p_min or means" in msg for msg in validate_config_dict(raw))


def test_lower_bound_env_requires_chain_topology():
    raw = base_config(env={"kind": "lower_bound_chain", "delta": 0.1})
    assert any("chain topology" in msg for msg in validate_config_dict(raw))
    raw = base_config(
        topology={"kind": "chain", "depth": 2},
        env={"kind": "lower_bound_chain", "delta": 0.5},
        policies=[{"name": "uniform"}],
    )
    assert any("env.delta" in msg for msg in validate_config_dict(raw))


def test_mec_env_requires_depth_two():
    raw = base_config(
        topology={"kind": "uniform", "fanout": 2, "depth": 3},
        env={"kind": "deadline_mec"},
    )
    assert any("deadline_mec" in msg for msg in validate_config_dict(raw))


def test_duplicate_policy_labels_rejected():
    raw = base_config(policies=[{"name": "uniform"}, {"name": "uniform"}])
    assert any("duplicate policy label" in msg for msg in validate_config_dict(raw))


def test_distinct_labels_for_same_policy_accepted():
    raw = base_config(
        policies=[
            {"name": "uniform", "label": "a"},
            {"name": "uniform", "label": "b"},
        ]
    )
    assert validate_config_dict(raw) == []


def test_horizons_must_be_distinct_positive_integers():
    assert any("distinct" in m for m in validate_config_dict(base_config(horizons=[10, 10])))
    assert any("horizons" in m for m in validate_config_dict(base_config(horizons=[0])))
    assert any("horizons" in m for m in validate_config_dict(base_config(horizons=[])))


def test_multiple_errors_collected_in_one_pass():
    raw = base_config(
        topology={"kind": "uniform", "fanout": 1, "depth": 0},
        seeds=0,
        horizons=[],
    )
    errors = validate_config_dict(raw)
    assert len(errors) >= 4


def test_non_string_label_names_the_rows():
    cfg = ExperimentConfig.from_dict(base_config(policies=[{"name": "uniform", "label": 5}]))
    assert {row.policy for row in run_experiment(cfg).seed_rows} == {"5"}


def test_numbers_written_as_strings_are_read():
    # PyYAML reads an exponent without a dot, such as 5e-1, as a string
    raw = base_config(
        env={"kind": "deadline_mec", "constant_rate": "8", "deadline": "5e-1", "ramp": ["2", 2e2]},
        policies=[{"name": "eps_exp3", "eta": "1e-1"}],
    )
    assert validate_config_dict(raw) == []
    cfg = ExperimentConfig.from_dict(raw)
    env = build_env(cfg.env, build_topology(cfg.topology), 10)
    assert env.deadline == 0.5
    assert len(run_experiment(cfg).seed_rows) == 4
    for bad in ("nan", "fast", True):
        raw = base_config(env={"kind": "deadline_mec", "deadline": bad})
        assert validate_config_dict(raw) == [f"env.deadline: must be a number > 0, got {bad!r}"]


def csv_config(tmp_path, text, horizons=(2,)):
    path = tmp_path / "costs.csv"
    path.write_text(text)
    return base_config(
        topology={"kind": "uniform", "fanout": 2, "depth": 1},
        env={"kind": "csv", "path": str(path)},
        horizons=list(horizons),
    )


def test_csv_header_must_list_the_leaves_in_order(tmp_path):
    assert validate_config_dict(csv_config(tmp_path, "1,2\n0.1,0.2\n0.3,0.4\n")) == []
    for header in ("99,98", "2,1"):
        errors = validate_config_dict(csv_config(tmp_path, f"{header}\n0.1,0.2\n0.3,0.4\n"))
        assert len(errors) == 1 and errors[0].startswith("env.path: header leaf ids"), errors


def test_csv_shorter_than_the_largest_horizon_is_rejected(tmp_path):
    errors = validate_config_dict(csv_config(tmp_path, "1,2\n0.1,0.2\n", horizons=[1, 2]))
    assert errors == ["env.path: 1 cost rows, fewer than the horizon 2"]


def test_csv_with_a_nan_cost_is_rejected(tmp_path):
    errors = validate_config_dict(csv_config(tmp_path, "1,2\n0.1,0.2\n0.3,nan\n"))
    path = tmp_path / "costs.csv"
    assert errors == [f"env.path: {path}:3: costs must be finite and lie in [0,1]"]


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("1,two\n0.1,0.2\n", 1, "header must be leaf ids, got '1,two'"),
        ("1,2\n0.1,0.2\n\n0.3,abc\n", 4, "costs must be numbers, got '0.3,abc'"),
        ("1,2\n0.1,-0.2\n", 2, "costs must be finite and lie in [0,1]"),
        ("1,2\n0.1,0.2,0.3\n", 2, "expected 2 costs"),
    ],
)
def test_csv_errors_name_file_and_line(tmp_path, text, line, message):
    errors = validate_config_dict(csv_config(tmp_path, text))
    assert errors == [f"env.path: {tmp_path / 'costs.csv'}:{line}: {message}"]


def test_from_dict_round_trip_and_defaults():
    cfg = ExperimentConfig.from_dict(base_config())
    assert cfg.scenario == "unit"
    assert cfg.horizons == [10, 20]
    assert cfg.seeds == 2
    assert cfg.master_seed == 99
    assert cfg.trace is None
    minimal = base_config()
    del minimal["seeds"]
    del minimal["master_seed"]
    cfg = ExperimentConfig.from_dict(minimal)
    assert cfg.seeds == 20
    assert cfg.master_seed == DEFAULT_MASTER_SEED


def test_from_dict_raises_with_all_errors():
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig.from_dict(base_config(seeds=0, horizons=[]))
    assert len(exc.value.errors) == 2


# --------------------------------------------------------------------------
# bundled scenarios


def test_bundled_scenario_names():
    assert scenario_names() == [
        "fig10-multihop",
        "fig7-D2L2",
        "fig7-D2L3",
        "fig7-D2L4",
        "fig7-D4L2",
        "fig7-D4L3",
        "fig7-D4L4",
        "fig8-transient",
        "fig9-mec",
        "lowerbound-chain",
    ]


def test_every_bundled_scenario_validates():
    for name in scenario_names():
        raw = load_scenario(name)
        assert validate_config_dict(raw) == [], name
        assert raw["scenario"] == name


def test_every_bundled_and_benchmark_config_runs_at_small_horizons():
    bench = os.path.join(os.path.dirname(__file__), "..", "perfbench", "configs")
    raws = [load_scenario(name) for name in scenario_names()]
    raws += [load_config_file(os.path.join(bench, f)) for f in sorted(os.listdir(bench))]
    assert len(raws) == 12
    for raw in raws:
        cfg = ExperimentConfig.from_dict(dict(raw, horizons=[10, 20], seeds=1))
        res = run_experiment(cfg, with_trace=True)
        assert len(res.seed_rows) == 2 * len(cfg.policies), cfg.scenario


def test_unknown_scenario_lists_available():
    with pytest.raises(ConfigError, match="no bundled scenario"):
        load_scenario("fig99")


def test_load_config_file(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text("scenario: filetest\n")
    assert load_config_file(str(path)) == {"scenario": "filetest"}
    with pytest.raises(ConfigError, match="not found"):
        load_config_file(str(tmp_path / "missing.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_config_file(str(bad))


# --------------------------------------------------------------------------
# factories


def test_build_topology_kinds():
    topo = build_topology({"kind": "uniform", "fanout": 3, "depth": 2})
    assert (topo.max_fanout, topo.depth, len(topo.leaves)) == (3, 2, 9)
    chain = build_topology({"kind": "chain", "depth": 3})
    assert (chain.depth, len(chain.leaves)) == (3, 4)
    with pytest.raises(ConfigError):
        build_topology({"kind": "star"})


def test_build_env_shift_round():
    topo = build_uniform_tree(2, 2)
    for shift, T, expected in (({"shift_round": 50}, 1000, 50),
                               ({"shift_fraction": 0.01}, 1000, 10),
                               ({"shift_fraction": 0.0001}, 100, 1),
                               ({}, 1000, None)):
        env = build_env({"kind": "bernoulli_tree", "p_min": 0.2, **shift}, topo, T)
        assert env.shift_round == expected


def test_build_env_bernoulli_with_shift_leaf():
    topo = build_uniform_tree(2, 2)
    env = build_env(
        {"kind": "bernoulli_tree", "p_min": 0.2, "shift_fraction": 0.1, "shift_leaf": 3},
        topo,
        100,
    )
    assert isinstance(env, BernoulliTreeEnv)
    assert np.allclose(env.expected_costs(5), bernoulli_tree_means(4, 0.2))
    shifted = env.expected_costs(10)
    assert shifted[topo.leaf_index(3)] == 0.0


def test_build_env_lower_bound_default_delta():
    topo = build_topology({"kind": "chain", "depth": 2})
    env = build_env({"kind": "lower_bound_chain"}, topo, 100)
    reference = LowerBoundChainEnv(2, 2.0 ** -3)
    assert np.allclose(env.expected_costs(0), reference.expected_costs(0))


def test_build_env_csv(tmp_path):
    path = tmp_path / "costs.csv"
    path.write_text("1,2\n0.1,0.2\n0.3,0.4\n")
    topo = build_uniform_tree(2, 1)
    env = build_env({"kind": "csv", "path": str(path)}, topo, 2)
    assert isinstance(env, CsvMatrixEnv)
    assert np.allclose(env.expected_costs(1), [0.1, 0.2])
    assert np.allclose(env.expected_costs(2), [0.3, 0.4])
    # one env serves every seed of a horizon, so the views it hands out are read-only
    assert not env.costs_block(1, 2, None).flags.writeable
    assert not env.expected_costs(1).flags.writeable


def test_build_env_mec_uses_horizon():
    topo = build_uniform_tree(2, 2)
    env = build_env({"kind": "deadline_mec"}, topo, 500)
    assert isinstance(env, DeadlineLatencyEnv)
    assert env.n_leaves == 4


def test_policy_feedback_defaults_and_override(monkeypatch):
    """The feedback model follows the policy, and no key overrides it."""
    used = []
    simulation = harness.Simulation

    def recording(topology, policies, env, feedback, entropy):
        used.append(feedback)
        return simulation(topology, policies, env, feedback, entropy)

    monkeypatch.setattr(harness, "Simulation", recording)
    for name in ("normalized_eg", "eps_exp3", "exp3", "uniform"):
        cfg = ExperimentConfig.from_dict(base_config(policies=[{"name": name}]))
        run_seed(cfg, 10, 0)
    assert used == [
        FeedbackModel.COMPLETE_ONE_HOP,
        FeedbackModel.END_TO_END_BANDIT,
        FeedbackModel.END_TO_END_BANDIT,
        FeedbackModel.END_TO_END_BANDIT,
    ]
    for name, model in (("eps_exp3", "one_hop"), ("normalized_eg", "bandit")):
        raw = base_config(policies=[{"name": name, "feedback": model}])
        assert validate_config_dict(raw) == ["policies[0].feedback: unknown key"]


def test_build_policies_eps_exp3_horizon_tuned():
    topo = build_uniform_tree(2, 2)
    pols = build_policies({"name": "eps_exp3"}, topo, 1000, None)
    assert set(pols) == {0, 1, 2}
    root = pols[0]
    eta, epsilon = default_params(1000, 2, 2, children_all_leaves=False)
    assert isinstance(root, EpsilonExp3)
    assert root.eta == eta
    assert root.epsilon == epsilon
    leaf_parent = pols[1]
    assert leaf_parent.eta == eta
    assert leaf_parent.epsilon == 0.0


@pytest.mark.parametrize("topo", [build_uniform_tree(3, 3), build_chain_tree(3)], ids=["uniform", "chain"])
@pytest.mark.parametrize("T", [1, 100, 316, 10**6])
def test_eps_exp3_policies_carry_default_params(topo, T):
    # the tuned pairs are worked out once per (policy, T); every node of
    # every seed gets exactly default_params' floats for its own class
    make = harness._strict(harness._read_policy, {"name": "eps_exp3"}, "policy", topo, T, None)
    half = harness._strict(harness._read_policy, {"name": "eps_exp3", "eta": 0.5}, "policy", topo, T, None)
    for pols in (make(), make()):
        for node in topo.non_leaves:
            want = default_params(T, topo.depth, topo.max_fanout, topo.children_all_leaves(node))
            assert (pols[node].eta, pols[node].epsilon) == want
            assert (half()[node].eta, half()[node].epsilon) == (0.5, want[1])


def test_build_policies_eps_exp3_explicit_overrides():
    topo = build_uniform_tree(2, 1)
    pols = build_policies({"name": "eps_exp3", "eta": 0.5, "epsilon": 0.25}, topo, 10, None)
    assert pols[0].eta == 0.5
    assert pols[0].epsilon == 0.25


def test_build_policies_exp3_classic():
    topo = build_uniform_tree(2, 1)
    pols = build_policies({"name": "exp3"}, topo, 1000, None)
    pol = pols[0]
    gamma = classic_exp3_gamma(2, 1000)
    assert isinstance(pol, Exp3Baseline)
    assert pol.gamma == gamma
    assert pol.eta == gamma / 2


def test_build_policies_exp3_shift_matched():
    topo = build_uniform_tree(2, 1)
    env = build_env({"kind": "bernoulli_tree", "p_min": 0.2, "shift_fraction": 0.1}, topo, 1000)
    pols = build_policies(
        {"name": "exp3", "gamma": 0.002, "eta": "shift_matched", "eta_scale": 10.0},
        topo,
        1000,
        env,
    )
    assert pols[0].gamma == 0.002
    assert pols[0].eta == 10.0 / 100
    unshifted = build_env({"kind": "bernoulli_tree", "p_min": 0.2}, topo, 1000)
    for env in (unshifted, None):
        with pytest.raises(ConfigError, match="shift"):
            build_policies({"name": "exp3", "eta": "shift_matched"}, topo, 1000, env)


def test_build_policies_normalized_eg_eta():
    topo = build_uniform_tree(3, 1)
    pols = build_policies({"name": "normalized_eg"}, topo, 400, None)
    assert isinstance(pols[0], NormalizedEG)
    assert pols[0].eta == eg_default_eta(3, 400)
    pols = build_policies({"name": "normalized_eg", "eta": 0.125}, topo, 400, None)
    assert pols[0].eta == 0.125


def test_build_policies_oracle_chain_q():
    topo = build_topology({"kind": "chain", "depth": 2})
    pols = build_policies({"name": "oracle_chain"}, topo, 10000, None)
    assert all(isinstance(p, OraclePolicy) for p in pols.values())
    q = 10000 ** -0.5
    for pol in pols.values():
        assert pol.forward_prob_fn(0) == pytest.approx(min(0.5, q))


def test_build_policies_stationary_routes_toward_leaf():
    topo = build_uniform_tree(2, 2)
    pols = build_policies({"name": "stationary", "leaf": 6}, topo, 10, None)
    assert isinstance(pols[0], StationaryPolicy)
    assert list(pols[0].distribution()) == [0.0, 1.0]
    assert list(pols[2].distribution()) == [0.0, 1.0]
    assert list(pols[1].distribution()) == [1.0, 0.0]
    # the depth-3 chain: node 0 -> (3, 1), node 1 -> (4, 2), node 2 -> (5, 6)
    chain = build_topology({"kind": "chain", "depth": 3})
    for leaf, pins in ((4, [1, 0, 0]), (6, [1, 1, 1]), (3, [0, 0, 0])):
        pols = build_policies({"name": "stationary", "leaf": leaf}, chain, 10, None)
        assert [pols[n].child for n in chain.non_leaves] == pins


def test_build_policies_uniform_and_anytime_types():
    topo = build_uniform_tree(2, 2)
    assert isinstance(build_policies({"name": "uniform"}, topo, 10, None)[0], UniformRandomPolicy)
    assert isinstance(
        build_policies({"name": "anytime_eps_exp3"}, topo, 10, None)[0], AnytimeEpsilonExp3
    )


# --------------------------------------------------------------------------
# experiment runner


def test_run_one_stationary_on_best_leaf_has_zero_regret():
    cfg = ExperimentConfig.from_dict(
        base_config(
            env={"kind": "bernoulli_tree", "means": [1.0, 1.0, 1.0, 0.0]},
            policies=[{"name": "stationary", "leaf": 6}],
        )
    )
    row, trace_rows = run_seed(cfg, 20, 0)
    assert row.regret == 0.0
    assert row.cumulative_cost == 0.0
    assert trace_rows == []


def test_run_experiment_shapes_and_aggregation():
    cfg = ExperimentConfig.from_dict(
        base_config(policies=[{"name": "uniform"}, {"name": "stationary", "leaf": 3}])
    )
    res = run_experiment(cfg)
    assert len(res.aggregates) == 4
    assert len(res.seed_rows) == 8
    for agg in res.aggregates:
        assert (agg.D, agg.L, agg.seed_count) == (2, 2, 2)
        rows = [
            r
            for r in res.seed_rows
            if (r.policy, r.T) == (agg.policy, agg.T)
        ]
        assert len(rows) == 2
        ta = [r.regret / r.T for r in rows]
        assert agg.mean_time_avg_regret == pytest.approx(np.mean(ta))
        assert agg.stddev == pytest.approx(np.std(ta, ddof=1))


def test_run_experiment_single_seed_stddev_zero():
    cfg = ExperimentConfig.from_dict(base_config(seeds=1, horizons=[15]))
    res = run_experiment(cfg)
    assert [a.stddev for a in res.aggregates] == [0.0]


def test_run_experiment_is_deterministic():
    cfg = ExperimentConfig.from_dict(base_config())
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    assert first.aggregates == second.aggregates
    assert first.seed_rows == second.seed_rows


@pytest.mark.parametrize("kind", ["csv", "deadline_multihop"])
def test_one_env_per_horizon_gives_the_rows_of_a_fresh_env_per_seed(kind, tmp_path):
    env = {"kind": kind, "deadline": 0.4}
    if kind == "csv":
        costs = np.random.default_rng(3).random((20, 4)).tolist()
        path = tmp_path / "costs.csv"
        path.write_text("3,4,5,6\n" + "".join(",".join(map(repr, row)) + "\n" for row in costs))
        env = {"kind": kind, "path": str(path)}
    policies = [{"name": "eps_exp3"}, {"name": "normalized_eg"}, {"name": "oracle_chain"}]
    cfg = ExperimentConfig.from_dict(base_config(env=env, policies=policies, seeds=3))
    fresh = [run_seed(cfg, T, seed, entry)[0]
             for entry in cfg.policies for T in sorted(cfg.horizons) for seed in range(3)]
    assert len({row.cumulative_cost for row in fresh}) > 3
    assert run_experiment(cfg).seed_rows == fresh


def test_run_experiment_master_seed_changes_draws():
    cfg_a = ExperimentConfig.from_dict(base_config())
    cfg_b = ExperimentConfig.from_dict(base_config(master_seed=100))
    costs_a = [r.cumulative_cost for r in run_experiment(cfg_a).seed_rows]
    costs_b = [r.cumulative_cost for r in run_experiment(cfg_b).seed_rows]
    assert costs_a != costs_b


def test_regret_tables_by_policy():
    cfg = ExperimentConfig.from_dict(base_config())
    res = run_experiment(cfg)
    total = res.regret_by_T("uniform")
    assert set(total) == {10, 20}
    for row in res.aggregates:
        assert total[row.T] == row.mean_time_avg_regret * row.T
    assert res.regret_by_T("nope") == {}


def test_traces_only_collected_when_requested():
    cfg = ExperimentConfig.from_dict(
        base_config(
            horizons=[25],
            trace={"window": 10, "watched": [[0, 1], [1, 3]]},
            policies=[{"name": "stationary", "leaf": 3}, {"name": "uniform"}],
        )
    )
    assert run_experiment(cfg, with_trace=False).traces == {}
    res = run_experiment(cfg, with_trace=True)
    assert set(res.traces) == {("stationary", 25), ("uniform", 25)}
    stationary_rows = res.traces[("stationary", 25)]
    assert stationary_rows == [
        (10, 0, 1, 1.0),
        (10, 1, 3, 1.0),
        (20, 0, 1, 1.0),
        (20, 1, 3, 1.0),
    ]
    for _, _, _, prob in res.traces[("uniform", 25)]:
        assert prob == 0.5


# --------------------------------------------------------------------------
# worker processes


def test_worker_count_defaults_to_and_caps_at_usable_cores(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert worker_count() == 3
    assert worker_count(None) == 3
    assert worker_count(2) == 2
    assert worker_count(10**6) == 3
    monkeypatch.delattr(os, "fork", raising=False)
    assert worker_count() == 1
    assert worker_count(2) == 1


@pytest.mark.parametrize("jobs", [0, -1, True, 2.0, "2"])
def test_worker_count_rejects_non_positive_or_non_integer_jobs(jobs):
    with pytest.raises(ConfigError) as err:
        worker_count(jobs)
    assert err.value.errors == [f"jobs: must be an integer >= 1, got {jobs!r}"]


@pytest.mark.parametrize("error", [
    ConfigError(["seeds: bad", "horizons: bad"]),
    EngineError("environment produced costs outside [0,1] or NaN at round 7"),
    EnvError("costs.csv:3: expected 4 costs"),
    PolicyError("eta must be > 0"),
    NumericalError("receive probability underflow"),
    TopologyError("fanout must be >= 2"),
    HarnessError("need at least 3 points to fit a slope, got 2"),
], ids=lambda e: type(e).__name__)
def test_package_errors_survive_pickling(error):
    # a worker's exception reaches the caller through pickle
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert getattr(back, "errors", None) == getattr(error, "errors", None)


def assert_no_child_left():
    # raw forks are invisible to multiprocessing.active_children()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def wait_for_another_pid(path, seconds=10.0):
    """Wait until a process other than this one has written its pid to ``path``."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if path.exists() and set(path.read_text().split()) - {str(os.getpid())}:
            return
        time.sleep(0.005)


def test_jobs_two_gives_the_results_and_progress_of_jobs_one():
    cfg = ExperimentConfig.from_dict(base_config(
        horizons=[40, 25], seeds=3, trace={"window": 10, "watched": [[0, 1], [1, 3]]},
        policies=[{"name": "eps_exp3"}, {"name": "exp3", "label": "baseline"}],
    ))
    runs = []
    # every jobs from 1 up to the usable cores, at most 4: never more processes than cores
    for jobs in range(1, max(2, min(worker_count(), 4)) + 1):
        calls = []
        res = run_experiment(cfg, with_trace=True, jobs=jobs,
                             progress=lambda *args: calls.append(args[:4]))
        runs.append((res, calls))
        assert_no_child_left()
    (one, one_calls), *others = runs
    for res, calls in others:
        assert res.seed_rows == one.seed_rows
        assert res.aggregates == one.aggregates
        assert res.traces == one.traces
        assert calls == one_calls
    assert [call[:2] for call in one_calls] == [
        ("eps_exp3", 25), ("eps_exp3", 40), ("baseline", 25), ("baseline", 40)]


@needs_two_cores
@pytest.mark.parametrize("error_class", [NumericalError, EngineError])
def test_a_worker_error_reaches_the_caller_as_at_jobs_one(error_class, monkeypatch, tmp_path):
    simulation = harness.Simulation
    pids = tmp_path / "pids"
    jobs = 1

    def failing(topology, policies, env, feedback, entropy):
        # seeds 1 and 3 raise, so every task of 4 seeds in 2 ranges fails;
        # at jobs=2 this process raises only after a child has
        _, T, seed = entropy
        if seed in (1, 3):
            if jobs > 1:
                wait_for_another_pid(pids)
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            raise error_class(f"seed {seed} failed at T={T}")
        return simulation(topology, policies, env, feedback, entropy)

    monkeypatch.setattr(harness, "Simulation", failing)
    cfg = ExperimentConfig.from_dict(base_config(horizons=[10, 20, 30], seeds=4))
    raised = []
    for jobs in (1, 2):
        with pytest.raises(error_class) as err:
            run_experiment(cfg, jobs=jobs)
        raised.append(str(err.value))
        assert_no_child_left()
    # the first failure in grid order, whichever process met it
    assert raised == ["seed 1 failed at T=10"] * 2
    assert str(os.getpid()) in pids.read_text().split()
    assert set(pids.read_text().split()) - {str(os.getpid())}, "no worker process raised"


@needs_two_cores
def test_an_interrupt_in_this_process_kills_the_working_children(monkeypatch, tmp_path):
    pids = tmp_path / "pids"
    test_pid = os.getpid()

    def working_or_interrupted(*args, **kwargs):
        if os.getpid() != test_pid:
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            time.sleep(60)  # a child still working when Ctrl-C reaches this process
        wait_for_another_pid(pids)
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "Simulation", working_or_interrupted)
    cfg = ExperimentConfig.from_dict(base_config(horizons=[10, 20], seeds=2))
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_experiment(cfg, jobs=2)
    assert time.monotonic() - t0 < 30, "the children were waited for, not killed"
    assert set(pids.read_text().split()) - {str(test_pid)}, "no child was working"
    assert_no_child_left()


@pytest.mark.parametrize("workers", [1, 2])
def test_a_queue_larger_than_a_pipe_runs_every_task(workers, monkeypatch):
    if workers > worker_count():
        pytest.skip("one process per usable core at most")
    # 20,000 indices are 80,000 bytes, more than a 64 KiB pipe holds; with no
    # child to read them this process must run the overflow itself
    tasks = [(b, 0, 1) for b in range(20_000)]
    blocks = [(None, 1 + b % 7, None, None, 0.0) for b in range(len(tasks))]
    monkeypatch.setattr(harness, "_run_seeds", lambda shared, b, lo, hi: ([], float(b)))

    def hung(signum, frame):
        raise TimeoutError("the task queue blocked")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        outcomes, dead = harness._run_forked((None, None, blocks, False), tasks, workers)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert dead == ""
    assert outcomes == {(b, 0): ([], float(b)) for b in range(len(tasks))}
    assert_no_child_left()


# --------------------------------------------------------------------------
# analysis


def test_fit_loglog_slope_recovers_power_laws():
    ts = [10**2, 10**3, 10**4, 10**5]
    for exponent in (2 / 3, 1.0, 0.5):
        pts = [(t, 3.7 * t**exponent) for t in ts]
        assert fit_loglog_slope(pts) == pytest.approx(exponent, abs=1e-9)


def test_fit_loglog_slope_floors_nonpositive_points():
    slope = fit_loglog_slope([(10, 0.0), (100, 1.0), (1000, 10.0)])
    assert math.isfinite(slope)
    assert slope == fit_loglog_slope([(10, 1e-9), (100, 1.0), (1000, 10.0)])
    assert slope == fit_loglog_slope([(10, -2.0), (100, 1.0), (1000, 10.0)])
    power = [(10, 1.0), (100, 10.0), (1000, 100.0)]
    assert fit_loglog_slope(power) == pytest.approx(1.0, abs=1e-9)


def test_fit_loglog_slope_input_errors():
    with pytest.raises(HarnessError, match="at least 3"):
        fit_loglog_slope([(10, 1.0), (100, 2.0)])
    with pytest.raises(HarnessError, match="positive"):
        fit_loglog_slope([(0, 1.0), (100, 2.0), (1000, 3.0)])
    with pytest.raises(HarnessError, match="distinct"):
        fit_loglog_slope([(10, 1.0), (10, 2.0), (1000, 3.0)])


# --------------------------------------------------------------------------
# CSV output


def test_results_csv_format(tmp_path):
    res = ExperimentResults([AggregateResult("s", "p", 2, 2, 100, 3, 0.1, 0.05)])
    path = write_outputs(res, str(tmp_path))[0]
    lines = open(path).read().splitlines()
    assert lines[0] == "scenario,policy,D,L,T,seed_count,mean_time_avg_regret,stddev"
    assert lines[1] == "s,p,2,2,100,3,0.1,0.05"


def test_per_seed_csv_uses_repr_floats(tmp_path):
    res = ExperimentResults([], [SeedResult("s", "p", 100, 0, 1 / 3, 0.25, 1 / 3 - 0.25)])
    path = write_outputs(res, str(tmp_path))[1]
    lines = open(path).read().splitlines()
    assert lines[0] == "scenario,policy,T,seed,cumulative_cost,optimal_stationary_cost,regret"
    assert lines[1] == f"s,p,100,0,{1 / 3!r},0.25,{1 / 3 - 0.25!r}"


def test_write_outputs_paths_and_trace_files(tmp_path):
    cfg = ExperimentConfig.from_dict(
        base_config(
            horizons=[25],
            seeds=1,
            trace={"window": 10, "watched": [[0, 1]]},
            policies=[{"name": "stationary", "leaf": 3, "label": "pin3"}],
        )
    )
    res = run_experiment(cfg, with_trace=True)
    out = str(tmp_path / "out")
    written = write_outputs(res, out)
    assert written == [
        os.path.join(out, "results.csv"),
        os.path.join(out, "per_seed.csv"),
        os.path.join(out, "trace_pin3_T25.csv"),
    ]
    for path in written:
        assert os.path.exists(path)
    trace_lines = open(written[2]).read().splitlines()
    assert trace_lines[0] == "round_window_end,node_id,child_id,mean_selection_probability"
    assert trace_lines[1:] == ["10,0,1,1.0", "20,0,1,1.0"]


def test_write_outputs_byte_identical_across_reruns(tmp_path):
    cfg = ExperimentConfig.from_dict(base_config())
    blobs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        write_outputs(run_experiment(cfg), out)
        blobs.append(
            (open(os.path.join(out, "results.csv"), "rb").read(),
             open(os.path.join(out, "per_seed.csv"), "rb").read())
        )
    assert blobs[0] == blobs[1]
