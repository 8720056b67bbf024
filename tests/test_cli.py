"""CLI tests: argument handling, validation output, run/trace outputs,
override flags, and exit codes."""

import os
import time

import pytest

from treebandit import harness
from treebandit.cli import main
from treebandit.engine import EngineError
from treebandit.harness import worker_count
from treebandit.policy import NumericalError

TINY_CONFIG = """\
scenario: tiny
topology:
  kind: uniform
  fanout: 2
  depth: 2
env:
  kind: bernoulli_tree
  p_min: 0.2
horizons: [10, 20]
seeds: 2
master_seed: 7
policies:
  - name: uniform
  - name: stationary
    leaf: 3
    label: pin3
trace:
  window: 5
  watched: [[0, 1]]
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY_CONFIG)
    return str(path)


def read(path):
    with open(path) as fh:
        return fh.read()


def assert_no_child_left():
    # raw forks are invisible to multiprocessing.active_children()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# --------------------------------------------------------------------------
# argument handling


def test_no_command_exits_one(capsys):
    assert main([]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    assert main(["run", "fig7-D2L2", "--frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_without_config_exits_one(capsys):
    assert main(["run"]) == 1
    assert "no config given" in capsys.readouterr().err


def test_missing_yaml_path_exits_one(capsys):
    assert main(["validate", "does/not/exist.yaml"]) == 1
    assert "file not found" in capsys.readouterr().err


def test_unknown_bundled_name_exits_one(capsys):
    assert main(["validate", "fig99"]) == 1
    assert "no bundled scenario" in capsys.readouterr().err


def test_bad_t_override_exits_one(tiny_config, capsys):
    assert main(["validate", tiny_config, "--t", "10,abc"]) == 1
    assert "--t" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "trace"])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_exits_one(command, jobs, tiny_config, tmp_path, capsys):
    assert main([command, tiny_config, "--jobs", jobs, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: --jobs: must be an integer >= 1\n"
    assert not (tmp_path / "o").exists()


def test_policy_filter_must_match_a_label(tiny_config, capsys):
    assert main(["validate", tiny_config, "--policy", "nope"]) == 1
    assert "no policy labelled" in capsys.readouterr().err


# --------------------------------------------------------------------------
# scenarios / validate


def test_scenarios_lists_all_bundled_configs(capsys):
    assert main(["scenarios"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    names = [line.split(":", 1)[0] for line in lines]
    assert names == sorted(names)
    assert "fig7-D2L2" in names
    assert "lowerbound-chain" in names
    assert len(names) == 10
    for line in lines:
        assert ": " in line or line.endswith(":")


def test_validate_bundled_scenario_ok(capsys):
    assert main(["validate", "fig7-D2L2"]) == 0
    out = capsys.readouterr().out
    assert "config OK" in out
    assert "fig7-D2L2" in out


def test_validate_reports_every_error_and_writes_nothing(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(
        "scenario: bad\n"
        "topology: {kind: uniform, fanout: 1, depth: 0}\n"
        "env: {kind: bernoulli_tree, p_min: 2.0}\n"
        "policies: [{name: sarsa}]\n"
        "horizons: []\n"
    )
    out_dir = tmp_path / "never"
    assert main(["validate", str(path), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    for key in ("topology.fanout", "topology.depth", "env.p_min", "policies[0].name", "horizons"):
        assert key in err
    assert not out_dir.exists()


def test_validate_applies_overrides_before_checking(tiny_config, capsys):
    assert main(["validate", tiny_config, "--t", "10,10"]) == 1
    assert "distinct" in capsys.readouterr().err


# --------------------------------------------------------------------------
# run / trace


def test_run_writes_results_and_per_seed(tiny_config, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["run", tiny_config, "--out", out]) == 0
    captured = capsys.readouterr()
    assert os.path.exists(os.path.join(out, "results.csv"))
    assert os.path.exists(os.path.join(out, "per_seed.csv"))
    assert not os.path.exists(os.path.join(out, "trace_uniform_T10.csv"))
    assert "wrote" in captured.err
    assert "mean_ta_regret" in captured.err
    results = read(os.path.join(out, "results.csv")).splitlines()
    assert len(results) == 1 + 4  # header + 2 policies x 2 horizons
    per_seed = read(os.path.join(out, "per_seed.csv")).splitlines()
    assert len(per_seed) == 1 + 8  # header + 2 policies x 2 horizons x 2 seeds


def test_run_overrides_horizons_seeds_and_policy(tiny_config, tmp_path):
    out = str(tmp_path / "out")
    assert main([
        "run", tiny_config, "--t", "12", "--seeds", "3", "--policy", "pin3", "--out", out,
    ]) == 0
    results = read(os.path.join(out, "results.csv")).splitlines()
    assert len(results) == 2
    assert ",pin3," in results[1]
    assert ",12,3," in results[1]
    per_seed = read(os.path.join(out, "per_seed.csv")).splitlines()
    assert len(per_seed) == 1 + 3


def test_run_is_byte_identical_across_reruns(tiny_config, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(["run", tiny_config, "--out", out]) == 0
        outs.append({
            f: read(os.path.join(out, f)) for f in ("results.csv", "per_seed.csv")
        })
    assert outs[0] == outs[1]


def test_master_seed_override_changes_outputs(tiny_config, tmp_path):
    reference = str(tmp_path / "ref")
    reseeded = str(tmp_path / "new")
    assert main(["run", tiny_config, "--out", reference]) == 0
    assert main(["run", tiny_config, "--master-seed", "8", "--out", reseeded]) == 0
    assert (
        read(os.path.join(reference, "per_seed.csv"))
        != read(os.path.join(reseeded, "per_seed.csv"))
    )


def test_trace_subcommand_writes_trace_files(tiny_config, tmp_path):
    out = str(tmp_path / "out")
    assert main(["trace", tiny_config, "--trace-window", "10", "--out", out]) == 0
    for fname in ("trace_uniform_T10.csv", "trace_uniform_T20.csv",
                  "trace_pin3_T10.csv", "trace_pin3_T20.csv"):
        assert os.path.exists(os.path.join(out, fname)), fname
    lines = read(os.path.join(out, "trace_pin3_T20.csv")).splitlines()
    assert lines[0] == "round_window_end,node_id,child_id,mean_selection_probability"
    assert lines[1:] == ["10,0,1,1.0", "20,0,1,1.0"]


def test_trace_rejects_horizons_shorter_than_the_window(tiny_config, tmp_path, capsys):
    # no full window fits in 50 rounds: trace used to exit 0 and write no trace file
    out = tmp_path / "out"
    assert main(["trace", "fig8-transient", "--t", "50", "--seeds", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: trace.window: 1000 ")
    assert "[50]" in err
    assert main(["trace", tiny_config, "--trace-window", "11", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: trace.window: 11 ")
    assert not out.exists()
    # run ignores the window, as before
    assert main(["run", "fig8-transient", "--t", "50", "--seeds", "1", "--out", str(out)]) == 0
    assert os.path.exists(out / "per_seed.csv")


def test_trace_requires_trace_section(tmp_path, capsys):
    path = tmp_path / "notrace.yaml"
    path.write_text(TINY_CONFIG.split("trace:")[0])
    assert main(["trace", str(path)]) == 1
    assert "no trace section" in capsys.readouterr().err
    # a window override alone does not make a trace section: trace still
    # reports it missing, and run and validate ignore the flag
    window = ["--trace-window", "5"]
    assert main(["trace", str(path), *window, "--out", str(tmp_path / "o")]) == 1
    assert "no trace section" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    assert main(["run", str(path), *window, "--out", str(tmp_path / "run")]) == 0
    assert os.path.exists(tmp_path / "run" / "per_seed.csv")
    assert main(["validate", str(path), *window]) == 0


def test_oracle_on_a_near_instant_deadline_link_runs(tmp_path):
    # validate accepts any finite rate; the deadline survival used to be NaN
    # at constant_rate 1e300, so exp_decay exited 1 and constant wrote nan
    path = tmp_path / "fast.yaml"
    path.write_text(
        "scenario: fast\n"
        "topology: {kind: uniform, fanout: 2, depth: 2}\n"
        "env: {kind: deadline_multihop, constant_rate: 1.0e300, deadline: 2.0}\n"
        "horizons: [10]\n"
        "seeds: 1\n"
        "policies:\n"
        "  - {name: oracle_chain, profile: exp_decay}\n"
        "  - {name: oracle_chain, profile: constant, label: constant}\n"
    )
    assert main(["validate", str(path)]) == 0
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert "nan" not in read(out / "per_seed.csv")


def test_numerical_error_exits_two(tiny_config, tmp_path, capsys, monkeypatch):
    import treebandit.cli as cli_mod

    def boom(*args, **kwargs):
        raise NumericalError("weights collapsed")

    monkeypatch.setattr(cli_mod, "run_experiment", boom)
    assert main(["run", tiny_config, "--out", str(tmp_path / "out")]) == 2
    assert "numerical error" in capsys.readouterr().err


@pytest.mark.parametrize("error_class, code, prefix", [
    (NumericalError, 2, "numerical error: "),
    (EngineError, 1, "error: "),
])
def test_a_worker_error_exits_as_at_jobs_one(
        error_class, code, prefix, tiny_config, tmp_path, capsys, monkeypatch):
    simulation = harness.Simulation

    def failing(topology, policies, env, feedback, entropy):
        if entropy[2] == 1:
            raise error_class(f"seed 1 failed at T={entropy[1]}")
        return simulation(topology, policies, env, feedback, entropy)

    monkeypatch.setattr(harness, "Simulation", failing)
    for jobs in ("1", "2"):
        assert main(["run", tiny_config, "--jobs", jobs, "--out", str(tmp_path / jobs)]) == code
        assert capsys.readouterr().err == f"{prefix}seed 1 failed at T=10\n"
        assert_no_child_left()
        assert not (tmp_path / jobs).exists()


@pytest.mark.skipif(worker_count(2) < 2, reason="--jobs 2 forks a child only with 2 usable "
                                                "cores and fork")
def test_a_dead_worker_is_one_error_line_and_exits_three(
        tiny_config, tmp_path, capsys, monkeypatch):
    simulation = harness.Simulation
    dead = tmp_path / "dead"
    test_pid = os.getpid()

    def dying_in_a_child(*args, **kwargs):
        if os.getpid() != test_pid:
            dead.write_text(str(os.getpid()))
            os._exit(3)
        # this process's first task waits, so that the child takes the second
        deadline = time.monotonic() + 10
        while not dead.exists() and time.monotonic() < deadline:
            time.sleep(0.005)
        return simulation(*args, **kwargs)

    monkeypatch.setattr(harness, "Simulation", dying_in_a_child)
    out = tmp_path / "out"
    assert main(["run", tiny_config, "--jobs", "2", "--out", str(out)]) == 3
    # tasks longest first: this process takes uniform T=20's seed 0, the child seed 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == (f"error: worker process {dead.read_text()} exited with code 3 before "
                       "returning the results of uniform T=20; rerun with --jobs 1 to run "
                       "every replication in one process")
    assert [line for line in err if "error" in line] == err[-1:]
    assert not out.exists()
    assert_no_child_left()
