"""Acceptance suite: eleven end-to-end checks covering estimator moments,
regret ceilings, growth-rate slopes, baseline failure modes, transient
recovery, the hard-instance chain, the anytime wrapper, CLI determinism,
and randomized property suites.

Each test prints exactly one `criterion N: PASS/FAIL` line (run pytest with
`-s` to see the lines inline). Tolerances are pinned in the assertions.
"""

import copy
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import treebandit
from treebandit.engine import FeedbackModel, Simulation
from treebandit.env import BernoulliTreeEnv, LowerBoundChainEnv
from treebandit.harness import (
    ExperimentConfig,
    fit_loglog_slope,
    load_scenario,
    run_experiment,
)
from treebandit.policy import (
    EpsilonExp3,
    Exp3Baseline,
    ModeDraw,
    NormalizedEG,
    stable_softmax,
)
from treebandit.topology import build_uniform_tree

MASTER_SEED = 20240517
T_MAIN = 100_000


def report(num: int, passed: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num}: {detail}"


def make_config(policies, env, horizons, seeds=20, topology=None, trace=None):
    raw = {
        "scenario": "acceptance",
        "topology": topology or {"kind": "uniform", "fanout": 2, "depth": 2},
        "env": env,
        "policies": policies,
        "horizons": horizons,
        "seeds": seeds,
        "master_seed": MASTER_SEED,
    }
    if trace is not None:
        raw["trace"] = trace
    return ExperimentConfig.from_dict(raw)


def shifted_env():
    """Four-leaf cost means 1.0/0.6/0.4/0.2; the worst leaf drops to 0 at T/100."""
    return {"kind": "bernoulli_tree", "p_min": 0.2, "shift_fraction": 0.01}


# --------------------------------------------------------------------------
# criteria 1-2: score-estimator moments


def mc_estimator_stats(n_draws=1_000_000, n_configs=10):
    """Monte-Carlo moments of the bandit score decrement for random configs.

    Each config freezes (theta, eta, epsilon, v, y) and a target child j;
    draws replay the full event chain: job arrival with probability v, then
    the mode split, then the child draw, with the decrement magnitudes taken
    from the policy's own update rule.
    """
    cfg_rng = np.random.default_rng(412978563)
    out = []
    for k in range(n_configs):
        K = 2 if k % 2 == 0 else 4
        eta = float(cfg_rng.uniform(0.05, 0.5))
        eps = float(cfg_rng.uniform(0.0, 0.5))
        v = float(cfg_rng.uniform(0.05, 1.0))
        y = float(cfg_rng.uniform(0.05, 1.0))
        j = int(cfg_rng.integers(K))
        pol = EpsilonExp3(K, eta=eta, epsilon=eps)
        for _ in range(int(cfg_rng.integers(0, 4))):
            pol.update(
                ModeDraw("U", int(cfg_rng.integers(K))),
                float(cfg_rng.uniform(0.05, 0.3)),
                1.0,
            )

        def dec_of(mode):
            clone = copy.deepcopy(pol)
            before = clone.theta[j]
            clone.update(ModeDraw(mode, j), y, v)
            return before - clone.theta[j]

        z_uniform, z_exploit = dec_of("U"), dec_of("E")
        soft = np.asarray(pol.exploit_probs())

        draw_rng = np.random.default_rng(900 + k)
        received = draw_rng.random(n_draws) < v
        mode_u = draw_rng.random(n_draws) < eps
        pick_u = draw_rng.integers(K, size=n_draws)
        pick_e = draw_rng.choice(K, size=n_draws, p=soft / soft.sum())
        z = np.where(
            received & mode_u & (pick_u == j),
            z_uniform,
            np.where(received & ~mode_u & (pick_e == j), z_exploit, 0.0),
        )
        z2 = z * z
        ratio_sum = float(np.sum(np.exp(eta * (np.asarray(pol.theta) - pol.theta[j]))))
        out.append(
            {
                "mean_z": float(z.mean()),
                "sem_z": float(z.std(ddof=1) / math.sqrt(n_draws)),
                "target_z": y,
                "mean_z2": float(z2.mean()),
                "sem_z2": float(z2.std(ddof=1) / math.sqrt(n_draws)),
                "target_z2": (eps * K + (1.0 - eps) * ratio_sum) * y * y / v,
            }
        )
    return out


@pytest.fixture(scope="module")
def estimator_mc():
    return mc_estimator_stats()


def test_criterion_01_estimator_first_moment(estimator_mc):
    """Mean decrement equals the frozen child cost for every random config."""
    sigmas = [
        abs(s["mean_z"] - s["target_z"]) / s["sem_z"] for s in estimator_mc
    ]
    report(
        1,
        max(sigmas) <= 4.0,
        f"10 configs, 1e6 draws each: max |mean(z) - y|/sem = {max(sigmas):.2f} (limit 4)",
    )


def test_criterion_02_estimator_second_moment(estimator_mc):
    """Mean squared decrement matches its closed form for every config."""
    sigmas = [
        abs(s["mean_z2"] - s["target_z2"]) / s["sem_z2"] for s in estimator_mc
    ]
    report(
        2,
        max(sigmas) <= 4.0,
        f"10 configs, 1e6 draws each: max |mean(z^2) - closed form|/sem = {max(sigmas):.2f} (limit 4)",
    )


# --------------------------------------------------------------------------
# criterion 3: one-hop regret ceiling


def test_criterion_03_one_hop_regret_ceiling():
    """Exponential weights under full child feedback stays under 2L*sqrt(T ln D)."""
    cfg = make_config(
        [{"name": "normalized_eg"}],
        {"kind": "bernoulli_tree", "p_min": 0.2},
        [T_MAIN],
    )
    res = run_experiment(cfg)
    regrets = [row.regret for row in res.seed_rows]
    bound = 2 * 2 * math.sqrt(T_MAIN * math.log(2))
    worst = max(regrets)
    report(
        3,
        worst <= bound and len(regrets) == 20,
        f"per-seed regret max {worst:.1f}, mean {np.mean(regrets):.1f}, "
        f"ceiling {bound:.1f} (20 seeds, T={T_MAIN})",
    )


# --------------------------------------------------------------------------
# criteria 4 and 9: bandit regret ceiling and the anytime overhead


@pytest.fixture(scope="module")
def mixture_regret_mean():
    cfg = make_config([{"name": "eps_exp3"}], shifted_env(), [T_MAIN])
    res = run_experiment(cfg)
    return float(np.mean([row.regret for row in res.seed_rows]))


def test_criterion_04_bandit_regret_ceiling(mixture_regret_mean):
    """Horizon-tuned mixture policy stays under ((2L-1)D + L ln D) T^{L/(L+1)}."""
    L, D = 2, 2
    bound = ((2 * L - 1) * D + L * math.log(D)) * T_MAIN ** (L / (L + 1))
    report(
        4,
        mixture_regret_mean <= bound,
        f"mean regret {mixture_regret_mean:.1f} <= ceiling {bound:.1f} "
        f"(20 seeds, T={T_MAIN}, shift at T/100)",
    )


# --------------------------------------------------------------------------
# criteria 5-6: growth-rate slopes on the bundled horizon grids


@pytest.fixture(scope="module")
def grid_d2l2_results():
    return run_experiment(ExperimentConfig.from_dict(load_scenario("fig7-D2L2")))


def test_criterion_05_sublinear_regret_slopes(grid_d2l2_results):
    """Mixture-policy regret grows like T^{L/(L+1)} on the D=2 grids."""
    slope_l2 = fit_loglog_slope(grid_d2l2_results.regret_by_T("eps_exp3").items())
    raw = load_scenario("fig7-D2L3")
    raw["policies"] = [p for p in raw["policies"] if p["name"] == "eps_exp3"]
    slope_l3 = fit_loglog_slope(
        run_experiment(ExperimentConfig.from_dict(raw)).regret_by_T("eps_exp3").items()
    )
    ok = abs(slope_l2 - 2 / 3) <= 0.1 and abs(slope_l3 - 3 / 4) <= 0.1
    report(
        5,
        ok,
        f"log-log slopes: depth 2 {slope_l2:.3f} (target 0.667+-0.1), "
        f"depth 3 {slope_l3:.3f} (target 0.750+-0.1)",
    )


def test_criterion_06_per_node_baseline_linear_regret(grid_d2l2_results):
    """Per-node importance weighting without receive-probability correction
    keeps paying the pre-shift optimum: constant time-average regret and a
    log-log slope of 1 on the horizon grid."""
    cfg = make_config(
        [{"name": "exp3", "gamma": 0.002, "eta": "shift_matched", "eta_scale": 10.0}],
        shifted_env(),
        [T_MAIN],
    )
    res = run_experiment(cfg)
    ta = float(np.mean([row.regret / row.T for row in res.seed_rows]))
    slope = fit_loglog_slope(grid_d2l2_results.regret_by_T("exp3").items())
    report(
        6,
        ta >= 0.15 and abs(slope - 1.0) <= 0.1,
        f"time-average regret {ta:.4f} (floor 0.15) at T={T_MAIN}; "
        f"grid slope {slope:.3f} (target 1.0+-0.1)",
    )


# --------------------------------------------------------------------------
# criterion 7: transient response to the cost shift


def test_criterion_07_shift_recovery_transient():
    """After the worst subtree becomes best, the mixture policy switches the
    root into it while the per-node baseline never does."""
    cfg = ExperimentConfig.from_dict(load_scenario("fig8-transient"))
    res = run_experiment(cfg, with_trace=True)
    T = cfg.horizons[0]
    shift_round = round(T * cfg.env["shift_fraction"])

    def root_probs(label):
        return [
            (window_end, prob)
            for window_end, node, child, prob in res.traces[(label, T)]
            if (node, child) == (0, 1)
        ]

    baseline_post = [p for we, p in root_probs("exp3") if we > shift_round]
    mixture_final = root_probs("eps_exp3")[-1][1]
    ok = max(baseline_post) < 0.05 and mixture_final > 0.5
    report(
        7,
        ok,
        f"baseline root->shifted-subtree windowed prob max {max(baseline_post):.4f} "
        f"after the shift (limit 0.05); mixture final window {mixture_final:.4f} (floor 0.5)",
    )


# --------------------------------------------------------------------------
# criterion 8: hard-instance chain and the oracle's regret growth


def test_criterion_08_chain_environment_and_oracle_slope():
    """The chain environment exposes the pinned mean ladder, and the oracle
    policy's regret grows at least like T^{(L-1)/L}."""
    details = []
    ok = True
    for L in (2, 3):
        delta = 2.0 ** -(L + 1)
        env = LowerBoundChainEnv(L, delta)
        means = sorted(env.expected_costs(1))
        shallow = [(1 - (2**L - 2**k) * delta) / 2 for k in range(L - 1)]
        expected = sorted(shallow + [(1 - 2**L * delta) / 2, (1 + 2**L * delta) / 2])
        ladder_ok = np.allclose(means, expected, atol=1e-12) and min(means) == (
            pytest.approx((1 - 2**L * delta) / 2, abs=1e-12)
        )
        cfg = make_config(
            [{"name": "oracle_chain"}],
            {"kind": "lower_bound_chain", "delta": delta},
            [1_000, 10_000, 100_000],
            topology={"kind": "chain", "depth": L},
        )
        res = run_experiment(cfg)
        slope = fit_loglog_slope(res.regret_by_T("oracle_chain").items())
        floor = (L - 1) / L - 0.15
        ok = ok and ladder_ok and slope >= floor
        details.append(f"L={L}: ladder exact, slope {slope:.3f} >= {floor:.3f}")
    report(8, ok, "; ".join(details))


def test_criterion_09_anytime_overhead_factor(mixture_regret_mean):
    """Doubling-trick restarts cost at most a factor 4 over the tuned run."""
    cfg = make_config([{"name": "anytime_eps_exp3"}], shifted_env(), [T_MAIN])
    res = run_experiment(cfg)
    anytime_mean = float(np.mean([row.regret for row in res.seed_rows]))
    ratio = anytime_mean / mixture_regret_mean
    report(
        9,
        ratio <= 4.0,
        f"anytime mean regret {anytime_mean:.1f} vs fixed-horizon "
        f"{mixture_regret_mean:.1f}: ratio {ratio:.2f} (limit 4)",
    )


# --------------------------------------------------------------------------
# criterion 10: CLI byte determinism


def run_cli(args, cwd):
    """Run the CLI in a fresh interpreter that imports the same `treebandit`
    directory as this test process.

    The path is absolute because a relative PYTHONPATH entry such as `src`
    no longer resolves once `cwd` is the temporary directory.
    """
    package_root = str(Path(treebandit.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        package_root + os.pathsep + inherited if inherited else package_root
    )
    cmd = [
        sys.executable,
        "-c",
        "import sys; from treebandit.cli import main; sys.exit(main(sys.argv[1:]))",
    ] + args
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)


def test_criterion_10_cli_byte_determinism(tmp_path):
    """Rerunning bundled configs with the same master seed reproduces every
    CSV byte for byte, including trace files."""
    jobs = [
        ("run", "fig7-D2L2", ["--t", "1000,3162", "--seeds", "2"]),
        ("trace", "fig8-transient", ["--t", "4000", "--seeds", "2"]),
    ]
    ok = True
    compared = 0
    for command, scenario, extra in jobs:
        outputs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{scenario}-{attempt}"
            proc = run_cli(
                [command, scenario, *extra, "--out", str(out)], cwd=str(tmp_path)
            )
            if proc.returncode != 0:
                stderr_tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
                report(
                    10,
                    False,
                    f"`{command} {scenario}` exited {proc.returncode}:\n{stderr_tail}",
                )
            outputs.append(
                {
                    name: (out / name).read_bytes()
                    for name in sorted(os.listdir(out))
                }
            )
        ok = ok and outputs[0] == outputs[1] and len(outputs[0]) >= 2
        compared += len(outputs[0])
    report(
        10,
        ok,
        f"2 bundled configs rerun via the CLI: {compared} CSV files byte-identical",
    )


# --------------------------------------------------------------------------
# criterion 11: randomized property suites


def random_tree(rng):
    return build_uniform_tree(int(rng.integers(2, 4)), int(rng.integers(1, 4)))


def random_sim(rng, policy_for, means=None, feedback=FeedbackModel.END_TO_END_BANDIT):
    topology = random_tree(rng)
    n = len(topology.leaves)
    env = BernoulliTreeEnv(list(means or rng.uniform(0.0, 1.0, size=n)))
    policies = {
        node: policy_for(len(topology.children[node]), rng)
        for node in topology.non_leaves
    }
    entropy = (int(rng.integers(2**31)),)
    return topology, policies, Simulation(topology, policies, env, feedback, entropy)


def check_simplex(dist, floor=0.0):
    dist = list(dist)
    assert abs(sum(dist) - 1.0) <= 1e-12
    assert all(p >= 0.0 for p in dist)
    assert all(p >= floor - 1e-15 for p in dist)


def suite_simplex(trials=1000):
    rng = np.random.default_rng(11)
    for _ in range(trials):
        K = int(rng.integers(2, 6))
        kind = rng.integers(3)
        if kind == 0:
            eps = float(rng.uniform(0.0, 1.0))
            pol = EpsilonExp3(K, eta=float(rng.uniform(0.001, 1.0)), epsilon=eps)
            floor = eps / K
        elif kind == 1:
            pol = NormalizedEG(K, eta=float(rng.uniform(0.001, 1.0)))
            floor = 0.0
        else:
            gamma = float(rng.uniform(0.0, 1.0))
            pol = Exp3Baseline(K, eta=float(rng.uniform(0.001, 1.0)), gamma=gamma)
            floor = gamma / K
        check_simplex(pol.distribution(), floor)
        for _ in range(int(rng.integers(1, 5))):
            cost = float(rng.uniform(0.0, 1.0))
            if kind == 1:
                pol.observe_all(list(rng.uniform(0.0, 1.0, size=K)))
            else:
                draw = pol.select(np.random.default_rng(int(rng.integers(2**31))))
                pol.update(draw, cost, float(rng.uniform(0.05, 1.0)))
            check_simplex(pol.distribution(), floor)
    return trials


def suite_v_product(rounds=1000):
    rng = np.random.default_rng(22)
    done = 0
    while done < rounds:
        topology, policies, sim = random_sim(
            rng,
            lambda K, r: EpsilonExp3(
                K, eta=float(r.uniform(0.01, 0.5)), epsilon=float(r.uniform(0.0, 0.5))
            ),
        )
        for t in range(1, 11):
            snapshot = {
                node: list(policies[node].distribution())
                for node in topology.non_leaves
            }
            outcome = sim.run_round(t)
            assert outcome.receive_probs[0] == 1.0
            for k in range(len(outcome.path) - 1):
                node, child = outcome.path[k], outcome.path[k + 1]
                pos = topology.children[node].index(child)
                expected = outcome.receive_probs[k] * snapshot[node][pos]
                assert abs(outcome.receive_probs[k + 1] - expected) <= 1e-12
                assert outcome.receive_probs[k + 1] <= outcome.receive_probs[k] + 1e-15
            done += 1
            if done >= rounds:
                break
    return rounds


def suite_theta_monotone(rounds=1000):
    rng = np.random.default_rng(33)
    done = 0
    while done < rounds:
        one_hop = bool(rng.integers(2))
        if one_hop:
            topology, policies, sim = random_sim(
                rng,
                lambda K, r: NormalizedEG(K, eta=float(r.uniform(0.01, 0.5))),
                feedback=FeedbackModel.COMPLETE_ONE_HOP,
            )
        else:
            topology, policies, sim = random_sim(
                rng,
                lambda K, r: EpsilonExp3(
                    K,
                    eta=float(r.uniform(0.01, 0.5)),
                    epsilon=float(r.uniform(0.0, 0.5)),
                ),
            )
        for t in range(1, 11):
            before = {n: list(policies[n].theta) for n in topology.non_leaves}
            sim.run_round(t)
            for n in topology.non_leaves:
                for old, new in zip(before[n], policies[n].theta):
                    assert new <= old + 1e-15
            done += 1
            if done >= rounds:
                break
    return rounds


def suite_eg_closed_form(trials=1000):
    rng = np.random.default_rng(44)
    for _ in range(trials):
        K = int(rng.integers(2, 6))
        eta = float(rng.uniform(0.01, 1.0))
        steps = int(rng.integers(1, 31))
        costs = rng.uniform(0.0, 1.0, size=(steps, K))
        pol = NormalizedEG(K, eta=eta)
        for row in costs:
            pol.observe_all(list(row))
        closed = stable_softmax(list(-costs.sum(axis=0)), eta)
        for got, want in zip(pol.distribution(), closed):
            assert abs(got - want) <= 1e-10
    return trials


def suite_feedback_isolation(rounds=1000):
    rng = np.random.default_rng(55)
    done = 0
    while done < rounds:
        one_hop = bool(rng.integers(2))
        if one_hop:
            topology, policies, sim = random_sim(
                rng,
                lambda K, r: NormalizedEG(K, eta=float(r.uniform(0.01, 0.5))),
                means=None,
                feedback=FeedbackModel.COMPLETE_ONE_HOP,
            )
        else:
            topology, policies, sim = random_sim(
                rng,
                lambda K, r: EpsilonExp3(
                    K,
                    eta=float(r.uniform(0.01, 0.5)),
                    epsilon=float(r.uniform(0.0, 0.5)),
                ),
            )
        for t in range(1, 11):
            before = {n: list(policies[n].theta) for n in topology.non_leaves}
            outcome = sim.run_round(t)
            path = set(outcome.path)
            for n in topology.non_leaves:
                deltas = [
                    old - new for old, new in zip(before[n], policies[n].theta)
                ]
                if one_hop:
                    # Raw one-hop costs: every node observes all children,
                    # and each decrement is that child's realized 0/1 cost.
                    assert all(d in (0.0, 1.0) for d in deltas)
                elif n not in path:
                    assert deltas == [0.0] * len(deltas)
                else:
                    changed = [k for k, d in enumerate(deltas) if d != 0.0]
                    child = outcome.path[outcome.path.index(n) + 1]
                    pos = topology.children[n].index(child)
                    if outcome.realized_cost > 0.0:
                        assert changed == [pos]
                        assert deltas[pos] > 0.0
                    else:
                        assert changed == []
            done += 1
            if done >= rounds:
                break
    return rounds


def test_criterion_11_property_suites():
    """Five randomized property suites, 1000 trials each."""
    counts = {
        "simplex": suite_simplex(),
        "v-product": suite_v_product(),
        "theta-monotone": suite_theta_monotone(),
        "closed-form": suite_eg_closed_form(),
        "feedback-isolation": suite_feedback_isolation(),
    }
    ok = all(count >= 1000 for count in counts.values())
    report(
        11,
        ok,
        "; ".join(f"{name} x{count}" for name, count in counts.items()),
    )
