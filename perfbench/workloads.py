"""The benchmark's workloads and how each one's configs are built.

A workload is a fixed list of experiment configs. One *pass* runs every
config once through ``run_experiment`` and ``write_outputs``; a run repeats
passes for its measuring time. The workload seed becomes every config's
``master_seed``, so the same seed gives the same inputs and the same bytes.

Why each workload exists is written in ``README.md`` beside this file.
"""

from __future__ import annotations

import os

DEFAULT_SEED = 20240517
CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")

# name -> [(label, source, overrides)]. A source ending in .yaml is a file in
# configs/ loaded with load_config_file; any other source is a bundled
# scenario loaded with load_scenario. Overrides replace top-level keys, the
# way the CLI's --t and --seeds flags do.
WORKLOADS: dict[str, list[tuple[str, str, dict]]] = {
    "bandit-D4L4": [
        ("fig7-D4L4", "fig7-D4L4", {"horizons": [3162, 10000], "seeds": 1}),
    ],
    "deadline-multihop": [
        ("fig10-multihop", "fig10-multihop", {"horizons": [3162, 10000], "seeds": 1}),
    ],
    "expected-cost-onehop": [
        ("oracle-chain-d3", "oracle-chain-d3.yaml", {}),
        ("eg-onehop-f4d2", "eg-onehop-f4d2.yaml", {}),
    ],
    "short-horizons": [
        ("fig7-D4L4-short", "fig7-D4L4", {"horizons": [100, 316], "seeds": 25}),
    ],
}

# The self-test's size: every config shrunk to two short horizons.
TINY_OVERRIDES = {"horizons": [20, 50], "seeds": 2}


def raw_configs(harness, workload: str, seed: int, tiny: bool = False) -> list[tuple[str, dict]]:
    """Load every config of ``workload`` as a raw dict, seeded with ``seed``."""
    out = []
    for label, source, overrides in WORKLOADS[workload]:
        if source.endswith(".yaml"):
            raw = harness.load_config_file(os.path.join(CONFIG_DIR, source))
        else:
            raw = harness.load_scenario(source)
        raw = dict(raw)
        raw.update(TINY_OVERRIDES if tiny else overrides)
        raw["master_seed"] = seed
        out.append((label, raw))
    return out


def seed_rounds(config) -> int:
    """Rounds one run_experiment call on ``config`` simulates, over all seeds."""
    return len(config.policies) * sum(config.horizons) * config.seeds


def replications(config) -> int:
    """run_one calls one run_experiment call on ``config`` makes."""
    return len(config.policies) * len(config.horizons) * config.seeds
