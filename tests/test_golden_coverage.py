"""Pinned output bytes for configs that no bundled scenario covers.

``test_golden_outputs.py`` pins the bundled scenarios and the two benchmark
configs. These four configs reach what those leave out: explicit Bernoulli
means with a shift at a named leaf, the learners and parameter spellings no
bundled scenario uses, a trace on a depth-3 tree, the chain environment's
default ``delta`` with its best leaf last, the CSV replay environment, and
the oracle on a deadline environment.

To record new digests after an intended output change, print
``output_digests(job, tmp_dir)`` for every job and replace ``GOLDEN``; say
why in the change that does it.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest
import yaml

from treebandit.cli import main

GRID = ["--t", "100,316", "--seeds", "2"]

CONFIGS = {
    "learners": {
        "topology": {"kind": "uniform", "fanout": 2, "depth": 3},
        "env": {"kind": "bernoulli_tree",
                "means": [0.9, 0.7, 0.6, 0.5, 0.8, 0.4, 0.3, 0.2],
                "shift_round": 150, "shift_leaf": 11},
        "trace": {"window": 50, "watched": [[0, 1], [1, 3]]},
        "policies": [
            {"name": "anytime_eps_exp3"},
            {"name": "eps_exp3", "eta": 0.05, "epsilon": 0.2},
            {"name": "exp3", "gamma": 0.1, "eta": 0.02},
            {"name": "uniform"},
            {"name": "stationary", "leaf": 11},
            {"name": "oracle_chain"},
        ],
    },
    "chain": {
        "topology": {"kind": "chain", "depth": 3},
        "env": {"kind": "lower_bound_chain", "best_last_leaf": True},
        "policies": [{"name": "oracle_chain", "profile": "exp_decay", "q": 0.3},
                     {"name": "uniform"}],
    },
    "csv": {
        "topology": {"kind": "uniform", "fanout": 3, "depth": 2},
        "env": {"kind": "csv", "path": "costs.csv"},
        "policies": [{"name": "normalized_eg", "eta": 0.3},
                     {"name": "stationary", "leaf": 8}],
    },
    "deadline-oracle": {
        "topology": {"kind": "uniform", "fanout": 2, "depth": 2},
        "env": {"kind": "deadline_mec", "ramp": [3, 50], "deadline": 0.8},
        "policies": [{"name": "oracle_chain"}],
    },
}

# job -> {file name: sha256}; a job is "<command> <config>"
GOLDEN = {
    "run chain": {
        "per_seed.csv": "e051c3164e58313a8f93619148a23b9e187b94920a38c56d2caac5edb4ae7283",
        "results.csv": "3d485b2e8d9c19155634ccb25b3a81bc3310e063d1d2cfd1ddb42fefe9af1b61",
    },
    "run csv": {
        "per_seed.csv": "d13f56c90ca712f32289e5ea8111b811010ef25762ff64716d02dc31f772b8b4",
        "results.csv": "9d5f13fe6a4e6f752abbede9d8a4263fd97be9322738b5f81227d97bd598bf2d",
    },
    "run deadline-oracle": {
        "per_seed.csv": "27ad79f12c3c39f3b6639e85acb7b377e1334e2e11609aed2413fdac994c01cc",
        "results.csv": "ae72fa4da1b08a35dba1ad83af653bcd79e654dff13db9ce4524314e68e1e5ee",
    },
    "run learners": {
        "per_seed.csv": "c95d82c474be8047d4396bb1a8578ebeda459a83ac289d355be5ce5d71b35a9b",
        "results.csv": "682dcf52a93b18d45302345f893a7c3f784e3bc9fe28b6808dd5ea2a511b3498",
    },
    "trace learners": {
        "per_seed.csv": "c95d82c474be8047d4396bb1a8578ebeda459a83ac289d355be5ce5d71b35a9b",
        "results.csv": "682dcf52a93b18d45302345f893a7c3f784e3bc9fe28b6808dd5ea2a511b3498",
        "trace_anytime_eps_exp3_T100.csv":
            "46fd24d7ba118e2b998e76d25511a6df6b2ae44dc47b94b024ac0b25a028d5b2",
        "trace_anytime_eps_exp3_T316.csv":
            "d5dc2f8468c9d31e29663c7db4875c790f5c556d8c267056815bc608adef0207",
        "trace_eps_exp3_T100.csv": "833ff5defeef18266125413c1b1dc471796dc01587ebaff4168bda8caa3bdb7f",
        "trace_eps_exp3_T316.csv": "cbf7efef572589e6d500829144df3a26aa04c67444d44473e03a06bd01298ea7",
        "trace_exp3_T100.csv": "55d8b63645009a23c12ef74ba000f177e00c0f7e7efc8fe36fcdfc80168edc75",
        "trace_exp3_T316.csv": "d2b2760b90f66c424e6da7386efe9d55fd57d88df6c0beffe2277182856604e8",
        "trace_oracle_chain_T100.csv":
            "f40cd4393fc505f8b8de613ff203d658528e1a4ba78d09cd60708e7dee4032af",
        "trace_oracle_chain_T316.csv":
            "aa4ecd8e231c29d7732c245b1106ca01fc78b4545a216ed111b2201908e6a33a",
        "trace_stationary_T100.csv":
            "2767dd0d6708990efa22928725f9522c262167da6bd43675e8f9470183530fd0",
        "trace_stationary_T316.csv":
            "ff62aae64e2fa97ebdbc4e44234676999f174e22c11a700101029c71d9890089",
        "trace_uniform_T100.csv": "1f4fc4434112e60a08e4dc2cb20470f3a40db9248f29988bed33a52f08178304",
        "trace_uniform_T316.csv": "762e26a9c0343ec802538b80e9ecfe69cd26aa548103179afe251bfdb192c5c6",
    },
}


def write_config(name: str, where: Path) -> Path:
    """Write config ``name`` as YAML under ``where``; the csv config also gets
    its 316-round cost matrix, leaf k costing ((7t + 3k) % 11) / 10 at round t."""
    raw = {"scenario": name, "horizons": [1000], "seeds": 1, **CONFIGS[name]}
    if name == "csv":
        leaves = range(4, 13)
        rows = [",".join(map(str, leaves))]
        rows += [",".join(str(((7 * t + 3 * k) % 11) / 10) for k in range(len(leaves)))
                 for t in range(1, 317)]
        matrix = where / "costs.csv"
        matrix.write_text("\n".join(rows) + "\n")
        raw["env"] = {**raw["env"], "path": str(matrix)}
    path = where / f"{name}.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def output_digests(job: str, tmp: Path) -> dict[str, str]:
    command, name = job.split()
    config = write_config(name, tmp)
    out = tmp / "out"
    with contextlib.redirect_stderr(io.StringIO()):
        assert main([command, str(config), *GRID, "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


@pytest.mark.parametrize("job", sorted(GOLDEN))
def test_outputs_match_recorded_digests(job, tmp_path):
    assert output_digests(job, tmp_path) == GOLDEN[job]
