"""Pinned output bytes for every bundled scenario.

Criterion 10 compares two runs of one build with each other. These digests
were recorded from the per-round engine, before the round kernel fetched
environment costs and node draws in blocks, so any change to the kernel,
the environments' draws or the CSV writers that moves a byte fails here.
The two benchmark configs add the one-hop feedback model and the oracle's
expected-cost path, which no bundled scenario uses.

To record new digests after an intended output change, print
``output_digests(job, tmp_dir)`` for every job and replace ``GOLDEN``; say
why in the change that does it.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from treebandit.cli import main
from treebandit.harness import scenario_names

PERFBENCH_CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"
GRID = ["--t", "100,316", "--seeds", "2"]

# job -> {file name: sha256}; a job is "<command> <config>" plus any flags
GOLDEN = {
    "run fig10-multihop": {
        "per_seed.csv": "dc7871ead1de9d3dc6bff518d5e4d8f02d16dd25e96e1aad9c2ef52bcb774fa3",
        "results.csv": "71c8d0215fbeacfba757daef84cbbda48c8dfd952427bb8c4e5d0c62bb4a8fa3",
    },
    "run fig7-D2L2": {
        "per_seed.csv": "89878915229f5191a32ebe058ad96bbaac028c12e8b0068852585dfe5b236644",
        "results.csv": "41b85b58a1dc838324dc5d49cdefbcdb4caf8c277990580c21832c8cf18c42cb",
    },
    "run fig7-D2L3": {
        "per_seed.csv": "cde0c9376758e5b72e25ba286f08e291003cc8ae8ed98bcffca7848fe1798c65",
        "results.csv": "b95441225604d7cdbddc9645b1bd953d369e4c89aaab9af22a72dcc922541af9",
    },
    "run fig7-D2L4": {
        "per_seed.csv": "f27d642822cc363c2800df9b4aa8215b5ba065032cfd115937a4e408d3e547e2",
        "results.csv": "9b9cbc8112ee132ef9e17df8a80f74a620e97c2552ac79f2594285b196121649",
    },
    "run fig7-D4L2": {
        "per_seed.csv": "5012b3c11668b2c679e5b9eefb60a8f58e7508e0d91b98fafd0494503589289d",
        "results.csv": "e4558ad94db7ffc41d5cea44440061b860358e74dc2963778702c266de8cb908",
    },
    "run fig7-D4L3": {
        "per_seed.csv": "1f12f843521aca5c3b0a4445c60a06136313e9d486e52a6a0b79fc80c14b297f",
        "results.csv": "e7521badda1253d0d11b4a6bda849bd5f33bd3a88c261879674ffc2d186256db",
    },
    "run fig7-D4L4": {
        "per_seed.csv": "65ad1c02b2f9594e47715af967514c94a7d304acc56a57a2aee8deafa17ac0ce",
        "results.csv": "3583c730d087a6e03ab65fd2d6ce19ee88f0c050e0c4c5a16fb74dfb91b9f014",
    },
    "run fig8-transient": {
        "per_seed.csv": "ad957240e58302a65dfe0c78d04353bc91aeeec7c4d2969fec57856f816752c6",
        "results.csv": "98003ec0cd5ef1a832e9bfb14a959152de3a2b362662300a19e0e543f5b82238",
    },
    "run fig9-mec": {
        "per_seed.csv": "6370896563b70f81641835d11d7de088af3b144476ebed279b9ad6edd5447f9e",
        "results.csv": "7bcd8b568dab984bb884c2374578c8db24fe7a711f41dbaa1a267a930be53f86",
    },
    "run lowerbound-chain": {
        "per_seed.csv": "c2262914598ae7c823c68dc44fd5e187a4a77321574e4f039ed6c6dd570bf2eb",
        "results.csv": "5eb066f12254bd1410f1d129275dd945954078990ad662aebd123f2ebb22e45a",
    },
    # the scenario's 1000-round window emits no row at these horizons
    "trace fig8-transient --trace-window 10": {
        "per_seed.csv": "ad957240e58302a65dfe0c78d04353bc91aeeec7c4d2969fec57856f816752c6",
        "results.csv": "98003ec0cd5ef1a832e9bfb14a959152de3a2b362662300a19e0e543f5b82238",
        "trace_eps_exp3_T100.csv": "ccaa0d8a84baf563232741df2980f30a8a47cf928fbbc9970b29240543b88306",
        "trace_eps_exp3_T316.csv": "9278e1582c626165985e865b6bfe31e454aa358fb46f96546c9eab907ba6242c",
        "trace_exp3_T100.csv": "00d8c92969a7e0ddfcdea6536008acb06886e75a9ec2729d43bbd5202f0d0907",
        "trace_exp3_T316.csv": "6680e7464989e2ffefc03a6953d60c7f0cfa2ec96bec47d604eda3c4a3ee7be8",
    },
    "run eg-onehop-f4d2.yaml": {
        "per_seed.csv": "be77ce776bb44dd322310ee4dc4dc3d978b9050f0cdf98a5283d8a1c43bbafd4",
        "results.csv": "f88fa75991b3acb568ef47d6bafe7de8fe792fb579954b13e75e6a1b43fea799",
    },
    "run oracle-chain-d3.yaml": {
        "per_seed.csv": "c4c993497746827d51907bfb8299370df2c1a745130e170797a6bac590dbf4a8",
        "results.csv": "9223137d211d84e07a585a8fe8669354d07974579fbcc99336700b3d47eefded",
    },
}


def output_digests(job: str, out: Path) -> dict[str, str]:
    command, config, *flags = job.split()
    if config.endswith(".yaml"):
        config = str(PERFBENCH_CONFIGS / config)
    with contextlib.redirect_stderr(io.StringIO()):
        assert main([command, config, *GRID, *flags, "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


def test_every_bundled_scenario_is_pinned():
    pinned = {job.split()[1] for job in GOLDEN if job.startswith("run ")}
    assert set(scenario_names()) <= pinned


@pytest.mark.parametrize("job", sorted(GOLDEN))
def test_outputs_match_recorded_digests(job, tmp_path):
    assert output_digests(job, tmp_path) == GOLDEN[job]
