"""The package root exports exactly the names in ``__all__``, importing it
does not import numpy.random, multiprocessing or concurrent.futures, and the
deadline expected costs an oracle reads need no scipy."""

import os
import subprocess
import sys
import types
from pathlib import Path

import treebandit


def test_root_exports_exactly_all():
    public = {
        name for name, value in vars(treebandit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(treebandit.__all__)
    assert len(treebandit.__all__) == len(set(treebandit.__all__))
    for name in treebandit.__all__:
        assert getattr(treebandit, name) is not None


def _run_fresh(code: str) -> str:
    """stdout of ``code`` in a fresh interpreter, since this test process may
    have imported the module in question already."""
    package_root = str(Path(treebandit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=package_root)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_deadline_oracle_runs_without_scipy():
    # None in sys.modules makes every import of scipy raise ImportError
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from treebandit.harness import ExperimentConfig, run_experiment\n"
        "config = ExperimentConfig.from_dict({\n"
        "    'scenario': 'oracle-multihop',\n"
        "    'topology': {'kind': 'uniform', 'fanout': 2, 'depth': 3},\n"
        "    'env': {'kind': 'deadline_multihop'},\n"
        "    'horizons': [20], 'seeds': 1,\n"
        "    'policies': [{'name': 'oracle_chain'}],\n"
        "})\n"
        "print(len(run_experiment(config).seed_rows))\n"
    )
    assert _run_fresh(code) == "1"


def test_package_import_does_not_import_numpy_random():
    # node seeding defines its numpy.random subclass at the first run instead;
    # numpy 1.x imports numpy.random itself, so only what the package adds counts
    code = (
        "import sys, numpy\n"
        "loaded = 'numpy.random' in sys.modules\n"
        "import treebandit, treebandit.cli\n"
        "print('numpy.random' in sys.modules and not loaded)\n"
    )
    assert _run_fresh(code) == "False"


def test_package_import_does_not_import_the_process_pool():
    # run_experiment forks its workers with os.fork and each child sends its
    # results back through a pipe, so not even a parallel run imports them
    code = (
        "import sys\n"
        "import treebandit, treebandit.cli\n"
        "from treebandit.harness import ExperimentConfig, run_experiment\n"
        "config = ExperimentConfig.from_dict({\n"
        "    'scenario': 'tiny',\n"
        "    'topology': {'kind': 'uniform', 'fanout': 2, 'depth': 2},\n"
        "    'env': {'kind': 'bernoulli_tree', 'p_min': 0.2},\n"
        "    'horizons': [10, 20], 'seeds': 2,\n"
        "    'policies': [{'name': 'uniform'}],\n"
        "})\n"
        "assert len(run_experiment(config, jobs=2).seed_rows) == 4\n"
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])\n"
    )
    assert _run_fresh(code) == "[]"
