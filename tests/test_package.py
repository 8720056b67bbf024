"""The package root exports exactly the names in ``__all__``, and loading
the CLI and a config does not import scipy.linalg."""

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


def test_cli_and_config_load_do_not_import_scipy_linalg():
    # a fresh interpreter, since this test process may have imported scipy already
    package_root = str(Path(treebandit.__file__).resolve().parent.parent)
    code = (
        "import sys, treebandit.cli\n"
        "from treebandit.harness import ExperimentConfig, load_scenario\n"
        "ExperimentConfig.from_dict(load_scenario('fig10-multihop'))\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=package_root)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
