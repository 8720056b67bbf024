"""The package root exports exactly the names in ``__all__``, importing it
does not import numpy.random, multiprocessing or concurrent.futures, nor
builds or loads the compiled round, and the deadline expected costs an oracle
reads need no scipy. Without a compiler or a writable cache a copy of the
package runs on the Python route, with the same bytes; wherever a compiler
is found, the compiled round builds."""

import hashlib
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import types
from pathlib import Path

import pytest
from test_golden_outputs import GOLDEN, GRID

import treebandit
from treebandit import _round

PACKAGE = Path(treebandit.__file__).resolve().parent


def test_root_exports_exactly_all():
    public = {
        name for name, value in vars(treebandit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(treebandit.__all__)
    assert len(treebandit.__all__) == len(set(treebandit.__all__))
    for name in treebandit.__all__:
        assert getattr(treebandit, name) is not None


def _run_fresh(code: str, package_root: Path = PACKAGE.parent, **env_vars) -> str:
    """stdout of ``code`` in a fresh interpreter, since this test process may
    have imported the module in question already; ``env_vars`` override the
    environment."""
    env = dict(os.environ, PYTHONPATH=str(package_root), **env_vars)
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


def test_package_import_neither_builds_nor_loads_the_compiled_round():
    code = (
        "import treebandit, treebandit.cli\n"
        "from treebandit import _round\n"
        "print(_round.load.cache_info().currsize)\n"
    )
    assert _run_fresh(code) == "0"


def _golden_run_from_a_copy(tmp_path: Path, unwritable_cache: bool = False, **env_vars) -> str:
    """Copies the package without its cache, runs ``run fig7-D2L2`` at the
    golden grid from the copy in a fresh interpreter, checks the output
    digests and that no library was cached; returns the loader's reason."""
    root = tmp_path / "src"
    shutil.copytree(PACKAGE, root / "treebandit", ignore=shutil.ignore_patterns("__pycache__"))
    cache = root / "treebandit" / "__pycache__"
    if unwritable_cache:
        cache.mkdir()
        cache.chmod(0o555)
        if os.access(cache, os.W_OK):  # root writes to read-only directories, not into files
            cache.rmdir()
            cache.write_text("")
    out = tmp_path / "out"
    code = (
        "from treebandit import _round\n"
        "from treebandit.cli import main\n"
        f"assert main(['run', 'fig7-D2L2', *{GRID!r}, '--out', {str(out)!r}]) == 0\n"
        "print(_round.load()[1])\n"
    )
    reason = _run_fresh(code, root, **env_vars)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == GOLDEN["run fig7-D2L2"]
    assert not cache.is_dir() or not list(cache.glob("_round-*"))
    return reason


def test_a_copy_without_a_compiler_runs_on_the_python_route(tmp_path):
    (tmp_path / "bin").mkdir()
    reason = _golden_run_from_a_copy(tmp_path, PATH=str(tmp_path / "bin"))
    assert reason.startswith("the compiled round is unavailable: ")


def test_a_copy_with_an_unwritable_cache_runs_on_the_python_route(tmp_path):
    reason = _golden_run_from_a_copy(tmp_path, unwritable_cache=True)
    assert reason.startswith("the compiled round is unavailable: ")


def test_the_compiled_round_source_ships_with_the_package():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())
    assert "_round.c" in pyproject["tool"]["setuptools"]["package-data"]["treebandit"]


def test_the_compiled_round_builds_wherever_a_compiler_is_found():
    # every compiled-round test skips on the loader's reason, and the Python
    # route writes the same bytes, so only this test fails on a _round.c that
    # does not compile; it looks for the compiler as _round._build does
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
    if shutil.which(compiler) is None:
        pytest.skip(f"no compiler {compiler!r} on PATH")
    if not os.access(PACKAGE, os.W_OK):
        pytest.skip(f"the package directory {PACKAGE} is not writable")
    entries, reason = _round.load()
    assert entries is not None, reason
