"""Builds and loads ``_round.c``, the compiled rounds: ``run_block`` for
bandit feedback and ``run_onehop`` for one-hop feedback.

``load()`` compiles the library at its first call, never at import, with
sysconfig's ``CC`` and fixed flags (no fast-math, no host-specific code), and
caches it in this package's ``__pycache__`` under a name that hashes the
source, the command and the platform. It is written to a temp file beside its
final name and moved into place, so concurrent builders never see half a
file. Without a compiler, a writable cache or a successful build, ``load()``
returns None and its reason, and the engine keeps its Python route.
"""

from __future__ import annotations

import ctypes
import functools
import os
import tempfile
from pathlib import Path

from treebandit.policy import EpsilonExp3, Exp3Baseline, FeedbackModel, NormalizedEG

# the learners the compiled rounds run, each as its kind in _round.c's enum; a
# learner's ``accepts`` names the one feedback model, and so the entry, it runs under
KINDS = {EpsilonExp3: 1, Exp3Baseline: 2, NormalizedEG: 3}
SOURCE = Path(__file__).with_name("_round.c")
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


def _build(cache: Path) -> Path:
    """The cached library, compiled first if it is not cached yet."""
    import hashlib  # here, not at the top: importing the package stays as cheap
    import shlex
    import subprocess
    import sysconfig

    command = [*shlex.split(sysconfig.get_config_var("CC") or "cc"), *FLAGS]
    source = SOURCE.read_bytes()
    key = hashlib.sha256(repr((source, command, sysconfig.get_platform())).encode())
    lib = cache / f"_round-{key.hexdigest()[:16]}.so"
    if lib.exists():
        return lib
    cache.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=lib.stem + "-", suffix=".tmp", dir=cache)
    os.close(fd)
    try:
        done = subprocess.run([*command, str(SOURCE), "-o", tmp, "-lm"],
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise OSError(f"{command[0]} exited with {done.returncode}: {done.stderr.strip()}")
        os.chmod(tmp, 0o755)  # mkstemp's 0600 would keep other users on the Python route
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return lib


# a prototype of its own, so that ctypes.pythonapi's shared entry keeps its types
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def bitgen_address(generator) -> int:
    """The address of the ``bitgen_t`` behind a numpy Generator, from its bit
    generator's capsule (much cheaper than its ``ctypes`` interface)."""
    return _capsule_pointer(generator.bit_generator.capsule, b"BitGenerator")


@functools.cache
def load():
    """``(entries, None)``, the library's entry for each feedback model with its
    argument types, or ``(None, reason)`` when it cannot be built or loaded."""
    try:
        lib = ctypes.CDLL(str(_build(SOURCE.parent / "__pycache__")))
    except OSError as exc:
        return None, f"the compiled round is unavailable: {exc}"
    run_block, run_onehop = lib.run_block, lib.run_onehop
    ptr, i32 = ctypes.c_void_p, ctypes.c_int
    run_block.argtypes = [i32, i32] + [ptr] * 11 + [ctypes.c_double, ptr]
    run_onehop.argtypes = [i32, i32] + [ptr] * 13
    run_block.restype = run_onehop.restype = i32
    return {FeedbackModel.END_TO_END_BANDIT: run_block,
            FeedbackModel.COMPLETE_ONE_HOP: run_onehop}, None
