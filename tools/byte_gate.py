"""Byte gate: compare the CLI outputs of a git revision's ``src/`` with the
working tree's.

Usage: python tools/byte_gate.py [REF]    (REF defaults to HEAD)

REF's ``src/`` is exported with ``git archive`` into a temporary directory.
Both sides then run the gate commands, once at the default ``--jobs`` and
once at ``--jobs 1``:

  run <each bundled scenario> --t 1000,3162 --seeds 2
  run <each perfbench/configs/*.yaml, by path> --t 1000,3162 --seeds 2
  trace fig8-transient
  trace fig8-transient --t 1000,3162 --seeds 2

Every output file is compared byte for byte, and the stderr lines with their
seconds masked. Each difference is printed; the exit code is 1 if there is
any, else 0.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GRID = ["--t", "1000,3162", "--seeds", "2"]
SECONDS = re.compile(r"\d+\.\ds\]$")


def gate_jobs() -> list[list[str]]:
    names = sorted(p.stem for p in (ROOT / "src" / "treebandit" / "scenarios").glob("*.yaml"))
    # no bundled scenario runs one-hop feedback; eg-onehop-f4d2 does
    names += sorted(str(p) for p in (ROOT / "perfbench" / "configs").glob("*.yaml"))
    return ([["run", name, *GRID] for name in names]
            + [["trace", "fig8-transient"], ["trace", "fig8-transient", *GRID]])


def export_src(ref: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref, "src"],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


def run_side(src: Path, work: Path, jobs_flag: list[str]) -> tuple[dict, list[str]]:
    """Run every gate command with ``src`` on the path, inside ``work``; returns
    {"<job>: <file name>": bytes} and the stderr lines, seconds masked."""
    env = dict(os.environ, PYTHONPATH=str(src))
    files, lines = {}, []
    for k, job in enumerate(gate_jobs()):
        out = f"out{k}"
        proc = subprocess.run([sys.executable, "-m", "treebandit.cli", *job, *jobs_flag,
                               "--out", out], cwd=work, env=env, capture_output=True, text=True)
        lines.append(f"$ {' '.join(job)}: exit {proc.returncode}")
        lines += [SECONDS.sub("<s>]", line) for line in proc.stderr.splitlines()]
        for path in sorted((work / out).glob("*")):
            files[f"{' '.join(job)}: {path.name}"] = path.read_bytes()
    return files, lines


def main(argv: list[str]) -> int:
    ref = argv[0] if argv else "HEAD"
    differences = 0
    with tempfile.TemporaryDirectory(prefix="byte_gate_") as tmp:
        tmp = Path(tmp)
        sides = {"ref": export_src(ref, tmp), "tree": ROOT / "src"}
        for jobs_name, jobs_flag in (("default", []), ("1", ["--jobs", "1"])):
            runs = {}
            for side, src in sides.items():
                work = tmp / f"{side}-jobs-{jobs_name}"
                work.mkdir()
                runs[side] = run_side(src, work, jobs_flag)
            (ref_files, ref_lines), (tree_files, tree_lines) = runs["ref"], runs["tree"]
            for name in sorted(ref_files.keys() | tree_files.keys()):
                if ref_files.get(name) != tree_files.get(name):
                    differences += 1
                    print(f"jobs={jobs_name}: {name} differs"
                          + ("" if name in ref_files and name in tree_files
                             else " (missing on one side)"))
            if ref_lines != tree_lines:
                differences += 1
                print(f"jobs={jobs_name}: stderr lines differ")
                for a, b in zip_longest(ref_lines, tree_lines, fillvalue=""):
                    if a != b:
                        print(f"  {ref}: {a}\n  tree: {b}")
            print(f"jobs={jobs_name}: {len(tree_files)} files compared, "
                  f"{len(tree_lines)} stderr lines compared")
    print(f"byte gate against {ref}: " + (f"{differences} differences" if differences
                                          else "all files identical, stderr equal up to seconds"))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
