#!/usr/bin/env python3
"""Run tier-1 and the benchmark smoke under every installed interpreter.

For each of ``~/.pyenv/versions/{3.10.13,3.11.7,3.12.1,3.13.0}`` that
exists, and for ``PYTHONHASHSEED`` 1 and 2:

* tier-1: ``python -m pytest -x -q -p no:cov -p no:benchmark -p
  no:cacheprovider`` with ``src`` on ``PYTHONPATH``;
* the benchmark smoke: ``python bench/run.py --smoke``.

Only 3.11 has pytest installed here; the other interpreters borrow its
site-packages through ``PYTHONPATH`` (pytest, hypothesis and PyYAML run
from there as pure Python), exactly as ``.claude/skills/verify/SKILL.md``
describes.  Prints one pass/fail table and exits nonzero on any failure; a
missing interpreter is skipped and named, and so is a tier-1 leg whose
borrowed pytest does not import (3.10 lacks the ``exceptiongroup`` backport
3.11's pytest asks for there — its bench-smoke leg still runs).  Every PR
that touches asyncio, ``os.fork``, signals or sockets quotes the table: CI
YAML lists 3.10-3.13, but nothing here executes CI, and a hang on Python >=
3.12 once went unnoticed for ten PRs.

    python scripts/matrix.py            # run everything (~15 min)
    python scripts/matrix.py --list     # print the commands, run nothing
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
VERSIONS = ("3.10.13", "3.11.7", "3.12.1", "3.13.0")
HASH_SEEDS = (1, 2)
#: The one interpreter with pytest installed; the others borrow from it.
DONOR = "3.11.7"
#: Seconds one leg may take before it counts as a hang.
TIMEOUT = 1800
PYENV = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"

LEGS = {
    "tier-1": ["-m", "pytest", "-x", "-q", "-p", "no:cov", "-p", "no:benchmark",
               "-p", "no:cacheprovider"],
    "bench-smoke": ["bench/run.py", "--smoke"],
}


def interpreter(version: str) -> Path:
    return PYENV / version / "bin" / "python"


def environment(version: str, hash_seed: int) -> dict[str, str]:
    paths = [str(REPO / "src")]
    if version != DONOR:
        major_minor = ".".join(DONOR.split(".")[:2])
        paths.append(str(PYENV / DONOR / "lib" / f"python{major_minor}" / "site-packages"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def run_leg(python: Path, leg: str, env: dict[str, str]) -> str:
    """Run one leg; the verdict (``pass`` / ``FAIL (...)`` / ``skipped (...)``)."""
    if leg == "tier-1":
        # 3.11's pytest imports only where its own dependencies do: on 3.10
        # it wants the `exceptiongroup` backport, which nothing here has.
        probe = subprocess.run(
            [str(python), "-c", "import pytest"], env=env, cwd=REPO,
            capture_output=True, text=True,
        )
        if probe.returncode != 0:
            return f"skipped (borrowed pytest: {probe.stderr.strip().splitlines()[-1]})"
    started = time.monotonic()
    try:
        done = subprocess.run(
            [str(python), *LEGS[leg]], cwd=REPO, env=env, timeout=TIMEOUT,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        verdict = "pass" if done.returncode == 0 else f"FAIL ({done.returncode})"
        output = done.stdout
    except subprocess.TimeoutExpired as hung:
        verdict = f"FAIL (hung > {TIMEOUT}s)"
        output = hung.stdout or ""
        if isinstance(output, bytes):
            output = output.decode(errors="replace")
    if verdict != "pass":
        print("\n".join(output.splitlines()[-25:]))
    return f"{verdict} {time.monotonic() - started:.0f}s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true",
                        help="print what would run and which interpreters exist")
    args = parser.parse_args(argv)

    rows: list[tuple[str, int, str, str]] = []
    for version in VERSIONS:
        python = interpreter(version)
        if not python.exists():
            print(f"skip {version}: {python} is not installed")
            rows += [(version, seed, leg, "skipped (not installed)")
                     for seed in HASH_SEEDS for leg in LEGS]
            continue
        for seed in HASH_SEEDS:
            env = environment(version, seed)
            for leg, arguments in LEGS.items():
                print(f"{'list' if args.list else 'run '} PYTHONHASHSEED={seed} "
                      f"PYTHONPATH={env['PYTHONPATH']} {python} {' '.join(arguments)}",
                      flush=True)
                result = "listed" if args.list else run_leg(python, leg, env)
                rows.append((version, seed, leg, result))

    print()
    print(f"{'python':<9} {'hashseed':<9} {'leg':<12} result")
    for version, seed, leg, result in rows:
        print(f"{version:<9} {seed:<9} {leg:<12} {result}")
    return 1 if any(result.startswith("FAIL") for *_, result in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
