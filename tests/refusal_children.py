"""Run refused argvs as `python -O -m kzero` children: one past each `_LIMITS` row, one below
each flag's least value and one flag that each mode does not read, all built from
`cli._COMMANDS` by `test_refusals`.

Each child must exit 2, end its stdout with `# status error`, and print no traceback.
Run from the repository root:

    PYTHONPATH=src python tests/refusal_children.py
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

from test_refusals import DERIVED, least_cases, row_cases, unread_cases

import kzero
from kzero import cli


def cases() -> list[tuple[str, ...]]:
    """The first argv past each row, then below each least value, then the first unread flag of
    each mode."""
    past = {}
    for argv, _, row, _ in row_cases():
        past.setdefault(row, argv)
    past.update((row, argv) for row, (argv, _) in DERIVED.items())
    assert set(past) == set(cli._LIMITS), set(cli._LIMITS) - set(past)
    unread = {}
    for argv, mode in unread_cases():
        unread.setdefault((argv[0], mode), argv)
    return [*past.values(), *(argv for argv, _, _ in least_cases()), *unread.values()]


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(Path(kzero.__file__).resolve().parent.parent))
    argvs, bad = cases(), 0
    with tempfile.TemporaryDirectory() as cwd:  # a child that did run would write its cache here
        for argv in argvs:
            proc = subprocess.run([sys.executable, "-O", "-m", "kzero", *argv], capture_output=True,
                                  text=True, cwd=cwd, env=env, timeout=60)
            last = proc.stdout.splitlines()[-1:]
            if proc.returncode != 2 or last != ["# status error"] or "Traceback" in proc.stderr:
                bad += 1
                print(f"FAIL {' '.join(argv)[:200]}: exit {proc.returncode}, {last}, {proc.stderr[-500:]!r}")
    print(f"{len(argvs) - bad} of {len(argvs)} refused argvs exited 2 without a traceback")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
