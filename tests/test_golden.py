"""Golden stdout: every README command, plus the CLI branches the README misses.

Each command runs in-process against a fresh a_p cache, once in TSV and once
in JSON, and its stdout must equal tests/golden/<name>.tsv or <name>.json
byte for byte; the exit code must equal the recorded one.  The README's
command block is parsed, so a command added there without a golden pair fails.

Regenerate the files only for an intended output change, from the repo root:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import re
import shlex
from pathlib import Path

import pytest

from kzero.cli import run

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
README = HERE.parent / "README.md"

# (argv, exit code) for handler branches that no README example reaches
EXTRA = (
    ("ap --a4 -1 --a6 0 --p 13", 0),
    ("lfun --which zeta --s 2,1 --bound 100", 0),
    ("lfun --which auto --D 1 --s 3 --bound 200", 0),
    ("coherence --D 7", 0),
    ("prop3 --D 1 --s 3 --bound 30 --tol 0", 1),
    ("omega --D 4", 2),
)


def readme_commands() -> list[str]:
    """The `kzero ...` lines of the README's command-line block, comments removed."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = (re.sub(r"\s+#.*$", "", line).strip() for line in block.splitlines())
    return [line[len("kzero "):] for line in lines if line.startswith("kzero ")]


def golden_name(command: str) -> str:
    return "_".join(tok[2:] if tok.startswith("--") else tok for tok in shlex.split(command))


def cases() -> list[tuple[str, int]]:
    return [(cmd, 0) for cmd in readme_commands()] + list(EXTRA)


def render(command: str, fmt: str, cache: Path) -> tuple[str, int]:
    buf = io.StringIO()
    _, code = run(shlex.split(command) + ["--format", fmt, "--cache", str(cache)], stdout=buf)
    return buf.getvalue(), code


def test_readme_block_is_parsed():
    # an empty parse would make the pairing test below pass vacuously
    assert readme_commands(), "no `kzero ...` lines found under README's Command line"


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_has_golden_pair(command):
    name = golden_name(command)
    missing = [f for f in (f"{name}.tsv", f"{name}.json") if not (GOLDEN / f).is_file()]
    assert not missing, f"README command {command!r} has no golden file {missing}"


@pytest.mark.parametrize("fmt", ("tsv", "json"))
@pytest.mark.parametrize("command,code", cases())
def test_golden_output(command, code, fmt, tmp_path):
    out, got = render(command, fmt, tmp_path / "apcache.tsv")
    assert got == code
    assert out.encode("utf-8") == (GOLDEN / f"{golden_name(command)}.{fmt}").read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for command, code in cases():
        for fmt in ("tsv", "json"):
            with tempfile.TemporaryDirectory() as tmp:
                out, got = render(command, fmt, Path(tmp) / "apcache.tsv")
            if got != code:
                raise SystemExit(f"{command} --format {fmt}: exit {got}, expected {code}")
            (GOLDEN / f"{golden_name(command)}.{fmt}").write_bytes(out.encode("utf-8"))
