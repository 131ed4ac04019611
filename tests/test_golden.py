"""Byte-identity contract: the CLI's stdout for every bundled config and
subcommand must equal the recorded files under tests/golden/.

A refactor must leave these bytes alone.  A change that means to alter an
output regenerates the files and says why:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from divgraph.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
COMMANDS = ("graph", "classify", "components", "topology", "atomicity", "check")


def cases() -> list[tuple[str, str, tuple[str, ...]]]:
    """(config stem, golden file stem, extra argv) for every recorded run."""
    out = []
    for cfg in sorted(CONFIG_DIR.glob("*.cfg")):
        out += [(cfg.stem, cmd, (cmd,)) for cmd in COMMANDS]
        out.append((cfg.stem, "graph-dot", ("graph", "--dot")))
    out.append(("zxq_orders", "topology-pair", ("topology", "--pair", "x", "x^2")))
    return out


def run(cfg: str, argv: tuple[str, ...]) -> str:
    """Stdout of one in-process CLI run, with its exit code on the last line."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--config", str(CONFIG_DIR / f"{cfg}.cfg")])
    return f"{buf.getvalue()}exit {code}\n"


@pytest.mark.parametrize(
    "cfg,name,argv", cases(), ids=[f"{c}/{n}" for c, n, _ in cases()]
)
def test_stdout_matches_golden(cfg, name, argv):
    expected = (GOLDEN_DIR / cfg / f"{name}.out").read_bytes()
    assert run(cfg, argv).encode() == expected


if __name__ == "__main__":
    for cfg, name, argv in cases():
        path = GOLDEN_DIR / cfg / f"{name}.out"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(run(cfg, argv).encode())
        print(path.relative_to(ROOT), file=sys.stderr)
