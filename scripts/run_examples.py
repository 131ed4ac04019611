"""Run every bundled configuration through every analysis.

Reports land in out/<config-name>/<command>.json plus a Graphviz file per
window.  Usage: python scripts/run_examples.py [--out DIR]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from divgraph.cli import main as cli_main

COMMANDS = ("graph", "classify", "components", "topology", "atomicity", "check")
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out", help="report output directory")
    args = ap.parse_args()

    worst = 0
    for cfg in sorted(CONFIGS.glob("*.cfg")):
        out_dir = Path(args.out) / cfg.stem
        for command in COMMANDS:
            argv = [command, "--config", str(cfg), "--out", str(out_dir)]
            if command == "graph":
                argv.append("--dot")
            print(f"== {cfg.stem}: {command}", file=sys.stderr)
            worst = max(worst, cli_main(argv))
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
