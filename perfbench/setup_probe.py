"""Time the benchmark's set-up in a fresh interpreter.

Set-up is: import divgraph, generate the workload's configs, and run
load_config -> build() -> enumerate_window once per config.  Prints the
seconds it took, and the time of the host-speed reference kernel
(speed.py) just before, as one JSON line.  run.py starts this several
times and reports the median of the scaled times as `setup_s`.

    python3 perfbench/setup_probe.py --workload NAME --seed N [--scale tiny]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from speed import reference_seconds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"


def write_configs(workload, directory: Path) -> dict:
    paths = {}
    for cfg in workload.configs.values():
        path = directory / f"{cfg.name}.cfg"
        path.write_text(cfg.text)
        paths[cfg.name] = path
    return paths


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full", choices=("full", "tiny"))
    args = ap.parse_args(argv)

    reference_s = sorted(reference_seconds() for _ in range(5))[2]
    start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from divgraph.config import load_config

    from gen import make_workload

    workload = make_workload(args.workload, args.seed, args.scale)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for path in write_configs(workload, Path(tmp)).values():
            model, spec = load_config(path).build()
            model.enumerate_window(spec)
        elapsed = perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "reference_s": reference_s}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
