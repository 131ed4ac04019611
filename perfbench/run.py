"""The divgraph benchmark.

Drives the divgraph subcommands through the public entry point
`divgraph.cli.main(argv)` on one seeded workload, in one process, one op at
a time (a closed loop with a single client).  An op is one subcommand on
one generated config; a pass runs every op of the workload once, and passes
repeat until --seconds have elapsed.  Every op's stdout is checked against
invariants the benchmark derives itself (checks.py) and against the op's
first output in the run.

    python3 perfbench/run.py --workload value-ladder --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics (medians over passes).  --trace 1
alternates untraced and traced passes and prints the per-layer metrics
(tracing.py) and the tracing overhead.  Times are seconds at a fixed host
speed: a reference kernel runs between ops and each op is scaled by the
kernel's times on either side of it (speed.py).  The last line of stdout is one JSON object; the full
results (environment, per-op stdout SHA-256, every scaled and raw sample)
go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from time import perf_counter

from checks import check_output, expected_facts
from gen import SUBCOMMANDS, WHY, make_workload
from setup_probe import ROOT, WORK, write_configs
from speed import REFERENCE_S, reference_seconds
from tracing import PER_LAYER, Tracer, layer_metrics

RESULTS = Path(__file__).resolve().parent / "results"
# set-up samples per run; one is enough for the smoke tests' tiny windows
SETUP_REPEATS = {"full": 5, "tiny": 1}

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s",
    **{f"{c}_s": "s" for c in SUBCOMMANDS},
    "peak_rss_mb": "MiB", "ok_ops": "fraction",
}


def import_divgraph():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import divgraph.cli

    if not Path(divgraph.cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"divgraph was imported from {divgraph.cli.__file__}, not {src}")
    return divgraph.cli


class OpRunner:
    """Runs ops through the CLI and decides whether each attempt failed."""

    def __init__(self, cli, workload, config_paths):
        self.cli = cli
        self.paths = config_paths
        self.facts = {name: expected_facts(cfg) for name, cfg in workload.configs.items()}
        self.first: dict[str, dict] = {}  # op id -> digest and check verdict of its first output
        self.times: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[dict] = []

    def run(self, op) -> float:
        argv = [op.command, "--config", str(self.paths[op.config]), *op.extra]
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a raising op is a failed op; the run goes on
            code, error = None, traceback.format_exc(limit=3)
        elapsed = perf_counter() - start
        self.times.setdefault(op.id, []).append(elapsed)
        self.record(op, code, out.getvalue(), error)
        return elapsed

    def record(self, op, code, text: str, error) -> None:
        self.attempted += 1
        digest = hashlib.sha256(text.encode()).hexdigest()
        if op.id not in self.first:
            reason = check_output(op, text, self.facts[op.config]) if error is None else None
            self.first[op.id] = {"sha256": digest, "bytes": len(text), "check": reason}
        first = self.first[op.id]
        if error is not None:
            reason = f"raised: {error.strip().splitlines()[-1]}"
        elif code != 0:
            reason = f"exit code {code}"
        elif digest != first["sha256"]:
            reason = "stdout differs from this op's first output in the run"
        else:
            reason = first["check"]
        if reason:
            self.failures.append({"op": op.id, "reason": reason})


def run_pass(runner, workload, tracer=None) -> dict:
    """Seconds per subcommand and for all ops ("run"), raw and scaled to the
    reference host speed, and the pass's overall scale factor.  Each op is
    scaled by the reference kernel timed just before and just after it, since
    the host speed can change between the ops of one pass."""
    raw = dict.fromkeys(SUBCOMMANDS, 0.0)
    scaled = dict.fromkeys(SUBCOMMANDS, 0.0)
    before = reference_seconds()
    for op in workload.ops:
        if tracer is None:
            elapsed = runner.run(op)
        else:
            elapsed = tracer.run_op(op.id, lambda: runner.run(op))
        after = reference_seconds()
        raw[op.command] += elapsed
        scaled[op.command] += elapsed * REFERENCE_S / ((before + after) / 2)
        before = after
    raw["run"] = sum(raw[c] for c in SUBCOMMANDS)
    scaled["run"] = sum(scaled[c] for c in SUBCOMMANDS)
    return {"raw": raw, "scaled": scaled, "factor": scaled["run"] / raw["run"]}


def measure_setup(workload_name: str, seed: int, scale: str, repeats: int) -> list[dict]:
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
           "--workload", workload_name, "--seed", str(seed), "--scale", scale]
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def spread(values) -> dict:
    values = sorted(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "min": values[0], "q1": q[0], "median": statistics.median(values),
            "q3": q[2], "max": values[-1]}


def git_commit() -> str | None:
    """HEAD of the checkout; None when it is not a git work tree (then
    source_sha256 identifies the code)."""
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "loop": "closed, one client, one op at a time, no threads",
    }


def run(args) -> tuple[dict, dict, Tracer | None]:
    """Run one workload; returns the printed result, the full results record
    and, for a traced run, the tracer holding the spans."""
    cli = import_divgraph()
    workload = make_workload(args.workload, args.seed, args.scale)
    setup = measure_setup(args.workload, args.seed, args.scale, SETUP_REPEATS[args.scale])
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        runner = OpRunner(cli, workload, write_configs(workload, Path(tmp)))
        tracer = Tracer() if args.trace else None
        plain, traced, layer_samples = [], [], []
        deadline = perf_counter() + args.seconds
        while True:
            plain.append(run_pass(runner, workload))
            if tracer is not None:
                tracer.begin_pass()
                tracer.install()
                try:
                    traced.append(run_pass(runner, workload, tracer))
                finally:
                    tracer.uninstall()
                factor = traced[-1]["factor"]
                layer_samples.append({
                    name: value * factor if PER_LAYER[name][0] == "s" else value
                    for name, value in layer_metrics(tracer, tracer.stats).items()})
            if perf_counter() >= deadline:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    raw = {"setup_s": [s["setup_s"] for s in setup]}
    samples = {"setup_s": [s["setup_s"] * REFERENCE_S / s["reference_s"] for s in setup]}
    for c in ("run", *SUBCOMMANDS):
        raw[f"{c}_s"] = [p["raw"][c] for p in plain]
        samples[f"{c}_s"] = [p["scaled"][c] for p in plain]
    failed = len(runner.failures)
    values = {name: statistics.median(v) for name, v in samples.items()}
    values["peak_rss_mb"] = peak_rss_mb
    values["ok_ops"] = (runner.attempted - failed) / runner.attempted
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    record = {
        "workload": args.workload,
        "why": WHY[args.workload],
        "environment": environment(args),
        "configs": {n: {"text": c.text, "vertex_count": c.vertex_count}
                    for n, c in workload.configs.items()},
        "ops": [{"id": op.id, "argv": [op.command, *op.extra], **runner.first[op.id],
                 "seconds": spread(runner.times[op.id])} for op in workload.ops],
        "attempted": runner.attempted,
        "failures": runner.failures,
        "passes": len(plain),
        "spread": {name: spread(v) for name, v in samples.items()},
        "raw_spread": {name: spread(v) for name, v in raw.items()},
        "speed_factors": [p["factor"] for p in plain],
    }
    if tracer is None:
        shown = metrics
    else:
        shown = {}
        for name in layer_samples[0]:
            unit = PER_LAYER[name][0]
            per_pass = [s[name] for s in layer_samples if name in s]
            if unit == "count":
                # counts repeat exactly from pass to pass; record whether they did
                record.setdefault("counts_repeat", {})[name] = len(set(per_pass)) == 1
                shown[name] = {"value": int(statistics.median_low(per_pass)), "unit": unit}
            else:
                shown[name] = {"value": statistics.median(per_pass), "unit": unit}
        traced_run = [p["scaled"]["run"] for p in traced]
        overhead = statistics.median(traced_run) - metrics["run_s"]["value"]
        shown["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        record["traced_passes"] = len(traced)
        record["traced_run_s"] = spread(traced_run)
        record["span_count"] = len(tracer.spans)
        record["trace_checks_ok"] = all(c["ok"] for c in tracer.op_checks)
        record["trace_check_failures"] = [c for c in tracer.op_checks if not c["ok"]]
        record["layer_samples"] = layer_samples
    record["metrics"] = shown
    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
              "metrics": shown}
    return result, record, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="divgraph benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", default="full", choices=("full", "tiny"),
                    help="tiny windows, for the benchmark's own smoke tests")
    args = ap.parse_args(argv)

    try:
        result, record, tracer = run(args)
    except (ImportError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_spans(RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl.gz")
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for f in record["failures"][:10]:
        print(f"FAILED {f['op']}: {f['reason']}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
