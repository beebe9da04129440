"""Pipeline benchmark: rules text + input -> final state and reports.

One command runs one workload (or ``all`` of them), each in a fresh
interpreter, and prints one JSON result object as its last stdout line:

    python3 perfbench/run.py --workload snort_bulk --seed 1 --seconds 45 \
        --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` reports its per-layer metrics from a run that wraps the
library's public functions (see ``tracer.py``).  Run it from the root of
a repository checkout: it builds the optional native library into
``.bench_build/`` first, and everything it writes stays there.
``--smoke`` runs tiny inputs for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from typing import Dict, List, Optional

from common import (
    BENCH_DIR,
    BUILD_DIR,
    ROOT,
    WORKLOADS,
    bench_env,
    layout_error,
)

#: every run must end within 180 s; the native build is paid once
RUN_BUDGET_S = 175.0


def build_native() -> Dict:
    """Build (or reuse) the native library in ``.bench_build/native``."""
    code = ("import json; from repro.kernels.native import native_build_info;"
            " print(json.dumps(native_build_info()))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=bench_env(), cwd=ROOT, timeout=600,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, args, budget: float) -> Dict:
    cmd = [sys.executable, str(BENCH_DIR / "workload.py"),
           "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          env=bench_env(), cwd=ROOT, timeout=budget)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name} exited {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def combined(results: Dict[str, Dict]) -> Dict:
    """One object for ``--workload all``: metrics prefixed by workload."""
    metrics = {}
    for name, result in results.items():
        for metric, value in result["metrics"].items():
            metrics[f"{name}.{metric}"] = value
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="CSE pipeline benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True,
                        help="input seed: same seed, same inputs")
    parser.add_argument("--seconds", type=int, required=True,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics of a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny rulesets and inputs (self-tests)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="self-test: perturb the output reference")
    args = parser.parse_args(argv)

    problem = layout_error()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    begin = time.monotonic()
    BUILD_DIR.mkdir(exist_ok=True)
    try:
        native = build_native()
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    if not native.get("available"):
        print(f"perfbench: native tier unavailable ({native.get('reason')}); "
              "scans use the numpy kernels", file=sys.stderr)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results: Dict[str, Dict] = {}
    for name in names:
        budget = RUN_BUDGET_S - (time.monotonic() - begin)
        if args.workload == "all":
            budget = RUN_BUDGET_S  # each workload is its own run
        try:
            results[name] = run_workload(name, args, budget)
        except (subprocess.SubprocessError, RuntimeError, ValueError) as exc:
            print(f"perfbench: {name} failed: {exc}", file=sys.stderr)
            return 1
    final = results[names[0]] if len(names) == 1 else combined(results)
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
