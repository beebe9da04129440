"""Run the benchmark over several seeds and summarise its spread.

    python3 perfbench/steadiness.py --workloads snort_bulk literal_stream \
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 45 --out record.md

For each workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(n=4)``) and the spread
``(Q3 - Q1) / median``, next to the metric's bound in BENCHMARK.json.
The same metrics before host normalisation ("as measured"), the run's
mean host tick, ``host.spin_ms`` (mean of the start and end probe of
each run) and the wall time of each run are summarised the same way.
The runs go one after another, never in parallel, so they do not slow
each other.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from common import BENCH_DIR, ROOT, quartiles


def one_run(workload: str, seed: int, seconds: int) -> Dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    begin = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=900, check=True)
    wall = time.monotonic() - begin
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    provenance = json.loads(lines[-2])["provenance"]
    return {"result": result, "provenance": provenance, "wall_s": wall}


def summarise(workload: str, runs: List[Dict], bounds: Dict[str, float]
              ) -> List[str]:
    rows = []
    metrics = list(runs[0]["result"]["metrics"])
    series = {m: [r["result"]["metrics"][m]["value"] for r in runs]
              for m in metrics}
    for name in runs[0]["provenance"].get("unnormalised", {}):
        series[f"{name} (as measured)"] = [
            r["provenance"]["unnormalised"][name] for r in runs]
    series["host.tick_ms"] = [r["provenance"]["host_tick_ms"]["mean"]
                              for r in runs]
    series["host.spin_ms"] = [
        (r["provenance"]["host_spin_ms"]["start"]
         + r["provenance"]["host_spin_ms"]["end"]) / 2 for r in runs]
    series["run_wall_s"] = [r["wall_s"] for r in runs]
    for name, values in series.items():
        q1, q2, q3 = quartiles(values)
        bound = bounds.get(name)
        rows.append(
            f"| {workload} | {name} | {q2:.4g} | {q1:.4g} | {q3:.4g} | "
            f"{(q3 - q1) / q2:.3f} | "
            f"{'-' if bound is None else f'{bound:g}'} |")
    failed = sum(r["result"]["failed"] for r in runs)
    attempted = sum(r["result"]["attempted"] for r in runs)
    rows.append(f"| {workload} | error_rate | {failed}/{attempted} | | | | |")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the table (markdown) here")
    parser.add_argument("--raw", type=Path, default=None,
                        help="also write every run's result as JSON lines")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = ["| workload | metric | median | Q1 | Q3 | (Q3-Q1)/median | bound |",
            "|---|---|---|---|---|---|---|"]
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(one_run(workload, seed, args.seconds))
            print(json.dumps({"workload": workload, "seed": seed,
                              **runs[-1]["result"]}), file=sys.stderr)
            if args.raw is not None:
                with args.raw.open("a") as fh:
                    fh.write(json.dumps({"workload": workload, "seed": seed,
                                         **runs[-1]}) + "\n")
        rows.extend(summarise(workload, runs, bounds))
    table = "\n".join(rows)
    print(table)
    if args.out is not None:
        args.out.write_text(table + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
