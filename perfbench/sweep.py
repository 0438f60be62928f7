"""Run the benchmark over several seeds and summarize every metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads score,fuse-check] [--trace 1]

Run from the repository root. Each (seed, workload) pair is one run of
run.py in its own process; workloads are interleaved within each seed, in
an order rotated per seed, so slow phases of the machine spread over all
of them. For each workload and metric it prints the median, the first and
third quartiles of the per-run values (statistics.quantiles, n=4), their
distance as a share of the median, and, for end-to-end metrics, the bound
from BENCHMARK.json with a flag: "ok" within a third of the bound, "wide"
within the bound, "OVER" past it. It also prints the error rate over all
invocations, and stops at the first run that exits nonzero.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# run.py's human-readable metric lines: "  <name>  <value> <unit>  n=<samples>"
METRIC_LINE = re.compile(r"^  (\S+)\s+\S+\s+\S+\s+n=(\d+)$")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10", help="range 'a-b' or list 'a,b,c'")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values: dict[tuple[str, str], list[float]] = {}
    samples: dict[tuple[str, str], list[int]] = {}
    units: dict[str, str] = {}
    walls = []
    attempted = failed = 0
    for i, seed in enumerate(_seeds(args.seeds)):
        k = i % len(workloads)
        for workload in workloads[k:] + workloads[:k]:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            walls.append(wall)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault((workload, name), []).append(metric["value"])
                units[name] = metric["unit"]
            for match in filter(None, map(METRIC_LINE.match, proc.stdout.splitlines())):
                samples.setdefault((workload, match[1]), []).append(int(match[2]))
            print(f"# {workload} seed {seed}: {wall:.1f} s", file=sys.stderr, flush=True)

    print(f"error_rate {failed}/{attempted} = {failed / max(1, attempted):.4f} over {len(walls)} runs; "
          f"run wall max {max(walls):.1f} s, sum {sum(walls):.0f} s")
    print("runs: runs per metric; samples: median invocations (or rounds) behind one run's value")
    print(f"{'workload':<16} {'metric':<52} {'runs':>4} {'samples':>7} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  unit")
    for (workload, name), vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else "  ok" if spread <= bound / 3 else "  wide" if spread <= bound else "  OVER"
        n = statistics.median(samples.get((workload, name), [0]))
        print(f"{workload:<16} {name:<52} {len(vals):>4} {n:>7g} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>7.3f} {'' if bound is None else bound:>6}  {units[name]}{flag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
