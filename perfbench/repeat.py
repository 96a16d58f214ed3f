"""Run the benchmark over several seeds and report each metric's spread.

Run from the checkout root::

    python3 perfbench/repeat.py --runs 10

It runs every workload with seeds 1 to ``--runs``, each run as long as
``run_seconds`` in ``BENCHMARK.json``.  For every workload and metric it
prints the median of the runs and the quartile spread (Q3 - Q1) / median,
with quartiles as ``statistics.quantiles(values, n=4)`` gives them.
``--trace`` adds one traced run per workload, with seed 1.  ``--out``
writes everything, with the environment of the seed-1 run, as JSON
(``perfbench/baseline.json`` holds the first baseline written this way).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

if not __package__:  # run as a script: make the perfbench package importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.workloads import WORKLOADS  # noqa: E402


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)}: {result['failed']} failed jobs")
    return result


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (Q3 - Q1) / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", action="store_true", help="add one traced run each")
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args(argv)

    seconds = json.loads(Path("BENCHMARK.json").read_text())["run_seconds"]
    seeds = list(range(1, args.runs + 1))
    summary = {"seconds": seconds, "runs": args.runs, "workloads": {}}
    for workload in WORKLOADS:
        results = [one_run(workload, s, seconds, 0) for s in seeds]
        rows = {}
        for name, m in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med, sp = spread(values)
            rows[name] = {"median": med, "spread": sp, "unit": m["unit"],
                          "values": values}
            print(f"{workload:10s} {name:16s} median {med:12.6g} {m['unit']:5s} "
                  f"spread {sp:.4f}", flush=True)
        entry = {"seeds": seeds, "end_to_end": rows}
        if args.trace:
            traced = one_run(workload, 1, seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        env = Path(f"perfbench/out/{workload}-seed1-trace0.json")
        entry["env"] = json.loads(env.read_text())["env"]
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
