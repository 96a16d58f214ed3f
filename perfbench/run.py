"""sqrtpoly benchmark: one workload per call, every answer checked.

Run from the checkout root::

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads in turn.  A workload runs as
a closed loop with one client and one job at a time, one seeded pass
after another while the last pass still fits into ``--seconds``; each
pass runs in a fresh worker process (``perfbench/worker.py``).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs at least
two passes, traces every other one and reports the per-layer metrics.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every answer is right.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

if not __package__:  # run as a script: make the perfbench package importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.spans import LAYERS, prefix  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

END_TO_END = {"batch_s": "s", "vectors_per_s": "1/s", "job_p50_s": "s",
              "job_tail_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    **{f"{prefix(layer)}.{m}": u for layer in LAYERS
       for m, u in (("self_s", "s"), ("calls", "count"), ("errors", "count"))},
    "kernels.steps": "count", "kernels.steps_per_s": "1/s",
    "census.vectors": "count", "fourier.vectors": "count",
    "search.family_rows": "count",
    "modmat.table_bytes": "B", "modmat.matmul_ops": "count",
    "modmat.rebuilt_frac": "ratio",
    "poly.points_checked": "count", "field.ctx_builds": "count",
    "trace_overhead_frac": "ratio",
}

SETUP_SAMPLES = 15  # pass processes, topped up with warm-up-only ones
TIME_LIMIT = 170.0  # seconds for the whole command


def tail(samples) -> tuple[float, float, int]:
    """(value, percentile, samples above it) at the highest nearest-rank
    percentile that still has at least ten samples above it.

    With ten samples or fewer no percentile qualifies, and the maximum
    (percentile 100, none above) is reported instead.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    k = n - 11  # 0-based rank with exactly ten ranks above it
    return xs[k], 100.0 * (k + 1) / n, 10


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=root, env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return None
    return lines[1]


class Runner:
    """Starts worker processes in the checkout and collects their results."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
        nproc = str(len(os.sched_getaffinity(0)))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env.setdefault(var, nproc)

    def worker(self, *args: str) -> tuple[dict, float]:
        """Run one worker; return its result and its setup seconds."""
        cmd = [sys.executable, "-m", "perfbench.worker", *args]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=max(1.0, self.deadline - t0))
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
        result = json.loads(lines[-1])
        return result, result["ready"] - t0


def pass_stats(passes: list[list[dict]]) -> dict:
    """Per-pass figures, each reduced to its median over the passes."""
    per = {"batch_s": [], "vectors_per_s": [], "job_p50_s": [], "job_tail_s": []}
    tails = []
    for jobs in passes:
        lat = [j["latency"] for j in jobs]
        busy = sum(lat)
        per["batch_s"].append(busy)
        per["vectors_per_s"].append(sum(j["vectors"] for j in jobs) / busy)
        per["job_p50_s"].append(statistics.median(lat))
        tails.append(tail(lat))
        per["job_tail_s"].append(tails[-1][0])
    out = {k: statistics.median(v) for k, v in per.items()}
    out["tail_percentile"] = tails[0][1]
    out["tail_above"] = tails[0][2]
    return out


def failures(passes: list[list[dict]]) -> tuple[int, int, list[str]]:
    jobs = [j for p in passes for j in p]
    bad = [f"{j['kind']} p={j['p']}: {j['error']}" for j in jobs if j["error"]]
    return len(jobs), len(bad), bad


def run_passes(runner: Runner, workload: str, seed: int, seconds: float,
               trace: bool) -> tuple[list[dict], list[float]]:
    """Run passes, each in a fresh worker, while the last still fits into
    ``seconds``.  When traced, even passes are traced and odd ones are not,
    and at least two run.  Returns the workers' results and setup seconds."""
    common = ["--workload", workload, "--seed", str(seed)]
    results, setups = [], []
    start = time.monotonic()
    while True:
        i = len(results)
        args = [*common, "--pass-index", str(i)]
        if trace and i % 2 == 0:
            out_dir = runner.root / "perfbench" / "out"
            out_dir.mkdir(exist_ok=True)
            args += ["--trace", "1",
                     "--spans", str(out_dir / f"spans-{workload}-seed{seed}-pass{i}.jsonl")]
        t0 = time.monotonic()
        result, setup = runner.worker(*args)
        results.append(result)
        setups.append(setup)
        now = time.monotonic()
        if now - start + (now - t0) > seconds and (not trace or i >= 1):
            return results, setups


def trace_overhead(results: list[dict]) -> tuple[float, int]:
    """Traced over untraced busy time of paired passes (2k, 2k + 1), minus 1,
    and the number of pairs."""
    pairs = len(results) // 2
    busy = [sum(j["latency"] for j in r["jobs"]) for r in results[:2 * pairs]]
    return sum(busy[0::2]) / sum(busy[1::2]) - 1, pairs


def measure(runner: Runner, workload: str, seed: int, seconds: float, trace: bool):
    """(metrics {name: (value, unit, samples)}, attempted, failed, record)."""
    results, setups = run_passes(runner, workload, seed, seconds, trace)
    passes = [r["jobs"] for r in results]
    n_pass = len(passes)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "env": results[0]["env"], "passes": passes}
    if not trace:
        st = pass_stats(passes)
        common = ["--workload", workload, "--seed", str(seed), "--setup-only"]
        setups += [runner.worker(*common)[1] for _ in range(SETUP_SAMPLES - n_pass)]
        n_jobs = len(passes[0])
        per_pass = f"median of {n_pass} passes"
        metrics = {
            "batch_s": (st["batch_s"], per_pass),
            "vectors_per_s": (st["vectors_per_s"], per_pass),
            "job_p50_s": (st["job_p50_s"], f"{per_pass} of {n_jobs} jobs"),
            "job_tail_s": (st["job_tail_s"],
                           f"p{st['tail_percentile']:.1f} ({st['tail_above']} above), "
                           f"{per_pass} of {n_jobs} jobs"),
            "peak_rss_mb": (max(r["peak_rss_mb"] for r in results),
                            f"max of {n_pass} processes"),
            "setup_s": (statistics.median(setups), f"median of {len(setups)} processes"),
        }
        units = END_TO_END
        record.update(untraced=st, setup_samples=setups)
    else:
        layers = [r["layers"] for r in results if "layers" in r]
        per_pass = f"median of {len(layers)} traced passes"
        metrics = {k: (statistics.median(x[k] for x in layers), per_pass)
                   for k in layers[0]}
        overhead, pairs = trace_overhead(results)
        metrics["trace_overhead_frac"] = (
            overhead, f"busy time of traced / untraced passes - 1, {pairs} pairs")
        units = PER_LAYER
        record["traced_layers"] = layers
    attempted, failed, errors = failures(passes)
    out = {name: (metrics[name][0], unit, metrics[name][1]) for name, unit in units.items()}
    record.update(metrics={k: v[0] for k, v in out.items()}, attempted=attempted,
                  failed=failed, errors=errors)
    return out, attempted, failed, record


def report(workload: str, metrics: dict, attempted: int, failed: int, errors: list[str]):
    print(f"== {workload}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:24s} {value:14.6g} {unit:6s} {samples}")
    print(f"  {'fail_frac':24s} {failed / attempted:14.6g} {'ratio':6s} "
          f"{failed} of {attempted} jobs")
    for e in errors[:20]:
        print(f"  FAILED {e}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    missing = [p for p in ("src/sqrtpoly/__init__.py", "tests/fixtures.py")
               if not (root / p).is_file()]
    if missing:
        print(f"perfbench: run from a sqrtpoly checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    runner = Runner(root, time.monotonic() + TIME_LIMIT)
    commit = git_commit(root)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined, attempted, failed = {}, 0, 0
    for workload in names:
        try:
            metrics, a, f, record = measure(runner, workload, args.seed, args.seconds,
                                            bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 2
        record["env"]["git_commit"] = commit
        record["env"]["seed"] = args.seed
        print(f"env {json.dumps(record['env'], sort_keys=True)}")
        report(workload, metrics, a, f, record["errors"])
        out_dir = root / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        attempted += a
        failed += f
        for name, (value, unit, _) in metrics.items():
            key = name if len(names) == 1 else f"{workload}.{name}"
            combined[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
