"""One pass of a workload in its own process: warm up, run, check answers.

Run from the checkout root as ``python3 -m perfbench.worker`` with
``src`` on ``PYTHONPATH``; ``perfbench/run.py`` starts one per pass.  It
prints one JSON line: the time its warm-up ended, its environment, every
job's latency and verdict, peak RSS and, when traced, the per-layer
metrics of the pass.  Jobs run one at a time (a closed loop with one
client).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from . import spans, workloads


def warm_up(workload: str):
    """Import sqrtpoly, build the first context, make one tiny call per layer."""
    import sqrtpoly
    from sqrtpoly import census, field, fourier, heuristic, poly, search, signs, ts

    src = Path(__file__).resolve().parents[1] / "src"
    if src not in Path(sqrtpoly.__file__).resolve().parents:
        raise RuntimeError(f"sqrtpoly imported from {sqrtpoly.__file__}, not {src}")
    ctx = field.make_field_ctx(13)
    if workload == "census":
        census.full_census(ctx)
        fourier.count_vanishing_bruteforce(ctx, ctx.r, 1)
    elif workload == "minimal":
        rep = search.minimal_search(ctx, keep_representatives=1).representatives[0]
        search.decompose_tree(ctx, rep)
        search.min_degree_direct(field.make_field_ctx(7))
    else:
        f = fourier.coeffs_from_signs(ctx, signs.SignVector(5, ctx.r))
        poly.is_sqrt_poly(ctx, f)
        fourier.signs_from_poly(ctx, f)
        ts.enumerate_ts(ctx)
        heuristic.ts_expected_counts(ctx)


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def run_pass(jobs: list[dict], refs: dict, tracer=None, pass_index: int = 0) -> list[dict]:
    """Run one pass; the answer gate runs between jobs, outside the timing."""
    state: dict = {}
    out = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = f"{pass_index}.{i}"
            tracer.recording = True
        error = None
        t0 = time.perf_counter()
        try:
            answer = workloads.execute(job, state)
        except Exception as exc:  # a refusal or crash is a failed job
            answer, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.recording = False
        if error is None:
            try:
                error = workloads.check(job, answer, refs)
            except Exception as exc:  # an answer of the wrong shape
                error = f"check raised {type(exc).__name__}: {exc}"
        out.append({"kind": job["kind"], "p": job["p"], "latency": latency,
                    "vectors": workloads.vectors(job), "error": error})
    return out


def run(workload: str, seed: int, pass_index: int, trace: bool,
        spans_path: str | None = None) -> dict:
    """Run one seeded pass, traced or not."""
    refs = workloads.load_references()
    jobs = workloads.make_jobs(workload, seed, pass_index)
    if not trace:
        return {"jobs": run_pass(jobs, refs)}
    tracer = spans.Tracer()
    tracer.install()
    try:
        out = run_pass(jobs, refs, tracer, pass_index)
    finally:
        tracer.uninstall()
    if spans_path:
        tracer.write(spans_path)
    return {"jobs": out, "layers": spans.layer_metrics(tracer)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="exit after the warm-up")
    ap.add_argument("--spans", help="write the traced pass's spans here (JSON lines)")
    args = ap.parse_args(argv)
    warm_up(args.workload)
    out = {"ready": time.monotonic()}
    if not args.setup_only:
        out["env"] = environment()
        out.update(run(args.workload, args.seed, args.pass_index, bool(args.trace),
                       args.spans))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
