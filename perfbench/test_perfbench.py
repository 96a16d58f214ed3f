"""Tests of the benchmark itself: job lists, answer gate, statistics, tracing."""

import json
import random
from pathlib import Path

import pytest

from perfbench import run, spans, worker, workloads
from perfbench.spans import Span
from sqrtpoly import census, errors, poly, search
from sqrtpoly.census import DegreeHistogram


def test_same_seed_gives_same_job_list():
    for w in workloads.WORKLOADS:
        assert workloads.make_jobs(w, 7, 0) == workloads.make_jobs(w, 7, 0)
        assert workloads.make_jobs(w, 7, 3) == workloads.make_jobs(w, 7, 3)
        # the seed draws inputs and order, never the composition
        shape = sorted((j["kind"], j["p"]) for j in workloads.make_jobs(w, 7, 0)
                       if j["kind"] not in ("direct", "tree"))
        assert shape == sorted((j["kind"], j["p"]) for j in workloads.make_jobs(w, 8, 1)
                               if j["kind"] not in ("direct", "tree"))
    # ten jobs or fewer: job_tail_s is then the pass's slowest job
    assert len(workloads.make_jobs("census", 7, 0)) <= 10
    assert len(workloads.make_jobs("minimal", 7, 0)) <= 10
    assert workloads.make_jobs("roundtrip", 7, 0) != workloads.make_jobs("roundtrip", 8, 0)
    assert workloads.make_jobs("roundtrip", 7, 0) != workloads.make_jobs("roundtrip", 7, 1)


def test_no_two_jobs_of_a_pass_share_their_inputs():
    for w in workloads.WORKLOADS:
        for seed in range(1, 6):
            jobs = workloads.make_jobs(w, seed, 0)
            inputs = [tuple(sorted(j.items())) for j in jobs if j["kind"] != "tree"]
            assert len(set(inputs)) == len(inputs)
            # nor the same call with only keep_representatives changed
            calls = [(j["kind"], j["p"], j.get("ell"), j.get("bits")) for j in jobs]
            assert len(set(calls)) == len(calls)


CHEAP_JOBS = [
    {"kind": "search", "p": 41, "keep": 16},
    {"kind": "direct", "p": 43},
    {"kind": "tree", "p": 41},
    {"kind": "vanish", "p": 29, "ell": 3},
    {"kind": "roundtrip", "p": 1009, "bits": random.Random(5).getrandbits(504),
     "at": 17, "delta": 3},
    {"kind": "ts", "p": 97},
    {"kind": "heuristic", "p": 353},
]


def test_right_answers_pass_the_gate():
    jobs = worker.run_pass(CHEAP_JOBS, workloads.load_references())
    assert [j["error"] for j in jobs] == [None] * len(CHEAP_JOBS)


def test_planted_wrong_answer_is_a_failure(monkeypatch):
    refs = workloads.load_references()
    job = {"kind": "census", "p": 29}
    wrong = DegreeHistogram({11: 4, 12: 561, 13: 15819})
    monkeypatch.setattr(census, "full_census", lambda ctx: wrong)
    assert worker.run_pass([job], refs)[0]["error"].startswith("counts")

    def refuse(ctx):
        raise errors.TooLarge("refused")

    monkeypatch.setattr(census, "full_census", refuse)
    monkeypatch.setattr(search, "min_degree_direct",
                        lambda ctx: search.SearchReport(12, 2, [], None))
    passes = [worker.run_pass([job, {"kind": "direct", "p": 43}], refs)]
    attempted, failed, errs = run.failures(passes)
    assert (attempted, failed) == (2, 2)
    assert errs[0] == "census p=29: TooLarge: refused"


def test_perturbed_polynomial_must_be_rejected(monkeypatch):
    monkeypatch.setattr(poly, "is_sqrt_poly", lambda ctx, f: True)
    job = dict(CHEAP_JOBS[4])
    [result] = worker.run_pass([job], workloads.load_references())
    assert "perturbed" in result["error"]


@pytest.mark.parametrize("n, rank, percentile, above", [
    (1, 0, 100.0, 0),
    (10, 9, 100.0, 0),
    (11, 0, 100.0 / 11, 10),
    (20, 9, 50.0, 10),
    (27, 16, 100.0 * 17 / 27, 10),
    (100, 89, 90.0, 10),
    (1000, 989, 99.0, 10),
])
def test_tail_picks_highest_percentile_with_ten_above(n, rank, percentile, above):
    samples = [float(i) for i in range(n)]
    random.Random(n).shuffle(samples)
    value, pct, n_above = run.tail(samples)
    assert value == float(rank)
    assert pct == pytest.approx(percentile)
    assert n_above == above
    assert sum(x > value for x in samples) == above


def test_self_time_on_synthetic_span_tree():
    # root 0..10; children 1..4 and 3..6 overlap (union 5 s); 8..9 in field;
    # grandchild 2..3 under the first child
    tree = [
        Span("j", 0, None, "search", "search.f", 0.0, 10.0, True),
        Span("j", 1, 0, "poly", "poly.a", 1.0, 4.0, True),
        Span("j", 2, 1, "_modmat", "_modmat.m", 2.0, 3.0, True),
        Span("j", 3, 0, "poly", "poly.b", 3.0, 6.0, True),
        Span("j", 4, 0, "field", "field.c", 8.0, 9.0, False),
        Span("k", 5, None, "poly", "poly.a", 20.0, 20.5, True),
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx({"search": 4.0, "poly": 2.0 + 3.0 + 0.5,
                                 "_modmat": 1.0, "field": 1.0})


def _tiny_jobs(workload, seed, pass_index):
    return [{"kind": "direct", "p": 43}, {"kind": "heuristic", "p": 97}]


def test_tracing_is_off_in_the_end_to_end_run(monkeypatch):
    wrapped = []
    real = workloads.execute

    def spy(job, state):
        wrapped.append(hasattr(search.is_sqrt_poly, "__perfbench_layer__"))
        return real(job, state)

    monkeypatch.setattr(workloads, "make_jobs", _tiny_jobs)
    monkeypatch.setattr(workloads, "execute", spy)
    untraced = worker.run("minimal", seed=1, pass_index=1, trace=False)
    assert wrapped == [False, False] and "layers" not in untraced
    assert all(j["error"] is None for j in untraced["jobs"])

    traced = worker.run("minimal", seed=1, pass_index=0, trace=True)
    # search binds is_sqrt_poly by a from-import; the tracer wraps it there too
    assert wrapped[2:] == [True, True]
    layers = traced["layers"]
    assert layers["poly.points_checked"] == 21  # r of p = 43, once
    assert layers["search.calls"] == 1 and layers["kernels.calls"] == 0
    assert layers["field.ctx_builds"] == 2
    assert not hasattr(search.is_sqrt_poly, "__perfbench_layer__")
    assert not hasattr(poly.is_sqrt_poly, "__perfbench_layer__")


def test_trace_overhead_pairs_traced_with_the_next_untraced_pass():
    def result(*latencies):
        return {"jobs": [{"latency": x} for x in latencies]}

    # passes 0 and 2 traced, 1 and 3 untraced; an unpaired last pass is left out
    results = [result(3.0, 1.0), result(2.0, 1.0), result(2.0), result(2.0), result(9.0)]
    overhead, pairs = run.trace_overhead(results)
    assert pairs == 2
    assert overhead == pytest.approx(6.0 / 5.0 - 1)


def test_benchmark_json_lists_every_reported_metric():
    bench = json.loads((Path(run.__file__).parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
