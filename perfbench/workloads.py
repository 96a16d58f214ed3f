"""Seeded job lists, job execution and the answer gate of each workload.

A pass is one seeded job list; its composition is fixed per workload, so
every pass costs about the same whatever the seed, and the seed only
draws the inputs (sign vectors, ``ell``, ``keep_representatives``, the
direct-route prime) and the order.  Each job is one public library call
a user could make, built from ``p``, ``d``, ``ell`` and
``keep_representatives`` only.  No two jobs of a pass have the same
inputs, and each pass runs in a fresh process, so a cache of results
cannot answer a job from an earlier one.
"""

from __future__ import annotations

import math
import random
import runpy
from pathlib import Path

WORKLOADS = ("census", "minimal", "roundtrip")

# no census at p = 41: at 10-15 s it would make a pass so long that a
# 30-s run holds one pass, and the run's median job one sample of a host
# whose speed drifts; without it a run holds about six passes
CENSUS_PRIMES = (29, 37)
VANISH_PRIMES = (37, 41)
SEARCH_PRIMES = (41, 53, 61, 73)
# p = 3 mod 4, answered by the direct route; small, so their 2^r vector
# counts stay a negligible share of a pass's total
DIRECT_PRIMES = (7, 11, 19, 23, 31, 43, 47)
KEEP_CHOICES = (1, 16, None)
# round trips per pass: p = 4001 has the most, so the tail percentile of
# a pass falls inside its latency class
ROUNDTRIPS = {1009: 4, 2003: 4, 4001: 15}
TABLE_PRIMES = (97, 353)

# (min_degree, minimizer_count) of minimal_search, frozen from the
# search at p = 41, 53 (agreeing with ALL_COUNTS) and from an independent
# meet-in-the-middle census at p = 61, 73.
MINIMA = {41: (17, 640), 53: (20, 4), 61: (23, 4), 73: (31, 2088)}
# rounded TS expectations at p = 353; tests/fixtures.py leaves this row
# out and tests/test_acceptance.py asserts it separately
TS_EXPECTED_353 = {149: 1, 160: 185, 171: 65350}

FIXTURES = Path(__file__).resolve().parents[1] / "tests" / "fixtures.py"


def load_references() -> dict:
    """Frozen reference values, read from the test fixtures file."""
    fx = runpy.run_path(str(FIXTURES))
    ts_expected = dict(fx["TS_EXPECTED"])
    ts_expected[353] = TS_EXPECTED_353
    return {"all_counts": fx["ALL_COUNTS"], "ts_counts": fx["TS_COUNTS"],
            "ts_expected": ts_expected, "minima": MINIMA}


def _coprime_odd(p: int) -> list[int]:
    return [e for e in range(1, p - 1, 2) if math.gcd(e, p - 1) == 1]


def make_jobs(workload: str, seed: int, pass_index: int) -> list[dict]:
    """The seeded job list of one pass."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    if workload == "census":
        jobs = [{"kind": "census", "p": p} for p in CENSUS_PRIMES]
        jobs += [{"kind": "vanish", "p": p, "ell": rng.choice(_coprime_odd(p))}
                 for p in VANISH_PRIMES]
    elif workload == "minimal":
        jobs = [{"kind": "search", "p": p, "keep": rng.choice(KEEP_CHOICES)}
                for p in SEARCH_PRIMES]
        jobs.append({"kind": "direct", "p": rng.choice(DIRECT_PRIMES)})
    elif workload == "roundtrip":
        jobs = []
        for p, n in ROUNDTRIPS.items():
            r = (p - 1) // 2
            for _ in range(n):
                jobs.append({"kind": "roundtrip", "p": p, "bits": rng.getrandbits(r),
                             "at": rng.randrange(r), "delta": rng.randrange(1, p)})
        jobs += [{"kind": kind, "p": p} for kind in ("ts", "heuristic")
                 for p in TABLE_PRIMES]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    if workload == "minimal":
        # runs last: it decomposes a representative of this pass's search
        jobs.append({"kind": "tree", "p": rng.choice(SEARCH_PRIMES)})
    return jobs


def vectors(job: dict) -> int:
    """Sign vectors a job decides: 2^r per census or search, 2^d per
    vanishing count (d = r here), 1 per round trip, none for tables."""
    kind, p = job["kind"], job["p"]
    if kind in ("census", "vanish", "search", "direct"):
        return 1 << ((p - 1) // 2)
    return 1 if kind == "roundtrip" else 0


def execute(job: dict, state: dict):
    """Run one job through the public library API and return its answer.

    Every call goes through a module attribute, so a traced run sees it.
    ``state`` carries the first representative of each search to the
    pass's ``tree`` job.
    """
    from sqrtpoly import census, field, fourier, heuristic, poly, search, signs, ts

    kind, p = job["kind"], job["p"]
    ctx = field.make_field_ctx(p)
    if kind == "census":
        return census.full_census(ctx)
    if kind == "vanish":
        return fourier.count_vanishing_bruteforce(ctx, ctx.r, job["ell"])
    if kind == "search":
        report = search.minimal_search(ctx, keep_representatives=job["keep"])
        if report.representatives:
            state[p] = report.representatives[0].coeffs
        return report
    if kind == "direct":
        return search.min_degree_direct(ctx)
    if kind == "tree":
        return search.decompose_tree(ctx, poly.from_coeffs(ctx, state[p]))
    if kind == "roundtrip":
        eps = signs.SignVector(job["bits"], ctx.r)
        f = fourier.coeffs_from_signs(ctx, eps)
        accepted = poly.is_sqrt_poly(ctx, f)
        back = fourier.signs_from_poly(ctx, f)
        bad = list(f.coeffs)
        bad[job["at"]] = (bad[job["at"]] + job["delta"]) % p
        rejected = not poly.is_sqrt_poly(ctx, poly.from_coeffs(ctx, bad))
        return {"f": f.coeffs, "accepted": accepted, "back": back.bits,
                "rejected": rejected}
    if kind == "ts":
        return ts.enumerate_ts(ctx)[0]
    if kind == "heuristic":
        return heuristic.ts_expected_counts(ctx)
    raise ValueError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------- answer gate

def _gamma(p: int) -> int:
    """Least primitive root, recomputed here rather than taken from the library."""
    factors = [f for f in range(2, p) if (p - 1) % f == 0
               and all(f % g for g in range(2, int(f ** 0.5) + 1))]
    return next(g for g in range(2, p)
                if all(pow(g, (p - 1) // f, p) != 1 for f in factors))


def _evaluate(coeffs, a: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * a + c) % p
    return acc


def _is_sqrt_on(coeffs, points, p: int) -> bool:
    return all(_evaluate(coeffs, a, p) ** 2 % p == a for a in points)


def vanishing_formula(p: int) -> int:
    """|V_{r,ell}| = (2^r + (p-1)(2/p)) / p for odd ell coprime to p - 1."""
    r = (p - 1) // 2
    legendre2 = 1 if pow(2, r, p) == 1 else -1
    return ((1 << r) + (p - 1) * legendre2) // p


def check(job: dict, answer, refs: dict) -> str | None:
    """None if the answer is right, else what is wrong with it."""
    from sqrtpoly import poly

    kind, p = job["kind"], job["p"]
    r = (p - 1) // 2
    if kind == "census":
        want = refs["all_counts"][p]
        return None if answer.counts == want else f"counts {answer.counts} != {want}"
    if kind == "vanish":
        want = vanishing_formula(p)
        return None if answer == want else f"count {answer} != {want}"
    if kind in ("search", "direct"):
        if kind == "search":
            want = refs["minima"][p]
            n_reps = answer.minimizer_count if job["keep"] is None else job["keep"]
            n_reps = min(n_reps, answer.minimizer_count)
        else:
            want, n_reps = ((p + 1) // 4, 2), 2
        got = (answer.min_degree, answer.minimizer_count)
        if got != want:
            return f"(min_degree, minimizers) {got} != {want}"
        if len(answer.representatives) != n_reps:
            return f"{len(answer.representatives)} representatives, want {n_reps}"
        ctx = answer.representatives[0].ctx
        for f in answer.representatives:
            if f.degree != want[0] or not poly.is_sqrt_poly(ctx, f):
                return f"representative {f.coeffs} fails at degree {want[0]}"
        return None
    if kind == "tree":
        return _check_tree(answer, p)
    if kind == "roundtrip":
        if not (answer["accepted"] and answer["rejected"]):
            return "is_sqrt_poly accepted a perturbed or rejected a true polynomial"
        if answer["back"] != job["bits"]:
            return "signs_from_poly did not return the input signs"
        # f(gamma^(2n)) = eps_n gamma^n at a few seeded points
        g = _gamma(p)
        rng = random.Random(job["bits"])
        for n in rng.sample(range(r), 4):
            sign = -1 if (job["bits"] >> n) & 1 else 1
            if _evaluate(answer["f"], pow(g, 2 * n, p), p) != sign * pow(g, n, p) % p:
                return f"f(gamma^{2 * n}) != eps_{n} gamma^{n}"
        return None
    if kind == "ts":
        want = refs["ts_counts"][p]
        return None if answer.counts == want else f"counts {answer.counts} != {want}"
    if kind == "heuristic":
        want = refs["ts_expected"][p]
        got = answer.rounded_nonzero()
        return None if got == want else f"rounded {got} != {want}"
    return f"unknown job kind {kind!r}"


def _check_tree(root, p: int) -> str | None:
    """Each node is a square-root polynomial on its block {a : a^M = beta}."""
    g = _gamma(p)
    points = [pow(g, 2 * n, p) for n in range((p - 1) // 2)]
    leaves = 0
    todo = [root]
    while todo:
        node = todo.pop()
        block = [a for a in points if pow(a, node.modulus, p) == node.beta]
        if not block or not _is_sqrt_on(node.coeffs[:node.modulus], block, p):
            return f"tree node level={node.level} block={node.block} is wrong"
        if node.level == 0:
            leaves += 1
        elif len(node.children) != 2:
            return f"tree node level={node.level} has {len(node.children)} children"
        todo.extend(node.children)
    s = ((p - 1) & -(p - 1)).bit_length() - 1
    return None if leaves == 1 << (s - 1) else f"{leaves} leaves, want {1 << (s - 1)}"
