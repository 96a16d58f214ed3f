import random
import time
import tracemalloc

import numpy as np
import pytest

from sqrtpoly import _kernels, fourier, make_field_ctx, poly, search, ts
from sqrtpoly.census import full_census
from sqrtpoly.errors import (LevelOutOfRange, NotASqrtPoly, SqrtPolyError,
                             TooLarge, WrongResidue)
from sqrtpoly.poly import eval_poly, from_coeffs, is_sqrt_poly
from sqrtpoly.search import (build_level, build_level_zero, decompose_tree,
                             min_degree_direct, minimal_search, render_tree)

from .fixtures import (P41_MINIMAL, P41_MINIMAL_HALF_0, P41_MINIMAL_HALF_1,
                       P41_MINIMAL_LEAVES)
from .helpers import (as_pair, naive_minimal_search, oracle_families,
                      oracle_level_members, shift_members)


def test_level_zero_family(ctx41):
    fam = build_level_zero(ctx41, 0)
    assert fam.members.shape == (1 << 5, 5)
    target = pow(ctx41.zetaTS, 0, 41)
    pts = [a for a in range(1, 41) if pow(a, 5, 41) == target]
    seen = set()
    for idx in range(len(fam.members)):
        f = fam.member_poly(ctx41, idx)
        seen.add(tuple(f.coeffs))
        assert f.degree <= 4
        assert f.degree >= 3  # (q+1)/2 lower bound on a block, q >= 3
        for a in pts:
            v = eval_poly(f, a)
            assert v * v % 41 == a
    assert len(seen) == 32  # all distinct


def test_level_zero_shifted_block(ctx41):
    fam = build_level_zero(ctx41, 2)
    target = pow(ctx41.zetaTS, 2, 41)
    pts = [a for a in range(1, 41) if pow(a, 5, 41) == target]
    for idx in (0, 7, 31):
        f = fam.member_poly(ctx41, idx)
        for a in pts:
            assert eval_poly(f, a) ** 2 % 41 == a


def test_build_level_one(ctx41):
    fam = build_level(ctx41, 1, 0)
    assert fam.members.shape == (1 << 10, 10)
    assert fam.modulus == 10
    # spot-check: members take square-root values on S_0^1 = {a : a^10 = 1}
    pts = [a for a in range(1, 41) if pow(a, 10, 41) == 1 and pow(a, 20, 41) == 1]
    for idx in (0, 123, 1023):
        f = fam.member_poly(ctx41, idx)
        for a in pts:
            assert eval_poly(f, a) ** 2 % 41 == a


def test_build_level_errors(ctx41):
    with pytest.raises(LevelOutOfRange):
        build_level(ctx41, 2)
    with pytest.raises(LevelOutOfRange):
        build_level_zero(make_field_ctx(7))
    with pytest.raises(TooLarge):
        # m = 34: at least 2^34 / 68 > 2^26 members a side would be joined
        minimal_search(make_field_ctx(137))


def test_search_refuses_p137_before_any_table(monkeypatch):
    # the first prime past the join cap is refused from m alone: nothing of
    # the 2^34 / 68 joined rows a side, nor the weights or a sign table, is built
    def refuse(*args):
        raise AssertionError("a weight matrix or a sign table was built")

    monkeypatch.setattr(_kernels, "sign_table", refuse)
    monkeypatch.setattr(fourier, "sign_weights", refuse)
    ctx = make_field_ctx(137)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="a join side of 252645136 rows"):
            minimal_search(ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_search_asks_the_cap_about_the_joined_rows(monkeypatch):
    # p = 89 joins 141 382 members a side: the bound from m (95 326) passes
    # a cap of 2^17, the rows counted before they are gathered do not
    ctx = make_field_ctx(89)
    monkeypatch.setattr(_kernels, "JOIN_CAP", 17)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="a join side of 141382 rows"):
            minimal_search(ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 141382 * 22 // 2, peak


def test_minimal_search_p41(ctx41):
    report = minimal_search(ctx41, keep_representatives=None)
    assert report.min_degree == 17
    assert report.minimizer_count == 640
    assert len(report.representatives) == 640
    coeff_sets = {tuple(f.coeffs) for f in report.representatives}
    assert tuple(P41_MINIMAL + [0, 0]) in coeff_sets
    for f in report.representatives[:8]:
        assert f.degree == 17
        assert is_sqrt_poly(ctx41, f)
    assert report.stats["family_size"] == 1 << 10


def test_minimal_search_p29(ctx29):
    report = minimal_search(ctx29)
    assert report.min_degree == 11
    assert report.minimizer_count == 4
    for f in report.representatives:
        assert is_sqrt_poly(ctx29, f) and f.degree == 11


def test_minimal_search_matches_census():
    # the bucket join against the census's lowest degree and its count, past
    # test_criterion_07's p <= 53 up to p = 89
    for p in (13, 17, 29, 37, 61, 73, 89):
        ctx = make_field_ctx(p)
        hist = full_census(ctx)
        report = minimal_search(ctx)
        assert report.min_degree == hist.min_degree()
        assert report.minimizer_count == hist.counts[report.min_degree]


@pytest.mark.parametrize("p", [17, 29, 41, 53, 73])
def test_even_shifts_map_each_family_onto_itself(p):
    # shift i maps the rows of F_0^(s-2) onto F_1^(s-2) for i = 1 and
    # onto themselves for even i; shift 2 generates the even shifts, and
    # at p = 73 (2^18 rows) only it is checked
    ctx = make_field_ctx(p)
    fam_a = oracle_families(ctx)[0]
    fam_b = _kernels.pair_rows(search._search_pairs(ctx)[1], np.arange(len(fam_a)), p)

    def row_set(rows):
        rows = np.ascontiguousarray(rows)
        return np.sort(rows.view(np.dtype((np.void, rows.shape[1]))).ravel())

    assert np.array_equal(row_set(shift_members(ctx, fam_a, 1)), row_set(fam_b))
    for fam in (fam_a, fam_b):
        want = row_set(fam)
        for i in range(2, p - 1, 2) if p < 73 else (2,):
            assert np.array_equal(row_set(shift_members(ctx, fam, i)), want), i


@pytest.mark.parametrize("p", [13, 251])
def test_bucket_rows_are_the_members_of_their_top_values(p):
    # random pairs: at p = 251 the sum of two residues needs 16 bits
    rng = np.random.default_rng(p)
    fams = [tuple(rng.integers(0, p, size=(n, 5)).astype(np.uint8) for n in (8, 16))
            for _ in range(2)]
    tops = np.array([0, 2, 7, p - 1])
    for pair, got in zip(fams, search._bucket_rows(fams, tops, p)):
        members = _kernels.pair_rows(pair, np.arange(128), p)
        want = members[np.isin(members[:, -1], tops)]
        assert np.array_equal(got[np.lexsort(got.T)], want[np.lexsort(want.T)])


def test_search_checks_its_bucket_count(monkeypatch, ctx41):
    # one orbit of 40 nonzero top values, where there are two of 20: the
    # count weighs bucket 1 by 40, and the buckets its shifts reach hold
    # half of that, so the search refuses its count
    monkeypatch.setattr(search, "_top_orbits", lambda m: 1)
    with pytest.raises(SqrtPolyError, match="buckets hold"):
        minimal_search(ctx41)


def test_minimal_search_keep_limit(ctx41):
    report = minimal_search(ctx41, keep_representatives=3)
    assert report.minimizer_count == 640  # count is exact regardless
    assert len(report.representatives) == 3
    for keep in (0, -1):
        report = minimal_search(ctx41, keep_representatives=keep)
        assert report.minimizer_count == 640
        assert report.representatives == []


@pytest.mark.parametrize("p, keep", [
    *((p, keep) for p in (5, 13, 17, 29, 37, 41, 53) for keep in (1, 3, None)),
    (61, 1), (61, 16), (73, 1), (73, 16)])
def test_group_scan_matches_naive_loop(p, keep):
    ctx = make_field_ctx(p)
    report = minimal_search(ctx, keep_representatives=keep)
    best, count, reps = naive_minimal_search(ctx, keep_representatives=keep)
    assert report.prefix_length == best
    assert report.minimizer_count == count
    assert [f.coeffs for f in report.representatives] == reps


def test_minimal_search_pair_cap(monkeypatch, ctx41):
    monkeypatch.setattr(search, "DEFAULT_PAIR_CAP", 100)
    report = minimal_search(ctx41, keep_representatives=None)
    assert report.stats["count_only"]
    assert report.minimizer_count == 640
    assert len(report.representatives) == 100


def _check_join_sort(a, b, p):
    # the order of a stable column lexsort, top column first, and the
    # common-prefix lengths read off the sorted rows
    order, src, lcp = _kernels.join_sort(as_pair(a, p), as_pair(b, p), p)
    both = np.vstack([a, b])
    want = np.lexsort(tuple(both[:, j] for j in range(both.shape[1])))
    assert np.array_equal(order, want)
    assert np.array_equal(src, want >= len(a))
    rows = both[want]
    eq_rev = (rows[:-1] == rows[1:])[:, ::-1]
    naive = np.where(eq_rev.all(axis=1), both.shape[1], (~eq_rev).argmax(axis=1))
    assert np.array_equal(lcp, naive)


def test_packed_key_order_matches_column_lexsort():
    ctx = make_field_ctx(53)  # 13 coefficients of 6 bits: two keys
    _check_join_sort(*oracle_families(ctx), ctx.p)
    # the pairs sort as the rows they stand for; the oracle lists the same
    # members in another order, so the sorted rows, src and lcp agree
    pairs = search._search_pairs(ctx)
    order, src, lcp = _kernels.join_sort(*pairs, ctx.p)
    oracle = oracle_families(ctx)
    want_order, want_src, want_lcp = _kernels.join_sort(
        *(as_pair(f, ctx.p) for f in oracle), ctx.p)
    assert np.array_equal(src, want_src)
    assert np.array_equal(lcp, want_lcp)
    rows = np.vstack([_kernels.pair_rows(f, np.arange(_kernels._height(f)), ctx.p)
                      for f in pairs])
    assert np.array_equal(rows[order], np.vstack(oracle)[want_order])


P_1_MOD_4 = (13, 17, 29, 37, 41, 53, 61, 73)  # s = 2, 3 and 4


def sorted_rows(a):
    """The rows of a in lexicographic order, column 0 first."""
    return a[np.lexsort(a.T[::-1])]


@pytest.mark.parametrize("p", P_1_MOD_4)
def test_pair_keys_match_oracle_families(p):
    # the keys packed from the two pairs of half tables are the keys of
    # the families built in full, glued and shifted row by row
    # (the same members in another order: each family's keys, without the
    # row index in their low bits, agree as sorted lists)
    ctx = make_field_ctx(p)
    key, c, ibits = _kernels._packed_key(*search._search_pairs(ctx), p)
    want, want_c, want_ibits = _kernels._packed_key(
        *(as_pair(f, p) for f in oracle_families(ctx)), p)
    assert (c, ibits) == (want_c, want_ibits)
    n_a = 1 << (p - 1) // 4
    for x, y in ((key[:n_a], want[:n_a]), (key[n_a:], want[n_a:])):
        assert np.array_equal(np.sort(x >> np.uint64(ibits)),
                              np.sort(y >> np.uint64(ibits)))


@pytest.mark.parametrize("p, levels", [*((p, None) for p in P_1_MOD_4), (97, 3)])
def test_build_level_matches_oracle(p, levels):
    ctx = make_field_ctx(p)
    for k in range(ctx.s - 1 if levels is None else levels):
        members = oracle_level_members(ctx, k)
        for i in sorted({0, 1, (1 << (ctx.s - 1)) - 1}):
            fam = build_level(ctx, k, i)
            assert fam.members.dtype == members.dtype
            want = shift_members(ctx, members, i)  # the same rows, in another order
            assert np.array_equal(sorted_rows(fam.members), sorted_rows(want)), (k, i)


@pytest.mark.parametrize("p", (5, *P_1_MOD_4))
def test_members_follow_the_census_sign_convention(p):
    # member w of F_0^k takes eps_j gamma^((r/M) j) at gamma^(2 (r/M) j),
    # M = 2^k q, where bit j of w set means eps_j = -1: Horner at every point
    ctx = make_field_ctx(p)
    rng = random.Random(p)
    for k in range(ctx.s - 1):
        fam = build_level(ctx, k)
        m = fam.modulus
        e = ctx.r // m
        for w in {0, (1 << m) - 1, *(rng.getrandbits(m) for _ in range(32))}:
            f = fam.member_poly(ctx, w)
            for j in range(m):
                sign = -1 if w >> j & 1 else 1
                assert eval_poly(f, pow(ctx.gamma, 2 * e * j, p)) == \
                    sign * pow(ctx.gamma, e * j, p) % p, (k, w, j)


def test_p17_minimizers_are_the_degree_6_ts_polynomials():
    # q = 1: the TS family's degree ladder counts c_0 != 0 as degree r = 8,
    # so the 16 TS polynomials of Poly degree 6 sit in its degree-8 count;
    # they are exactly the search's minimizers
    ctx = make_field_ctx(17)
    report = minimal_search(ctx, keep_representatives=None)
    assert (report.min_degree, report.minimizer_count) == (6, 16)
    hist, polys = ts.enumerate_ts(ctx, dump=True)
    assert hist.counts == {7: 16, 8: 240}
    six = {tuple(f.coeffs) for f in polys if f.degree == 6}
    assert {tuple(f.coeffs) for f in report.representatives} == six
    assert all(f.coeffs[0] for f in polys if f.degree == 6)


@pytest.mark.parametrize("p", [61, 73])
def test_search_memory_is_the_keys(p):
    # no family of 2^m rows is built: the peak stays within a few times
    # the one uint64 key a member, which the join cannot do without
    ctx = make_field_ctx(p)
    m = (p - 1) // 4
    key_bytes = 8 * (2 << m)
    minimal_search(ctx)  # warm the lazy tables of ctx
    tracemalloc.start()
    try:
        minimal_search(ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * key_bytes, peak / key_bytes


def test_search_stage_stats(ctx41):
    stats = minimal_search(ctx41).stats
    assert set(stats["stage_seconds"]) == {"half_tables", "buckets", "keys",
                                           "sort", "run_scan", "glue"}
    assert all(v >= 0 for v in stats["stage_seconds"].values())
    # m = 10 and gcd(10, 3) = 1: bucket 0 and one bucket of each of the two
    # orbits of 40 / 2 = 20 nonzero top values are joined
    assert (stats["top_values"], stats["orbit_size"]) == (3, 20)
    pairs = search._search_pairs(ctx41)
    tops = np.array([0, 1, ctx41.gamma])
    rows = search._bucket_rows(pairs, tops, ctx41.p)
    assert stats["joined_rows"] == sum(len(r) for r in rows) == 148
    zero = np.zeros((1, 10), dtype=rows[0].dtype)
    order, src, lcp = _kernels.join_sort((rows[0], zero), (rows[1], zero), ctx41.p)
    # 148 rows need 8 index bits, and 9 columns of 6 bits fit beside them;
    # order is the key itself, and the tie pass reads the other uint8
    # column of each tied row
    assert stats["key_columns"] == 9
    built = [t for pair in pairs for t in pair] + list(rows) + [order, src, lcp]
    assert stats["memory_bytes"] == sum(x.nbytes for x in built) + stats["tied_rows"]
    assert stats["family_size"] == 1 << 10


@pytest.mark.parametrize("p, m", [(13, 16), (13, 22), (89, 22), (257, 22)])
def test_packed_key_order_breaks_ties(p, m):
    # few distinct values: the top key ties often, so the later keys and
    # the original order of equal rows decide (one key for (13, 16))
    rng = np.random.default_rng(p + m)
    dtype = np.min_scalar_type(p - 1)
    a = rng.integers(0, 2, size=(300, m)).astype(dtype)
    b = rng.integers(0, 2, size=(200, m)).astype(dtype)
    a[:, :2] = rng.integers(0, p, size=(300, 2))
    a[100:120] = a[:20]  # equal rows within a family
    b[:50] = a[:50]  # and across the families
    _check_join_sort(a, b, p)


def _check_scan_runs(lcp, src, j):
    """scan_runs at level j against a walk of lcp and the cumsum of src."""
    runs = _kernels.scan_runs(lcp, src, j)
    upto = np.concatenate(([0], np.cumsum(src)))
    want, t = [], 0
    while t < len(lcp):
        end = t
        while end < len(lcp) and lcp[end] >= j:
            end += 1
        if end > t:  # sorted rows t..end form a run
            nb = upto[end + 1] - upto[t]
            want.append((t, end + 1 - t - nb, nb))
        t = end + 1
    assert list(zip(*(x.tolist() for x in runs))) == want
    return runs


@pytest.mark.parametrize("block_rows", (1, 7, 64))
def test_join_sort_across_block_edges(monkeypatch, block_rows):
    # the links, their lcp and the tied links are read a block of rows at
    # a time; small blocks put block edges inside tied runs and inside
    # the runs of scan_runs
    monkeypatch.setattr(_kernels, "_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(block_rows)
    a = rng.integers(0, 2, size=(150, 22)).astype(np.uint8)
    b = rng.integers(0, 2, size=(100, 22)).astype(np.uint8)
    a[:, :2] = rng.integers(0, 89, size=(150, 2))
    b[:40] = a[:40]
    _check_join_sort(a, b, 89)
    _, src, lcp = _kernels.join_sort(as_pair(a, 89), as_pair(b, 89), 89)
    for j in (0, 5, 22):
        _, na, nb = _check_scan_runs(lcp, src, j)
        want = sum(np.array_equal(x[22 - j:], y[22 - j:]) for x in a for y in b)
        assert na @ nb == want, j


def test_join_sort_with_no_column_beside_the_index():
    # p = 2^61 - 1: a value takes 61 bits, so no column fits beside the
    # 9-bit index, every row ties on the key, and the tie pass sorts all
    p = (1 << 61) - 1
    rng = np.random.default_rng(61)
    a = rng.integers(0, p, size=(300, 3), dtype=np.int64)
    b = rng.integers(0, p, size=(200, 3), dtype=np.int64)
    a[:100, 2] = rng.integers(p - 3, p, size=100)  # ties on the top column
    b[:60, 1:] = a[:60, 1:]  # on the top two across the tables
    a[200:220] = a[:20]  # and equal rows
    stats = {}
    _kernels.join_sort(as_pair(a, p), as_pair(b, p), p, stats)
    assert stats["key_columns"] == 0 and stats["tied_rows"] == 500
    _check_join_sort(a, b, p)


def test_tie_pass_over_more_runs_than_one_16_bit_digit():
    # p = 3, 2^18 + 1000 rows: the 22 key columns of rows 2i and 2i + 1
    # agree (i in base 3 on top), and 4 random columns below decide them,
    # so the tie pass sorts 2^17 runs and takes the run as two digits
    p, n = 3, 1 << 17
    rng = np.random.default_rng(3)
    i = np.repeat(np.arange(n), 2)
    a = np.zeros((2 * n, 26), dtype=np.uint8)
    for d in range(11):
        a[:, 25 - d] = i // 3 ** d % 3
    a[:, :4] = rng.integers(0, p, size=(2 * n, 4))
    b = a[:1000].copy()
    b[::2, 0] = (b[::2, 0] + 1) % p
    stats = {}
    _kernels.join_sort(as_pair(a, p), as_pair(b, p), p, stats)
    assert stats["key_columns"] == 22 and stats["tied_rows"] == 2 * n + 1000
    _check_join_sort(a, b, p)


def test_tied_rows_decide_the_longest_cross_prefix():
    # p = 89, 22 columns as the search's: with 500 rows, 7 columns fit
    # beside the index, and the longest cross-table prefix (12 columns)
    # is found by the tie pass alone
    p, m = 89, 22
    rng = np.random.default_rng(89)
    a = rng.integers(0, p, size=(300, m)).astype(np.uint8)
    b = rng.integers(0, p, size=(200, m)).astype(np.uint8)
    b[:5, -12:] = a[10:15, -12:]
    b[5:8, -12:] = a[10, -12:]  # one a row against four b rows
    b[8:12, -9:] = a[40:44, -9:]
    stats = {}
    order, src, lcp = _kernels.join_sort(as_pair(a, p), as_pair(b, p), p, stats)
    assert stats["key_columns"] == 7 and stats["tied_rows"] > 0
    _check_join_sort(a, b, p)
    cross = src[:-1] != src[1:]
    best = int((lcp * cross).max())
    assert best == 12
    runs = _kernels.scan_runs(lcp, src, best)
    got = list(zip(*(x.tolist() for x in _kernels.run_pairs(order, src, runs))))
    want = [(i, j) for i in range(len(a)) for j in range(len(b))
            if np.array_equal(a[i, -best:], b[j, -best:])]
    assert sorted(got) == want and len(want) == 8


def test_scan_runs_counts_pairs():
    # the run scan against a direct count of agreeing pairs, every length
    rng = np.random.default_rng(7)
    a = rng.integers(0, 3, size=(60, 5)).astype(np.int64)
    b = rng.integers(0, 3, size=(40, 5)).astype(np.int64)
    _, src, lcp = _kernels.join_sort(as_pair(a, 3), as_pair(b, 3), 3)
    for j in range(6):
        _, na, nb = _check_scan_runs(lcp, src, j)
        want = sum(np.array_equal(x[5 - j:], y[5 - j:]) for x in a for y in b)
        assert na @ nb == want, j


def test_min_degree_direct():
    for p in (7, 11, 19, 23):
        ctx = make_field_ctx(p)
        report = minimal_search(ctx)
        assert report.min_degree == (p + 1) // 4
        assert report.minimizer_count == 2
        assert report.representatives[0] == -report.representatives[1]
        assert is_sqrt_poly(ctx, report.representatives[0])
    with pytest.raises(WrongResidue):
        min_degree_direct(make_field_ctx(13))


def test_min_degree_direct_at_a_large_prime():
    # the direct route checks one monomial at all r = 50001 points
    ctx = make_field_ctx(100003)
    t0 = time.perf_counter()
    report = min_degree_direct(ctx)
    assert time.perf_counter() - t0 < 5
    assert report.min_degree == 25001 and report.minimizer_count == 2


def test_search_checks_raise(monkeypatch, ctx41):
    # the result checks are errors, not asserts that python -O removes
    with monkeypatch.context() as mp:
        mp.setattr(search, "is_sqrt_poly", lambda ctx, f: False)
        with pytest.raises(SqrtPolyError, match="not a square-root"):
            min_degree_direct(make_field_ctx(19))
    join_sort = _kernels.join_sort
    # a common prefix of m - 1 gives degree m = 10 < 40/3; of 0, degree
    # 2m - 1 = 19 above the TS degree 18
    for prefix in (9, 0):
        with monkeypatch.context() as mp:
            def fake_sort(a, b, p, stats=None):
                order, src, lcp = join_sort(a, b, p, stats)
                return order, src, np.full_like(lcp, prefix)
            mp.setattr(_kernels, "join_sort", fake_sort)
            with pytest.raises(SqrtPolyError, match="outside"):
                minimal_search(ctx41)
    glue_rows = poly.glue_rows
    with monkeypatch.context() as mp:
        # zero only the representatives' glue, at the top level s - 2 = 1
        mp.setattr(poly, "glue_rows", lambda ctx, a, b, k, i:
                   glue_rows(ctx, a, b, k, i) * (k != ctx.s - 2))
        with pytest.raises(SqrtPolyError, match="degree is not 17"):
            minimal_search(ctx41)


def test_search_report_json(ctx29):
    obj = minimal_search(ctx29).to_json()
    assert obj["min_degree"] == 11
    assert obj["minimizer_count"] == "4"
    assert isinstance(obj["representatives"][0], list)
    assert "wall_seconds" in obj["stats"]


def test_decompose_tree_example(ctx41):
    f = from_coeffs(ctx41, P41_MINIMAL)
    tree = decompose_tree(ctx41, f)
    assert tree.coeffs == f.coeffs
    assert tree.modulus == 20 and tree.beta == 1
    half0, half1 = tree.children
    assert half0.coeffs == P41_MINIMAL_HALF_0
    assert half1.coeffs == P41_MINIMAL_HALF_1
    leaves = {node.block: node.coeffs
              for half in tree.children for node in half.children}
    assert leaves == P41_MINIMAL_LEAVES
    # every node's polynomial takes square-root values on its own block
    def check(node):
        g = from_coeffs(ctx41, node.coeffs)
        for a in range(1, 41):
            if pow(a, node.modulus, 41) == node.beta and pow(a, 20, 41) == 1:
                assert eval_poly(g, a) ** 2 % 41 == a
        for ch in node.children:
            check(ch)
    check(tree)


def test_decompose_tree_rejects_non_sqrt(ctx41):
    with pytest.raises(NotASqrtPoly):
        decompose_tree(ctx41, poly.monomial(ctx41, 2, 3))


def test_decompose_roundtrip(ctx41):
    # gluing the two halves back recovers the original polynomial
    f = from_coeffs(ctx41, P41_MINIMAL)
    tree = decompose_tree(ctx41, f)
    h0 = from_coeffs(ctx41, tree.children[0].coeffs)
    h1 = from_coeffs(ctx41, tree.children[1].coeffs)
    assert poly.glue_pair(ctx41, h0, h1, 1, 0) == f


def test_render_tree(ctx41):
    f = from_coeffs(ctx41, P41_MINIMAL)
    text = render_tree(ctx41, decompose_tree(ctx41, f))
    assert "level=2" in text and text.count("level=0") == 4
    assert "19x^4 + 33x^3 + 6x^2 + 38x + 28" in text
