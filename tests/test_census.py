import math
import tracemalloc

import numpy as np
import pytest

from sqrtpoly import _kernels, census, fourier, make_field_ctx, search
from sqrtpoly.census import DegreeHistogram, family_census, full_census
from sqrtpoly.errors import (InvalidDivisor, RangeOutOfBounds, SqrtPolyError,
                             TooLarge, ValidationError)
from sqrtpoly.signs import SignVector, orbit_stats

from .fixtures import ALL_COUNTS, TS_COUNTS
from .helpers import (dense_family_census, dense_vanishing_words,
                      gray_walk_census, segment_prefix_counts)

# p = 1 mod 4 at s = 2, 3, 4 and 5
P_1_MOD_4 = (5, 13, 17, 29, 37, 41, 53, 61, 73)


def brute_degree_counts(ctx):
    counts = {}
    for w in range(1 << ctx.r):
        f = fourier.coeffs_from_signs(ctx, SignVector(w, ctx.r))
        counts[f.degree] = counts.get(f.degree, 0) + 1
    return counts


def test_full_census_against_bruteforce(ctx13):
    assert full_census(ctx13).counts == brute_degree_counts(ctx13)


def test_full_census_reference_values():
    for p in (29, 41):
        hist = full_census(make_field_ctx(p))
        assert hist.counts == ALL_COUNTS[p]
        assert hist.total == 1 << ((p - 1) // 2)


def test_full_census_sharding(ctx29):
    base = full_census(ctx29).counts
    assert full_census(ctx29, shards=7).counts == base
    assert full_census(ctx29, shards=4, threads=4).counts == base


def test_full_census_is_the_merge_of_its_shards(monkeypatch, ctx29):
    # full_census(shards=N) sums census_shard(ctx, i, N) over i; its meta
    # names N shards and no single shard
    calls = []
    shard = census.census_shard

    def spy(ctx, index, count, max_r=None):
        calls.append((index, count))
        return shard(ctx, index, count, max_r)

    monkeypatch.setattr(census, "census_shard", spy)
    hist = full_census(ctx29, shards=5, threads=2)
    assert calls == [(i, 5) for i in range(5)]
    assert hist.counts == ALL_COUNTS[29]
    assert hist.meta == {"p": 29, "s": 2, "q": 7, "family": "all", "shards": 5}
    calls.clear()
    assert full_census(make_field_ctx(3), shards=4).meta["shards"] == 2
    assert calls == [(0, 2), (1, 2)]


def test_census_shard_matches_gray_walk(ctx29):
    # every shard of an uneven split, against the Gray walk over its range
    merged = DegreeHistogram({})
    for i in range(7):
        lo, hi = _kernels.shard_range(ctx29.r, i, 7)
        part = census.census_shard(ctx29, i, 7)
        assert part.counts == census._hist_to_counts(
            np.array(gray_walk_census(ctx29, lo, hi))), i
        assert part.total == hi - lo
        assert part.meta["shard"] == [i, 7]
        assert part.meta["shards"] == 7
        merged = merged.merge(part)
    assert merged.counts == ALL_COUNTS[29]
    assert "shard" not in merged.meta and merged.meta["shards"] == 7


def test_census_shard_joins_only_its_rows(monkeypatch, ctx29):
    # shard 1 of 4 at r = 14: 32 of the 128 high-half rows, and no others
    joined = []
    real = census._kernels.join_sort

    def spy(a, b, p):
        joined.append((_kernels._height(a), _kernels._height(b)))
        return real(a, b, p)

    monkeypatch.setattr(census._kernels, "join_sort", spy)
    census.census_shard(ctx29, 1, 4)
    assert joined == [(128, 32)]
    with pytest.raises(RangeOutOfBounds):
        census.census_shard(ctx29, 4, 4)


def test_census_range_exactness_check(monkeypatch, ctx13):
    # a join that loses a pair must be refused, not reported: through a
    # shard, through full_census and through family_census
    real = census._kernels.join_hist

    def lossy(a, b, p):
        hist = real(a, b, p)
        hist[-1] -= 1
        return hist

    monkeypatch.setattr(census._kernels, "join_hist", lossy)
    with pytest.raises(census.SqrtPolyError, match="counted"):
        census.census_shard(ctx13, 0, 1)
    with pytest.raises(census.SqrtPolyError, match="counted"):
        full_census(make_field_ctx(19))
    with pytest.raises(census.SqrtPolyError, match="counted"):
        census.family_census(ctx13, 2)
    with pytest.raises(census.SqrtPolyError, match="zero polynomial"):
        census._hist_to_counts(np.array([1, 0, 2]))
    with pytest.raises(census.SqrtPolyError, match="-1 vectors of degree 2"):
        census._hist_to_counts(np.array([0, 3, 0, -1]))


@pytest.mark.parametrize("level, change, match", [
    (0, -1, "counted 63 of 64"),  # a pair lost from Z_0
    (1, 100, "counted -36 vectors of degree 5"),  # Z_1 above Z_0
])
def test_block_census_exactness_check(monkeypatch, ctx13, level, change, match):
    # a join whose Z_j are off must be refused, not reported
    real = census._kernels.prefix_counts

    def lossy(lcp, src, levels):
        z = real(lcp, src, levels)
        z[level] += change
        return z

    monkeypatch.setattr(census._kernels, "prefix_counts", lossy)
    with pytest.raises(SqrtPolyError, match=match):
        full_census(ctx13)


@pytest.mark.parametrize("p", P_1_MOD_4)
def test_block_census_matches_half_table_join(p):
    # the census's half-table join against an independent route: the
    # search's block join, on the minimum degree and its count
    ctx = make_field_ctx(p)
    hist = full_census(ctx, max_r=ctx.r)
    assert hist.total == 1 << ctx.r
    report = search.minimal_search(ctx)
    assert hist.min_degree() == report.min_degree
    assert hist.counts[report.min_degree] == report.minimizer_count


@pytest.mark.parametrize("p", (61, 73))
def test_full_census_matches_frozen_histograms(p):
    # every degree's count, against histograms counted by other routes
    ctx = make_field_ctx(p)
    hist = full_census(ctx, max_r=ctx.r)
    assert hist.counts == ALL_COUNTS[p]
    assert hist.total == 1 << ctx.r


@pytest.mark.parametrize("p", (43, 47, 59))
def test_census_minimum_at_p_3_mod_4_is_the_monomial_pair(p):
    # x^((p+1)/4) and its negation, and no other vector, reach the minimum
    ctx = make_field_ctx(p)
    hist = full_census(ctx, max_r=ctx.r)
    assert hist.min_degree() == (p + 1) // 4
    assert hist.counts[(p + 1) // 4] == 2


@pytest.mark.parametrize("p", (107, 109, 113, 20011))
def test_census_refuses_oversized_joins_before_any_table(monkeypatch, p):
    # r = 53, 54, 56: a join side of 2^27 or 2^28 rows, refused by the join
    # cap before the weights or any sign table are built; at r = 10005 the
    # r x r weights alone would take 800 MB.  (The search joins fewer rows
    # and runs at p = 109 and 113; test_search.py holds its refusal.)
    def refuse(*args):
        raise AssertionError("a weight matrix or a sign table was built")

    monkeypatch.setattr(_kernels, "sign_table", refuse)
    monkeypatch.setattr(fourier, "sign_weights", refuse)
    ctx = make_field_ctx(p)
    with pytest.raises(TooLarge, match="cap"):
        full_census(ctx, max_r=p)
    with pytest.raises(TooLarge, match="cap"):
        census.census_shard(ctx, 0, 4, max_r=p)


def test_join_cap_boundary():
    # a side of 2^JOIN_CAP rows is joined, one more row is refused; d signs
    # make a side of 2^(d - d // 2) rows, so d = 2 JOIN_CAP + 1 is the first refused
    cap = _kernels.JOIN_CAP
    _kernels.check_side(1 << cap)
    _kernels.check_signs(2 * cap)
    with pytest.raises(TooLarge, match=f"a join side of {(1 << cap) + 1} rows"):
        _kernels.check_side((1 << cap) + 1)
    with pytest.raises(TooLarge, match=f"a join side of {1 << cap + 1} rows"):
        _kernels.check_signs(2 * cap + 1)
    # past 2^64 rows the side is named by its power of two, not built
    with pytest.raises(TooLarge, match="2\\^64 or more rows"):
        _kernels.check_signs(1 << 40)


def test_census_memory_is_the_keys():
    # p = 73, r = 36: 2^18 + 2^18 rows are joined from quarter tables of
    # 2^9 rows, and the peak stays within a few times their uint64 keys
    ctx = make_field_ctx(73)
    key_bytes = 8 * (1 << 19)
    full_census(ctx, max_r=36)  # warm the lazy tables of ctx
    tracemalloc.start()
    try:
        full_census(ctx, max_r=36)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * key_bytes, peak / key_bytes


@pytest.mark.parametrize("bits", range(17))
def test_gray_blocks_tile_the_range(bits):
    rng = np.random.default_rng(bits)
    total = 1 << bits
    ranges = [(0, 0), (0, total), (total - 1, total), (0, 1),
              (total // 3, total // 3)]
    ranges += [tuple(sorted(rng.integers(0, total + 1, size=2).tolist()))
               for _ in range(20)]
    for lo, hi in ranges:
        words = []
        for start, t in _kernels._gray_blocks(lo, hi):
            assert start % (1 << t) == 0
            words += range(start, start + (1 << t))
        idx = np.arange(lo, hi)
        assert sorted(words) == sorted((idx ^ (idx >> 1)).tolist()), (lo, hi)


@pytest.mark.parametrize("p", (13, 251, 257, (1 << 61) - 1))
def test_sign_pair_rows_are_the_sign_table(p):
    # row w of the pair is row w of the sign table, for 0 to 7 weights,
    # stored in the narrowest dtype of p - 1
    rng = np.random.default_rng(p % 1000)
    for d in range(8):
        weights = rng.integers(0, p, size=(d, 3), dtype=np.int64)
        pair = _kernels.sign_pair(weights, p)
        assert pair[0].dtype == np.min_scalar_type(p - 1)
        rows = _kernels.pair_rows(pair, np.arange(1 << d), p)
        assert rows.astype(np.int64).tolist() == \
            _kernels.sign_table(weights, p).tolist(), d


def test_half_tables_negate_the_high_half_in_the_field():
    # at p = 251 the tables are uint8, where -x would wrap round to 256 - x
    p = 251
    rng = np.random.default_rng(p)
    weights = rng.integers(0, p, size=(9, 3), dtype=np.int64)
    weights[5] = weights[4]
    weights[6:, 0] = 0  # so high words 1 and 2 sum to 0 in column 0
    a, b, half = _kernels.half_tables(weights, p)
    assert half == 4 and a[0].dtype == b[0].dtype == np.uint8
    words = np.arange(1 << 5)
    high = _kernels.sign_table(weights[4:], p)
    neg = _kernels.pair_rows(b, words, p).astype(np.int64)
    assert neg.tolist() == (-high % p).tolist()
    assert neg[[1, 2], 0].tolist() == [0, 0] and high[[1, 2], 0].tolist() == [0, 0]
    assert _kernels.pair_rows(a, np.arange(1 << 4), p).astype(np.int64).tolist() == \
        _kernels.sign_table(weights[:4], p).tolist()


def _random_join(rng, n, levels, b_share):
    lcp = rng.integers(0, levels + 1, size=max(n - 1, 0)).astype(np.uint8)
    src = (rng.random(n) < b_share).astype(np.int8)
    return lcp, src


def test_prefix_counts_matches_scan_runs_on_random_joins():
    rng = np.random.default_rng(11)
    for trial in range(400):
        n, levels = int(rng.integers(0, 50)), int(rng.integers(0, 7))
        lcp, src = _random_join(rng, n, levels, rng.choice([0.0, 0.3, 0.5, 1.0]))
        z = _kernels.prefix_counts(lcp, src, levels)
        assert np.array_equal(z, segment_prefix_counts(lcp, src, levels)), trial
        nb = int(src.sum())
        assert z[0] == (n - nb) * nb


@pytest.mark.parametrize("n, block_rows", [
    (0, None), (1, None), ((1 << 16) - 1, None), (1 << 16, None),
    ((1 << 16) + 1, None), (60, 1), (60, 3)])
def test_runs_are_the_chains_of_links(monkeypatch, n, block_rows):
    # the runs of n links against their chains of links lcp >= j, found
    # in all of lcp at once; _runs reads a block of _BLOCK_ROWS links at
    # a time, 2^16 unless set here
    if block_rows:
        monkeypatch.setattr(_kernels, "_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(n)
    lcp = rng.integers(0, 5, size=n).astype(np.uint8)
    edge = _kernels._BLOCK_ROWS
    lcp[edge - 3:edge + 3] = 4  # a run over the first block edge
    for j in range(7):  # j = 0: one run over every row; j > 4: no run
        links = np.flatnonzero(lcp >= j)
        starts = links[np.diff(links, prepend=-2) != 1]
        ends = links[np.diff(links, append=-1) != 1] + 2
        got = _kernels._runs(lcp, j)
        assert [x.tolist() for x in got] == [starts.tolist(), ends.tolist()], j
    every = [[0], [n + 1]] if n else [[], []]
    assert [x.tolist() for x in _kernels._runs(lcp, 0)] == every
    assert [x.tolist() for x in _kernels._runs(lcp, 5)] == [[], []]


@pytest.mark.parametrize("lcp, src, want", [
    ([], [], [0, 0, 0]),  # no rows
    ([], [1], [0, 0, 0]),  # one row
    ([0, 0, 0], [0, 1, 0, 1], [4, 0, 0]),  # every link cut: no run above 0
    ([2, 2, 2], [0, 1, 0, 1], [4, 4, 4]),  # one run at every level
    ([2, 1, 0, 2], [0, 0, 0, 0, 0], [0, 0, 0]),  # rows of a only
    ([2, 1, 0, 2], [1, 1, 1, 1, 1], [0, 0, 0]),  # rows of b only
    ([2, 0, 1, 2], [0, 1, 1, 0, 1], [6, 3, 2]),
])
def test_prefix_counts_edge_cases(lcp, src, want):
    lcp, src = np.array(lcp, dtype=np.uint8), np.array(src, dtype=np.int8)
    assert _kernels.prefix_counts(lcp, src, 2).tolist() == want
    assert segment_prefix_counts(lcp, src, 2).tolist() == want


@pytest.mark.parametrize("p", (13, 29, 41, 61))
def test_prefix_counts_matches_scan_runs_on_real_joins(p):
    # the search's block join and the census's half-table join
    ctx = make_field_ctx(p)
    _, src, lcp = _kernels.join_sort(*search._search_pairs(ctx), p)
    m = ctx.r // 2
    assert np.array_equal(_kernels.prefix_counts(lcp, src, m),
                          segment_prefix_counts(lcp, src, m))
    a, b, _ = _kernels.half_tables(
        fourier.sign_weights(ctx, ctx.r, 1 - 2 * np.arange(ctx.r)), p)
    _, src, lcp = _kernels.join_sort(a, b, p)
    assert np.array_equal(_kernels.prefix_counts(lcp, src, ctx.r),
                          segment_prefix_counts(lcp, src, ctx.r))


def test_census_cap():
    ctx = make_field_ctx(67)  # r = 33 > 30
    with pytest.raises(TooLarge, match="census cap 30"):
        full_census(ctx, max_r=30)
    with pytest.raises(TooLarge, match="census cap 30"):
        census.census_shard(ctx, 0, 4, max_r=30)
    with pytest.raises(TooLarge):
        full_census(make_field_ctx(29), max_r=10)
    assert full_census(make_field_ctx(29), max_r=14).counts == ALL_COUNTS[29]


def test_family_census_against_bruteforce(ctx29):
    # d = 2: the four vectors eps_{2x+y} = (-1)^x h_y, degrees by direct DFT
    want = {}
    for hw in range(4):
        h = SignVector(hw, 2)
        bits = 0
        for n in range(ctx29.r):
            x, y = divmod(n, 2)
            if h.sign(y) * (-1) ** x == -1:
                bits |= 1 << n
        f = fourier.coeffs_from_signs(ctx29, SignVector(bits, ctx29.r))
        want[f.degree] = want.get(f.degree, 0) + 1
    assert family_census(ctx29, 2).counts == want


def test_family_census_reference_values():
    for p in (17, 41, 97, 113):
        ctx = make_field_ctx(p)
        hist = family_census(ctx, 1 << (ctx.s - 1))
        assert hist.counts == TS_COUNTS[p]


def test_family_census_against_dense_oracle():
    # every admissible d <= 20, against a product over every member
    for p in (13, 17, 29, 37, 41, 97, 113):
        ctx = make_field_ctx(p)
        for d in range(1, 21):
            if ctx.r % d == 0 and (ctx.r // d) % 2 == 1:
                hist = family_census(ctx, d)
                assert hist.counts == dense_family_census(ctx, d), (p, d)


def test_family_census_errors(ctx13):
    with pytest.raises(InvalidDivisor):
        family_census(ctx13, 4)  # 4 does not divide 6
    with pytest.raises(InvalidDivisor):
        family_census(ctx13, 3)  # 6/3 = 2 even
    with pytest.raises(TooLarge):
        family_census(make_field_ctx(12289), 2048)  # r = 6144 = 2048 * 3


def test_family_census_cap(ctx41):
    assert family_census(ctx41, 4).counts == TS_COUNTS[41]


def test_admissible_degrees(ctx29):
    assert census.family_admissible_degrees(ctx29, 2) == [11, 4]
    ctx41 = make_field_ctx(41)
    assert census.family_admissible_degrees(ctx41, 4) == [18, 13, 8, 3]


def test_coefficient_vanish_census(ctx13):
    # against direct coefficient inspection
    for k in range(ctx13.r):
        want = 0
        for w in range(1 << ctx13.r):
            f = fourier.coeffs_from_signs(ctx13, SignVector(w, ctx13.r))
            if f.coeffs[k] == 0:
                want += 1
        # c_k = (1/r) H_{r,1-2k}: the one-column join at ell = 1 - 2k
        assert fourier.count_vanishing_bruteforce(ctx13, ctx13.r, 1 - 2 * k) == want


def test_orbit_divisibility(ctx13):
    ok, by_order = census.orbit_divisibility_check(ctx13, [1])
    assert ok
    assert sum(by_order.values()) == fourier.count_vanishing_bruteforce(
        ctx13, ctx13.r, 1)
    with pytest.raises(TooLarge, match="join cap"):  # r = 53
        census.orbit_divisibility_check(make_field_ctx(107), [1])
    with pytest.raises(ValidationError):
        census.orbit_divisibility_check(ctx13, [])


def test_orbit_divisibility_against_dense_oracle():
    # at p = 29 each of these ells has G = 0 in the order-2 family, so
    # that family's join has no column
    for p in (13, 29, 37):
        ctx = make_field_ctx(p)
        for ells in ([1], [1, 3], [5]):
            words = dense_vanishing_words(ctx, ells)
            want = {}
            for w in words:
                o = orbit_stats(SignVector(w, ctx.r)).order
                want[o] = want.get(o, 0) + 1
            ok, by_order = census.orbit_divisibility_check(ctx, ells)
            assert by_order == want, (p, ells)
            assert ok == all(n % o == 0 for o, n in want.items())


def test_orbit_divisibility_joins_half_tables(monkeypatch):
    # r = 23: one join per family order d in (1, 23), the largest of the
    # 2^11 low and 2^12 high rows, and nothing of 2^23 rows is built
    ctx = make_field_ctx(47)
    joined = []
    real = census._kernels.join_sort

    def spy(a, b, p):
        joined.append((_kernels._height(a), _kernels._height(b)))
        return real(a, b, p)

    monkeypatch.setattr(census._kernels, "join_sort", spy)
    census.orbit_divisibility_check(ctx, [1, 3])
    assert census.family_orders(ctx.r) == [1, 23]
    assert joined == [(1, 2), (1 << 11, 1 << 12)]


def test_orbit_divisibility_past_the_old_cap():
    # every vanishing word is counted once, in a class of order 2d for a
    # family order d
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        ctx = make_field_ctx(p)
        orders = {2 * d for d in census.family_orders(ctx.r)}
        for ell in range(1, p - 1, 2):
            if math.gcd(ell, p - 1) != 1:
                continue
            ok, by_order = census.orbit_divisibility_check(ctx, [ell])
            assert sum(by_order.values()) == fourier.count_vanishing_formula(ctx, ell)
            assert set(by_order) <= orders, (p, ell)


def test_family_orders():
    assert census.family_orders(1) == [1]
    assert census.family_orders(12) == [4, 12]
    assert census.family_orders(45) == [1, 3, 5, 9, 15, 45]


def test_shard_drift_detector(monkeypatch, ctx13):
    # corrupting the delta table must trip the end-of-range verification
    real = census._delta_table

    def corrupt(ctx):
        delta = real(ctx)
        delta[0, 0] = (delta[0, 0] + 1) % ctx.p
        return delta

    monkeypatch.setattr(census, "_delta_table", corrupt)
    # the range must end on a word with bit 0 set, so the corruption
    # cannot cancel out over an even number of flips
    with pytest.raises(AssertionError, match="drift"):
        gray_walk_census(ctx13, 0, 2)


def test_family_census_exactness_check(monkeypatch, ctx41):
    # a product that loses every coefficient must be refused, not tallied,
    # and not by an assert that python -O removes
    monkeypatch.setattr(census._modmat, "matmul_mod",
                        lambda a, b, p: np.zeros((len(a), b.shape[1]), np.int64))
    with pytest.raises(SqrtPolyError, match="zero polynomial"):
        family_census(ctx41, 4)


def test_histogram_json_roundtrip():
    big = 1 << 80
    hist = DegreeHistogram({3: big, 5: 7}, {"p": 13, "family": "all"})
    obj = hist.to_json()
    assert obj["counts"]["3"] == str(big)  # decimal string, not float
    back = DegreeHistogram.from_json(obj)
    assert back.counts == hist.counts
    assert back.meta["p"] == 13


def test_histogram_merge_and_csv():
    a = DegreeHistogram({3: 1, 4: 2}, {"p": 13, "s": 2, "q": 3})
    b = DegreeHistogram({4: 5, 6: 1})
    m = a.merge(b)
    assert m.counts == {3: 1, 4: 7, 6: 1}
    assert m.min_degree() == 3
    assert m.total == 9
    rows = m.to_csv_rows()
    assert rows[0] == [13, 2, 3, 3, "1", "all", 1]
    assert len(rows[0]) == len(census.CSV_HEADER)


def test_histogram_merge_refuses_mixed_p_or_family():
    a = DegreeHistogram({3: 1}, {"p": 13, "family": "all", "shard": [0, 2]})
    with pytest.raises(ValidationError, match="p = 13"):
        a.merge(DegreeHistogram({3: 1}, {"p": 17, "family": "all"}))
    with pytest.raises(ValidationError, match="family"):
        a.merge(DegreeHistogram({3: 1}, {"p": 13, "family": "alt-2"}))
    merged = a.merge(DegreeHistogram({4: 1}, {"p": 13, "shard": [1, 2]}))
    assert merged.meta == {"p": 13, "family": "all"}
