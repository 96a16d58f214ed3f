import random

import numpy as np

import pytest

from sqrtpoly import _modmat, fourier, make_field_ctx, poly, search
from sqrtpoly._modmat import matmul_mod, ntt, power_sums
from sqrtpoly.errors import OrderDoesNotDivide, TooLarge
from sqrtpoly.field import FieldCtx, prime_factors
from sqrtpoly.signs import SignVector


@pytest.fixture
def no_tables():
    """An empty table cache and no plans, so that a test sees every table it
    needs built; emptied again after it, so that no plan made under costs
    the test patched outlives them."""
    _modmat._TABLES.clear()
    yield
    _modmat._TABLES.clear()


def test_matmul_mod_exact_past_int64():
    # (p-1)^2 * 4 wraps int64 at p = 2^61 - 1; the answer is 4 mod p
    p = (1 << 61) - 1
    got = matmul_mod([[p - 1] * 4], [[p - 1]] * 4, p)
    assert got.tolist() == [[4]] and got.dtype == np.int64
    # within 2^53 the float64 route gives the same as Python integers
    rng = np.random.default_rng(1)
    a = rng.integers(-1000, 1000, (7, 5))
    b = rng.integers(0, 1000, (5, 3))
    want = [[sum(int(x) * int(y) for x, y in zip(row, col)) % 1009
             for col in b.T] for row in a]
    assert matmul_mod(a, b, 1009).tolist() == want


@pytest.mark.parametrize("inner", [3, 4, 5, 8, 9, 23])
def test_matmul_mod_chunks_at_their_boundary(inner):
    # amax * bmax just below 2^53 / 4: partial sums of 4 products stay exact
    # in float64, so the inner dimension is cut into chunks of 4, each
    # reduced mod p; the result is the Python-integer product's
    p = (1 << 31) - 1
    amax, bmax = p - 1, (1 << 51) // (p - 1) - 7
    assert ((1 << 53) - 1) // (amax * bmax) == 4
    rng = np.random.default_rng(inner)
    a = rng.integers(-amax, amax + 1, (6, inner))
    b = rng.integers(0, bmax + 1, (inner, 5))
    a[0, 0], b[0, 0] = -amax, bmax
    a[1], b[:, 1] = amax, bmax  # a row and a column of the largest entries
    want = (a.astype(object) @ b.astype(object)) % p
    got = matmul_mod(a, b, p)
    assert got.dtype == np.int64 and got.tolist() == want.tolist()


def _naive_power_sums(ctx, rows, exps):
    p, g = ctx.p, ctx.gamma
    return [[sum(int(c) * pow(g, n * int(e), p) for n, c in enumerate(row) if c) % p
             for e in exps] for row in rows]


def test_power_sums_zero_rows_build_no_table(monkeypatch, ctx41):
    def no_table(*args):
        raise AssertionError("power table built for all-zero rows")

    monkeypatch.setattr(_modmat, "power_block", no_table)
    got = power_sums(ctx41, np.zeros((2, 20), dtype=np.int64), np.arange(7))
    assert got.tolist() == [[0] * 7] * 2 and got.dtype == np.int64


def test_power_sums_single_column(monkeypatch, ctx41, no_tables):
    built = []
    power_block = _modmat.power_block
    monkeypatch.setattr(_modmat, "power_block",
                        lambda ctx, rows, cols: built.append(rows.tolist())
                        or power_block(ctx, rows, cols))
    rows = np.zeros((3, 20), dtype=np.int64)
    rows[:, 13] = [5, -1, 40]
    exps = np.array([0, 1, 2, 39, -3])
    got = power_sums(ctx41, rows, exps)
    assert built == [[13]]
    assert got.tolist() == [[c * pow(6, 13 * int(e), 41) % 41 for e in exps]
                            for c in (5, -1, 40)]


@pytest.mark.parametrize("entries", [1, 7, 1 << 21])
def test_power_sums_blocks_agree(monkeypatch, entries):
    ctx = make_field_ctx(97)
    monkeypatch.setattr(_modmat, "_BLOCK_ENTRIES", entries)
    rng = np.random.default_rng(entries)
    rows = rng.integers(-200, 200, (4, 48))
    rows[:, 5:30] = 0
    exps = rng.integers(-100, 100, 30)
    assert power_sums(ctx, rows, exps).tolist() == _naive_power_sums(ctx, rows, exps)


def _dense_rows(ctx, length, seed):
    """Three rows of entries in (-p, p) with a third of the columns zero."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(1 - ctx.p, ctx.p, (3, length))
    rows[:, rng.choice(length, length // 3, replace=False)] = 0
    return rows


def _split_always(monkeypatch):
    monkeypatch.setattr(_modmat, "_TABLE_COST", 1 << 40)
    monkeypatch.setattr(_modmat, "_LEVEL_COST", 0)
    monkeypatch.setattr(_modmat, "_SPLIT_COST", 0)


@pytest.fixture(params=["estimated", "always"])
def splits(request, monkeypatch, no_tables):
    """ntt's leaf/split choice as estimated, or a split wherever one exists."""
    if request.param == "always":
        _split_always(monkeypatch)
    return request.param


def _sparse_rows(ctx, length, seed):
    """Three rows with entries in (-p, p) on three columns, and a monomial."""
    rng = np.random.default_rng(seed)
    rows = np.zeros((3, length), dtype=np.int64)
    cols = rng.choice(length, min(3, length), replace=False)
    rows[:, cols] = rng.integers(1 - ctx.p, ctx.p, (3, len(cols)))
    monomial = np.zeros((1, length), dtype=np.int64)
    monomial[0, -1] = ctx.p - 2
    return [rows, monomial]


@pytest.mark.parametrize("p", [3, 13, 23, 41, 257])
def test_ntt_matches_naive_sums(p, splits):
    # r prime (23), a power of 2 (257) and mixed; e = +-2 on r columns,
    # e = 1 and 3 on all p - 1; dense rows, rows of entries +-(p - 1),
    # sparse rows and a monomial
    ctx = make_field_ctx(p)
    for length, e in ((ctx.r, 2), (ctx.r, -2), (p - 1, 1), (p - 1, 3)):
        edge = (p - 1) * (1 - 2 * np.random.default_rng(p).integers(0, 2, (2, length)))
        for rows in [_dense_rows(ctx, length, p), edge, *_sparse_rows(ctx, length, p)]:
            want = _naive_power_sums(ctx, rows, e * np.arange(length))
            assert ntt(ctx, rows, e).tolist() == want, (p, length, e, rows)


@pytest.mark.parametrize("p", [1009, 1019, 2003, 4001, 4003])
def test_ntt_matches_power_sums(p, splits):
    # r = 504, 509 (prime), 1001, 2000 and 2001 = 3 * 23 * 29
    ctx = make_field_ctx(p)
    for e in (2, -2):
        for rows in [_dense_rows(ctx, ctx.r, p), *_sparse_rows(ctx, ctx.r, p)]:
            got = ntt(ctx, rows, e)
            assert got.dtype == np.int64
            assert np.array_equal(got, power_sums(ctx, rows, e * np.arange(ctx.r)))


def test_exactness_rule_is_the_float64_bound_on_residue_products():
    # the float64 route ends where (p - 1)^2 reaches 2^53: p = 94906266
    for p in range(94906200, 94906300):
        assert (_modmat._exact_terms(p - 1, p - 1, p) >= 1) == ((p - 1) ** 2 < 1 << 53)


@pytest.mark.parametrize("p", [94906249, 94906267, (1 << 28) + 3])
def test_floor_reduction_is_exact_up_to_2_to_53(p):
    # near 2^53 - 1, at multiples of p and one below them, and at negative
    # sums within the rule |x| + p <= 2^53
    top = (1 << 53) - 1
    ks = [1, 2, 3, top // p - 1, top // p] + list(range(1000, top // p, top // p // 97))
    xs = list(range(top - 2000, top + 1))
    xs += [k * p for k in ks] + [k * p - 1 for k in ks]
    xs += [-x for x in xs if x + p <= 1 << 53]
    got = _modmat._reduce(np.array(xs, dtype=np.float64), p)
    assert got.tolist() == [x % p for x in xs]


@pytest.mark.parametrize("p", [1009, 4001])
def test_integer_route_past_the_exactness_bound(monkeypatch, no_tables, p):
    # with 2^53 patched to 2^19, (p - 1)^2 reaches it: the transform keeps
    # int64 rows throughout, and its leaves take Python integers
    monkeypatch.setattr(_modmat, "_EXACT", 1 << 19)
    dtypes = []
    leaf = _modmat._leaf
    monkeypatch.setattr(_modmat, "_leaf",
                        lambda ctx, rows, e: dtypes.append(rows.dtype) or leaf(ctx, rows, e))
    ctx = make_field_ctx(p)
    rng = np.random.default_rng(p)
    ks = np.unique(np.r_[0, 1, ctx.r - 1, rng.integers(0, ctx.r, 20)])
    for e in (2, -2):
        rows = _dense_rows(ctx, ctx.r, p + e)
        got = ntt(ctx, rows, e)
        assert got.dtype == np.int64
        assert got[:, ks].tolist() == _naive_power_sums(ctx, rows, e * ks)
    signs = 1 - 2 * rng.integers(0, 2, (2, ctx.r))
    got = _modmat.signed_dft(ctx, signs)
    g, inv_r = ctx.gamma, pow(ctx.r, -1, p)
    assert got[:, ks].tolist() == [
        [sum(int(s) * pow(g, n * (1 - 2 * int(k)), p) for n, s in enumerate(row))
         * inv_r % p for k in ks] for row in signs]
    assert dtypes and set(dtypes) == {np.dtype(np.int64)}


def test_ntt_with_a_large_prime_factor():
    # r = 50001 = 3 * 7 * 2381: the 2381-point transforms are dense leaves;
    # checked at sampled k, since a full r x r oracle is 2.5e9 entries
    ctx = make_field_ctx(100003)
    rows = _dense_rows(ctx, ctx.r, 3)
    ks = np.r_[0, 1, ctx.r - 1, np.random.default_rng(4).integers(0, ctx.r, 40)]
    for e in (2, -2):
        got = ntt(ctx, rows, e)
        assert np.array_equal(got[:, ks], power_sums(ctx, rows, e * ks))


@pytest.mark.parametrize("length, split", [
    (2000, (40, 50)), (1001, (13, 77)), (504, (21, 24)), (393216, (512, 768)),
    (4, (2, 2)), (2381, None), (2, None), (1, None)])
def test_split_is_the_divisor_pair_nearest_the_square_root(length, split):
    assert _modmat._split(length) == split


def _leaf_lengths(monkeypatch):
    """The row lengths of ntt's planned leaves, in call order."""
    lengths = []
    leaf = _modmat._leaf
    monkeypatch.setattr(_modmat, "_leaf",
                        lambda ctx, rows, e: lengths.append(rows.shape[1])
                        or leaf(ctx, rows, e))
    return lengths


def test_one_row_of_2000_is_two_table_products(monkeypatch, no_tables):
    ctx = make_field_ctx(4001)
    lengths = _leaf_lengths(monkeypatch)
    rows = _dense_rows(ctx, ctx.r, 5)[:1]
    got = ntt(ctx, rows, 2)
    assert lengths == [50, 40]
    assert np.array_equal(got, power_sums(ctx, rows, 2 * np.arange(ctx.r)))
    # the plan is made once per shape: changed costs do not change it
    # until the plans are dropped with the tables
    _split_always(monkeypatch)
    lengths.clear()
    assert np.array_equal(ntt(ctx, rows, 2), got) and lengths == [50, 40]
    _modmat._TABLES.clear()
    lengths.clear()
    assert np.array_equal(ntt(ctx, rows, 2), got)
    assert lengths and all(prime_factors(n) == [n] for n in lengths), lengths


@pytest.mark.parametrize("p", [1009, 2003, 4001])
def test_rows_with_a_few_zero_columns_take_the_kept_plan(monkeypatch, no_tables, p):
    # rows of 1, 2 and 3 zero columns, as in about 30 % of a round trip's
    # transforms: each takes the split and its tables, whatever its zeros
    ctx = make_field_ctx(p)
    rng = np.random.default_rng(p)
    rows = rng.integers(1, p, (3, 1, ctx.r))
    for zeros, row in zip((1, 2, 3), rows):
        row[0, rng.choice(ctx.r, zeros, replace=False)] = 0
    want = [power_sums(ctx, row, 2 * np.arange(ctx.r)) for row in rows]
    lengths = _leaf_lengths(monkeypatch)
    assert np.array_equal(ntt(ctx, rows[0], 2), want[0])
    assert lengths and max(lengths) < ctx.r, lengths

    def no_table(*args):
        raise AssertionError(f"a table of p = {p} built twice")

    monkeypatch.setattr(_modmat, "power_block", no_table)
    for row, w in zip(rows[1:], want[1:]):
        assert np.array_equal(ntt(ctx, row, 2), w)


@pytest.mark.parametrize("splits", ["always"], indirect=True)
@pytest.mark.parametrize("p", [41, 1009, 2003, 4001])
def test_every_leaf_is_prime_when_splits_always_win(monkeypatch, splits, p):
    ctx = make_field_ctx(p)
    lengths = _leaf_lengths(monkeypatch)
    rows = np.random.default_rng(p).integers(1, p, (2, ctx.r))
    got = ntt(ctx, rows, 2)
    assert lengths and all(prime_factors(n) == [n] for n in lengths), lengths
    assert np.array_equal(got, power_sums(ctx, rows, 2 * np.arange(ctx.r)))


@pytest.mark.parametrize("p", [65537, 786433])
def test_ntt_at_long_smooth_lengths(p):
    # r = 2^15 and 3 * 2^17, checked at sampled k as the large prime factor;
    # entries below 2^14 keep the power_sums oracle on the float64 route
    ctx = make_field_ctx(p)
    rows = np.random.default_rng(6).integers(-(1 << 14), 1 << 14, (1, ctx.r))
    ks = np.r_[0, 1, ctx.r - 1, np.random.default_rng(7).integers(0, ctx.r, 40)]
    for e in (2, -2):
        got = ntt(ctx, rows, e)
        assert np.array_equal(got[:, ks], power_sums(ctx, rows, e * ks))


def test_a_monomial_far_out_does_not_wrap_int64(no_tables):
    # the exponent n * e * k of x^(r-1) with e = -2 at p = 4000037 reaches
    # 1.6e19 unreduced; power_block reduces both factors mod p - 1 first
    ctx = make_field_ctx(4000037)
    row = np.zeros(ctx.r, dtype=np.int64)
    row[-1] = 1
    ks = [0, 1, 12345, ctx.r - 1]
    got = ntt(ctx, row, -2)[0, ks]
    assert got.tolist() == [pow(ctx.gamma, -2 * (ctx.r - 1) * k, ctx.p) for k in ks]


def test_ntt_rejects_a_length_without_a_root(ctx41):
    with pytest.raises(OrderDoesNotDivide):
        ntt(ctx41, np.ones(20), 1)  # gamma^20 != 1


def test_ntt_refuses_a_prime_whose_products_overflow_int64(splits):
    # 30 divides p - 1, and a product of two residues mod p would wrap
    # int64: leaf or split, gamma_powers refuses before any product
    ctx = make_field_ctx((1 << 61) - 1)
    with pytest.raises(TooLarge):
        ntt(ctx, np.ones((1, 30), dtype=np.int64), (ctx.p - 1) // 30)


def test_monomial_check_builds_one_table_row(monkeypatch, no_tables):
    ctx = make_field_ctx(1000003)
    sizes = []
    power_block = _modmat.power_block
    monkeypatch.setattr(_modmat, "power_block",
                        lambda ctx, rows, cols: sizes.append(rows.size * cols.size)
                        or power_block(ctx, rows, cols))
    assert search.min_degree_direct(ctx).min_degree == (ctx.p + 1) // 4
    assert sizes and max(sizes) <= ctx.r


def test_warm_tables_serve_only_their_own_prime():
    # the primes take turns, twice over, so a table kept for one prime
    # would meet the others' calls; the naive sums are checked at sampled k
    ctxs = [make_field_ctx(p) for p in (13, 41, 1009, 4001)]
    for _ in range(2):
        for ctx in ctxs:
            for e in (2, -2):
                rows = _dense_rows(ctx, ctx.r, ctx.p + e)
                ks = np.unique(np.r_[0, 1, ctx.r - 1, np.random.default_rng(
                    ctx.p).integers(0, ctx.r, min(ctx.r, 12))])
                got = ntt(ctx, rows, e)
                assert np.array_equal(got, power_sums(ctx, rows, e * np.arange(ctx.r)))
                assert got[:, ks].tolist() == _naive_power_sums(ctx, rows, e * ks)
                # one row and one set of exps at every prime: only p sets them apart
                row, exps = np.arange(1, 7), e * np.arange(6)
                assert (power_sums(ctx, row, exps).tolist()
                        == _naive_power_sums(ctx, [row], exps))


def test_fresh_contexts_of_one_prime_share_their_tables(monkeypatch, no_tables):
    rows = _dense_rows(make_field_ctx(4001), 2000, 8)
    first = ntt(FieldCtx(4001), rows, 2)

    def no_table(*args):
        raise AssertionError("a table of p = 4001 built twice")

    monkeypatch.setattr(_modmat, "power_block", no_table)
    assert np.array_equal(ntt(FieldCtx(4001), rows, 2), first)


def test_tables_past_the_block_size_are_not_kept(monkeypatch, ctx41, no_tables):
    monkeypatch.setattr(_modmat, "_BLOCK_ENTRIES", 11)
    rows, cols = np.arange(3), np.arange(4)
    table = _modmat._TABLES.get(ctx41, rows, cols)
    assert np.array_equal(table, _modmat.power_block(ctx41, rows, cols))
    assert not _modmat._TABLES.tables and _modmat._TABLES.nbytes == 0


def test_cached_tables_are_read_only(ctx41):
    table = _modmat._TABLES.get(ctx41, np.arange(4), np.arange(6))
    with pytest.raises(ValueError):
        table[0, 0] = 2
    assert table[0, 0] == 1


@pytest.mark.parametrize("bound", [None, 1 << 22])
def test_cache_stays_within_its_bound(monkeypatch, no_tables, bound):
    # round trips at r = 2^15 and 3 * 2^17; a 4 MiB bound makes the
    # second prime's tables push out the first's
    if bound is not None:
        monkeypatch.setattr(_modmat, "_CACHE_BYTES", bound)
    for p in (65537, 786433):
        ctx = make_field_ctx(p)
        eps = SignVector(random.Random(p).getrandbits(ctx.r), ctx.r)
        f = fourier.coeffs_from_signs(ctx, eps)
        assert poly.is_sqrt_poly(ctx, f)
        assert fourier.signs_from_poly(ctx, f) == eps
    tables = list(_modmat._TABLES.tables.values())
    assert tables
    assert _modmat._TABLES.nbytes == sum(t.nbytes for t in tables)
    assert _modmat._TABLES.nbytes <= _modmat._CACHE_BYTES
    assert max(t.size for t in tables) <= _modmat._BLOCK_ENTRIES
    if bound is not None:
        assert {key[0] for key in _modmat._TABLES.tables} == {786433}
