import random
import tracemalloc

import numpy as np
import pytest

from sqrtpoly import (_modmat, canonical_sqrt, field, legendre, make_field_ctx,
                      root_of_unity)
from sqrtpoly.errors import (EvenInput, NotAResidue, NotPrime,
                             OrderDoesNotDivide, TooLarge)
from sqrtpoly.field import FieldCtx, is_prime, prime_factors


@pytest.mark.parametrize("p,s,q,r,gamma", [
    (13, 2, 3, 6, 2),
    (41, 3, 5, 20, 6),
    (7, 1, 3, 3, 3),
    (17, 4, 1, 8, 3),
    (97, 5, 3, 48, 5),
])
def test_ctx_factorization(p, s, q, r, gamma):
    ctx = make_field_ctx(p)
    assert (ctx.s, ctx.q, ctx.r) == (s, q, r)
    assert ctx.gamma == gamma
    assert (1 << ctx.s) * ctx.q == p - 1
    assert ctx.q % 2 == 1


def test_ctx_rejects_bad_input():
    with pytest.raises(EvenInput):
        make_field_ctx(10)
    with pytest.raises(NotPrime):
        make_field_ctx(15)
    with pytest.raises(NotPrime):
        make_field_ctx(1)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(2, 50):
        assert is_prime(n) == (n in primes)
    assert is_prime(2 ** 31 - 1)  # Mersenne
    assert not is_prime(2 ** 31 - 3)


def test_gamma_is_primitive():
    for p in (13, 29, 41, 113):
        ctx = make_field_ctx(p)
        seen = set()
        v = 1
        for _ in range(p - 1):
            seen.add(v)
            v = v * ctx.gamma % p
        assert len(seen) == p - 1


def test_legendre():
    ctx = make_field_ctx(13)
    assert legendre(2, ctx) == -1  # 2^6 = 64 = 12 mod 13
    assert legendre(0, ctx) == 0
    assert legendre(4, make_field_ctx(7)) == 1
    # multiplicativity
    for a in range(1, 13):
        for b in range(1, 13):
            assert legendre(a, ctx) * legendre(b, ctx) == legendre(a * b, ctx)


def test_root_of_unity():
    ctx = make_field_ctx(13)
    assert root_of_unity(ctx, 12) == 2
    assert root_of_unity(ctx, 2) == 12
    ctx41 = make_field_ctx(41)
    assert root_of_unity(ctx41, 4) == pow(6, 10, 41)
    with pytest.raises(OrderDoesNotDivide):
        root_of_unity(ctx, 5)
    # exact multiplicative order
    for m in (1, 2, 3, 4, 6, 12):
        z = root_of_unity(ctx, m)
        assert pow(z, m, 13) == 1
        assert all(pow(z, k, 13) != 1 for k in range(1, m))


def test_canonical_sqrt_refuses_an_odd_discrete_log(monkeypatch):
    # a residue has an even discrete log; a dlog that says otherwise raises
    ctx = make_field_ctx(13)
    monkeypatch.setattr(ctx, "dlog", lambda a: 3)
    with pytest.raises(NotAResidue):
        canonical_sqrt(ctx, 4)


def test_canonical_sqrt():
    assert canonical_sqrt(make_field_ctx(7), 4) == 2  # 4 = 3^4, branch 3^2
    ctx = make_field_ctx(13)
    assert canonical_sqrt(ctx, 1) == 1
    assert canonical_sqrt(ctx, 4) == 2
    with pytest.raises(NotAResidue):
        canonical_sqrt(ctx, 2)
    # squares back to the input, with exponent in [0, r)
    for p in (13, 29, 41):
        c = make_field_ctx(p)
        for a in range(1, p):
            if legendre(a, c) == 1:
                v = canonical_sqrt(c, a)
                assert v * v % p == a
                assert c.dlog(v) < c.r


def test_ctx_deterministic():
    a, b = make_field_ctx(41), make_field_ctx(41)
    assert (a.gamma, a.zeta2r, a.zetaR, a.zetaTS) == \
           (b.gamma, b.zeta2r, b.zetaR, b.zetaTS)
    assert a.zetaTS is not None
    assert pow(a.zetaTS, 1 << (a.s - 1), 41) == 1
    assert pow(a.zetaTS, 1 << (a.s - 2), 41) == 41 - 1


def test_s1_has_no_zeta_ts():
    assert make_field_ctx(7).zetaTS is None


def test_dlog_bsgs_path():
    # baby-step giant-step is the only route: every a, each log in [0, p - 1)
    ctx = make_field_ctx(101)
    for a in range(1, 101):
        n = ctx.dlog(a)
        assert 0 <= n < 100 and pow(ctx.gamma, n, 101) == a
    with pytest.raises(NotAResidue):
        ctx.dlog(0)


@pytest.mark.parametrize("p", [3, 13, 4001, 786433])
def test_gamma_powers_by_doubling(p):
    ctx = make_field_ctx(p)
    g = ctx.gamma_powers
    assert g.dtype == np.int64 and len(g) == p - 1
    rng = random.Random(p)
    js = set(range(min(p - 1, 2000))) | {p - 2} | {rng.randrange(p - 1) for _ in range(500)}
    assert all(int(g[j]) == pow(ctx.gamma, j, p) for j in js)
    assert len(np.unique(g)) == p - 1


def test_fresh_contexts_of_one_prime_share_one_gamma_table(monkeypatch):
    first = FieldCtx(4001).gamma_powers

    def no_table(*args):
        raise AssertionError("gamma^j of p = 4001 built twice")

    monkeypatch.setattr(field, "_gamma_table", no_table)
    assert make_field_ctx(4001).gamma_powers is first
    assert FieldCtx(4001).gamma_powers is first
    assert not first.flags.writeable


def test_contexts_of_one_prime_search_for_the_root_once(monkeypatch):
    # FieldCtx stays one build per call; the primality test and the root
    # search behind it run once per prime
    searched = []
    factors = field.prime_factors
    monkeypatch.setattr(field, "prime_factors",
                        lambda n: searched.append(n) or factors(n))
    field._least_primitive_root.cache_clear()
    field.is_prime.cache_clear()
    a, b = FieldCtx(4001), make_field_ctx(4001)
    assert a is not b and a.gamma == b.gamma == 3
    assert searched == [4000]
    assert field.is_prime.cache_info().misses == 1


def test_gamma_powers_refuse_int64_overflow():
    with pytest.raises(TooLarge):
        make_field_ctx((1 << 61) - 1).gamma_powers


def test_gamma_powers_refuse_a_table_past_the_cap(monkeypatch):
    # p = 10^9 + 7: 10^9 entries (8 GB) are refused before any is allocated
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="cap 2\\^28"):
            make_field_ctx(1000000007).gamma_powers
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    # p = 10^8 + 7 is under the cap and reaches the builder (a stub here)
    monkeypatch.setattr(_modmat, "_TABLES", _modmat._TableCache())
    monkeypatch.setattr(field, "_gamma_table", lambda p, gamma: np.arange(3))
    assert make_field_ctx(100000007).gamma_powers.tolist() == [0, 1, 2]


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(2000) == [2, 2, 2, 2, 5, 5, 5]
    assert prime_factors(393216) == [2] * 17 + [3]
    assert prime_factors(50001) == [3, 7, 2381]
    assert prime_factors(2 ** 31 - 1) == [2 ** 31 - 1]
