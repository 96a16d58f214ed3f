import math
import random
import time

import pytest

from sqrtpoly import fourier, make_field_ctx, poly, search
from sqrtpoly.errors import (InvalidDivisor, LengthMismatch, NotASqrtPoly,
                             NotCoprime, PeriodDoesNotDivide, RangeOutOfBounds,
                             SqrtPolyError, TooLarge, UnresolvedHalfRoot)
from sqrtpoly.field import root_of_unity
from sqrtpoly.signs import SignVector, from_signs

from .helpers import (gray_walk_vanishing, lagrange_interpolate, naive_half_sum,
                      naive_subgroup_coeffs, residue_dp_vanishing)

PRIMES_TO_61 = [p for p in range(3, 62) if all(p % f for f in range(2, p))]


def test_half_sum_against_oracle(ctx29):
    rng = random.Random(2)
    p = ctx29.p
    for d in (1, 2, 7, 14):
        spec = fourier.half_sum_spec(ctx29, d, 1)
        for _ in range(20):
            eps = SignVector(rng.getrandbits(d), d)
            k = rng.randrange(-5, 4 * d)
            spec_k = fourier.HalfSumSpec(d, k, spec.zeta)
            assert fourier.half_sum(spec_k, eps, p) == \
                naive_half_sum(p, spec.zeta, k % (2 * d), eps.signs())


def test_half_sum_spec_errors(ctx29):
    with pytest.raises(InvalidDivisor):
        fourier.half_sum_spec(ctx29, 3, 1)
    spec = fourier.half_sum_spec(ctx29, 7, 1)
    with pytest.raises(LengthMismatch):
        fourier.half_sum(spec, SignVector(0, 5), ctx29.p)


def test_coeffs_from_signs_is_interpolation(ctx13):
    # every one of the 64 sign vectors, against a Lagrange oracle
    p, r, g = ctx13.p, ctx13.r, ctx13.gamma
    for w in range(1 << r):
        eps = SignVector(w, r)
        f = fourier.coeffs_from_signs(ctx13, eps)
        pts = [(pow(g, 2 * n, p), eps.sign(n) * pow(g, n, p) % p)
               for n in range(r)]
        assert f.coeffs == lagrange_interpolate(p, pts)
        assert poly.is_sqrt_poly(ctx13, f)


def test_coeffs_from_signs_random(ctx41):
    rng = random.Random(4)
    p, r, g = ctx41.p, ctx41.r, ctx41.gamma
    for _ in range(10):
        eps = SignVector(rng.getrandbits(r), r)
        f = fourier.coeffs_from_signs(ctx41, eps)
        for n in range(r):
            assert poly.eval_poly(f, pow(g, 2 * n, p)) == \
                eps.sign(n) * pow(g, n, p) % p


@pytest.mark.parametrize("p", [13, 41, 97])
def test_sign_weights_give_the_census_coefficients(p):
    # w[j, k] = gamma^(j (1 - 2k)) / r: eps @ w is the ntt route's coefficients
    ctx = make_field_ctx(p)
    r = ctx.r
    w = fourier.sign_weights(ctx, r, [1 - 2 * k for k in range(r)])
    assert w.shape == (r, r)
    rng = random.Random(p)
    for word in (0, (1 << r) - 1, *(rng.getrandbits(r) for _ in range(8))):
        eps = SignVector(word, r)
        want = fourier.coeffs_from_signs(ctx, eps).coeffs
        assert [sum(e * int(x) for e, x in zip(eps.signs(), col)) % p
                for col in w.T] == want


def test_signs_roundtrip(ctx41):
    rng = random.Random(8)
    for _ in range(20):
        eps = SignVector(rng.getrandbits(ctx41.r), ctx41.r)
        f = fourier.coeffs_from_signs(ctx41, eps)
        assert fourier.signs_from_poly(ctx41, f) == eps
    with pytest.raises(NotASqrtPoly):
        fourier.signs_from_poly(ctx41, poly.monomial(ctx41, 2, 3))
    with pytest.raises(LengthMismatch):
        fourier.coeffs_from_signs(ctx41, SignVector(0, 5))


def test_subgroup_coeffs(ctx41):
    # degree < d and the defining point values on mu_d
    p = ctx41.p
    d = 5
    zd = root_of_unity(ctx41, d)
    m = (d + 1) // 2
    for w in range(1 << d):
        eps = SignVector(w, d)
        g = fourier.subgroup_coeffs(ctx41, d, eps)
        assert g.degree < d
        for n in range(d):
            a = pow(zd, n, p)
            want = eps.sign(n) * pow(zd, n * m, p) % p
            assert poly.eval_poly(g, a) == want
            assert pow(want, 2, p) == a  # it really is a square root


@pytest.mark.parametrize("p", [41, 97, 331])  # 331: r = q = 3 * 5 * 11
def test_subgroup_coeffs_against_oracle(p):
    ctx = make_field_ctx(p)
    rng = random.Random(p)
    for d in [d for d in range(1, ctx.r + 1) if ctx.r % d == 0 and d % 2]:
        for w in {0, (1 << d) - 1, *(rng.getrandbits(d) for _ in range(8))}:
            eps = SignVector(w, d)
            want = naive_subgroup_coeffs(ctx, d, eps.signs())
            assert fourier.subgroup_coeffs(ctx, d, eps).coeffs == \
                want + [0] * (ctx.r - d)


@pytest.mark.parametrize("p", [13, 41, 73, 97])
def test_base_members_are_subgroup_coeffs(p):
    # member w takes eps_j gamma^(2^(s-1) j) at zeta_q^j, subgroup_coeffs the
    # canonical root zeta_q^(j (q+1)/2) = (-1)^j gamma^(2^(s-1) j): the signs
    # differ at odd j
    ctx = make_field_ctx(p)
    base = search.build_level_zero(ctx, 0).members
    assert base.shape == (1 << ctx.q, ctx.q)
    odd_bits = sum(1 << j for j in range(1, ctx.q, 2))
    for w, row in enumerate(base.tolist()):
        f = fourier.subgroup_coeffs(ctx, ctx.q, SignVector(w ^ odd_bits, ctx.q))
        assert f.coeffs == row + [0] * (ctx.r - ctx.q)


def test_subgroup_coeffs_errors(ctx41, ctx29):
    with pytest.raises(UnresolvedHalfRoot):
        fourier.subgroup_coeffs(ctx41, 4, SignVector(0, 4))
    with pytest.raises(InvalidDivisor):
        fourier.subgroup_coeffs(ctx41, 3, SignVector(0, 3))
    with pytest.raises(LengthMismatch):
        fourier.subgroup_coeffs(ctx29, 7, SignVector(0, 5))


def test_periodic_pattern_poly():
    ctx = make_field_ctx(29)  # q = 7
    # N = 1: the all-plus pattern gives the positive block monomial x^4
    f = fourier.periodic_pattern_poly(ctx, from_signs([1]))
    assert f.sparse() == [(4, 1)]
    # N = 7: at most 7 monomials, exponents = 4 mod 1 (no constraint)
    g = fourier.periodic_pattern_poly(ctx, from_signs([1, -1, 1, 1, -1, -1, 1]))
    assert len(g.sparse()) <= 7
    with pytest.raises(PeriodDoesNotDivide):
        fourier.periodic_pattern_poly(ctx, from_signs([1, 1]))


def test_periodic_pattern_poly_at_a_large_subgroup():
    # p = 3 mod 4, so q = r = 10005: a q x q weight table would hold 1e8
    # entries; the transform of length q builds none
    ctx = make_field_ctx(20011)
    assert ctx.q == ctx.r == 10005
    f = fourier.periodic_pattern_poly(ctx, from_signs([1, -1, -1]))
    terms = f.sparse()
    assert 0 < len(terms) <= 3
    assert all(k % 3335 == 5003 % 3335 for k, _ in terms)
    assert poly.is_sqrt_poly(ctx, f)  # mu_q is all of S here


def test_count_vanishing_formula_matches_bruteforce():
    for p in (13, 17, 29):
        ctx = make_field_ctx(p)
        for ell in range(1, p - 1, 2):
            if math.gcd(ell, p - 1) != 1:
                continue
            assert fourier.count_vanishing_formula(ctx, ell) == \
                fourier.count_vanishing_bruteforce(ctx, ctx.r, ell)


@pytest.mark.parametrize("p", [p for p in PRIMES_TO_61 if p <= 53])
def test_residue_dp_matches_the_join(p):
    # every odd ell below 2r at every prime up to 53: 182 cases in all
    ctx = make_field_ctx(p)
    for ell in range(1, 2 * ctx.r, 2):
        assert residue_dp_vanishing(ctx, ctx.r, ell) == \
            fourier.count_vanishing_bruteforce(ctx, ctx.r, ell), ell


@pytest.mark.parametrize("p", PRIMES_TO_61)
def test_residue_dp_matches_the_formula(p):
    ctx = make_field_ctx(p)
    for ell in range(1, p - 1, 2):
        if math.gcd(ell, p - 1) == 1:
            assert residue_dp_vanishing(ctx, ctx.r, ell) == \
                fourier.count_vanishing_formula(ctx, ell), ell


@pytest.mark.parametrize("p", [107, 109, 113])
def test_residue_dp_matches_the_formula_past_the_join_cap(p):
    # r = 53, 54, 56: a join side would be past 2^26 rows
    ctx = make_field_ctx(p)
    with pytest.raises(TooLarge):
        fourier.count_vanishing_bruteforce(ctx, ctx.r, 1)
    for ell in range(1, p - 1, 2):
        if math.gcd(ell, p - 1) == 1:
            assert residue_dp_vanishing(ctx, ctx.r, ell) == \
                fourier.count_vanishing_formula(ctx, ell), ell


@pytest.mark.parametrize("p, want", [(73, 941362696), (89, 197665011736)])
def test_count_vanishing_formula_matches_the_join_at_large_r(p, want):
    # r = 36 and 44: joins of 2^18 and 2^22 rows a side
    ctx = make_field_ctx(p)
    assert fourier.count_vanishing_formula(ctx, 1) == want
    assert fourier.count_vanishing_bruteforce(ctx, ctx.r, 1) == want


def test_count_vanishing_formula_errors(ctx13):
    with pytest.raises(NotCoprime):
        fourier.count_vanishing_formula(ctx13, 2)
    with pytest.raises(NotCoprime):
        fourier.count_vanishing_formula(ctx13, 3)  # gcd(3, 12) = 3


def test_bruteforce_sharding(ctx29):
    full = fourier.count_vanishing_bruteforce(ctx29, 14, 1)
    for nshards in (2, 3, 7):
        parts = sum(fourier.count_vanishing_bruteforce(ctx29, 14, 1, (i, nshards))
                    for i in range(nshards))
        assert parts == full
    with pytest.raises(RangeOutOfBounds):
        fourier.count_vanishing_bruteforce(ctx29, 14, 1, (3, 3))


@pytest.mark.parametrize("nshards", [2, 3, 7])
@pytest.mark.parametrize("d", [7, 14])
def test_bruteforce_shards_match_gray_walk(ctx29, d, nshards):
    # every shard counts exactly the vectors of its own Gray-index range
    for ell in (0, 1, 2, 3, 5):
        for i in range(nshards):
            lo, hi = (1 << d) * i // nshards, (1 << d) * (i + 1) // nshards
            got = fourier.count_vanishing_bruteforce(ctx29, d, ell, (i, nshards))
            assert got == gray_walk_vanishing(ctx29, d, ell, lo, hi), (ell, i)


def test_bruteforce_exact_at_a_31_bit_prime():
    # p = 2^31 - 1, 42 | p - 1: half sums of ten terms near 2^31 must not
    # wrap int64 on their way to the join
    ctx = make_field_ctx(2147483647)
    lo, hi = 3 << 16, 4 << 16  # shard 3 of 32 at d = 21
    for ell in (1, 3, 7, 14):
        got = fourier.count_vanishing_bruteforce(ctx, 21, ell, (3, 32))
        assert got == gray_walk_vanishing(ctx, 21, ell, lo, hi), ell


def test_bruteforce_exact_at_a_61_bit_prime():
    # p = 2^61 - 1: half sums of eleven terms near 2^61 exceed int64, so
    # the half tables take the exact Python-integer product
    ctx = make_field_ctx((1 << 61) - 1)
    lo, hi = 3 << 15, 4 << 15  # shard 3 of 64 at d = 21
    got = fourier.count_vanishing_bruteforce(ctx, 21, 1, (3, 64))
    assert got == gray_walk_vanishing(ctx, 21, 1, lo, hi) == 2


def test_bruteforce_root_choice_independent(ctx13):
    # |V_{d,ell}| cannot depend on which primitive 2d-th root is used:
    # zeta^e at ell = 1 is the canonical root at ell = e
    p = ctx13.p
    base = root_of_unity(ctx13, 12)
    counts = set()
    for e in range(1, 12):
        if math.gcd(e, 12) == 1:
            zeta = pow(base, e, p)
            count = fourier.count_vanishing_bruteforce(ctx13, 6, e)
            assert count == gray_walk_vanishing(ctx13, 6, 1, 0, 64, zeta=zeta)
            counts.add(count)
    assert len(counts) == 1


def test_bruteforce_cap():
    # d = 54: a join side of 2^27 rows, past the join cap
    with pytest.raises(TooLarge, match="join cap"):
        fourier.count_vanishing_bruteforce(make_field_ctx(109), 54, 1)


def test_vanishing_count_vs_direct_enumeration(ctx13):
    # tiny independent oracle: count eps with sum eps_n zeta^n = 0 directly
    p = ctx13.p
    zeta = root_of_unity(ctx13, 12)
    want = 0
    for w in range(1 << 6):
        eps = SignVector(w, 6)
        if naive_half_sum(p, zeta, 1, eps.signs()) == 0:
            want += 1
    assert fourier.count_vanishing_bruteforce(ctx13, 6, 1) == want


def test_roundtrip_at_a_large_smooth_prime():
    # r = 3 * 2^17: an r x r power table would hold 1.5e11 entries
    ctx = make_field_ctx(786433)
    eps = SignVector(random.Random(1).getrandbits(ctx.r), ctx.r)
    t0 = time.perf_counter()
    f = fourier.coeffs_from_signs(ctx, eps)
    assert poly.is_sqrt_poly(ctx, f)
    assert fourier.signs_from_poly(ctx, f) == eps
    assert time.perf_counter() - t0 < 60
    bad = list(f.coeffs)
    bad[12345] = (bad[12345] + 1) % ctx.p
    assert not poly.is_sqrt_poly(ctx, poly.Poly(ctx, bad))


def test_periodic_pattern_sparsity_check(monkeypatch):
    ctx = make_field_ctx(29)
    monkeypatch.setattr(fourier, "subgroup_coeffs",
                        lambda ctx, d, eps: poly.from_coeffs(ctx, [1] * d))
    with pytest.raises(SqrtPolyError, match="terms"):
        fourier.periodic_pattern_poly(ctx, from_signs([1]))


def test_count_vanishing_formula_divisibility_check(monkeypatch, ctx13):
    monkeypatch.setattr(fourier, "legendre", lambda a, ctx: 0)
    with pytest.raises(SqrtPolyError, match="not divisible"):
        fourier.count_vanishing_formula(ctx13, 1)
