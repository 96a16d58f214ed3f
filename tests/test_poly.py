import random

import numpy as np
import pytest

from sqrtpoly import _modmat, fourier, make_field_ctx, poly, search, ts
from sqrtpoly._modmat import eval_on_squares
from sqrtpoly.errors import (ContextMismatch, DegreeTooLarge,
                             EqualInputsCancellation, LengthMismatch,
                             LevelOutOfRange, NotASqrtPoly, SqrtPolyError,
                             WrongPartCount)
from sqrtpoly.poly import (NEG_INF, add, eval_poly, from_coeffs, glue_crt,
                           glue_pair, glue_rows, is_sqrt_poly, monomial, sub)
from sqrtpoly.signs import SignVector

from .fixtures import (P41_GLUE_HALF_0, P41_GLUE_HALF_1, P41_GLUE_PARTS,
                       P41_GLUE_RESULT, P41_MINIMAL, P41_TS_TABLE)
from .helpers import (glue_all, mul_cyclic, naive_glue_crt, naive_is_sqrt_poly,
                      scalar_mul)


def sparse_poly(ctx, d):
    return from_coeffs(ctx, [c % ctx.p for c in
                             [d.get(k, 0) for k in range(max(d) + 1)]])


def test_degree_and_zero(ctx13):
    assert from_coeffs(ctx13, []).degree == NEG_INF
    assert from_coeffs(ctx13, [0, 0, 0]).degree == NEG_INF
    assert from_coeffs(ctx13, [5]).degree == 0
    assert from_coeffs(ctx13, [0, 0, 1, 0]).degree == 2
    assert NEG_INF < 0  # zero sorts below everything


def test_from_coeffs_normalizes(ctx13):
    f = from_coeffs(ctx13, [-1, 14])
    assert f.coeffs[:2] == [12, 1]
    assert len(f.coeffs) == ctx13.r
    with pytest.raises(DegreeTooLarge):
        from_coeffs(ctx13, [1] * (ctx13.r + 1))


def test_from_coeffs_reduces_integers_of_any_size(ctx13):
    # JSON integers past int64 are reduced exactly; an int64 array the
    # same as a list; either way the coefficients are Python ints
    pad = [0] * (ctx13.r - 3)
    for coeffs, want in (([10**30, -10**30, -1], [10**30 % 13, -10**30 % 13, 12]),
                         (np.array([40, -1, 1 << 62], dtype=np.int64),
                          [40 % 13, 12, (1 << 62) % 13])):
        f = from_coeffs(ctx13, coeffs)
        assert f.coeffs == want + pad and f.array.tolist() == want + pad
        assert all(type(c) is int for c in f.coeffs)


def test_poly_of_wrong_length_is_refused(ctx13):
    for coeffs in ([1, 2], [0] * (ctx13.r + 1)):
        with pytest.raises(LengthMismatch):
            poly.Poly(ctx13, coeffs)


def test_render(ctx41):
    f = sparse_poly(ctx41, {18: 26, 13: 10, 8: 11, 3: 36})
    assert f.render() == "26x^18 + 10x^13 + 11x^8 + 36x^3"
    assert from_coeffs(ctx41, [7, 1]).render() == "x + 7"
    assert from_coeffs(ctx41, []).render() == "0"


def test_ring_ops(ctx13):
    rng = random.Random(7)
    p, r = ctx13.p, ctx13.r
    for _ in range(50):
        a = from_coeffs(ctx13, [rng.randrange(p) for _ in range(r)])
        b = from_coeffs(ctx13, [rng.randrange(p) for _ in range(r)])
        c = rng.randrange(1, p)
        x = rng.randrange(1, p)
        # a*b, a+b, a-b, c*a all commute with evaluation at r-th roots of 1
        pt = pow(x, 2, p) if pow(x, r, p) == 1 else pow(ctx13.gamma, 2, p)
        va, vb = eval_poly(a, pt), eval_poly(b, pt)
        assert eval_poly(add(a, b), pt) == (va + vb) % p
        assert eval_poly(sub(a, b), pt) == (va - vb) % p
        assert eval_poly(scalar_mul(c, a), pt) == c * va % p
        assert eval_poly(mul_cyclic(a, b), pt) == va * vb % p


def test_mul_cyclic_wraps(ctx13):
    # x^(r-1) * x = x^r = 1 in the quotient
    f = mul_cyclic(monomial(ctx13, 1, ctx13.r - 1), monomial(ctx13, 1, 1))
    assert f == from_coeffs(ctx13, [1])


def test_context_mismatch(ctx13, ctx29):
    with pytest.raises(ContextMismatch):
        add(from_coeffs(ctx13, [1]), from_coeffs(ctx29, [1]))


@pytest.mark.parametrize("p", [11, 13])
def test_checks_refuse_a_polynomial_of_another_prime(monkeypatch, ctx41, p):
    # r = 5 does not divide r = 20 at p = 41, and r = 6 has no root of
    # unity of order 20: either way the context is refused, not the transform
    f = from_coeffs(ctx41, P41_MINIMAL)
    ctx = make_field_ctx(p)

    def no_transform(*args):
        raise AssertionError("a transform ran on a polynomial of another prime")

    monkeypatch.setattr(_modmat, "ntt", no_transform)
    for check in (is_sqrt_poly, fourier.signs_from_poly):
        with pytest.raises(ContextMismatch, match=f"p=41 checked at p={p}"):
            check(ctx, f)


def test_poly_array_is_read_only(ctx13, ctx41):
    f = from_coeffs(ctx13, [3, 0, 7])
    with pytest.raises(ValueError):
        f.array[0] = 1
    assert f.coeffs[:3] == [3, 0, 7]
    # the Polys the library builds hold their arrays as they are, read-only
    eps = SignVector(5, ctx41.r)
    g = fourier.coeffs_from_signs(ctx41, eps)
    built = [f, -f, add(f, f), sub(f, f), monomial(ctx13, 2, 3), poly.Poly(ctx13, f.array),
             g, glue_crt(ctx41, [monomial(ctx41, c, 3) for c in P41_GLUE_PARTS]),
             ts.ts_polynomial(ctx41, ts.TsChoice(SignVector(3, 4))),
             *ts.enumerate_ts(ctx41, dump=True)[1][:3],
             *search.minimal_search(ctx41, keep_representatives=3).representatives]
    for h in built:
        assert h.array.dtype == np.int64 and h.array.shape == (h.ctx.r,)
        assert not h.array.flags.writeable


def test_poly_owns_its_coefficients(ctx13):
    want = [3, 0, 7, 1, 0, 12]
    given_list = list(want)
    given_array = np.array(want, dtype=np.int64)
    for f, given in ((poly.Poly(ctx13, given_list), given_list),
                     (poly.Poly(ctx13, given_array), given_array)):
        given[0] = 5
        f.coeffs[1] = 9  # a list of its own: the next call's is unchanged
        assert f.coeffs == want and f.array.tolist() == want
        assert all(type(c) is int for c in f.coeffs)
        assert f == poly.Poly(ctx13, want) and f.degree == 5
    assert poly.Poly(ctx13, [-1, 14, 10**30, 0, 0, 0]).coeffs == [12, 1, 10**30 % 13, 0, 0, 0]


def test_round_trip_never_reads_the_coefficient_list(monkeypatch):
    ctx = make_field_ctx(1009)
    eps = SignVector(random.Random(5).getrandbits(ctx.r), ctx.r)

    def no_list(self):
        raise AssertionError("the coefficient list was built")

    monkeypatch.setattr(poly.Poly, "coeffs", property(no_list))
    f = fourier.coeffs_from_signs(ctx, eps)
    assert is_sqrt_poly(ctx, f)
    assert fourier.signs_from_poly(ctx, f) == eps
    assert not is_sqrt_poly(ctx, add(f, monomial(ctx, 1, 7)))


def test_eval_paths_agree(ctx41):
    # Horner at each gamma^(2n) against the one blocked evaluation
    rng = random.Random(1)
    fs = [from_coeffs(ctx41, [rng.randrange(41) for _ in range(20)])
          for _ in range(3)] + [monomial(ctx41, 7, 19), from_coeffs(ctx41, [])]
    vals = eval_on_squares(ctx41, [f.coeffs for f in fs])
    for f, row in zip(fs, vals.tolist()):
        assert row == [eval_poly(f, pow(ctx41.gamma, 2 * n, 41))
                       for n in range(ctx41.r)]


def test_is_sqrt_poly(ctx41):
    f = sparse_poly(ctx41, {18: 26, 13: 10, 8: 11, 3: 36})
    assert is_sqrt_poly(ctx41, f)
    assert is_sqrt_poly(ctx41, -f)
    g = sparse_poly(ctx41, {18: 26, 13: 10, 8: 11, 3: 37})
    assert not is_sqrt_poly(ctx41, g)
    assert is_sqrt_poly(ctx41, from_coeffs(ctx41, P41_MINIMAL))


def test_is_sqrt_poly_monomial_branch():
    ctx = make_field_ctx(7)
    assert is_sqrt_poly(ctx, monomial(ctx, 1, 2))
    assert not is_sqrt_poly(ctx, monomial(ctx, 2, 2))


def test_is_sqrt_poly_numpy_path():
    # large r exercises the vectorized dense check
    from sqrtpoly import fourier, signs
    ctx = make_field_ctx(1033)
    rng = random.Random(3)
    eps = signs.SignVector(rng.getrandbits(ctx.r), ctx.r)
    f = fourier.coeffs_from_signs(ctx, eps)
    assert sum(1 for c in f.coeffs if c) > 8 and ctx.r > 512
    assert is_sqrt_poly(ctx, f)
    bad = list(f.coeffs)
    bad[0] = (bad[0] + 1) % ctx.p
    assert not is_sqrt_poly(ctx, poly.Poly(ctx, bad))


def _oracle_cases(ctx, rng):
    """(polynomial, is it a square-root polynomial) pairs, sparse and dense."""
    true = [fourier.coeffs_from_signs(ctx, SignVector(rng.getrandbits(ctx.r), ctx.r))
            for _ in range(2)]
    if ctx.s >= 2:
        d = ts.block_count(ctx)
        true += [ts.ts_polynomial(ctx, ts.TsChoice(SignVector(rng.getrandbits(d), d)))
                 for _ in range(2)]
    else:
        true.append(monomial(ctx, 1, (ctx.p + 1) // 4))
    cases = []
    for f in true:
        bad = list(f.coeffs)
        k = rng.choice([k for k, c in enumerate(bad) if c])
        bad[k] = (bad[k] + 1) % ctx.p
        cases += [(f, True), (poly.Poly(ctx, bad), False)]
    cases.append((monomial(ctx, 1, 1), False))
    return cases


@pytest.mark.parametrize("p", [13, 41, 1009, 1031])
def test_is_sqrt_poly_against_oracle(p):
    # r = 504 at p = 1009 and r = 515 at p = 1031 sit on either side of
    # the old r > 512 switch between per-point and matrix evaluation
    ctx = make_field_ctx(p)
    for f, want in _oracle_cases(ctx, random.Random(p)):
        assert naive_is_sqrt_poly(ctx, f) is want
        assert is_sqrt_poly(ctx, f) is want
        if want:
            assert fourier.coeffs_from_signs(ctx, fourier.signs_from_poly(ctx, f)) == f
            continue
        # the error names the first point where the ratio is not +-1
        ratios = [eval_poly(f, pow(ctx.gamma, 2 * n, p)) * pow(ctx.gamma, -n, p) % p
                  for n in range(ctx.r)]
        n, ratio = next((n, v) for n, v in enumerate(ratios) if v not in (1, p - 1))
        with pytest.raises(NotASqrtPoly,
                           match=fr"^f\(gamma\^{2 * n}\) / gamma\^{n} = {ratio}$"):
            fourier.signs_from_poly(ctx, f)


def test_glue_crt_reference_values(ctx41):
    parts = [monomial(ctx41, c, 3) for c in P41_GLUE_PARTS]
    f = glue_crt(ctx41, parts)
    assert dict(f.sparse()) == P41_GLUE_RESULT


def test_glue_crt_table_rows(ctx41):
    # the four "positive branch" block monomials glue into the table row
    blocks = [1, 38, 9, 14]  # tau^{-k} for k = 0..3
    for h, (c18, c13, c8, c3) in P41_TS_TABLE.items():
        parts = [monomial(ctx41, s * b, 3) for s, b in zip(h, blocks)]
        f = glue_crt(ctx41, parts)
        assert dict(f.sparse()) == {18: c18, 13: c13, 8: c8, 3: c3}


def test_glue_crt_is_blockwise_restriction(ctx41):
    """f must reduce to part k modulo x^q - zeta^k, i.e. agree pointwise."""
    rng = random.Random(9)
    p, q = ctx41.p, ctx41.q
    zeta = ctx41.zetaTS
    for _ in range(10):
        parts = [from_coeffs(ctx41, [rng.randrange(p) for _ in range(q)])
                 for _ in range(4)]
        f = glue_crt(ctx41, parts)
        for k in range(4):
            # points of block k: the q solutions of a^q = zeta^k
            for a in range(1, p):
                if pow(a, q, p) == pow(zeta, k, p):
                    assert eval_poly(f, a) == eval_poly(parts[k], a)


@pytest.mark.parametrize("p", [13, 17, 41, 97, 113, 257, 641, 1217])
def test_glue_crt_matches_naive_dft(p):
    # s = 2, 4, 3, 5, 4, 8, 7, 6; q = 1 at p = 17 and 257
    ctx = make_field_ctx(p)
    rng = random.Random(p)
    d = 1 << (ctx.s - 1)
    for _ in range(3):
        parts = [from_coeffs(ctx, [rng.randrange(p) for _ in range(ctx.q)])
                 for _ in range(d)]
        assert glue_crt(ctx, parts).coeffs == naive_glue_crt(ctx, parts)


@pytest.mark.parametrize("p,k,i", [(41, 0, 1), (41, 0, 3), (41, 1, 1),
                                   (97, 1, 5), (97, 2, 3), (113, 0, 7)])
def test_glue_rows_matches_glue_all(p, k, i):
    ctx = make_field_ctx(p)
    rng = np.random.default_rng(p * 100 + k * 10 + i)
    m = (1 << k) * ctx.q
    a = rng.integers(0, p, size=(5, m), dtype=np.int64)
    b = rng.integers(0, p, size=(4, m), dtype=np.int64)
    rows = glue_rows(ctx, np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1)), k, i)
    assert np.array_equal(rows, glue_all(ctx, a, b, k, i))
    # glue_pair is the one-row call
    f = glue_pair(ctx, from_coeffs(ctx, a[0].tolist()), from_coeffs(ctx, b[0].tolist()), k, i)
    assert f.coeffs[:2 * m] == rows[0].tolist()


def test_glue_crt_errors(ctx41, ctx13):
    with pytest.raises(WrongPartCount):
        glue_crt(ctx41, [monomial(ctx41, 1, 3)] * 3)
    with pytest.raises(DegreeTooLarge):
        glue_crt(ctx41, [monomial(ctx41, 1, 5)] * 4)
    with pytest.raises(LevelOutOfRange):
        glue_crt(make_field_ctx(7), [monomial(make_field_ctx(7), 1, 1)])


def test_glue_pair_reference_values(ctx41):
    f0 = sparse_poly(ctx41, P41_GLUE_HALF_0)
    f1 = sparse_poly(ctx41, P41_GLUE_HALF_1)
    f = glue_pair(ctx41, f0, f1, 1, 0)
    assert dict(f.sparse()) == P41_GLUE_RESULT


def test_glue_pair_degree_law(ctx41):
    rng = random.Random(11)
    p = ctx41.p
    m = 2 * ctx41.q
    for _ in range(25):
        f0 = from_coeffs(ctx41, [rng.randrange(p) for _ in range(m)])
        f1 = from_coeffs(ctx41, [rng.randrange(p) for _ in range(m)])
        if f0.coeffs == f1.coeffs:
            continue
        f = glue_pair(ctx41, f0, f1, 1, 0, check=True)
        assert f.degree == m + sub(f0, f1).degree


def test_glue_pair_errors(ctx41):
    f = monomial(ctx41, 1, 3)
    with pytest.raises(EqualInputsCancellation):
        glue_pair(ctx41, f, f, 0, 0)
    with pytest.raises(LevelOutOfRange):
        glue_pair(ctx41, f, -f, 2, 0)
    with pytest.raises(DegreeTooLarge):
        glue_pair(ctx41, monomial(ctx41, 1, 7), f, 0, 0)


def test_glue_pair_then_crt_agree(ctx41):
    """Two single gluing steps reproduce the one-shot CRT gluing."""
    parts = [monomial(ctx41, c, 3) for c in P41_GLUE_PARTS]
    top0 = glue_pair(ctx41, parts[0], parts[2], 0, 0)
    top1 = glue_pair(ctx41, parts[1], parts[3], 0, 1)
    f = glue_pair(ctx41, top0, top1, 1, 0)
    assert f == glue_crt(ctx41, parts)


def test_json_roundtrip(ctx13):
    f = from_coeffs(ctx13, [3, 0, 7])
    assert from_coeffs(ctx13, f.to_json()) == f


def test_glue_crt_check_raises(monkeypatch, ctx41):
    parts = [monomial(ctx41, c, 3) for c in P41_GLUE_PARTS]
    monkeypatch.setattr(poly, "is_sqrt_poly", lambda ctx, f: False)
    with pytest.raises(SqrtPolyError, match="glue_crt"):
        glue_crt(ctx41, parts, check=True)


def test_glue_pair_check_raises(monkeypatch, ctx41):
    f0 = sparse_poly(ctx41, P41_GLUE_HALF_0)
    f1 = sparse_poly(ctx41, P41_GLUE_HALF_1)
    monkeypatch.setattr(poly, "sub", lambda a, b: from_coeffs(ctx41, []))
    with pytest.raises(SqrtPolyError, match="glue_pair degree"):
        glue_pair(ctx41, f0, f1, 1, 0, check=True)
