import random

import numpy as np
import pytest

from sqrtpoly import fourier, make_field_ctx, search, ts
from sqrtpoly._modmat import eval_on_squares
from sqrtpoly.errors import BlockOutOfRange, LevelOutOfRange, TooLarge
from sqrtpoly.poly import eval_poly, glue_crt, is_sqrt_poly
from sqrtpoly.signs import SignVector, from_signs

from .fixtures import P41_TS_TABLE, TS_COUNTS
from .helpers import block_minimal_poly, block_part, shift_family


def block_points(ctx, k):
    """The q points a with a^q = zetaTS^k."""
    p, q = ctx.p, ctx.q
    target = pow(ctx.zetaTS, k, p)
    return [a for a in range(1, p) if pow(a, q, p) == target]


def test_block_counts(ctx41):
    assert ts.block_count(ctx41) == 4
    assert ts.block_choice_count(ctx41) == 16
    ctx7 = make_field_ctx(7)
    assert ts.block_count(ctx7) == 1
    assert ts.block_choice_count(ctx7) == 2


def test_block_minimal_poly_values(ctx41):
    # tau^{-k} for tau = gamma^q = 6^5 = 27 mod 41
    coeffs = [block_minimal_poly(ctx41, k).sparse() for k in range(4)]
    assert coeffs == [[(3, 1)], [(3, 38)], [(3, 9)], [(3, 14)]]
    with pytest.raises(BlockOutOfRange):
        block_minimal_poly(ctx41, 4)


def test_block_minimal_poly_is_block_sqrt(ctx41):
    for k in range(4):
        f = block_minimal_poly(ctx41, k)
        pts = block_points(ctx41, k)
        assert len(pts) == ctx41.q
        for a in pts:
            v = eval_poly(f, a)
            assert v * v % ctx41.p == a


def test_block_minimal_poly_s1():
    ctx = make_field_ctx(19)
    f = block_minimal_poly(ctx, 0)
    assert f.sparse() == [(5, 1)]
    assert is_sqrt_poly(ctx, f)


def test_shift_family_moves_blocks(ctx41):
    f0 = block_minimal_poly(ctx41, 0)
    for i in range(4):
        fi = shift_family(ctx41, f0, i)
        for a in block_points(ctx41, i):
            v = eval_poly(fi, a)
            assert v * v % ctx41.p == a


def test_shift_family_matches_shift_members(ctx41):
    for k in (0, 1):
        fam = search.build_level(ctx41, k)
        for i in (1, 2, 3):
            rows = search.build_level(ctx41, k, i).members.tolist()
            for w, row in enumerate(rows):
                fi = shift_family(ctx41, fam.member_poly(ctx41, w), i)
                assert fi.coeffs == row + [0] * (ctx41.r - fam.modulus)


def test_ts_polynomial_table(ctx41):
    """All 16 rows, exact pairing of block signs to glued coefficients."""
    for h, (c18, c13, c8, c3) in P41_TS_TABLE.items():
        f = ts.ts_polynomial(ctx41, ts.TsChoice(from_signs(h)))
        assert dict(f.sparse()) == {18: c18, 13: c13, 8: c8, 3: c3}
        assert is_sqrt_poly(ctx41, f)


def test_ts_sign_vector_structure(ctx41):
    h = from_signs([1, -1, 1, 1])
    eps = ts.ts_sign_vector(ctx41, ts.TsChoice(h))
    assert eps.d == ctx41.r
    d = ts.block_count(ctx41)
    for n in range(ctx41.r):
        x, y = divmod(n, d)
        assert eps.sign(n) == (-1) ** x * h.sign(y)


def test_ts_routes_agree(ctx41):
    # glue_crt route == sign-vector/DFT route, all 16 choices
    for w in range(16):
        choice = ts.TsChoice(SignVector(w, 4))
        via_glue = ts.ts_polynomial(ctx41, choice)
        via_dft = fourier.coeffs_from_signs(ctx41, ts.ts_sign_vector(ctx41, choice))
        assert via_glue == via_dft


def test_ts_routes_agree_q1():
    # q = 1: the block monomials reduce to constants before gluing
    ctx = make_field_ctx(17)
    for w in range(1 << 8):
        choice = ts.TsChoice(SignVector(w, 8))
        via_glue = ts.ts_polynomial(ctx, choice)
        via_dft = fourier.coeffs_from_signs(ctx, ts.ts_sign_vector(ctx, choice))
        assert via_glue == via_dft
        assert is_sqrt_poly(ctx, via_glue)


@pytest.mark.parametrize("p", [17, 41])
def test_ts_rows_are_the_glued_block_monomials(p):
    # every choice: the rows from the family's closed-form weights equal
    # glue_crt of the signed block monomials (at q = 1 each reduced to a
    # constant mod x - zeta^k), an independent route
    ctx = make_field_ctx(p)
    d = ts.block_count(ctx)
    for w in range(1 << d):
        h = SignVector(w, d)
        parts = [block_part(ctx, k, h.sign(k)) for k in range(d)]
        assert ts.ts_polynomial(ctx, ts.TsChoice(h)) == glue_crt(ctx, parts), w


def test_ts_admissible_degrees():
    assert ts.ts_admissible_degrees(make_field_ctx(41)) == [18]
    assert ts.ts_admissible_degrees(make_field_ctx(97)) == [47, 44, 41, 38, 35]
    assert ts.ts_admissible_degrees(make_field_ctx(29)) == [11]
    # truncation: 3*6 = 18 > 16 keeps 6, but 3*5 = 15 does not
    assert ts.ts_admissible_degrees(make_field_ctx(17)) == [8, 7, 6]


def test_enumerate_ts_histograms():
    for p in (13, 17, 29, 41):
        ctx = make_field_ctx(p)
        hist, polys = ts.enumerate_ts(ctx)
        assert hist.counts == TS_COUNTS[p]
        assert hist.total == ts.block_choice_count(ctx)
        assert polys is None


def test_enumerate_ts_past_the_enumeration_cap():
    # p = 193, s = 6: 2^32 block choices, counted by the family join; only
    # the dump, which builds every polynomial, is refused
    ctx = make_field_ctx(193)
    hist, polys = ts.enumerate_ts(ctx)
    assert hist.total == ts.block_choice_count(ctx) == 1 << 32
    assert set(hist.counts) <= set(ts.ts_admissible_degrees(ctx))
    assert polys is None
    with pytest.raises(TooLarge):
        ts.enumerate_ts(ctx, dump=True)


def test_enumerate_ts_dump(ctx41):
    hist, polys = ts.enumerate_ts(ctx41, dump=True)
    assert len(polys) == 16
    degs = {}
    for f in polys:
        assert is_sqrt_poly(ctx41, f)
        degs[f.degree] = degs.get(f.degree, 0) + 1
    assert degs == hist.counts == {18: 16}
    # closed under negation
    coeff_sets = {tuple(f.coeffs) for f in polys}
    assert all(tuple((-f).coeffs) in coeff_sets for f in polys)


def test_enumerate_ts_dump_p97():
    # 2^16 choices in one batched CRT: all square-root polynomials, with the
    # census's degree histogram, and each the glue of its own choice
    ctx = make_field_ctx(97)
    hist, polys = ts.enumerate_ts(ctx, dump=True)
    assert len(polys) == 1 << 16
    rows = np.array([f.coeffs for f in polys], dtype=np.int64)
    ns = np.arange(ctx.r)
    ratios = eval_on_squares(ctx, rows) * ctx.gamma_powers[-ns % (ctx.p - 1)] % ctx.p
    assert np.all((ratios == 1) | (ratios == ctx.p - 1))
    degs = {}
    for f in polys:
        degs[f.degree] = degs.get(f.degree, 0) + 1
    assert degs == hist.counts == TS_COUNTS[97]
    for w in random.Random(97).sample(range(1 << 16), 20):
        assert polys[w] == ts.ts_polynomial(ctx, ts.TsChoice(SignVector(w, 16)))


def test_degrees_land_on_admissible_grid():
    # every glued polynomial is supported on exponents r-(q-1)/2 - nq
    ctx = make_field_ctx(17)
    _, polys = ts.enumerate_ts(ctx, dump=True)
    for f in polys:
        for k, _c in f.sparse():
            assert (ctx.r - (ctx.q - 1) // 2 - k) % ctx.q == 0


def test_s1_rejected():
    ctx7 = make_field_ctx(7)
    for fn in (ts.ts_polynomial, ts.ts_sign_vector):
        with pytest.raises(LevelOutOfRange):
            fn(ctx7, ts.TsChoice(SignVector(0, 1)))
    with pytest.raises(LevelOutOfRange):
        ts.ts_admissible_degrees(ctx7)
