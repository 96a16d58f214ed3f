from fractions import Fraction

import pytest

from sqrtpoly import heuristic, make_field_ctx, ts
from sqrtpoly.errors import LevelOutOfRange
from sqrtpoly.field import is_prime
from sqrtpoly.heuristic import (family_expected_counts, naive_expected_counts,
                                predicted_min_degree, round_half_up,
                                ts_expected_counts)

from .fixtures import TS_EXPECTED


def test_round_half_up():
    assert round_half_up(Fraction(1, 2)) == 1
    assert round_half_up(Fraction(3, 2)) == 2
    assert round_half_up(Fraction(5, 2)) == 3
    assert round_half_up(Fraction(-1, 2)) == 0
    assert round_half_up(Fraction(7, 3)) == 2
    assert round_half_up(Fraction(240, 1)) == 240


def test_naive_mass_is_exact():
    for p in (13, 29, 41, 53):
        ctx = make_field_ctx(p)
        rep = naive_expected_counts(ctx)
        assert sum(row.predicted for row in rep.rows) + rep.zero_mass == \
            Fraction(1 << ctx.r)
        assert len(rep.rows) == ctx.r
        # degrees descending, masses decreasing by a factor of p each step
        degs = [row.degree for row in rep.rows]
        assert degs == sorted(degs, reverse=True)
        for hi, lo in zip(rep.rows, rep.rows[1:]):
            assert hi.predicted == lo.predicted * p


def test_naive_top_row():
    ctx = make_field_ctx(41)
    rep = naive_expected_counts(ctx)
    top = rep.rows[0]
    assert top.degree == 19
    assert top.predicted == Fraction(2 ** 20 * 40, 41)
    assert top.rounded == 1023001


def test_ts_expected_reference_values():
    for p in (13, 17, 29, 41, 97, 113):
        ctx = make_field_ctx(p)
        got = ts_expected_counts(ctx).rounded_nonzero()
        assert got == TS_EXPECTED[p]


def test_ts_expected_353_formula():
    ctx = make_field_ctx(353)
    got = ts_expected_counts(ctx).rounded_nonzero()
    # the n = 0 row is (1 - 1/353) * 2^16, which rounds to 65350
    assert got == {149: 1, 160: 185, 171: 65350}


def test_ts_expected_needs_s2():
    with pytest.raises(LevelOutOfRange):
        ts_expected_counts(make_field_ctx(7))


def test_family_expected_counts():
    ctx = make_field_ctx(41)
    rep = family_expected_counts(ctx, 4)
    assert [row.degree for row in rep.rows] == [18, 13, 8, 3]
    # lambda_0 = N'(4) = 12/8
    assert rep.rows[0].predicted == Fraction(12, 8)
    assert rep.rows[0].approx == Fraction(16, 8)
    assert not rep.rows[0].below_threshold
    assert rep.rows[1].below_threshold  # 1.5/41 < 1/2


def test_attach_actuals():
    ctx = make_field_ctx(29)
    rep = naive_expected_counts(ctx)
    rep.attach_actuals({13: 15820, 12: 560, 11: 4})
    by_deg = {row.degree: row.actual for row in rep.rows}
    assert by_deg[13] == 15820 and by_deg[10] == 0
    obj = rep.to_json()
    assert obj["rows"][0]["actual"] == "15820"
    assert obj["rows"][0]["predicted"].isdigit() or "/" in obj["rows"][0]["predicted"]


def test_predicted_min_degree():
    pred97 = predicted_min_degree(make_field_ctx(97))
    assert pred97.ts_model_a == 44
    assert pred97.ts_model_b == 41
    pred41 = predicted_min_degree(make_field_ctx(41))
    assert pred41.ts_model_a == 18 and pred41.ts_model_b == 18
    assert pred41.global_min <= 18
    assert set(pred41.per_family) == {4, 20}  # divisors d of 20 with 20/d odd
    with pytest.raises(LevelOutOfRange):
        predicted_min_degree(make_field_ctx(11))


def test_ts_degree_ladder_is_the_family_ladder():
    # the TS degrees r - (q-1)/2 - nq, stepped by hand, against the three
    # places that now read them off family_admissible_degrees(ctx, 2^(s-1))
    for p in range(5, 5000, 4):
        if not is_prime(p):
            continue
        ctx = make_field_ctx(p)
        q, r = ctx.q, ctx.r
        ladder = list(range(r - (q - 1) // 2, (q + 1) // 2 - 1, -q))
        assert [row.degree for row in ts_expected_counts(ctx).rows] == ladder, p
        assert ts.ts_admissible_degrees(ctx) == [k for k in ladder if 3 * k > p - 1], p
        d, pred = ts.block_count(ctx), predicted_min_degree(ctx)
        n_a = heuristic._max_n(2 ** (d - ctx.s + 1), p, len(ladder) - 1)
        n_b = heuristic._max_n(2 * (p - 1) * 2 ** d // p, p, len(ladder) - 1)
        assert (pred.ts_model_a, pred.ts_model_b) == \
            (r - (q - 1) // 2 - q * n_a, r - (q - 1) // 2 - q * n_b), p
