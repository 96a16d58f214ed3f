import random
from fractions import Fraction

import pytest

from sqrtpoly import signs
from sqrtpoly.errors import LengthMismatch, RangeOutOfBounds, SqrtPolyError
from sqrtpoly.signs import (SignVector, alternating_order_structural,
                            family_size, family_size_reduced, flip_shift,
                            from_signs, orbit_stats)

from .helpers import naive_flip_shift


def test_from_signs_roundtrip():
    seq = [1, -1, -1, 1, 1, -1]
    eps = from_signs(seq)
    assert eps.signs() == seq
    assert eps.d == 6
    assert eps.sign(1) == -1
    assert (-eps).signs() == [-s for s in seq]
    with pytest.raises(LengthMismatch):
        from_signs([1, 0, -1])


@pytest.mark.parametrize("bits, d", [(8, 3), (-1, 3), (0, 0), (0, -2)])
def test_sign_vector_out_of_range_is_refused(bits, d):
    with pytest.raises(RangeOutOfBounds):
        SignVector(bits, d)


def test_render():
    assert from_signs([1, -1, 1]).render() == "(+,-,+)"
    assert SignVector(0, 4).render() == "(+,+,+,+)"


def test_flip_shift_against_oracle():
    rng = random.Random(5)
    for _ in range(200):
        d = rng.randrange(1, 16)
        seq = [rng.choice([1, -1]) for _ in range(d)]
        eps = from_signs(seq)
        for n in range(2 * d + 3):
            assert flip_shift(eps, n).signs() == naive_flip_shift(seq, n)


def test_flip_shift_group_laws():
    rng = random.Random(6)
    for _ in range(50):
        d = rng.randrange(1, 20)
        eps = SignVector(rng.getrandbits(d), d)
        assert flip_shift(eps, 2 * d) == eps
        assert flip_shift(eps, d) == -eps
        m, n = rng.randrange(4 * d), rng.randrange(4 * d)
        assert flip_shift(flip_shift(eps, m), n) == flip_shift(eps, m + n)


def test_orbit_stats():
    # sigma negates-and-rotates, so (+,-,+) comes back after two steps
    st = orbit_stats(from_signs([1, -1, 1]))
    assert st.order == 2 and st.alt_order == 1 and st.orbit_size == 2
    all_plus = SignVector(0, 6)
    assert orbit_stats(all_plus).order == 12


def test_orbit_order_divides_2d():
    for d in range(1, 11):
        for w in range(1 << d):
            assert (2 * d) % orbit_stats(SignVector(w, d)).order == 0


def test_orbit_stats_refuses_an_odd_order(monkeypatch):
    # sigma has even order on every sign vector; a broken shift that fixes
    # eps after one step must raise, not return a half order
    monkeypatch.setattr(signs, "flip_shift", lambda eps, n=1: eps)
    with pytest.raises(SqrtPolyError):
        orbit_stats(from_signs([1, -1, 1]))


def test_structural_order_matches_orbit():
    # the least-divisor characterization and the sigma-orbit computation
    # must produce the same alternating order
    for d in (1, 2, 3, 4, 6, 9, 10, 12):
        for w in range(1 << d):
            eps = SignVector(w, d)
            assert alternating_order_structural(eps) == orbit_stats(eps).alt_order


def test_family_size_values():
    assert [family_size(d) for d in range(1, 7)] == [2, 2, 6, 12, 30, 54]


def test_family_size_refuses_d_below_one():
    for d in (0, -3):
        with pytest.raises(RangeOutOfBounds):
            family_size(d)


def test_family_size_partition():
    for d in (1, 2, 3, 4, 6, 8, 12, 18, 20):
        assert sum(family_size(ell) for ell in signs._divisors(d)) == 1 << d


def test_family_size_reduced():
    assert family_size_reduced(4) == Fraction(12, 8)
    for d in (1, 2, 3, 5, 8):
        assert family_size_reduced(d) * 2 * d == family_size(d)


@pytest.mark.parametrize("d", [1, 7, 8, 9, 64, 2000])
def test_signs_and_render_match_the_per_bit_definition(d):
    rng = random.Random(d)
    for bits in (0, (1 << d) - 1, 1 << (d - 1), rng.getrandbits(d)):
        eps = SignVector(bits, d)
        want = [-1 if (bits >> n) & 1 else 1 for n in range(d)]
        got = eps.signs()
        assert got == want and all(type(s) is int for s in got)
        assert eps.render() == "(" + ",".join("-" if s < 0 else "+" for s in want) + ")"
