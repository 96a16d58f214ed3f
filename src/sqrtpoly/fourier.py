"""The sign-vector <-> polynomial dictionary and the vanishing counts.

A square-root polynomial on S is determined by which of the two roots it
takes at each point: f(gamma^(2n)) = eps_n * gamma^n.  Inverting that
interpolation is a DFT over F_p, so every coefficient is a signed half
sum c_k = (1/r) H_{r,1-2k}(eps), and questions about degrees become
questions about vanishing half sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, _modmat, poly
from .errors import (InvalidDivisor, LengthMismatch, NotASqrtPoly, NotCoprime,
                     PeriodDoesNotDivide, SqrtPolyError, UnresolvedHalfRoot)
from .field import FieldCtx, legendre, root_of_unity
from .poly import Poly
from .signs import SignVector


@dataclass(frozen=True)
class HalfSumSpec:
    d: int
    k: int
    zeta: int  # a primitive 2d-th root of unity


def half_sum_spec(ctx: FieldCtx, d: int, k: int) -> HalfSumSpec:
    if ctx.r % d != 0:
        raise InvalidDivisor(f"d = {d} does not divide r = {ctx.r}")
    return HalfSumSpec(d, k, root_of_unity(ctx, 2 * d))


def half_sum(spec: HalfSumSpec, eps: SignVector, p: int) -> int:
    """H_{d,k}(eps) = sum_n eps_n zeta^(nk) in F_p."""
    if eps.d != spec.d:
        raise LengthMismatch(f"eps length {eps.d} != d = {spec.d}")
    w = pow(spec.zeta, spec.k % (2 * spec.d), p)
    acc = 0
    cur = 1
    for n in range(spec.d):
        acc += cur if eps.sign(n) == 1 else -cur
        cur = cur * w % p
    return acc % p


def coeffs_from_signs(ctx: FieldCtx, eps: SignVector) -> Poly:
    """The unique f with f(gamma^(2n)) = eps_n gamma^n, mod x^r - 1."""
    if eps.d != ctx.r:
        raise LengthMismatch(f"eps length {eps.d} != r = {ctx.r}")
    return Poly._adopt(ctx, _modmat.signed_dft(ctx, eps.sign_array()))[0]


def signs_from_poly(ctx: FieldCtx, f: Poly) -> SignVector:
    """eps_n = f(gamma^(2n)) * gamma^(-n); must be +-1 everywhere."""
    vals, plus, minus = poly._root_signs(ctx, f)
    bad = np.flatnonzero(~(plus | minus))
    if len(bad):
        n, p = int(bad[0]), ctx.p
        ratio = int(vals[n]) * pow(ctx.gamma, -n, p) % p
        raise NotASqrtPoly(f"f(gamma^{2 * n}) / gamma^{n} = {ratio}")
    minus = np.packbits(minus, bitorder="little")
    return SignVector(int.from_bytes(minus.tobytes(), "little"), ctx.r)


def sign_weights(ctx: FieldCtx, n: int, exps) -> np.ndarray:
    """w[j, k] = gamma^(j exps[k]) / n mod p for j < n: a sign family's weights.

    The member with signs eps has coefficients c_k = sum_j eps_j w[j, k].
    Every family is one of these: the census (n = r, exps 1 - 2k), the
    order-d alternating family at its admissible degrees k (n = d, exps
    1 - 2k), and the square-root polynomials on the order-M subgroup of S
    that take eps_j gamma^((r/M) j) at gamma^(2 (r/M) j) (n = M, exps
    (r/M)(1 - 2k)).
    """
    w = _modmat.power_block(ctx, np.arange(n, dtype=np.int64), np.asarray(exps))
    return w * pow(n, -1, ctx.p) % ctx.p


def subgroup_coeffs(ctx: FieldCtx, d: int, eps: SignVector) -> Poly:
    """Square-root polynomial of degree < d on the subgroup mu_d, d odd.

    On an odd-order subgroup the half root is canonical: a^(1/2) = a^((d+1)/2),
    so g(zeta_d^n) = eps_n * zeta_d^(n(d+1)/2) and the coefficients come out
    of one inverse transform of length d: c_k = (1/d) sum_n eps_n
    zeta_d^(n(d+1)/2) zeta_d^(-nk), the ntt with e = -(p-1)/d.
    """
    if ctx.r % d != 0:
        raise InvalidDivisor(f"d = {d} does not divide r = {ctx.r}")
    if d % 2 == 0:
        raise UnresolvedHalfRoot("even-order subgroups have no canonical branch")
    if eps.d != d:
        raise LengthMismatch(f"eps length {eps.d} != d = {d}")
    p, step = ctx.p, (ctx.p - 1) // d  # zeta_d = gamma^step
    half_root = ctx.gamma_powers[np.arange(d, dtype=np.int64) * ((d + 1) // 2) % d * step]
    row = eps.sign_array() * half_root
    c = _modmat.ntt(ctx, row, -step)[0] * pow(d, -1, p) % p
    return poly.from_coeffs(ctx, c)


def periodic_pattern_poly(ctx: FieldCtx, pattern: SignVector) -> Poly:
    """Sparse member of F_0 from an N-periodic sign pattern, N | q.

    The resulting polynomial has at most N nonzero monomials, all at
    exponents congruent to (q+1)/2 mod Q with Q = q/N.
    """
    q = ctx.q
    n_len = pattern.d
    if q % n_len != 0:
        raise PeriodDoesNotDivide(f"N = {n_len} does not divide q = {q}")
    from .signs import from_signs

    ext = from_signs([pattern.sign(n % n_len) for n in range(q)])
    f = subgroup_coeffs(ctx, q, ext)
    # sparsity sanity: exponents land in one residue class mod Q
    big_q = q // n_len
    terms = f.sparse()
    if len(terms) > n_len or any(k % big_q != (q + 1) // 2 % big_q for k, _c in terms):
        raise SqrtPolyError(f"pattern polynomial has {len(terms)} terms, not at most "
                            f"{n_len} at exponents = (q+1)/2 mod {big_q}")
    return f


def count_vanishing_formula(ctx: FieldCtx, ell: int) -> int:
    """|V_{r,ell}| = (2^r + (p-1)(2/p)) / p, valid for odd ell coprime to p-1."""
    p, r = ctx.p, ctx.r
    if ell % 2 == 0:
        raise NotCoprime(f"ell = {ell} is even")
    if math.gcd(ell, p - 1) != 1:
        raise NotCoprime(f"gcd({ell}, {p - 1}) != 1; use the brute-force oracle")
    num = (1 << r) + (p - 1) * legendre(2, ctx)
    if num % p:
        raise SqrtPolyError(f"2^{r} + (p-1)(2/p) is not divisible by p = {p}")
    return num // p


def count_vanishing_bruteforce(ctx: FieldCtx, d: int, ell: int,
                               shard: tuple[int, int] | None = None) -> int:
    """#{eps in E_d : H_{d,ell}(eps) = 0}, exact, by a one-column join.

    With w = zeta^ell for the canonical primitive 2d-th root zeta,
    H = A(low signs) - B(high signs) for the half sums A and -B of
    eps_n w^n (_kernels.half_tables), so the count is the number of pairs
    with A = B: the census join over one column, whose hist[0] counts the
    vanishing sums.  shard = (index, total) restricts to the Gray-code
    indices [2^d index // total, 2^d (index+1) // total); slices sum to
    the full count.  Another primitive root zeta^e is the canonical one
    at ell * e.  A join side past the join cap (d > 52) is refused with
    TooLarge.
    """
    _kernels.check_signs(d)
    p = ctx.p
    w = pow(root_of_unity(ctx, 2 * d), ell % (2 * d), p)
    lo, hi = (0, 1 << d) if shard is None else _kernels.shard_range(d, *shard)
    if lo >= hi:
        return 0
    powers = np.array([[pow(w, n, p)] for n in range(d)], dtype=np.int64)
    return int(_kernels.range_hist(_kernels.half_tables(powers, p), p, lo, hi)[0])
