"""The Tonelli-Shanks family: per-block minimal monomials and their gluings.

S splits into 2^{s-1} blocks S_i = {a in S : a^q = zeta^i}.  On each
block the minimal square-root polynomial is the monomial
zeta^{-k/2} x^{(q+1)/2}; choosing a sign per block and gluing by CRT
gives the 2^{2^{s-1}} TS polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import poly
from .errors import BlockOutOfRange, LevelOutOfRange, TooLarge
from .field import FieldCtx
from .poly import Poly
from .signs import SignVector

ENUM_CAP = 24  # max 2^{s-1} for full enumeration


@dataclass(frozen=True)
class TsChoice:
    h: SignVector  # one sign per block, length 2^{s-1}


def block_count(ctx: FieldCtx) -> int:
    return 1 << max(ctx.s - 1, 0)


def block_choice_count(ctx: FieldCtx) -> int:
    """2^(2^{s-1}): the number of TS polynomials (sign per block).

    Distinct from signs.family_size(d), which counts vectors of
    alternating order exactly d.
    """
    return 1 << block_count(ctx)


def block_minimal_poly(ctx: FieldCtx, k: int) -> Poly:
    """zeta^{-k/2} x^{(q+1)/2} on S_k, with the branch zeta^{1/2} := gamma^q."""
    d = block_count(ctx)
    if not (0 <= k < d):
        raise BlockOutOfRange(f"block {k} not in [0, {d})")
    if ctx.s == 1:
        return poly.monomial(ctx, 1, (ctx.p + 1) // 4)
    tau = pow(ctx.gamma, ctx.q, ctx.p)  # square root of zetaTS
    coeff = pow(tau, -k % (1 << ctx.s), ctx.p) if k else 1
    return poly.monomial(ctx, coeff, (ctx.q + 1) // 2)


def shift_scales(ctx: FieldCtx, i: int, width: int) -> np.ndarray:
    """gamma^(i - 2ij) for j < width: the column scales of shift_family."""
    js = np.arange(width, dtype=np.int64)
    return ctx.gamma_powers[(i - 2 * i * js) % (ctx.p - 1)]


def shift_family(ctx: FieldCtx, f0: Poly, i: int) -> Poly:
    """The block bijection f |-> gamma^i * f(gamma^(-2i) x).

    Maps square-root polynomials on S_0^k to ones on S_i^k, uniformly
    across levels (tau = gamma^2, tau^(1/2) = gamma).
    """
    scaled = np.asarray(f0.coeffs, dtype=np.int64) * shift_scales(ctx, i, ctx.r)
    return Poly(ctx, (scaled % ctx.p).tolist())


def ts_polynomial(ctx: FieldCtx, choice: TsChoice) -> Poly:
    """Glue the signed block monomials into one polynomial on S."""
    if ctx.s < 2:
        raise LevelOutOfRange("TS gluing needs s >= 2")
    parts = []
    for k in range(block_count(ctx)):
        f = block_minimal_poly(ctx, k)
        if choice.h.sign(k) == -1:
            f = -f
        if f.degree != poly.NEG_INF and f.degree >= ctx.q:
            # q = 1 only: the block monomial c*x reduces to the constant
            # c*zeta^k modulo the block's vanishing polynomial x - zeta^k
            e, c = f.sparse()[0]
            beta = pow(ctx.zetaTS, k * (e // ctx.q) % (1 << (ctx.s - 1)), ctx.p)
            f = poly.monomial(ctx, c * beta % ctx.p, e % ctx.q)
        parts.append(f)
    return poly.glue_crt(ctx, parts)


def ts_sign_vector(ctx: FieldCtx, choice: TsChoice) -> SignVector:
    """The length-r vector eps_{dx+y} = (-1)^x h(y), d = 2^{s-1}."""
    if ctx.s < 2:
        raise LevelOutOfRange("needs s >= 2")
    d = block_count(ctx)
    bits = 0
    for n in range(ctx.r):
        x, y = divmod(n, d)
        s = choice.h.sign(y) * (-1 if x % 2 else 1)
        if s == -1:
            bits |= 1 << n
    return SignVector(bits, ctx.r)


def ts_admissible_degrees(ctx: FieldCtx) -> list[int]:
    """Descending degrees r - (q-1)/2 - n*q, truncated at the (p-1)/3 bound."""
    if ctx.s < 2:
        raise LevelOutOfRange("needs s >= 2")
    out = []
    deg = ctx.r - (ctx.q - 1) // 2
    while 3 * deg > ctx.p - 1:
        out.append(deg)
        deg -= ctx.q
    return out


def enumerate_ts(ctx: FieldCtx, dump: bool = False):
    """Degree histogram over all 2^(2^{s-1}) block-sign choices.

    Returns (DegreeHistogram, polys) where polys is None unless dump=True.
    The histogram is computed from the sparse coefficient formula
    c_{k_t} = (1/d) sum_y h_y gamma^(y(1-2 k_t)); the dump path goes the
    long way through glue_crt (route agreement is a tested invariant).
    """
    from .census import family_census

    if ctx.s < 2:
        raise LevelOutOfRange("needs s >= 2")
    d = block_count(ctx)
    if d > ENUM_CAP:
        raise TooLarge(f"{d} blocks exceed enumeration cap {ENUM_CAP}")
    hist = family_census(ctx, d)
    hist.meta["family"] = "ts"
    polys = None
    if dump:
        polys = []
        for w in range(1 << d):
            polys.append(ts_polynomial(ctx, TsChoice(SignVector(w, d))))
    return hist, polys
