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
from .errors import LevelOutOfRange, TooLarge
from .field import FieldCtx
from .poly import Poly
from .signs import SignVector

ENUM_CAP = 24  # max 2^{s-1} for dump=True, which builds every polynomial


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


def block_constants(ctx: FieldCtx, ks) -> np.ndarray:
    """tau^(-k) for the blocks k, tau = gamma^q, the branch zeta^(1/2)."""
    return ctx.gamma_powers[-ctx.q * np.asarray(ks, dtype=np.int64) % (ctx.p - 1)]


def shift_scales(ctx: FieldCtx, i: int, width: int) -> np.ndarray:
    """gamma^(i - 2ij) for j < width: the column scales of the block shift.

    The shift f |-> gamma^i * f(gamma^(-2i) x) maps square-root
    polynomials on S_0^k to ones on S_i^k, uniformly across levels
    (tau = gamma^2, tau^(1/2) = gamma), and multiplies coefficient j by
    gamma^(i - 2ij).
    """
    js = np.arange(width, dtype=np.int64)
    return ctx.gamma_powers[(i - 2 * i * js) % (ctx.p - 1)]


def _ts_rows(ctx: FieldCtx, signs: np.ndarray) -> np.ndarray:
    """Coefficient rows of the TS polynomials of the rows of block signs.

    Part k is h_k tau^(-k) x^e, e = (q+1)/2, reduced modulo its block's
    x^q - zeta^k: x^e = zeta^(k (e // q)) x^(e mod q).  All parts go
    through one batched CRT.
    """
    if ctx.s < 2:
        raise LevelOutOfRange("TS gluing needs s >= 2")
    p, q = ctx.p, ctx.q
    e = (q + 1) // 2
    ks = np.arange(block_count(ctx), dtype=np.int64)
    coeffs = block_constants(ctx, ks) * ctx.gamma_powers[2 * q * (e // q) * ks % (p - 1)]
    parts = np.zeros((len(signs), len(ks), q), dtype=np.int64)
    parts[:, :, e % q] = signs * coeffs % p
    return poly.crt_rows(ctx, parts)


def ts_polynomial(ctx: FieldCtx, choice: TsChoice) -> Poly:
    """Glue the signed block monomials into one polynomial on S."""
    row = _ts_rows(ctx, choice.h.sign_array()[None])[0]
    return Poly(ctx, row.tolist())


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
    c_{k_t} = (1/d) sum_y h_y gamma^(y(1-2 k_t)); the dump path glues the
    block monomials of every choice by one batched CRT (route agreement
    is a tested invariant).  The histogram is refused only past the join
    cap, the dump past ENUM_CAP blocks.
    """
    from .census import family_census

    if ctx.s < 2:
        raise LevelOutOfRange("needs s >= 2")
    d = block_count(ctx)
    if dump and d > ENUM_CAP:
        raise TooLarge(f"{d} blocks exceed enumeration cap {ENUM_CAP}")
    hist = family_census(ctx, d)
    hist.meta["family"] = "ts"
    polys = None
    if dump:
        # row w holds the choice SignVector(w, d): bit k set means h_k = -1
        words = np.arange(1 << d, dtype=np.int64)[:, None]
        signs = 1 - 2 * (words >> np.arange(d, dtype=np.int64) & 1)
        polys = [Poly(ctx, row) for row in _ts_rows(ctx, signs).tolist()]
    return hist, polys
