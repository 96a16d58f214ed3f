"""The Tonelli-Shanks family: per-block minimal monomials and their gluings.

S splits into 2^{s-1} blocks S_i = {a in S : a^q = zeta^i}.  On each
block the minimal square-root polynomial is the monomial
zeta^{-k/2} x^{(q+1)/2}; choosing a sign per block and gluing by CRT
gives the 2^{2^{s-1}} TS polynomials.  They are the order-2^{s-1}
alternating family eps_{dx+y} = (-1)^x h_y, so their coefficients come
without any gluing, from the family's closed-form weights
(census.alternating_weights): one product with the block signs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _modmat, census
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

    The block signs times the family's weights, placed at its admissible
    degrees; at q = 1 degree r is x^0.
    """
    if ctx.s < 2:
        raise LevelOutOfRange("TS gluing needs s >= 2")
    degs, w = census.alternating_weights(ctx, block_count(ctx))
    rows = np.zeros((len(signs), ctx.r), dtype=np.int64)
    rows[:, np.asarray(degs) % ctx.r] = _modmat.matmul_mod(signs, w, ctx.p)
    return rows


def ts_polynomial(ctx: FieldCtx, choice: TsChoice) -> Poly:
    """The signed block monomials of choice, glued into one polynomial on S."""
    return Poly._adopt(ctx, _ts_rows(ctx, choice.h.sign_array()[None]))[0]


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
    """Degrees r - (q-1)/2 - n*q of the order-2^{s-1} family above (p-1)/3.

    At q = 1 they start at r, which stands for x^0, as in family_census.
    """
    if ctx.s < 2:
        raise LevelOutOfRange("needs s >= 2")
    degs = census.family_admissible_degrees(ctx, block_count(ctx))
    return [deg for deg in degs if 3 * deg > ctx.p - 1]


def enumerate_ts(ctx: FieldCtx, dump: bool = False):
    """Degree histogram over all 2^(2^{s-1}) block-sign choices.

    Returns (DegreeHistogram, polys) where polys is None unless dump=True.
    The histogram is family_census's over the 2^{s-1} block signs, the
    dump one product of every choice with the same weights.  At q = 1
    the histogram counts a polynomial with c_0 != 0 as of degree r
    (family_admissible_degrees), where the dumped Poly's degree is below
    r: at p = 17 it reads {7: 16, 8: 240} and the dump's degrees
    {6: 16, 7: 240}.  The histogram is refused only past the join cap,
    the dump past ENUM_CAP blocks.
    """
    if ctx.s < 2:
        raise LevelOutOfRange("needs s >= 2")
    d = block_count(ctx)
    if dump and d > ENUM_CAP:
        raise TooLarge(f"{d} blocks exceed enumeration cap {ENUM_CAP}")
    hist = census.family_census(ctx, d)
    hist.meta["family"] = "ts"
    polys = None
    if dump:
        # row w holds the choice SignVector(w, d): bit k set means h_k = -1
        words = np.arange(1 << d, dtype=np.int64)[:, None]
        signs = 1 - 2 * (words >> np.arange(d, dtype=np.int64) & 1)
        polys = Poly._adopt(ctx, _ts_rows(ctx, signs))
    return hist, polys
