"""The quotient ring F_p[x]/(x^r - 1) and the two gluing constructions."""

from __future__ import annotations

import numpy as np

from . import _modmat
from .errors import (ContextMismatch, DegreeTooLarge, EqualInputsCancellation,
                     LengthMismatch, LevelOutOfRange, SqrtPolyError, WrongPartCount)
from .field import FieldCtx

#: degree of the zero polynomial; compares below every real degree
NEG_INF = float("-inf")


class Poly:
    """An element of F_p[x]/(x^r - 1), held as one read-only int64 array of
    its r residues, reduced from the coefficients it is built from."""

    def __init__(self, ctx: FieldCtx, coeffs):
        array = _residues(coeffs, ctx.p)
        if array.ndim != 1 or len(array) != ctx.r:
            raise LengthMismatch(f"{array.size} coefficients but r = {ctx.r}")
        array.flags.writeable = False
        self.ctx, self.array, self._ints = ctx, array, None

    @classmethod
    def _adopt(cls, ctx: FieldCtx, rows: np.ndarray) -> list[Poly]:
        """The Polys of the rows of an int64 array of residues, r columns, that
        the library has just made and no one else holds.

        The array is made read-only once, and each Poly holds its row as it
        is, not copied.
        """
        rows.flags.writeable = False
        polys = [cls.__new__(cls) for _ in range(len(rows))]
        for f, row in zip(polys, rows):
            f.ctx, f.array, f._ints = ctx, row, None
        return polys

    @property
    def coeffs(self) -> list[int]:
        """The residues as Python ints, converted once; each call returns
        its own list, so changing one leaves f as it was."""
        if self._ints is None:
            self._ints = self.array.tolist()
        return self._ints.copy()

    @property
    def degree(self):
        nonzero = np.flatnonzero(self.array)
        return int(nonzero[-1]) if len(nonzero) else NEG_INF

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.ctx.p == self.ctx.p
                and np.array_equal(other.array, self.array))

    def __neg__(self):
        return Poly._adopt(self.ctx, -self.array[None] % self.ctx.p)[0]

    def sparse(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs, descending by exponent."""
        ks = np.flatnonzero(self.array)[::-1]
        return list(zip(ks.tolist(), self.array[ks].tolist()))

    def render(self) -> str:
        """Human form 'c*x^k + ...' descending, like the tables print it."""
        terms = []
        for k, c in self.sparse():
            if k == 0:
                terms.append(f"{c}")
            else:
                xs = "x" if k == 1 else f"x^{k}"
                terms.append(xs if c == 1 else f"{c}{xs}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return f"Poly(p={self.ctx.p}, {self.render()})"

    def to_json(self) -> list[int]:
        return self.coeffs


def _residues(coeffs, p: int) -> np.ndarray:
    """coeffs mod p as an int64 array of its own.

    Machine integers are reduced as one int64 array; integers of any size
    (JSON input) make an object array, reduced exactly as Python ints.
    """
    try:
        c = np.asarray(coeffs, dtype=np.int64)
    except OverflowError:
        c = np.asarray(coeffs, dtype=object)
    return (c % p).astype(np.int64, copy=False)


def from_coeffs(ctx: FieldCtx, coeffs) -> Poly:
    """Build a Poly from any coefficient list of length <= r (zero padded)."""
    c = _residues(coeffs, ctx.p)
    if len(c) > ctx.r:
        raise DegreeTooLarge(f"{len(c)} coefficients but r = {ctx.r}")
    out = np.zeros((1, ctx.r), dtype=np.int64)
    out[0, :len(c)] = c
    return Poly._adopt(ctx, out)[0]


def monomial(ctx: FieldCtx, coeff: int, exp: int) -> Poly:
    c = np.zeros((1, ctx.r), dtype=np.int64)
    c[0, exp % ctx.r] = coeff % ctx.p
    return Poly._adopt(ctx, c)[0]


def _same_ctx(a: Poly, b: Poly):
    if a.ctx.p != b.ctx.p:
        raise ContextMismatch(f"p={a.ctx.p} vs p={b.ctx.p}")


def add(a: Poly, b: Poly) -> Poly:
    _same_ctx(a, b)
    return Poly._adopt(a.ctx, (a.array + b.array)[None] % a.ctx.p)[0]


def sub(a: Poly, b: Poly) -> Poly:
    _same_ctx(a, b)
    return Poly._adopt(a.ctx, (a.array - b.array)[None] % a.ctx.p)[0]


def eval_poly(f: Poly, a: int) -> int:
    """Horner evaluation."""
    p = f.ctx.p
    acc = 0
    for c in reversed(f.coeffs):
        acc = (acc * a + c) % p
    return acc


def _root_signs(ctx: FieldCtx, f: Poly) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f(gamma^(2n)), where it is gamma^n, where it is -gamma^n) for n < r.

    f is a square-root polynomial exactly when one of the two holds at
    every n, and then the second marks its signs eps_n = -1.  A Poly of
    another prime is refused with ContextMismatch before any transform.
    """
    if f.ctx.p != ctx.p:
        raise ContextMismatch(f"a polynomial of p={f.ctx.p} checked at p={ctx.p}")
    vals = _modmat.eval_on_squares(ctx, f.array)[0]
    half = ctx.gamma_powers[:ctx.r]
    return vals, vals == half, vals + half == ctx.p


def is_sqrt_poly(ctx: FieldCtx, f: Poly) -> bool:
    """True iff f(a)^2 = a for every quadratic residue a."""
    _vals, plus, minus = _root_signs(ctx, f)
    return bool(np.all(plus | minus))


def glue_crt(ctx: FieldCtx, parts: list[Poly], check: bool = False) -> Poly:
    """Combine per-block polynomials f_k (degree < q) into one f on all of S.

    f is the unique polynomial of degree < r with f = f_k mod (x^q - zeta^k)
    for every block k: coefficient j + t q is (1/d) sum_k f_k[j] zeta^{-kt},
    d = 2^{s-1}, an inverse transform over the blocks, the ntt with
    e = -2q, since zeta = gamma^{2q}.
    """
    if ctx.s < 2:
        raise LevelOutOfRange(f"glue_crt needs s >= 2, got s = {ctx.s}")
    p, q = ctx.p, ctx.q
    d = 1 << (ctx.s - 1)
    if len(parts) != d:
        raise WrongPartCount(f"expected {d} parts, got {len(parts)}")
    for f in parts:
        if f.degree != NEG_INF and f.degree >= q:
            raise DegreeTooLarge(f"part degree {f.degree} >= q = {q}")
    cols = np.array([f.array[:q] for f in parts]).T
    rows = _modmat.ntt(ctx, cols, -2 * q) * pow(d, -1, p) % p
    result = Poly._adopt(ctx, rows.T.reshape(1, -1))[0]
    if check and not is_sqrt_poly(ctx, result):
        raise SqrtPolyError("glue_crt result is not a square-root polynomial")
    return result


def glue_rows(ctx: FieldCtx, a, b, k: int, i: int) -> np.ndarray:
    """One gluing step for every row pair: [(a + b) / 2 | (a - b) / (2 alpha)].

    a[t] is a level-k row (M_k = 2^k q coefficients) on S_i^k and b[t] one
    on the partner block; the result row is f on S_i^{k+1} with
    alpha = zeta^{2^k i}.  The formula is linear, so gluing a with 0 and
    0 with b gives two rows that sum to the gluing of a with b.
    """
    p = ctx.p
    alpha = pow(ctx.zetaTS, ((1 << k) * i) % (1 << (ctx.s - 1)), p)
    dtype = np.int64 if p < 1 << 31 else object  # (a + b) * half < 2^63
    a, b = np.asarray(a, dtype=dtype), np.asarray(b, dtype=dtype)
    return np.hstack([(a + b) * pow(2, -1, p) % p,
                      (a - b) * pow(2 * alpha, -1, p) % p])


def glue_pair(ctx: FieldCtx, f_i: Poly, f_j: Poly, k: int, i: int,
              check: bool = False) -> Poly:
    """One gluing step: f on S_i^{k+1} from f_i on S_i^k, f_j on the partner block.

    f = (1/2a) * [x^{M_k} (f_i - f_j) + a (f_i + f_j)],  a = zeta^{2^k i},
    by glue_rows.  deg f = M_k + deg(f_i - f_j).
    """
    if ctx.s < 2 or not (0 <= k <= ctx.s - 2):
        raise LevelOutOfRange(f"level k = {k} not in [0, {ctx.s - 2}]")
    m = (1 << k) * ctx.q
    for f in (f_i, f_j):
        if f.degree != NEG_INF and f.degree >= m:
            raise DegreeTooLarge(f"input degree {f.degree} >= M_k = {m}")
    if np.array_equal(f_i.array, f_j.array):
        raise EqualInputsCancellation("glue_pair inputs identical")
    row = np.zeros((1, ctx.r), dtype=np.int64)
    row[:, :2 * m] = glue_rows(ctx, f_i.array[None, :m], f_j.array[None, :m], k, i)
    result = Poly._adopt(ctx, row)[0]
    if check:
        want = m + sub(f_i, f_j).degree
        if result.degree != want:
            raise SqrtPolyError(f"glue_pair degree {result.degree} is not "
                                f"M_k + deg(f_i - f_j) = {want}")
    return result
