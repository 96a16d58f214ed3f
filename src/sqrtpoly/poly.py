"""The quotient ring F_p[x]/(x^r - 1) and the two gluing constructions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _modmat
from .errors import (ContextMismatch, DegreeTooLarge, EqualInputsCancellation,
                     LengthMismatch, LevelOutOfRange, SqrtPolyError, WrongPartCount)
from .field import FieldCtx

#: degree of the zero polynomial; compares below every real degree
NEG_INF = float("-inf")


@dataclass
class Poly:
    ctx: FieldCtx
    coeffs: list[int]  # dense, length exactly r

    def __post_init__(self):
        if len(self.coeffs) != self.ctx.r:
            raise LengthMismatch(f"{len(self.coeffs)} coefficients but r = {self.ctx.r}")

    @property
    def degree(self):
        for k in range(self.ctx.r - 1, -1, -1):
            if self.coeffs[k]:
                return k
        return NEG_INF

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.ctx.p == self.ctx.p
                and other.coeffs == self.coeffs)

    def __neg__(self):
        p = self.ctx.p
        return Poly(self.ctx, [(-c) % p for c in self.coeffs])

    def sparse(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs, descending by exponent."""
        return [(k, c) for k, c in reversed(list(enumerate(self.coeffs))) if c]

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
        return list(self.coeffs)


def from_coeffs(ctx: FieldCtx, coeffs) -> Poly:
    """Build a Poly from any coefficient list of length <= r (zero padded).

    Machine integers are reduced as one int64 array; integers of any size
    (JSON input) make an object array, reduced exactly as Python ints.
    """
    try:
        c = np.asarray(coeffs, dtype=np.int64)
    except OverflowError:
        c = np.asarray(coeffs, dtype=object)
    if len(c) > ctx.r:
        raise DegreeTooLarge(f"{len(c)} coefficients but r = {ctx.r}")
    out = np.zeros(ctx.r, dtype=c.dtype)
    out[:len(c)] = c % ctx.p
    return Poly(ctx, out.tolist())


def monomial(ctx: FieldCtx, coeff: int, exp: int) -> Poly:
    c = [0] * ctx.r
    c[exp % ctx.r] = coeff % ctx.p
    return Poly(ctx, c)


def _same_ctx(a: Poly, b: Poly):
    if a.ctx.p != b.ctx.p:
        raise ContextMismatch(f"p={a.ctx.p} vs p={b.ctx.p}")


def add(a: Poly, b: Poly) -> Poly:
    _same_ctx(a, b)
    p = a.ctx.p
    return Poly(a.ctx, [(x + y) % p for x, y in zip(a.coeffs, b.coeffs)])


def sub(a: Poly, b: Poly) -> Poly:
    _same_ctx(a, b)
    p = a.ctx.p
    return Poly(a.ctx, [(x - y) % p for x, y in zip(a.coeffs, b.coeffs)])


def eval_poly(f: Poly, a: int) -> int:
    """Horner evaluation."""
    p = f.ctx.p
    acc = 0
    for c in reversed(f.coeffs):
        acc = (acc * a + c) % p
    return acc


def sqrt_ratios(ctx: FieldCtx, f: Poly) -> np.ndarray:
    """f(gamma^(2n)) * gamma^(-n) mod p for every n < r.

    f is a square-root polynomial exactly when every entry is 1 or p - 1,
    and then the entries are its signs eps_n mod p.
    """
    vals = _modmat.eval_on_squares(ctx, f.coeffs)[0]
    # gamma^(-n) = -gamma^(r - n), as gamma^r = -1: a reversed slice, no gather
    return -vals * ctx.gamma_powers[ctx.r:0:-1] % ctx.p


def is_sqrt_poly(ctx: FieldCtx, f: Poly) -> bool:
    """True iff f(a)^2 = a for every quadratic residue a."""
    ratios = sqrt_ratios(ctx, f)
    return bool(np.all((ratios == 1) | (ratios == ctx.p - 1)))


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
    cols = np.array([f.coeffs[:q] for f in parts], dtype=np.int64).T
    rows = _modmat.ntt(ctx, cols, -2 * q) * pow(d, -1, p) % p
    result = Poly(ctx, rows.T.ravel().tolist())
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
    if f_i.coeffs == f_j.coeffs:
        raise EqualInputsCancellation("glue_pair inputs identical")
    row = glue_rows(ctx, [f_i.coeffs[:m]], [f_j.coeffs[:m]], k, i)[0]
    result = Poly(ctx, row.tolist() + [0] * (ctx.r - 2 * m))
    if check:
        want = m + sub(f_i, f_j).degree
        if result.degree != want:
            raise SqrtPolyError(f"glue_pair degree {result.degree} is not "
                                f"M_k + deg(f_i - f_j) = {want}")
    return result
