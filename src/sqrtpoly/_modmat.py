"""Vectorized modular linear algebra shared by poly/fourier/census/search.

Every sign <-> coefficient transform and every square-root check is one
number-theoretic transform, ntt: X[i, k] = sum_n rows[i, n] *
gamma^(e n k) over F_p for k below the row length L, which divides
p - 1.  It splits L = a * b with a the largest divisor of L whose
square is at most L, so both sides are near sqrt(L) (Bailey's four-step
split, over F_p as Pollard carried Cooley-Tukey there), and it never
builds an L x L power table.  Where to split and where to stop comes
from a cost estimate, the plan, which depends on the shape (L, rows)
alone and is made once per shape and process (_plan).
A prime length, or a shape for which a split is estimated to cost more
(short rows, or many rows, which one BLAS product serves at once), is a
leaf: one product with the kept n x n table gamma^(e n k).  The one
choice made per call is for rows so sparse that a table over only the
columns some row uses costs less than the plan, such as a monomial:
they go to power_sums, sums sum_n rows[i, n] * gamma^(n * exps[k]) from
such a table (power_block), a block of exps at a time.
Rows enter as integers below p in magnitude.  While products of two
residues are exact in float64 -- (p - 1)^2 < 2^53, p < 9.49e7, by
_exact_terms, the one such rule, which also sets matmul_mod's chunks --
ntt casts them to float64 once and back once on exit, and reduces each
leaf and twiddle product by x - floor(x / p) * p (_reduce).  Past that
bound the products take the exact integer route: Python integers in
the leaves, int64 twiddles (p^2 < 2^57 under the gamma^j cap).  A large
prime factor of L (Bluestein's case) stays a dense leaf.
Tables depend on p and their exponents alone, so _TABLES keeps them for
the next call, never keyed on a context object: each leaf's table and
each split's twiddles gamma^(e n1 k1), float64 residues ready for
matmul_mod and _reduce; power_sums' tables, float64; and, per prime,
gamma^j for FieldCtx.gamma_powers and signed_dft's row scales
gamma^n / r.  Every table is built once per process, not once per
call, and is read-only.  Only tables of at most _BLOCK_ENTRIES entries
are kept, _CACHE_BYTES = 32 MiB in all, least recently used dropped
first; _TABLES.clear() drops the plans with them.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache

import numpy as np

from .errors import OrderDoesNotDivide
from .field import prime_factors

_EXACT = 1 << 53  # float64 holds every integer of magnitude up to 2^53
_BLOCK_ENTRIES = 1 << 21  # power-table entries built at a time
# Costs that choose between a leaf and a split of ntt, in float64 BLAS
# multiply-adds (measured with numpy 2.4 and OpenBLAS on x86-64): one
# power-table entry, one element of a split level's twiddle product and
# transposes, and numpy's fixed cost of one level.
_TABLE_COST = 256
_LEVEL_COST = 1024
_SPLIT_COST = 1 << 20
_CACHE_BYTES = 1 << 25  # power tables kept for reuse, 32 MiB in all


def _exact_terms(amax: int, bmax: int, p: int) -> int:
    """How many products of integers at most amax and bmax in magnitude a
    float64 sum x holds exactly, with _reduce exact on it too: as many as
    keep |x| + p <= 2^53; below 1 when one product is already too many.

    For two residues, amax = bmax = p - 1, that holds for the same p as
    (p - 1)^2 < 2^53: p < 9.49e7.
    """
    return (_EXACT - p) // max(amax * bmax, 1)


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for a float64 array of integers within _exact_terms.

    x - floor(x / p) * p: x / p is off by less than 1 / p, so its floor is
    the quotient k, and k * p is exact as |k * p| < |x| + p.
    """
    q = x / p
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


def _dot_mod(a: np.ndarray, b: np.ndarray, p: int, step: int) -> np.ndarray:
    """(a @ b) mod p as float64 residues, for float64 a and b whose products
    stay exact summed over step terms (_exact_terms): BLAS over chunks of
    the inner dimension of that length, each reduced by _reduce, the chunks
    summed mod p."""
    out = _reduce(a[..., :step] @ b[:step], p)
    for lo in range(step, a.shape[-1], step):
        out += _reduce(a[..., lo:lo + step] @ b[lo:lo + step], p)
        out[out >= p] -= p  # the sum of two residues, below 2p
    return out


def matmul_mod(a, b, p: int) -> np.ndarray:
    """(a @ b) mod p, exact, for int64 matrices and p < 2^63.

    _dot_mod while _exact_terms allows one product of the largest entries
    at least; Python integers, which cannot wrap, otherwise.  A float64 b
    is taken as one of _TABLES' power tables: its entries are residues,
    so bmax is p - 1 without a scan and b is used as it is.
    """
    a = np.ascontiguousarray(a, dtype=np.int64)
    if isinstance(b, np.ndarray) and b.dtype == np.float64:
        bmax = p - 1
    else:
        b = np.ascontiguousarray(b, dtype=np.int64)
        bmax = int(np.abs(b).max(initial=0))
    step = _exact_terms(int(np.abs(a).max(initial=0)), bmax, p)
    if step < 1:
        b = b.astype(np.int64, copy=False).astype(object)
        return ((a.astype(object) @ b) % p).astype(np.int64)
    return _dot_mod(a.astype(np.float64), b.astype(np.float64, copy=False),
                    p, step).astype(np.int64)


def _mul_mod(x: np.ndarray, table: np.ndarray, p: int) -> np.ndarray:
    """x * table mod p elementwise for a kept float64 table: by _reduce on
    float64 residues x, in int64 otherwise (p^2 < 2^63 under the gamma^j cap)."""
    if x.dtype == np.float64:
        return _reduce(x * table, p)
    return x * table.astype(np.int64) % p


def power_block(ctx, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Matrix gamma^(rows[i] * cols[j] mod p-1), built by table lookup.

    Both factors are reduced mod p - 1 first, so their product stays below
    p^2, within int64 wherever ctx.gamma_powers exists.
    """
    q = ctx.p - 1
    idx = np.multiply.outer(rows.astype(np.int64, copy=False) % q,
                            cols.astype(np.int64, copy=False) % q) % q
    return ctx.gamma_powers[idx]


class _TableCache:
    """Read-only tables keyed on p first, least recently used dropped first.

    gamma is the least primitive root of p, so a table depends on p and
    its exponents, not on the context: a fresh context of the same p finds
    the tables of the last one.  Keys: (p, "gamma") for gamma^j,
    (p, "dft") for signed_dft's scales, (p, "leaf", n, e) and
    (p, "twiddles", a, b, e) for ntt's leaves and splits, and
    (p, rows, cols) for power_sums.
    """

    def __init__(self):
        self.tables: OrderedDict = OrderedDict()
        self.nbytes = 0

    def clear(self):
        """Drop every table, and ntt's plans with them."""
        self.tables.clear()
        self.nbytes = 0
        _plan.cache_clear()

    def keep(self, key: tuple, build) -> np.ndarray:
        """The table under key, from build() when not kept already.

        Every table it returns is read-only; one of more than
        _BLOCK_ENTRIES entries is returned but not kept.
        """
        table = self.tables.get(key)
        if table is not None:
            self.tables.move_to_end(key)
            return table
        table = build()
        table.flags.writeable = False
        if table.size <= _BLOCK_ENTRIES:
            self.tables[key] = table
            self.nbytes += table.nbytes
            while self.nbytes > _CACHE_BYTES:
                self.nbytes -= self.tables.popitem(last=False)[1].nbytes
        return table

    def get(self, ctx, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """power_block(ctx, rows, cols) as float64, built once."""
        key = (ctx.p, rows.astype(np.int64, copy=False).tobytes(),
               cols.astype(np.int64, copy=False).tobytes())
        return self.keep(key, lambda: power_block(ctx, rows, cols).astype(np.float64))


_TABLES = _TableCache()


def power_sums(ctx, rows: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """out[i, k] = sum_n rows[i, n] * gamma^(n * exps[k]) mod p, in [0, p).

    rows: (m, width) integers; a 1-d row is taken as one row.  Columns n
    that are zero in every row add nothing, so the power table has a row
    only for the others, and it is built for as many exps at a time as
    keep it within _BLOCK_ENTRIES entries, once per process by _TABLES.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    exps = np.asarray(exps, dtype=np.int64)
    ns = np.flatnonzero(rows.any(axis=0))
    if not len(ns):
        return np.zeros((rows.shape[0], len(exps)), dtype=np.int64)
    used = rows if len(ns) == rows.shape[1] else rows[:, ns]
    step = max(1, _BLOCK_ENTRIES // len(ns))
    if step >= len(exps):
        return matmul_mod(used, _TABLES.get(ctx, ns, exps), ctx.p)
    out = np.empty((rows.shape[0], len(exps)), dtype=np.int64)
    for lo in range(0, len(exps), step):
        table = _TABLES.get(ctx, ns, exps[lo:lo + step])
        out[:, lo:lo + step] = matmul_mod(used, table, ctx.p)
    return out


@lru_cache(maxsize=1024)
def _split(length: int) -> tuple[int, int] | None:
    """(a, b) with a * b = length and a the largest divisor with a^2 <= length.

    Built from the prime factors of length; None when length is 1 or prime.
    """
    divisors = {1}
    for f in prime_factors(length):
        divisors |= {d * f for d in divisors}
    a = max(d for d in divisors if d * d <= length)
    return (a, length // a) if a > 1 else None


@lru_cache(maxsize=1024)
def _plan(length: int, m: int) -> tuple[int, tuple[int, int] | None]:
    """(cost, split): ntt's estimated cost on m dense rows of the given
    length and the split (a, b) it makes there, None for a leaf.

    The cheaper of a leaf, a length x length table times the rows, and a
    split by _split: its two sides' plans, (b, m * a) and (a, m * b),
    twiddles and transposes plus a fixed cost.  A length is not split
    when its twiddles and fixed cost alone exceed the leaf.  The plan
    depends on the shape alone, so each is made once per process.
    """
    leaf = length * length * (_TABLE_COST + m)
    level = m * length * _LEVEL_COST + _SPLIT_COST
    split = _split(length) if level < leaf else None
    if split:
        a, b = split
        cost = _plan(b, m * a)[0] + _plan(a, m * b)[0] + level
        if cost < leaf:
            return cost, split
    return leaf, None


def _leaf(ctx, rows: np.ndarray, e: int) -> np.ndarray:
    """ntt of dense rows by one product with the kept table gamma^(e n k)."""
    p, n = ctx.p, rows.shape[1]
    if n * n > _BLOCK_ENTRIES:  # kept in blocks of exps by power_sums
        return power_sums(ctx, rows, e * np.arange(n, dtype=np.int64)).astype(rows.dtype)
    ks = np.arange(n, dtype=np.int64)
    table = _TABLES.keep((p, "leaf", n, e),
                         lambda: power_block(ctx, ks, e * ks).astype(np.float64))
    if rows.dtype == np.float64:
        return _dot_mod(rows, table, p, _exact_terms(p - 1, p - 1, p))
    return matmul_mod(rows, table, p)


def _run(ctx, rows: np.ndarray, e: int) -> np.ndarray:
    """ntt along the plan of the rows' shape, in their dtype, float64 or
    int64; the entries are integers below p in magnitude."""
    m, length = rows.shape
    split = _plan(length, m)[1]
    if split is None:
        return _leaf(ctx, rows, e)
    p, (a, b) = ctx.p, split
    # n = n1 + a n2, k = k1 + b k2: b-point transforms of the a decimated
    # sub-rows, twiddles gamma^(e n1 k1), then a-point transforms
    sub = rows.reshape(m, b, a).transpose(0, 2, 1).reshape(m * a, b)
    y = _run(ctx, sub, e * a % (p - 1)).reshape(m, a, b)
    twiddles = _TABLES.keep((p, "twiddles", a, b, e), lambda: power_block(
        ctx, np.arange(a, dtype=np.int64),
        e * np.arange(b, dtype=np.int64)).astype(np.float64))
    z = _run(ctx, _mul_mod(y, twiddles, p).transpose(0, 2, 1).reshape(m * b, a),
             e * b % (p - 1))
    return z.reshape(m, b, a).transpose(0, 2, 1).reshape(m, length)


def ntt(ctx, rows: np.ndarray, e: int) -> np.ndarray:
    """out[i, k] = sum_n rows[i, n] * gamma^(e n k) mod p, in [0, p), k < L.

    rows: (m, L) integers below p in magnitude, with e * L divisible by
    p - 1; a 1-d row is taken as one row.  The plan of the shape (m, L)
    is made once per process; the one choice made per call is the leaf
    over used columns only (power_sums) for rows so sparse that it costs
    less than the plan, such as a monomial.  Otherwise, while
    _exact_terms holds for two residues, the rows are cast to float64
    once, which the first leaf product reduces, and back to int64 once at
    the end; past it they stay int64.  Exact
    while p^2 < 2^63: ctx.gamma_powers refuses larger p with TooLarge
    before any product is formed.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    m, length = rows.shape
    p = ctx.p
    if e * length % (p - 1):
        raise OrderDoesNotDivide(f"gamma^{e} has no order dividing L = {length}")
    e %= p - 1
    cost, split = _plan(length, m)
    used = np.count_nonzero(rows.any(axis=0))
    if used < length and (split is None or used * length * (_TABLE_COST + m) <= cost):
        return power_sums(ctx, rows, e * np.arange(length, dtype=np.int64))
    if _exact_terms(p - 1, p - 1, p) < 1:
        return _run(ctx, rows, e)
    return _run(ctx, rows.astype(np.float64), e).astype(np.int64)


def eval_on_squares(ctx, coeff_rows: np.ndarray) -> np.ndarray:
    """[i, n] = f_i(gamma^(2n)) mod p for the polynomials f_i (rows of coeffs)."""
    return ntt(ctx, coeff_rows, 2)


def signed_dft(ctx, sign_rows: np.ndarray) -> np.ndarray:
    """Coefficient vectors c_k = (1/r) sum_n eps_n gamma^(n(1-2k)), rows of +-1.

    That is the transform with e = -2 of the rows eps_n gamma^n / r, the
    signs times the kept table gamma^n / r mod p.
    """
    p, r = ctx.p, ctx.r
    scales = _TABLES.keep((p, "dft"),
                          lambda: ctx.gamma_powers[:r] * pow(r, -1, p) % p)
    return ntt(ctx, np.asarray(sign_rows, dtype=np.int64) * scales, -2)
