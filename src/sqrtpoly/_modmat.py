"""Vectorized modular linear algebra shared by poly/fourier/census/search.

Every sign <-> coefficient transform and every square-root check is one
number-theoretic transform, ntt: X[i, k] = sum_n rows[i, n] *
gamma^(e n k) over F_p for k below the row length L, which divides
p - 1.  It splits L = a * b with a the largest divisor of L whose
square is at most L, so both sides are near sqrt(L) (Bailey's four-step
split, over F_p as Pollard carried Cooley-Tukey there), and it never
builds an L x L power table.  Where to split and where to stop comes
from one cost estimate per call, the plan.
A prime length, or rows for which a split is estimated to cost more
(sparse rows, short rows, or many rows, which one BLAS product serves at
once), is a leaf: power_sums, the table route, sums sum_n rows[i, n] *
gamma^(n * exps[k]) from a table (power_block) built only for the
columns some row uses, a block of exps at a time.
Products go through matmul_mod: float64 BLAS over chunks of the inner
dimension in which every partial sum stays below 2^53, where doubles are
exact, and Python integers only when one product of two entries reaches
2^53.  A large prime factor of L (Bluestein's case) stays a dense
leaf.
The power tables, each split's twiddle block gamma^(e n1 k1) and each
leaf's block, depend on p and their exponents alone, so _TABLES keeps
them for the next call, keyed on (p, rows, cols) of power_block and
never on a context object or a plan: a table is built once per process,
not once per call.  Only tables of at most _BLOCK_ENTRIES entries are
kept, _CACHE_BYTES = 32 MiB in all, least recently used dropped first,
and every kept table is read-only.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache

import numpy as np

from .errors import OrderDoesNotDivide
from .field import prime_factors

_EXACT = float(1 << 53)
_BLOCK_ENTRIES = 1 << 21  # power-table entries built at a time
# Costs that choose between a leaf and a split of ntt, in float64 BLAS
# multiply-adds (measured with numpy 2.4 and OpenBLAS on x86-64): one
# power-table entry, one element of a split level's twiddle product and
# transposes, and numpy's fixed cost of one level.
_TABLE_COST = 256
_LEVEL_COST = 1024
_SPLIT_COST = 1 << 20
_NARROW = 8  # at most this many columns: test a tall array column by column
_CACHE_BYTES = 1 << 25  # power tables kept for reuse, 32 MiB in all


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p, exact, for int64 matrices and p < 2^63.

    float64 BLAS over chunks of the inner dimension short enough that
    amax * bmax * chunk < 2^53 bounds every partial sum, each chunk's
    product reduced mod p and the chunks summed mod p in int64; Python
    integers, which cannot wrap, only when amax * bmax alone reaches 2^53.
    """
    a = np.ascontiguousarray(a, dtype=np.int64)
    b = np.ascontiguousarray(b, dtype=np.int64)
    amax = int(np.abs(a).max(initial=0))
    bmax = int(np.abs(b).max(initial=0))
    if amax * bmax >= _EXACT:
        return ((a.astype(object) @ b.astype(object)) % p).astype(np.int64)
    step = ((1 << 53) - 1) // max(amax * bmax, 1)
    a, b = a.astype(np.float64), b.astype(np.float64)
    out = (a[..., :step] @ b[:step]).astype(np.int64) % p
    for lo in range(step, a.shape[-1], step):
        out += (a[..., lo:lo + step] @ b[lo:lo + step]).astype(np.int64) % p - p
        out[out < 0] += p  # the sum of two residues, less p, without wrapping
    return out


def _used_columns(rows: np.ndarray) -> np.ndarray:
    """Whether each column of rows holds a nonzero entry.

    rows.any(axis=0) steps through every row with an inner loop as short
    as a row, so on a tall array of a few columns (ntt's deep levels and
    2-point leaves) one strided pass per column is about ten times faster.
    """
    height, width = rows.shape
    if width <= _NARROW < height:
        return np.array([rows[:, n].any() for n in range(width)], dtype=bool)
    return rows.any(axis=0)


def power_block(ctx, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Matrix gamma^(rows[i] * cols[j] mod p-1), built by table lookup."""
    idx = (rows[:, None].astype(np.int64) * cols[None, :].astype(np.int64)) % (ctx.p - 1)
    return ctx.gamma_powers[idx]


class _TableCache:
    """Read-only power tables by (p, rows, cols), least recently used first.

    gamma is the least primitive root of p, so a table depends on p and
    not on the context: a fresh context of the same p finds the tables
    of the last one.
    """

    def __init__(self):
        self.tables: OrderedDict = OrderedDict()
        self.nbytes = 0

    def clear(self):
        self.tables.clear()
        self.nbytes = 0

    def get(self, ctx, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """power_block(ctx, rows, cols), built only when not kept already."""
        if rows.size * cols.size > _BLOCK_ENTRIES:
            return power_block(ctx, rows, cols)
        key = (ctx.p, rows.astype(np.int64, copy=False).tobytes(),
               cols.astype(np.int64, copy=False).tobytes())
        table = self.tables.get(key)
        if table is not None:
            self.tables.move_to_end(key)
            return table
        table = power_block(ctx, rows, cols)
        table.flags.writeable = False
        self.tables[key] = table
        self.nbytes += table.nbytes
        while self.nbytes > _CACHE_BYTES:
            self.nbytes -= self.tables.popitem(last=False)[1].nbytes
        return table


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
    ns = np.flatnonzero(_used_columns(rows))
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


def _plan(length: int, m: int, plan: dict) -> int:
    """Estimated cost of ntt on m dense rows of the given length.

    The cheaper of a leaf, a length x length table times the rows, and a
    split by _split: its two sides' transforms, twiddles and transposes
    plus a fixed cost.  plan[(length, m)] records (cost, split), split
    None for a leaf, for this node and every node below it.  A length is
    not split when its twiddles and fixed cost alone exceed the leaf.
    """
    if (length, m) not in plan:
        leaf = length * length * (_TABLE_COST + m)
        level = m * length * _LEVEL_COST + _SPLIT_COST
        split = _split(length) if level < leaf else None
        plan[length, m] = (leaf, None)
        if split:
            a, b = split
            cost = _plan(b, m * a, plan) + _plan(a, m * b, plan) + level
            if cost < leaf:
                plan[length, m] = (cost, split)
    return plan[length, m][0]


def _ntt(ctx, rows: np.ndarray, e: int, plan: dict) -> np.ndarray:
    m, length = rows.shape
    cost, split = plan[length, m]
    if (split is None or np.count_nonzero(_used_columns(rows)) * length
            * (_TABLE_COST + m) <= cost):
        return power_sums(ctx, rows, e * np.arange(length, dtype=np.int64))
    p, (a, b) = ctx.p, split
    # n = n1 + a n2, k = k1 + b k2: b-point transforms of the a decimated
    # sub-rows, twiddles gamma^(e n1 k1), then a-point transforms
    sub = rows.reshape(m, b, a).transpose(0, 2, 1).reshape(m * a, b)
    y = _ntt(ctx, sub, e * a % (p - 1), plan).reshape(m, a, b)
    y = y * _TABLES.get(ctx, np.arange(a, dtype=np.int64),
                        e * np.arange(b, dtype=np.int64) % (p - 1)) % p
    z = _ntt(ctx, y.transpose(0, 2, 1).reshape(m * b, a), e * b % (p - 1), plan)
    return z.reshape(m, b, a).transpose(0, 2, 1).reshape(m, length)


def ntt(ctx, rows: np.ndarray, e: int) -> np.ndarray:
    """out[i, k] = sum_n rows[i, n] * gamma^(e n k) mod p, in [0, p), k < L.

    rows: (m, L) integers with e * L divisible by p - 1; a 1-d row is
    taken as one row.  Exact while p^2 < 2^63: each twiddle product of
    two residues then fits int64, and ctx.gamma_powers refuses larger p
    with TooLarge before any product is formed.  Every sum goes through
    matmul_mod.  The split plan is estimated once per call.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    m, length = rows.shape
    if e * length % (ctx.p - 1):
        raise OrderDoesNotDivide(f"gamma^{e} has no order dividing L = {length}")
    plan = {}
    _plan(length, m, plan)
    return _ntt(ctx, rows, e % (ctx.p - 1), plan)


def eval_on_squares(ctx, coeff_rows: np.ndarray) -> np.ndarray:
    """[i, n] = f_i(gamma^(2n)) mod p for the polynomials f_i (rows of coeffs)."""
    return ntt(ctx, coeff_rows, 2)


def signed_dft(ctx, sign_rows: np.ndarray) -> np.ndarray:
    """Coefficient vectors c_k = (1/r) sum_n eps_n gamma^(n(1-2k)), rows of +-1.

    That is the transform with e = -2 of the rows eps_n gamma^n.
    """
    p = ctx.p
    rows = np.asarray(sign_rows, dtype=np.int64) * ctx.gamma_powers[:ctx.r]
    return ntt(ctx, rows, -2) * pow(ctx.r, -1, p) % p
