"""Vectorized modular linear algebra shared by poly/fourier/census/search.

Every sign <-> coefficient transform and every square-root check is one
routine, power_sums: sums sum_n rows[i, n] * gamma^(n * exps[k]) over
F_p, exactly.  It looks the powers up in a table (power_block) built only
for the columns n that some row uses, a block of exps at a time, and
multiplies by matmul_mod.  Products go through float64 BLAS when every
partial sum stays below 2^53, where doubles are exact, and through
Python integers otherwise.
"""

from __future__ import annotations

import numpy as np

_EXACT = float(1 << 53)
_BLOCK_ENTRIES = 1 << 21  # power-table entries built at a time


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p, exact, for int64 matrices and p < 2^63.

    float64 BLAS when amax * bmax * inner < 2^53 bounds every partial
    sum; else Python integers, which cannot wrap.
    """
    a = np.ascontiguousarray(a, dtype=np.int64)
    b = np.ascontiguousarray(b, dtype=np.int64)
    inner = a.shape[-1]
    amax = int(np.abs(a).max(initial=0))
    bmax = int(np.abs(b).max(initial=0))
    if amax * bmax * inner < _EXACT:
        prod = a.astype(np.float64) @ b.astype(np.float64)
        return np.mod(prod, p).astype(np.int64)
    return ((a.astype(object) @ b.astype(object)) % p).astype(np.int64)


def power_block(ctx, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Matrix gamma^(rows[i] * cols[j] mod p-1), built by table lookup."""
    idx = (rows[:, None].astype(np.int64) * cols[None, :].astype(np.int64)) % (ctx.p - 1)
    return ctx.gamma_powers[idx]


def power_sums(ctx, rows: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """out[i, k] = sum_n rows[i, n] * gamma^(n * exps[k]) mod p, in [0, p).

    rows: (m, width) integers; a 1-d row is taken as one row.  Columns n
    that are zero in every row add nothing, so the power table has a row
    only for the others, and it is built for as many exps at a time as
    keep it within _BLOCK_ENTRIES entries.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    exps = np.asarray(exps, dtype=np.int64)
    ns = np.flatnonzero(rows.any(axis=0))
    out = np.zeros((rows.shape[0], len(exps)), dtype=np.int64)
    if not len(ns):
        return out
    used = rows[:, ns]
    step = max(1, _BLOCK_ENTRIES // len(ns))
    for lo in range(0, len(exps), step):
        table = power_block(ctx, ns, exps[lo:lo + step])
        out[:, lo:lo + step] = matmul_mod(used, table, ctx.p)
    return out


def eval_on_squares(ctx, coeff_rows: np.ndarray) -> np.ndarray:
    """[i, n] = f_i(gamma^(2n)) mod p for the polynomials f_i (rows of coeffs)."""
    return power_sums(ctx, coeff_rows, 2 * np.arange(ctx.r, dtype=np.int64))


def signed_dft(ctx, sign_rows: np.ndarray) -> np.ndarray:
    """Coefficient vectors c_k = (1/r) sum_n eps_n gamma^(n(1-2k)), rows of +-1."""
    exps = 1 - 2 * np.arange(ctx.r, dtype=np.int64)
    return power_sums(ctx, sign_rows, exps) * pow(ctx.r, -1, ctx.p) % ctx.p
