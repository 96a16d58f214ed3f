"""Vectorized modular linear algebra shared by poly/fourier/census/search.

The workhorse is a blocked "power-table lookup" scheme: entries of the
transform matrices are gamma^(i*j mod p-1), so instead of materializing
r x r matrices we build index blocks, look powers up, and multiply.
Products go through float64 BLAS when every partial sum stays below
2^53, where doubles are exact, and through Python integers otherwise.
"""

from __future__ import annotations

import numpy as np

_EXACT = float(1 << 53)


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


def eval_on_squares(ctx, coeff_rows: np.ndarray, block: int = 1024) -> np.ndarray:
    """Evaluate polynomials (rows of coeffs, length r) at all points gamma^(2n).

    Returns a (m, r) array with entry [i, n] = f_i(gamma^(2n)) mod p.
    """
    p, r = ctx.p, ctx.r
    coeff_rows = np.atleast_2d(np.asarray(coeff_rows, dtype=np.int64))
    m = coeff_rows.shape[0]
    out = np.empty((m, r), dtype=np.int64)
    js = np.arange(r, dtype=np.int64)
    for lo in range(0, r, block):
        ns = np.arange(lo, min(lo + block, r), dtype=np.int64)
        v = power_block(ctx, js, 2 * ns)  # (r, block): gamma^(2nj)
        out[:, lo:lo + len(ns)] = matmul_mod(coeff_rows, v, p)
    return out


def signed_dft(ctx, sign_rows: np.ndarray, block: int = 1024) -> np.ndarray:
    """Coefficient vectors c_k = (1/r) sum_n eps_n gamma^(n(1-2k)) for each row.

    sign_rows: (m, r) of +-1.  Returns (m, r) int64 in [0, p).
    """
    p, r = ctx.p, ctx.r
    sign_rows = np.atleast_2d(np.asarray(sign_rows, dtype=np.int64))
    m = sign_rows.shape[0]
    inv_r = pow(r, -1, p)
    out = np.empty((m, r), dtype=np.int64)
    ns = np.arange(r, dtype=np.int64)
    for lo in range(0, r, block):
        ks = np.arange(lo, min(lo + block, r), dtype=np.int64)
        t = (1 - 2 * ks) % (ctx.p - 1)
        w = power_block(ctx, ns, t)  # (r, block): gamma^(n(1-2k))
        acc = matmul_mod(sign_rows % p, w, p)
        out[:, lo:lo + len(ks)] = acc * inv_r % p
    return out
