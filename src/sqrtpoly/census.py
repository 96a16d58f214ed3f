"""Exhaustive degree censuses over sign vectors.

full_census counts degrees over all 2^r sign vectors by a
meet-in-the-middle join (Horowitz-Sahni).  The coefficient vector splits
as c = A(low signs) + B(high signs); the top j coefficients of a vector
vanish exactly when its A and -B rows agree on those j columns, so one
lexicographic sort of both 2^(r/2)-row tables and the common-prefix
lengths of adjacent rows give, for every j, the number Z_j of vectors
whose top j coefficients vanish, and degree r-1-j is hit Z_j - Z_{j+1}
times.  Shards are ranges of Gray-code indices; _run_shard walks such a
range one sign flip at a time and is kept as the slow oracle.
family_census tallies degrees over the 2^d alternating-periodic
subfamily, where orthogonality collapses the coefficients to d
residue-class positions and the whole job becomes one (2^d x d) modular
matrix product.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, _modmat, fourier
from .errors import InvalidDivisor, RangeOutOfBounds, SqrtPolyError, TooLarge
from .field import FieldCtx
from .signs import SignVector, orbit_stats

DEFAULT_CENSUS_CAP = 30
CAP_ENV_VAR = "SQRTPOLY_CAP_R"

_CKPT_MAGIC = b"SQPC"
_CKPT_VERSION = 1


@dataclass
class DegreeHistogram:
    counts: dict[int, int]
    meta: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def merge(self, other: "DegreeHistogram") -> "DegreeHistogram":
        out = dict(self.counts)
        for deg, n in other.counts.items():
            out[deg] = out.get(deg, 0) + n
        return DegreeHistogram(out, dict(self.meta))

    def min_degree(self) -> int:
        return min(self.counts)

    def to_json(self) -> dict:
        # counts as decimal strings: values can exceed 2^53
        return {
            "meta": {k: v for k, v in self.meta.items()},
            "total": str(self.total),
            "counts": {str(d): str(n) for d, n in sorted(self.counts.items())},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DegreeHistogram":
        counts = {int(d): int(n) for d, n in obj["counts"].items()}
        return cls(counts, dict(obj.get("meta", {})))

    def to_csv_rows(self) -> list[list]:
        p = self.meta.get("p", "")
        s = self.meta.get("s", "")
        q = self.meta.get("q", "")
        fam = self.meta.get("family", "all")
        shards = self.meta.get("shards", 1)
        return [[p, s, q, deg, str(n), fam, shards]
                for deg, n in sorted(self.counts.items())]


CSV_HEADER = ["p", "s", "q", "degree", "count", "family", "shard_count"]


def census_cap(max_r: int | None = None) -> int:
    if max_r is not None:
        return max_r
    env = os.environ.get(CAP_ENV_VAR)
    return int(env) if env else DEFAULT_CENSUS_CAP


def _delta_table(ctx: FieldCtx) -> np.ndarray:
    """delta[n, k] = (2/r) * gamma^(n(1-2k)) mod p."""
    p, r = ctx.p, ctx.r
    ns = np.arange(r, dtype=np.int64)
    ks = (1 - 2 * np.arange(r, dtype=np.int64)) % (p - 1)
    w = _modmat.power_block(ctx, ns, ks)
    scale = 2 * pow(r, -1, p) % p
    return w * scale % p


def _seed_coeffs(ctx: FieldCtx, word: int) -> np.ndarray:
    signs = _kernels.gray_signs(word, ctx.r)
    return _modmat.signed_dft(ctx, signs)[0].copy()


def _run_shard(ctx: FieldCtx, delta: np.ndarray, lo: int, hi: int) -> np.ndarray:
    r = ctx.r
    c = _seed_coeffs(ctx, lo ^ (lo >> 1))
    hist = np.zeros(r + 1, dtype=np.int64)
    _kernels.census_gray_kernel(delta, ctx.p, r, lo, hi, c, hist)
    # exact contract: the incrementally maintained vector must equal a
    # fresh DFT of the last vector in the shard
    expect = _seed_coeffs(ctx, (hi - 1) ^ ((hi - 1) >> 1))
    if not np.array_equal(c, expect):
        raise SqrtPolyError("incremental coefficient drift detected")
    return hist


def _half_tables(ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray, int]:
    """Coefficient tables of the low and the high sign halves.

    With b = r // 2, bit n of a low word w is the sign at n < b and bit n
    of a high word the sign at b + n; A[w] and B[w] hold
    (1/r) * sum eps_n gamma^(n(1-2k)) over their half, so a vector's
    coefficients are A[low word] + B[high word] mod p.
    """
    p, r = ctx.p, ctx.r
    half = r // 2
    ks = (1 - 2 * np.arange(r, dtype=np.int64)) % (p - 1)
    inv_r = pow(r, -1, p)
    tables = []
    for ns in (np.arange(half, dtype=np.int64), np.arange(half, r, dtype=np.int64)):
        bits = np.arange(len(ns), dtype=np.int64)
        words = np.arange(1 << len(ns), dtype=np.int64)
        signs = 1 - 2 * ((words[:, None] >> bits) & 1)
        w = _modmat.power_block(ctx, ns, ks)
        tables.append(_modmat.matmul_mod(signs % p, w, p) * inv_r % p)
    return tables[0], tables[1], half


def _degree_hist(c: np.ndarray, r: int) -> np.ndarray:
    """hist[k+1] = number of rows of degree k; hist[0] counts zero rows."""
    nz = c != 0
    deg = np.where(nz.any(axis=1), r - 1 - nz[:, ::-1].argmax(axis=1), -1)
    return np.bincount(deg + 1, minlength=r + 1)


def _join_hist(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Degree histogram of all sums a[i] + b[j] mod p, as _degree_hist.

    The rows of a and of -b are sorted together, top coefficient first.
    A run of rows whose common prefix has length >= j pairs each a row
    with each -b row into a sum whose top j coefficients vanish, so
    Z_j = sum over runs of #a * #b, and degree r-1-j occurs Z_j - Z_{j+1}
    times.
    """
    r = a.shape[1]
    rows = np.concatenate([a, (-b) % p])[:, ::-1]
    from_a = np.arange(len(rows)) < len(a)
    order = np.lexsort(rows.T[::-1])
    rows, from_a = rows[order], from_a[order]
    lcp = np.logical_and.accumulate(rows[1:] == rows[:-1], axis=1).sum(axis=1)
    z = np.empty(r + 1, dtype=np.int64)
    for j in range(r + 1):
        run = np.concatenate(([0], np.cumsum(lcp < j)))
        n_all = np.bincount(run)
        n_a = np.bincount(run[from_a], minlength=len(n_all))
        z[j] = n_a @ (n_all - n_a)
    hist = np.empty(r + 1, dtype=np.int64)
    hist[0] = z[r]
    hist[1:] = (z[:-1] - z[1:])[::-1]
    return hist


def _census_range(ctx: FieldCtx, tables: tuple, lo: int, hi: int) -> np.ndarray:
    """Degree histogram over the Gray indices [lo, hi), as _run_shard gives it.

    The high bits of gray(i) are gray(i >> b), so the full row h of 2^b
    indices is every low word paired with the high word gray(h): full
    rows join against the whole A table.  The partial rows at unaligned
    ends are summed and read directly.
    """
    a, b, half = tables
    p, r = ctx.p, ctx.r
    width = 1 << half
    first, last = -(-lo // width), hi // width
    hist = np.zeros(r + 1, dtype=np.int64)
    ends = [(lo, hi)]
    if first < last:
        rows = np.arange(first, last, dtype=np.int64)
        hist += _join_hist(a, b[rows ^ (rows >> 1)], p)
        ends = [(lo, first * width), (last * width, hi)]
    for x, y in ends:
        if x < y:
            idx = np.arange(x, y, dtype=np.int64)
            word = idx ^ (idx >> 1)
            hist += _degree_hist((a[word & (width - 1)] + b[word >> half]) % p, r)
    if hist.sum() != hi - lo:
        raise SqrtPolyError(f"census of [{lo}, {hi}) counted {hist.sum()} vectors")
    return hist


def _check_cap(ctx: FieldCtx, max_r: int | None):
    cap = census_cap(max_r)
    if ctx.r > cap:
        raise TooLarge(f"r = {ctx.r} exceeds census cap {cap}")


def _shard_bounds(r: int, index: int, count: int) -> tuple[int, int]:
    total = 1 << r
    return total * index // count, total * (index + 1) // count


def full_census(ctx: FieldCtx, shards: int = 1, threads: int = 1,
                checkpoint: str | None = None,
                max_r: int | None = None) -> DegreeHistogram:
    """Exact degree histogram of f_eps over all eps in E_r.

    Shard i of N covers the Gray indices [2^r i // N, 2^r (i+1) // N),
    the same range _run_shard walks, so checkpoints from either route
    resume each other.  threads is accepted and ignored: the join runs
    in numpy.
    """
    _check_cap(ctx, max_r)
    r = ctx.r
    total = 1 << r
    shards = max(1, min(shards, total))

    done: dict[int, dict[int, int]] = {}
    if checkpoint and os.path.exists(checkpoint):
        state = _load_checkpoint(checkpoint)
        if state["p"] == ctx.p and state["shards"] == shards:
            done = state["done"]

    tables = _half_tables(ctx)
    for i in range(shards):
        if i in done:
            continue
        lo, hi = _shard_bounds(r, i, shards)
        done[i] = _hist_to_counts(_census_range(ctx, tables, lo, hi))
        if checkpoint:
            _save_checkpoint(checkpoint, ctx.p, shards, done)

    counts: dict[int, int] = {}
    for i in range(shards):
        for deg, n in done[i].items():
            counts[deg] = counts.get(deg, 0) + n
    out = DegreeHistogram(counts, {"p": ctx.p, "s": ctx.s, "q": ctx.q,
                                   "family": "all", "shards": shards})
    assert out.total == total
    if checkpoint and os.path.exists(checkpoint):
        os.unlink(checkpoint)
    return out


def census_shard(ctx: FieldCtx, index: int, count: int,
                 max_r: int | None = None) -> DegreeHistogram:
    """Degree histogram of shard index of count, as full_census splits it."""
    _check_cap(ctx, max_r)
    if not 0 <= index < count:
        raise RangeOutOfBounds(f"shard {index}/{count}: need 0 <= i < N")
    lo, hi = _shard_bounds(ctx.r, index, count)
    hist = _census_range(ctx, _half_tables(ctx), lo, hi)
    return DegreeHistogram(_hist_to_counts(hist),
                           {"p": ctx.p, "s": ctx.s, "q": ctx.q,
                            "family": "all", "shard": [index, count]})


def _hist_to_counts(hist: np.ndarray) -> dict[int, int]:
    if hist[0]:
        raise SqrtPolyError("census counted the zero polynomial, "
                            "which no sign vector gives")
    return {deg: int(n) for deg, n in enumerate(hist[1:]) if n}


def _save_checkpoint(path: str, p: int, shards: int, done: dict):
    payload = json.dumps({
        "done": {str(i): {str(d): str(n) for d, n in c.items()}
                 for i, c in done.items()},
    }).encode()
    header = struct.pack("<4sHII", _CKPT_MAGIC, _CKPT_VERSION, p, shards)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(header + payload)
    os.replace(tmp, path)


def _load_checkpoint(path: str) -> dict:
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, version, p, shards = struct.unpack("<4sHII", blob[:14])
    if magic != _CKPT_MAGIC or version != _CKPT_VERSION:
        raise SqrtPolyError(f"bad checkpoint file {path}")
    payload = json.loads(blob[14:])
    done = {int(i): {int(d): int(n) for d, n in c.items()}
            for i, c in payload["done"].items()}
    return {"p": p, "shards": shards, "done": done}


def family_admissible_degrees(ctx: FieldCtx, d: int) -> list[int]:
    """Degrees r - (D-1)/2 - tD, t = 0..d-1, descending (D = r/d odd)."""
    big_d = ctx.r // d
    return [ctx.r - (big_d - 1) // 2 - t * big_d for t in range(d)]


def _check_family_divisor(ctx: FieldCtx, d: int):
    if d < 1 or ctx.r % d != 0:
        raise InvalidDivisor(f"d = {d} does not divide r = {ctx.r}")
    if (ctx.r // d) % 2 == 0:
        raise InvalidDivisor(f"r/d = {ctx.r // d} must be odd")


def family_census(ctx: FieldCtx, d: int, chunk: int = 1 << 16,
                  max_r: int | None = None) -> DegreeHistogram:
    """Degree histogram over the 2^d block-sign choices of the order-d family.

    Orthogonality puts all nonzero coefficients in one residue class mod
    D, so only d coefficients c_{k_t} need computing, and
    c_{k_t} = (1/d) sum_y h_y gamma^(y(1-2 k_t)).  d is capped like r in
    full_census: max_r, else SQRTPOLY_CAP_R, else DEFAULT_CENSUS_CAP.
    """
    _check_family_divisor(ctx, d)
    cap = census_cap(max_r)
    if d > cap:
        raise TooLarge(f"d = {d} exceeds cap {cap}")
    p = ctx.p
    k_ts = family_admissible_degrees(ctx, d)  # descending
    ys = np.arange(d, dtype=np.int64)
    exps = (1 - 2 * np.asarray(k_ts, dtype=np.int64)) % (p - 1)
    z = _modmat.power_block(ctx, ys, exps)  # (d, d)
    inv_d = pow(d, -1, p)
    counts: dict[int, int] = {}
    total = 1 << d
    k_arr = np.asarray(k_ts, dtype=np.int64)
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        words = np.arange(lo, hi, dtype=np.int64)
        bits = (words[:, None] >> ys[None, :]) & 1
        signs = 1 - 2 * bits
        c = _modmat.matmul_mod(signs, z, p) * inv_d % p
        nz = c != 0
        assert nz.any(axis=1).all(), "family member cannot be the zero polynomial"
        first = nz.argmax(axis=1)
        degs, cnt = np.unique(k_arr[first], return_counts=True)
        for deg, n in zip(degs, cnt):
            counts[int(deg)] = counts.get(int(deg), 0) + int(n)
    out = DegreeHistogram(counts, {"p": ctx.p, "s": ctx.s, "q": ctx.q,
                                   "family": f"alt-{d}", "shards": 1})
    assert out.total == total
    return out


def coefficient_vanish_census(ctx: FieldCtx, k: int) -> int:
    """#{eps : c_k(f_eps) = 0}, by enumeration (works for any k)."""
    if ctx.r > DEFAULT_CENSUS_CAP:
        raise TooLarge(f"r = {ctx.r} exceeds cap {DEFAULT_CENSUS_CAP}")
    return fourier.count_vanishing_bruteforce(ctx, ctx.r, 1 - 2 * k)


def orbit_divisibility_check(ctx: FieldCtx, ells: list[int],
                             max_r: int = 24) -> tuple[bool, dict[int, int]]:
    """Partition the joint vanishing set V_{r,K} by sigma-orbit order.

    Returns (every order divides its class size, {order: class size}).
    """
    r = ctx.r
    if r > max_r:
        raise TooLarge(f"r = {r} exceeds cap {max_r}")
    p = ctx.p
    total = 1 << r
    mask = np.ones(total, dtype=bool)
    ns = np.arange(r, dtype=np.int64)
    words = np.arange(total, dtype=np.int64)
    signs = (1 - 2 * ((words[:, None] >> ns[None, :]) & 1)).astype(np.int64)
    for ell in ells:
        w = ctx.gamma_powers[(ns * (ell % (p - 1))) % (p - 1)]
        h = _modmat.matmul_mod(signs, w[:, None], p)[:, 0]
        mask &= h == 0
    by_order: dict[int, int] = {}
    for word in words[mask]:
        o = orbit_stats(SignVector(int(word), r)).order
        by_order[o] = by_order.get(o, 0) + 1
    ok = all(n % o == 0 for o, n in by_order.items())
    return ok, by_order
