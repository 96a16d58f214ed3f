"""Meet-in-the-middle search for the minimal-degree square-root polynomial.

Every f on S splits uniquely as a pair (f_0, f_1) of halves on the two
level-(s-2) blocks, and deg f = M + deg(f_0 - f_1), so the minimum is
found by matching, highest degree first, the longest common prefix of a
member of each of the two 2^m-member families, m = (p-1)/4.

A family F_0^k, every square-root polynomial on the subgroup S_0^k of
order M_k = 2^k q of S, is the sign_table of its M_k x M_k weights, as a
census is, and fourier.sign_weights gives them in closed form.  It is
held as the sign_pair (P, Q) of its weights, of about 2^((p-1)/8) rows
each, whose member u * len(Q) + v is P[u] + Q[v] mod p.
A block shift scales columns, so the second family is the first pair
scaled.

Two members share a prefix only if they share their top coefficient, so
the pairs fall into p buckets by top value (Howgrave-Graham and Joux).
An even block shift maps each family onto itself, multiplying column k
of both by the same gamma^(i(1-2k)): it keeps every pair's prefix and
multiplies the top value by gamma^(i(3-2m)), so the nonzero top values
fall into g = 2 gcd(m, 3) orbits of buckets with the same pairs.  Only
bucket 0 and one bucket of each orbit are joined, a few per cent of the
members, gathered as rows from the pairs and sorted by
_kernels.join_sort; a run at the best prefix counts once in bucket 0 and
(p-1)/g times elsewhere, and the representatives are listed from the
joined buckets, shifted.  When no pair shares its top coefficient
(p = 5, 13), all 4^m pairs attain the minimum, read off the two families
sorted whole.  check_side refuses a join side of more than 2^26 rows,
counted before they are gathered: the search reaches p = 113, and
refuses p = 137 from m alone, before any table is built.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, fourier, poly
from .errors import (CancellationImpossible, LevelOutOfRange, SqrtPolyError,
                     WrongResidue)
from .field import FieldCtx
from .poly import Poly, is_sqrt_poly, monomial
from .ts import shift_scales

DEFAULT_PAIR_CAP = 10 ** 6
# minimal_search's stages, timed in SearchReport.stats["stage_seconds"]
_STAGES = ("half_tables", "buckets", "keys", "sort", "run_scan", "glue")


@dataclass
class LevelFamily:
    level: int
    block: int
    modulus: int  # M_k = 2^k * q
    members: np.ndarray  # (2^{M_k}, M_k), row w a poly of degree < M_k (_block_weights)

    def member_poly(self, ctx: FieldCtx, idx: int) -> Poly:
        return poly.from_coeffs(ctx, self.members[idx])


@dataclass
class SearchReport:
    min_degree: int
    minimizer_count: int
    representatives: list[Poly]
    prefix_length: int | None
    stats: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "min_degree": self.min_degree,
            "minimizer_count": str(self.minimizer_count),
            "prefix_length": self.prefix_length,
            "representatives": [f.to_json() for f in self.representatives],
            "stats": {k: v for k, v in self.stats.items()},
        }


def _block_weights(ctx: FieldCtx, m: int) -> np.ndarray:
    """The m x m weights of F_0^k, m = M_k: member w is sign_table row w.

    Member w takes eps_j gamma^((r/m) j) at gamma^(2 (r/m) j), the points
    of S_0^k, with eps_j = -1 where bit j of w is set.
    """
    return fourier.sign_weights(ctx, m, ctx.r // m * (1 - 2 * np.arange(m)))


def build_level_zero(ctx: FieldCtx, i: int = 0) -> LevelFamily:
    """All 2^q square-root polynomials on the block S_i."""
    return build_level(ctx, 0, i)


def build_level(ctx: FieldCtx, k: int, i: int = 0) -> LevelFamily:
    """F_i^k with all 2^(2^k q) members: F_0^k with its columns shifted."""
    if ctx.s < 2 or not (0 <= k <= ctx.s - 2):
        raise LevelOutOfRange(f"level {k} not in [0, {ctx.s - 2}]")
    m = (1 << k) * ctx.q
    _kernels.check_side(1 << m)
    weights = _block_weights(ctx, m) * shift_scales(ctx, i, m) % ctx.p
    pair = _kernels.sign_pair(weights, ctx.p)
    return LevelFamily(level=k, block=i, modulus=m,
                       members=_kernels.pair_rows(pair, np.arange(1 << m), ctx.p))


def _search_pairs(ctx: FieldCtx) -> tuple[tuple, tuple]:
    """The pairs of the two top families: F_0^(s-2) and its shift to block 1.

    Each family has 2^m members, m = (p-1)/4.  The shift scales every
    column of every member, so it scales both tables of the first pair.
    """
    m = (ctx.p - 1) // 4
    fam_a = _kernels.sign_pair(_block_weights(ctx, m), ctx.p)
    scales = shift_scales(ctx, 1, m)
    return fam_a, tuple((t * scales % ctx.p).astype(t.dtype) for t in fam_a)


def _top_orbits(m: int) -> int:
    """g = 2 gcd(m, 3): how many orbits the even block shifts make of the top values.

    Shift i multiplies column k of both families by gamma^(i(1 - 2k)),
    and so the top value by gamma^(i(3 - 2m)).  For even i these factors
    form the subgroup of index gcd(4m, 2(3 - 2m)) = 2 gcd(m, 3) of F_p^*,
    whose cosets are the orbits gamma^e H, e < g, of (p - 1) / g values each.
    """
    return 2 * math.gcd(m, 3)


def _bucket_rows(fams: tuple, tops: np.ndarray, p: int) -> tuple:
    """The members of both families whose top value is in tops, as rows.

    Member u * len(Q) + v of a pair has top value t when Q[v]'s is
    t - P[u]'s.  The two pairs are stacked, with Q's rows sorted by family
    and top value, so the members of u and t are one span of them, and
    each row of P is repeated beside the rows of its spans, a block of
    about _kernels._BLOCK_ROWS members at a time.  Each side is checked
    against the join cap before any row is built.  Returns A's rows and B's.
    """
    (hi_a, lo_a), (hi_b, lo_b) = fams
    hi, lo = np.concatenate([hi_a, hi_b]), np.concatenate([lo_a, lo_b])
    key = lo[:, -1] + np.array([0, p]).repeat(len(lo_a))  # family, then top value
    # a dtype that holds the sum of two residues, so rows are reduced in place
    dtype = np.min_scalar_type(2 * (p - 1))
    lo = lo[key.argsort(kind="stable")].astype(dtype, copy=False)
    count = np.bincount(key, minlength=2 * p)
    need = (tops - hi[:, -1:].astype(np.int64)) % p
    need[len(hi_a):] += p
    starts, size = (count.cumsum() - count)[need], count[need]
    per_u = size.sum(axis=1)
    first = per_u.cumsum() - per_u
    n_a, n = int(first[len(hi_a)]), int(first[-1] + per_u[-1])
    _kernels.check_side(max(n_a, n - n_a))
    rows = np.empty((n, hi.shape[1]), dtype=dtype)
    step = max(1, len(hi) * _kernels._BLOCK_ROWS // max(n, 1))
    for u in range(0, len(hi), step):
        at = _kernels._spans(starts[u:u + step].ravel(), size[u:u + step].ravel())
        block = rows[first[u]:first[u] + len(at)]
        lo.take(at, axis=0, out=block)
        block += hi[u:u + step].repeat(per_u[u:u + step], axis=0)
        np.minimum(block, block - block.dtype.type(p), out=block)
    return rows[:n_a], rows[n_a:]


def _bucket_pairs(ctx: FieldCtx, rows: tuple, order, src, runs, top, count: int,
                  want: int, orbit: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows (of a, of b) of the first `want` minimizing pairs, in order.

    runs are scan_runs' at the best prefix over the joined buckets, 0 and
    gamma^e for e < g, and top is each run's top value.  Shift 2j scales
    column k by gamma^(2j(1 - 2k)), so it maps bucket gamma^e onto
    image[e, j] and its pairs onto that bucket's.  The buckets of the
    smallest top values that hold the first `want` pairs are listed, each
    from its joined bucket, and their pairs sorted.
    """
    p, gp = ctx.p, ctx.gamma_powers
    m, g = rows[0].shape[1], (p - 1) // orbit
    scales = gp[2 * np.arange(orbit)[:, None] * (1 - 2 * np.arange(m)) % (p - 1)]
    image = gp[:g, None] * scales[:, -1] % p
    joined = np.bincount(top, runs[1] * runs[2], p).astype(np.int64)
    rep, shift = np.zeros(p, dtype=np.int64), np.zeros(p, dtype=np.int64)
    rep[image], shift[image] = gp[:g, None], np.arange(orbit)
    per_top = joined[rep]  # the pairs of every bucket, from its joined bucket
    if per_top.sum() != count:
        raise SqrtPolyError(f"the buckets hold {per_top.sum()} pairs, "
                            f"not the {count} counted")
    # a bucket is listed when the buckets below it hold fewer than want pairs
    ts = np.flatnonzero(per_top * (per_top.cumsum() - per_top < want))
    listed = np.zeros(p, dtype=bool)
    listed[rep[ts]] = True
    a_at, b_at = _kernels.run_pairs(order, src, tuple(x[listed[top]] for x in runs))
    first = (joined * listed).cumsum() - joined * listed
    at = _kernels._spans(first[rep[ts]], per_top[ts])
    scale = scales[shift[ts]].repeat(per_top[ts], axis=0)
    a_rows = (rows[0][a_at[at]] * scale % p).astype(rows[0].dtype)
    b_rows = (rows[1][b_at[at]] * scale % p).astype(rows[1].dtype)
    # lexsort's last key is the primary one: a's top column first, b's column 0 last
    keep = np.lexsort(np.hstack([b_rows, a_rows]).T)[:want]
    return a_rows[keep], b_rows[keep]


def minimal_search(ctx: FieldCtx,
                   keep_representatives: int | None = 16) -> SearchReport:
    """Find the minimal degree over all of F and all its attainers.

    p = 3 mod 4 is delegated to min_degree_direct (single block, monomial
    answer).  keep_representatives=None keeps every minimizer, up to
    DEFAULT_PAIR_CAP.
    """
    if ctx.p % 4 == 3:
        return min_degree_direct(ctx)
    t0 = time.monotonic()
    p, m = ctx.p, (ctx.p - 1) // 4
    g = _top_orbits(m)
    orbit = (p - 1) // g
    # the 2^m members of a family lie in bucket 0 and in orbits of `orbit`
    # buckets, each as full as its joined one: at least 2^m / orbit are joined
    _kernels.check_side(-(-(1 << m) // orbit))
    marks = [time.perf_counter()]  # the end of each of _STAGES in turn
    fams = _search_pairs(ctx)
    marks.append(time.perf_counter())
    tops = np.concatenate(([0], ctx.gamma_powers[:g]))
    rows = _bucket_rows(fams, tops, p)
    marks.append(time.perf_counter())
    join = {}
    zero = np.zeros((1, m), dtype=rows[0].dtype)
    order, src, lcp = _kernels.join_sort((rows[0], zero), (rows[1], zero), p, join)
    marks += [join.pop("packed_at"), time.perf_counter()]
    best = int((lcp * (src[:-1] != src[1:])).max(initial=0))
    if best >= m:
        raise CancellationImpossible("identical polynomials across families")
    min_degree = m + (m - 1 - best)
    # the (p-1)/3 lower bound does not hold at p = 5: 4 + 2x has degree 1
    low = -(-(p - 1) // 3) if p > 5 else 1
    if not low <= min_degree <= ctx.r - (ctx.q - 1) // 2:
        raise SqrtPolyError(f"search degree {min_degree} is outside the "
                            "(p-1)/3 lower and Tonelli-Shanks upper bounds")

    want = DEFAULT_PAIR_CAP if keep_representatives is None else keep_representatives
    want = max(want, 0)
    if best:
        # a run of rows whose top `best` coefficients agree, na of them from
        # a and nb from b, holds na * nb minimizing pairs, and as many in
        # each bucket of its orbit
        runs = _kernels.scan_runs(lcp, src, best)
        top = np.concatenate([r[:, -1] for r in rows])[order[runs[0]]]
        minimizer_count = int((runs[1] * runs[2]) @ np.where(top, orbit, 1))
        a_rows, b_rows = _bucket_pairs(ctx, rows, order, src, runs, top,
                                       minimizer_count, want, orbit)
    else:
        # no pair agrees on its top coefficient, so all pairs are minimizers,
        # in the order of the two families sorted whole
        _kernels.check_side(1 << m)
        order, src, lcp = _kernels.join_sort(*fams, p)
        at = _kernels.run_pairs(order, src, _kernels.scan_runs(lcp, src, 0), want)
        a_rows, b_rows = (_kernels.pair_rows(f, x, p) for f, x in zip(fams, at))
        minimizer_count = 1 << 2 * m
    count_only = minimizer_count > DEFAULT_PAIR_CAP
    marks.append(time.perf_counter())
    glued = poly.glue_rows(ctx, a_rows, b_rows, ctx.s - 2, 0)
    if not glued[:, min_degree].all() or glued[:, min_degree + 1:].any():
        raise SqrtPolyError(f"a representative's degree is not {min_degree}")
    reps = Poly._adopt(ctx, glued.astype(np.int64, copy=False))
    marks.append(time.perf_counter())
    stats = {
        "wall_seconds": round(time.monotonic() - t0, 6),
        "stage_seconds": {name: round(b - a, 6)
                          for name, a, b in zip(_STAGES, marks, marks[1:])},
        "family_size": 1 << m,
        "joined_rows": sum(len(r) for r in rows),
        "top_values": len(tops),
        "orbit_size": orbit,
        "modulus": m,
        "memory_bytes": sum(t.nbytes for t in (*fams[0], *fams[1], *rows))
        + join["memory_bytes"],
        "key_columns": join["key_columns"],
        "tied_rows": join["tied_rows"],
        "count_only": count_only,
        "top_level_cancellation": m - 1 - best,
    }
    return SearchReport(min_degree=min_degree, minimizer_count=minimizer_count,
                        representatives=reps, prefix_length=best, stats=stats)


def min_degree_direct(ctx: FieldCtx) -> SearchReport:
    """p = 3 mod 4: x^((p+1)/4) and its negation are the minimal pair."""
    if ctx.p % 4 != 3:
        raise WrongResidue(f"p = {ctx.p} is 1 mod 4; use minimal_search")
    e = (ctx.p + 1) // 4
    ctx.check_gamma_table()  # before the r-entry coefficient list
    f = monomial(ctx, 1, e)
    if not is_sqrt_poly(ctx, f):
        raise SqrtPolyError(f"x^{e} is not a square-root polynomial mod {ctx.p}")
    return SearchReport(min_degree=e, minimizer_count=2,
                        representatives=[f, -f], prefix_length=None,
                        stats={"route": "direct"})


@dataclass
class TreeNode:
    level: int
    block: int
    modulus: int  # M_level
    beta: int  # vanishing polynomial is x^modulus - beta
    coeffs: list[int]
    children: list["TreeNode"] = field(default_factory=list)

    def poly(self, ctx: FieldCtx) -> Poly:
        return poly.from_coeffs(ctx, self.coeffs)


def decompose_tree(ctx: FieldCtx, f: Poly) -> TreeNode:
    """Reduce f modulo every node's vanishing polynomial x^{M_k} - zeta^{2^k i}."""
    from .errors import NotASqrtPoly

    if not is_sqrt_poly(ctx, f):
        raise NotASqrtPoly("decompose_tree input must compute square roots on S")
    root = TreeNode(level=ctx.s - 1, block=0, modulus=ctx.r, beta=1,
                    coeffs=f.coeffs)
    _split(ctx, root)
    return root


def _split(ctx: FieldCtx, node: TreeNode):
    if node.level == 0:
        return
    p = ctx.p
    k = node.level - 1
    m = (1 << k) * ctx.q
    d = 1 << (ctx.s - 1)
    for child_block in (node.block, node.block + (1 << (ctx.s - 2 - k))):
        beta = pow(ctx.zetaTS, ((1 << k) * child_block) % d, p)
        cc = [(node.coeffs[j] + beta * node.coeffs[m + j]) % p for j in range(m)]
        child = TreeNode(level=k, block=child_block, modulus=m, beta=beta,
                         coeffs=cc)
        node.children.append(child)
        _split(ctx, child)


def render_tree(ctx: FieldCtx, node: TreeNode, indent: int = 0) -> str:
    pad = "  " * indent
    body = poly.from_coeffs(ctx, node.coeffs).render()
    line = (f"{pad}F block={node.block} level={node.level} "
            f"(mod x^{node.modulus} - {node.beta}): {body}")
    return "\n".join([line] + [render_tree(ctx, ch, indent + 1)
                               for ch in node.children])
