"""Meet-in-the-middle search for the minimal-degree square-root polynomial.

Every f on S splits uniquely as a pair (f_0, f_1) of halves on the two
level-(s-2) blocks, and deg f = M + deg(f_0 - f_1), so the minimum is
found by sorting the coefficient vectors of both 2^((p-1)/4)-member
families together, highest degree first, and matching the longest
cross-family common prefix.  Total work O(p * 2^((p-1)/4)).

A family is held as a pair (P, Q) of half tables of about 2^((p-1)/8)
rows each, whose member u * len(Q) + v is P[u] + Q[v] mod p: at level 0
the sign tables of the high and the low signs, above it the child level
glued with 0 and 0 glued with its partner (poly.glue_rows is linear).  A
block shift scales columns, so the second family is the first pair
scaled.  The join sorts one uint64 key per member, packed straight from
the pairs: its top coefficients above its index.  Members that tie on
those coefficients are the only ones built as rows, for the tie pass, and
the representatives the only ones glued.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, fourier, poly
from .errors import (CancellationImpossible, LevelOutOfRange, SqrtPolyError,
                     TooLarge, WrongResidue)
from .field import FieldCtx
from .poly import Poly, is_sqrt_poly, monomial
from .ts import shift_scales

DEFAULT_PAIR_CAP = 10 ** 6
# minimal_search's stages, timed in SearchReport.stats["stage_seconds"]
_STAGES = ("half_tables", "keys", "sort", "run_scan", "glue")


@dataclass
class LevelFamily:
    level: int
    block: int
    modulus: int  # M_k = 2^k * q
    members: np.ndarray  # (2^{M_k}, M_k), each row a poly of degree < M_k

    def member_poly(self, ctx: FieldCtx, idx: int) -> Poly:
        return poly.from_coeffs(ctx, [int(v) for v in self.members[idx]])


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


def _scaled(ctx: FieldCtx, pair: tuple, i: int) -> tuple:
    """The pair of the family shifted to block i, f |-> gamma^i f(gamma^(-2i) x).

    The shift scales column j of every member by the same factor, so it
    scales both half tables.
    """
    if not i:
        return pair
    scales = shift_scales(ctx, i, pair[0].shape[1])
    return tuple((t * scales % ctx.p).astype(t.dtype) for t in pair)


def _family_pair(ctx: FieldCtx, k: int) -> tuple:
    """F_0^k as a pair (P, Q): member u * len(Q) + v is P[u] + Q[v] mod p.

    At level 0 P and Q are the sign tables of the high and the low signs
    of the 2^q polynomials on S_0 = mu_q (member w is sign word w).  Above
    it, the gluing of a child member a with a partner member b is linear,
    the sum of the gluings of a with 0 and of 0 with b: P glues the child
    level with 0 and Q glues 0 with its partner.  Both are stored in the
    narrowest dtype of p - 1.
    """
    p, dtype = ctx.p, np.min_scalar_type(ctx.p - 1)
    if k == 0:
        if ctx.q > _kernels.JOIN_CAP:
            raise TooLarge(f"q = {ctx.q} exceeds the join cap {_kernels.JOIN_CAP}")
        return _kernels.sign_pair(fourier.subgroup_weights(ctx, ctx.q), p)
    child = _level_members(ctx, k - 1)
    partner, = _scaled(ctx, (child,), 1 << (ctx.s - 1 - k))
    zero = np.zeros_like(child)
    return (poly.glue_rows(ctx, child, zero, k - 1, 0).astype(dtype),
            poly.glue_rows(ctx, zero, partner, k - 1, 0).astype(dtype))


def _level_members(ctx: FieldCtx, k: int, i: int = 0) -> np.ndarray:
    """F_i^k member matrix, one row per member, from its pair."""
    pair = _scaled(ctx, _family_pair(ctx, k), i)
    return _kernels.pair_rows(pair, np.arange(len(pair[0]) * len(pair[1])), ctx.p)


def build_level_zero(ctx: FieldCtx, i: int = 0) -> LevelFamily:
    """All 2^q square-root polynomials on the block S_i."""
    return build_level(ctx, 0, i)


def build_level(ctx: FieldCtx, k: int, i: int = 0) -> LevelFamily:
    """F_i^k with all 2^(2^k q) members."""
    if ctx.s < 2 or not (0 <= k <= ctx.s - 2):
        raise LevelOutOfRange(f"level {k} not in [0, {ctx.s - 2}]")
    m = (1 << k) * ctx.q
    if m > _kernels.JOIN_CAP:
        raise TooLarge(f"M_k = {m} exceeds the join cap {_kernels.JOIN_CAP}")
    return LevelFamily(level=k, block=i, modulus=m,
                       members=_level_members(ctx, k, i))


def _search_pairs(ctx: FieldCtx) -> tuple[tuple, tuple]:
    """The pairs of the two top families: F_0^(s-2) and its shift to block 1.

    Each family has 2^m members, m = (p-1)/4, and m is capped at
    _kernels.JOIN_CAP.
    """
    m = (ctx.p - 1) // 4
    if m > _kernels.JOIN_CAP:
        raise TooLarge(f"(p-1)/4 = {m} exceeds the join cap {_kernels.JOIN_CAP}")
    fam_a = _family_pair(ctx, ctx.s - 2)
    return fam_a, _scaled(ctx, fam_a, 1)


def minimal_search(ctx: FieldCtx,
                   keep_representatives: int | None = 16,
                   pair_cap: int = DEFAULT_PAIR_CAP) -> SearchReport:
    """Find the minimal degree over all of F and all its attainers.

    p = 3 mod 4 is delegated to min_degree_direct (single block, monomial
    answer).  keep_representatives=None keeps every minimizer (subject
    to pair_cap).
    """
    if ctx.p % 4 == 3:
        return min_degree_direct(ctx)
    t0 = time.monotonic()
    m = (ctx.p - 1) // 4
    marks = [time.perf_counter()]  # the end of each of _STAGES in turn
    fam_a, fam_b = _search_pairs(ctx)
    n = len(fam_a[0]) * len(fam_a[1])
    marks.append(time.perf_counter())
    join = {}
    order, src, lcp = _kernels.join_sort(fam_a, fam_b, ctx.p, join)
    marks += [join.pop("packed_at"), time.perf_counter()]
    cross = src[:-1] != src[1:]
    if not cross.any():  # pragma: no cover - both families always nonempty
        raise CancellationImpossible("no cross-family adjacency")
    best = int((lcp * cross).max())
    if best >= m:
        raise CancellationImpossible("identical polynomials across families")
    min_degree = m + (m - 1 - best)
    if not -(-(ctx.p - 1) // 3) <= min_degree <= ctx.r - (ctx.q - 1) // 2:
        raise SqrtPolyError(f"search degree {min_degree} is outside the "
                            "(p-1)/3 lower and Tonelli-Shanks upper bounds")

    # a run of rows whose top `best` coefficients agree, na of them from a
    # and nb from b, holds na * nb minimizing pairs
    runs = _kernels.scan_runs(lcp, src, best)
    _, na, nb = runs
    minimizer_count = int(na @ nb)
    count_only = minimizer_count > pair_cap

    want = keep_representatives if keep_representatives is not None else pair_cap
    a_at, b_at = _kernels.run_pairs(order, src, runs, max(want, 0))
    marks.append(time.perf_counter())
    glued = poly.glue_rows(ctx, _kernels.pair_rows(fam_a, a_at, ctx.p),
                           _kernels.pair_rows(fam_b, b_at, ctx.p), ctx.s - 2, 0)
    if not glued[:, min_degree].all() or glued[:, min_degree + 1:].any():
        raise SqrtPolyError(f"a representative's degree is not {min_degree}")
    reps = [Poly(ctx, coeffs) for coeffs in glued.tolist()]
    marks.append(time.perf_counter())
    stats = {
        "wall_seconds": round(time.monotonic() - t0, 6),
        "stage_seconds": {name: round(b - a, 6)
                          for name, a, b in zip(_STAGES, marks, marks[1:])},
        "family_size": n,
        "modulus": m,
        "memory_bytes": sum(t.nbytes for t in (*fam_a, *fam_b)) + join["memory_bytes"],
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
                    coeffs=list(f.coeffs))
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
