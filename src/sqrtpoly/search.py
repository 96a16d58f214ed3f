"""Meet-in-the-middle search for the minimal-degree square-root polynomial.

Every f on S splits uniquely as a pair (f_0, f_1) of halves on the two
level-(s-2) blocks, and deg f = M + deg(f_0 - f_1), so the minimum is
found by sorting the coefficient vectors of both 2^((p-1)/4)-member
families together, highest degree first, and matching the longest
cross-family common prefix.  Total work O(p * 2^((p-1)/4)).

A family is the sign_table of its M_k x M_k weights, as a census is: at
level 0 fourier.subgroup_weights, above it the partner's weights glued
as 0 with them and the child's glued with 0, since poly.glue_rows is
linear.  It is held as the sign_pair (P, Q) of its weights, of about
2^((p-1)/8) rows each, whose member u * len(Q) + v is P[u] + Q[v] mod p.
A block shift scales columns, so the second family is the first pair
scaled.  The join sorts one uint64 key per member, packed straight from
the pairs: its top coefficients above its index.  Members that tie on
those coefficients are the only ones built as rows, for the tie pass, and
the representatives the only ones glued.  A family of more than 2^26
members (m > 26, p > 101) is refused by _kernels.check_side.
"""

from __future__ import annotations

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


def _family_weights(ctx: FieldCtx, k: int) -> np.ndarray:
    """The M_k x M_k weights of F_0^k: member w is sign_table row w.

    Level 0 is the subgroup_weights of mu_q.  Above it, the low M_(k-1)
    signs pick a member b of the partner, the child shifted by
    2^(s-1-k) blocks, and the high ones a member a of the child, and the
    gluing of a with b is the sum of the gluings of 0 with b and of a
    with 0.
    """
    if k == 0:
        return fourier.subgroup_weights(ctx, ctx.q)
    child = _family_weights(ctx, k - 1)
    shift = shift_scales(ctx, 1 << (ctx.s - 1 - k), child.shape[1])
    zero = np.zeros_like(child)
    return np.vstack([poly.glue_rows(ctx, zero, child * shift % ctx.p, k - 1, 0),
                      poly.glue_rows(ctx, child, zero, k - 1, 0)])


def build_level_zero(ctx: FieldCtx, i: int = 0) -> LevelFamily:
    """All 2^q square-root polynomials on the block S_i."""
    return build_level(ctx, 0, i)


def build_level(ctx: FieldCtx, k: int, i: int = 0) -> LevelFamily:
    """F_i^k with all 2^(2^k q) members: F_0^k with its columns shifted."""
    if ctx.s < 2 or not (0 <= k <= ctx.s - 2):
        raise LevelOutOfRange(f"level {k} not in [0, {ctx.s - 2}]")
    m = (1 << k) * ctx.q
    _kernels.check_side(m)
    weights = _family_weights(ctx, k) * shift_scales(ctx, i, m) % ctx.p
    pair = _kernels.sign_pair(weights, ctx.p)
    return LevelFamily(level=k, block=i, modulus=m,
                       members=_kernels.pair_rows(pair, np.arange(1 << m), ctx.p))


def _search_pairs(ctx: FieldCtx) -> tuple[tuple, tuple]:
    """The pairs of the two top families: F_0^(s-2) and its shift to block 1.

    Each family has 2^m members, m = (p-1)/4.  The shift scales every
    column of every member, so it scales both tables of the first pair.
    """
    m = (ctx.p - 1) // 4
    _kernels.check_side(m)
    fam_a = _kernels.sign_pair(_family_weights(ctx, ctx.s - 2), ctx.p)
    scales = shift_scales(ctx, 1, m)
    return fam_a, tuple((t * scales % ctx.p).astype(t.dtype) for t in fam_a)


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
    # the (p-1)/3 lower bound does not hold at p = 5: 4 + 2x has degree 1
    low = -(-(ctx.p - 1) // 3) if ctx.p > 5 else 1
    if not low <= min_degree <= ctx.r - (ctx.q - 1) // 2:
        raise SqrtPolyError(f"search degree {min_degree} is outside the "
                            "(p-1)/3 lower and Tonelli-Shanks upper bounds")

    # a run of rows whose top `best` coefficients agree, na of them from a
    # and nb from b, holds na * nb minimizing pairs
    runs = _kernels.scan_runs(lcp, src, best)
    _, na, nb = runs
    minimizer_count = int(na @ nb)
    count_only = minimizer_count > DEFAULT_PAIR_CAP

    want = DEFAULT_PAIR_CAP if keep_representatives is None else keep_representatives
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
