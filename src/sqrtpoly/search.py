"""Meet-in-the-middle search for the minimal-degree square-root polynomial.

Every f on S splits uniquely as a pair (f_0, f_1) of halves on the two
level-(s-2) blocks, and deg f = M + deg(f_0 - f_1), so the minimum is
found by building both 2^((p-1)/4)-member families, sorting the
coefficient vectors highest-degree-first, and matching the longest
cross-family common prefix.  Total work O(p * 2^((p-1)/4)).
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

SEARCH_CAP = 26  # max (p-1)/4
DEFAULT_PAIR_CAP = 10 ** 6


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


def _storage_dtype(p: int):
    return np.uint8 if p < 256 else np.uint32


def _base_members(ctx: FieldCtx) -> np.ndarray:
    """All 2^q polynomials on S_0 = mu_q (rows indexed by sign word)."""
    p, q = ctx.p, ctx.q
    if q > SEARCH_CAP:
        raise TooLarge(f"q = {q} exceeds search cap {SEARCH_CAP}")
    weights = fourier.subgroup_weights(ctx, q)
    return _kernels.sign_table(weights, p).astype(_storage_dtype(p))


def _shift_members(ctx: FieldCtx, members: np.ndarray, i: int) -> np.ndarray:
    """Column scaling realizing f |-> gamma^i f(gamma^(-2i) x)."""
    p = ctx.p
    scales = shift_scales(ctx, i, members.shape[1])
    out = np.empty_like(members)
    step = max(1, (1 << 20) // members.shape[1])  # rows per int64 chunk
    for r0 in range(0, len(members), step):
        out[r0:r0 + step] = members[r0:r0 + step].astype(np.int64) * scales % p
    return out


def _glue_all(ctx: FieldCtx, a: np.ndarray, b: np.ndarray, k: int,
              i: int = 0) -> np.ndarray:
    """All |a| x |b| gluings of level-k families into level k+1."""
    p = ctx.p
    m = (1 << k) * ctx.q
    alpha = pow(ctx.zetaTS, ((1 << k) * i) % (1 << (ctx.s - 1)), p)
    c = pow(2 * alpha % p, -1, p)
    ac = alpha * c % p
    a_lo = a.astype(np.int64) * ac % p
    a_hi = a.astype(np.int64) * c % p
    b_lo = b.astype(np.int64) * ac % p
    b_hi = b.astype(np.int64) * c % p
    na, nb = len(a), len(b)
    out = np.empty((na * nb, 2 * m), dtype=_storage_dtype(p))
    chunk = max(1, (1 << 22) // max(1, nb * m))
    for a0 in range(0, na, chunk):
        a1 = min(a0 + chunk, na)
        lo = (a_lo[a0:a1, None, :] + b_lo[None, :, :]) % p
        hi = (a_hi[a0:a1, None, :] - b_hi[None, :, :]) % p
        out[a0 * nb:a1 * nb, :m] = lo.reshape(-1, m)
        out[a0 * nb:a1 * nb, m:] = hi.reshape(-1, m)
    return out


def _level_zero_members(ctx: FieldCtx, i: int) -> np.ndarray:
    base = _base_members(ctx)
    return _shift_members(ctx, base, i) if i else base


def _level_members(ctx: FieldCtx, k: int) -> np.ndarray:
    """F_0^k member matrix, built recursively."""
    if k == 0:
        return _level_zero_members(ctx, 0)
    child = _level_members(ctx, k - 1)
    partner = _shift_members(ctx, child, 1 << (ctx.s - 1 - k))
    return _glue_all(ctx, child, partner, k - 1, i=0)


def build_level_zero(ctx: FieldCtx, i: int = 0) -> LevelFamily:
    """All 2^q square-root polynomials on the block S_i."""
    if ctx.s < 2:
        raise LevelOutOfRange("level families need s >= 2")
    return LevelFamily(level=0, block=i, modulus=ctx.q,
                       members=_level_zero_members(ctx, i))


def build_level(ctx: FieldCtx, k: int, i: int = 0) -> LevelFamily:
    """F_i^k with all 2^(2^k q) members."""
    if ctx.s < 2 or not (0 <= k <= ctx.s - 2):
        raise LevelOutOfRange(f"level {k} not in [0, {ctx.s - 2}]")
    m = (1 << k) * ctx.q
    if m > SEARCH_CAP:
        raise TooLarge(f"M_k = {m} exceeds search cap {SEARCH_CAP}")
    members = _level_members(ctx, k)
    if i:
        members = _shift_members(ctx, members, i)
    return LevelFamily(level=k, block=i, modulus=m, members=members)


def _glue_rows(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """glue_pair(a[t], b[t]) onto block 0 (alpha = 1) for every row pair t."""
    p = ctx.p
    half = pow(2, -1, p)
    a, b = a.astype(np.int64), b.astype(np.int64)
    return np.hstack([(a + b) * half % p, (a - b) * half % p])


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
    if m > SEARCH_CAP:
        raise TooLarge(f"(p-1)/4 = {m} exceeds search cap {SEARCH_CAP}")
    k = ctx.s - 2
    fam_a = _level_members(ctx, k)
    fam_b = _shift_members(ctx, fam_a, 1)
    assert fam_a.shape[1] == m

    order, src, lcp = _kernels.join_sort(fam_a, fam_b, ctx.p)
    cross = src[:-1] != src[1:]
    if not cross.any():  # pragma: no cover - both families always nonempty
        raise CancellationImpossible("no cross-family adjacency")
    best = int(lcp[cross].max())
    if best >= m:
        raise CancellationImpossible("identical polynomials across families")
    min_degree = m + (m - 1 - best)
    if not -(-(ctx.p - 1) // 3) <= min_degree <= ctx.r - (ctx.q - 1) // 2:
        raise SqrtPolyError(f"search degree {min_degree} is outside the "
                            "(p-1)/3 lower and Tonelli-Shanks upper bounds")

    # a run of rows whose top `best` coefficients agree, na of them from a
    # and nb from b, holds na * nb minimizing pairs
    runs = _kernels.scan_runs(lcp, src, best)
    _, _, na, nb = runs
    minimizer_count = int(na @ nb)
    count_only = minimizer_count > pair_cap

    want = keep_representatives if keep_representatives is not None else pair_cap
    a_at, b_at = _kernels.run_pairs(order, src, runs, max(want, 0))
    glued = _glue_rows(ctx, fam_a[a_at], fam_b[b_at])
    if not glued[:, min_degree].all() or glued[:, min_degree + 1:].any():
        raise SqrtPolyError(f"a representative's degree is not {min_degree}")
    reps = [Poly(ctx, coeffs) for coeffs in glued.tolist()]
    stats = {
        "wall_seconds": round(time.monotonic() - t0, 6),
        "family_size": int(len(fam_a)),
        "modulus": m,
        "memory_bytes": int(fam_a.nbytes + fam_b.nbytes + order.nbytes
                            + src.nbytes + lcp.nbytes
                            + 8 * len(order) * _kernels.key_count(m, ctx.p)),
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
