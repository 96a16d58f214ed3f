"""Exhaustive degree censuses over sign vectors.

Every count here is the meet-in-the-middle join of _kernels.  The
coefficient vector splits as c = A(low signs) - B(high signs), with B
summed from the negated high weights; the top j coefficients of a vector
vanish exactly when its A and B rows agree on those j columns, so one
sort of both 2^(r/2)-row tables of r columns and the runs of rows that
agree on their top j columns give, for every j, the number Z_j of
vectors whose top j coefficients vanish, and degree r-1-j is hit
Z_j - Z_{j+1} times.  A and B are each held as a pair of
the sign tables of their high and low quarters, of about 2^(r/4) rows,
and a shard, a range of Gray-code indices, joins sub-pairs of them, one
join per aligned block of indices.

The one size rule is the join cap: no side of a join may hold more than
2^26 rows, and _kernels.check_signs refuses a join over more signs (r in
full_census and orbit_divisibility_check, d in family_census, past 52)
before its weights or any table is built.  An explicit max_r refuses
less than that; none is applied by default.

Each family's weights, c_k = sum_n eps_n w[n, k], come in closed form
from fourier.sign_weights.  full_census joins the r coefficients.
family_census joins the d coefficients that the alternating-periodic
subfamily can reach: orthogonality leaves only one residue class of
positions mod r/d.  The same join over one column counts vanishing half
sums (fourier.count_vanishing_bruteforce, whose column is built by pow,
as it runs at primes past the gamma^j table), and over one column per
ell and the d signs of an alternating family it counts the family's
joint vanishing words, from which orbit_divisibility_check takes the
class of each sigma-orbit order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels, _modmat, fourier
from .errors import InvalidDivisor, SqrtPolyError, TooLarge, ValidationError
from .field import FieldCtx
from .signs import SignVector


@dataclass
class DegreeHistogram:
    counts: dict[int, int]
    meta: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def merge(self, other: "DegreeHistogram") -> "DegreeHistogram":
        """Sum of two histograms of the same p and family.

        A meta key that only one side has is kept; the per-shard "shard"
        key is left out of the sum.
        """
        for key in ("p", "family"):
            if key in self.meta and key in other.meta \
                    and self.meta[key] != other.meta[key]:
                raise ValidationError(f"cannot merge {key} = {self.meta[key]} "
                                      f"with {key} = {other.meta[key]}")
        out = dict(self.counts)
        for deg, n in other.counts.items():
            out[deg] = out.get(deg, 0) + n
        meta = {**other.meta, **self.meta}
        meta.pop("shard", None)
        return DegreeHistogram(out, meta)

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


def _delta_table(ctx: FieldCtx) -> np.ndarray:
    """delta[n, k] = (2/r) * gamma^(n(1-2k)) mod p: c_k's step as eps_n flips."""
    return 2 * fourier.sign_weights(ctx, ctx.r, 1 - 2 * np.arange(ctx.r)) % ctx.p


def _seed_coeffs(ctx: FieldCtx, word: int) -> np.ndarray:
    """Coefficient vector of the sign vector with bits word (set bit: -1)."""
    return _modmat.signed_dft(ctx, SignVector(word, ctx.r).signs())[0].copy()


def _check_cap(r: int, max_r: int | None):
    """Refuse a census over r signs above max_r, if given, or the join cap."""
    if max_r is not None and r > max_r:
        raise TooLarge(f"r = {r} exceeds census cap {max_r}")
    _kernels.check_signs(r)


def full_census(ctx: FieldCtx, shards: int = 1, threads: int = 1,
                max_r: int | None = None) -> DegreeHistogram:
    """Exact degree histogram of f_eps over all eps in E_r.

    The merge of census_shard(ctx, i, N) over the N shards, each of which
    must count exactly its range.  threads is accepted and ignored: the
    join runs in numpy.
    """
    _check_cap(ctx.r, max_r)
    total = 1 << ctx.r
    shards = max(1, min(shards, total))
    out = DegreeHistogram({}, {"p": ctx.p, "s": ctx.s, "q": ctx.q, "family": "all",
                               "shards": shards})
    for i in range(shards):
        out = out.merge(census_shard(ctx, i, shards, max_r))
    if out.total != total:
        raise SqrtPolyError(f"census counted {out.total} of {total} vectors")
    return out


def census_shard(ctx: FieldCtx, index: int, count: int,
                 max_r: int | None = None) -> DegreeHistogram:
    """Degree histogram of shard index of count, as full_census splits it.

    The shard covers the Gray indices [2^r index // count,
    2^r (index+1) // count).
    """
    _check_cap(ctx.r, max_r)
    r = ctx.r
    lo, hi = _kernels.shard_range(r, index, count)
    weights = fourier.sign_weights(ctx, r, 1 - 2 * np.arange(r))
    hist = _kernels.range_hist(_kernels.half_tables(weights, ctx.p), ctx.p, lo, hi)
    return DegreeHistogram(_hist_to_counts(hist),
                           {"p": ctx.p, "s": ctx.s, "q": ctx.q,
                            "family": "all", "shard": [index, count],
                            "shards": count})


def _hist_to_counts(hist: np.ndarray) -> dict[int, int]:
    if hist[0]:
        raise SqrtPolyError("census counted the zero polynomial, "
                            "which no sign vector gives")
    if (hist < 0).any():
        raise SqrtPolyError(f"census counted {hist.min()} vectors "
                            f"of degree {hist.argmin() - 1}")
    return {deg: int(n) for deg, n in enumerate(hist[1:]) if n}


def family_admissible_degrees(ctx: FieldCtx, d: int) -> list[int]:
    """Degrees r - (D-1)/2 - tD, t = 0..d-1, descending (D = r/d odd).

    At D = 1 the list is r, r-1, ..., 1: degree r stands for x^0, which
    is x^r on S, so the order-r family reads a polynomial with c_0 != 0 as
    of degree r, where its Poly.degree is below r.
    """
    big_d = ctx.r // d
    return [ctx.r - (big_d - 1) // 2 - t * big_d for t in range(d)]


def alternating_weights(ctx: FieldCtx, d: int) -> tuple[list[int], np.ndarray]:
    """The order-d family's admissible degrees, ascending, and its weights.

    c_{k_t} = (1/d) sum_y h_y gamma^(y(1-2 k_t)) is the coefficient at the
    t-th degree of the member eps_{dx+y} = (-1)^x h_y, and sign_weights
    gives it as column t.
    """
    degs = family_admissible_degrees(ctx, d)[::-1]
    return degs, fourier.sign_weights(ctx, d, 1 - 2 * np.asarray(degs))


def _check_family_divisor(ctx: FieldCtx, d: int):
    if d < 1 or ctx.r % d != 0:
        raise InvalidDivisor(f"d = {d} does not divide r = {ctx.r}")
    if (ctx.r // d) % 2 == 0:
        raise InvalidDivisor(f"r/d = {ctx.r // d} must be odd")


def family_census(ctx: FieldCtx, d: int) -> DegreeHistogram:
    """Degree histogram over the 2^d block-sign choices of the order-d family.

    Orthogonality puts all nonzero coefficients in one residue class mod
    D, so only the d coefficients of alternating_weights need computing.
    Their columns go in ascending degree, so the join's top column is the
    highest degree.  A member's degree is the highest admissible degree
    whose coefficient is nonzero: at D = 1 (the TS family when q = 1) that
    is r whenever c_0 != 0 (family_admissible_degrees).  d is capped by
    the join cap, as r in full_census.
    """
    _check_family_divisor(ctx, d)
    _kernels.check_signs(d)
    p = ctx.p
    degs, w = alternating_weights(ctx, d)
    tables = _kernels.half_tables(w, p)
    by_column = _hist_to_counts(_kernels.range_hist(tables, p, 0, 1 << d))
    counts = {degs[j]: n for j, n in by_column.items()}
    return DegreeHistogram(counts, {"p": ctx.p, "s": ctx.s, "q": ctx.q,
                                    "family": f"alt-{d}", "shards": 1})


def family_orders(r: int) -> list[int]:
    """The orders d of the alternating families over r signs: d | r, r/d odd."""
    return [d for d in range(1, r + 1) if r % d == 0 and (r // d) % 2]


def orbit_divisibility_check(ctx: FieldCtx,
                             ells: list[int]) -> tuple[bool, dict[int, int]]:
    """Partition the joint vanishing set V_{r,K} by sigma-orbit order.

    Returns (every order divides its class size, {order: class size}).
    A word is in the order-d family, eps_{dx+y} = (-1)^x h_y, exactly
    when sigma^d(eps) = -eps, that is when its order divides 2d, and
    every order is 2d for a family order d.  In that family H_ell(eps)
    = G_ell * sum_{y<d} h_y gamma^(y ell), G_ell = sum_{x<r/d}
    (-gamma^(d ell))^x, so its vanishing words are counted by one join
    over d signs on the columns of the ell with G_ell != 0.  By Moebius
    inversion, the class of order 2d is that count less the classes of
    the orders 2e, e | d, e < d.
    """
    p, r = ctx.p, ctx.r
    if not ells:
        raise ValidationError("orbit check needs at least one ell")
    _kernels.check_signs(r)  # the largest family, d = r
    exact: dict[int, int] = {}
    for d in family_orders(r):
        keep = []
        for ell in ells:
            g = -pow(ctx.gamma, d * ell % (p - 1), p)
            if sum(pow(g, x, p) for x in range(r // d)) % p:
                keep.append(ell % (p - 1))
        w = fourier.sign_weights(ctx, d, keep)
        vanish = int(_kernels.range_hist(_kernels.half_tables(w, p), p, 0, 1 << d)[0])
        exact[d] = vanish - sum(n for e, n in exact.items() if d % e == 0)
    by_order = {2 * d: n for d, n in exact.items() if n}
    ok = all(n % o == 0 for o, n in by_order.items())
    return ok, by_order
