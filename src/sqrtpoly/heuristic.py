"""Expected degree counts under the independent-coefficient heuristic.

Treat the coefficients of a random family member as independent uniform
field elements (conditioned on the family's admissible positions); then
#(deg = m) is (family size) * p^-(number of forced-zero top coefficients)
* (1 - 1/p).  All quantities are exact rationals; rounding happens only
at the presentation layer, half-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .census import _check_family_divisor, family_admissible_degrees, family_orders
from .errors import LevelOutOfRange
from .field import FieldCtx
from .signs import family_size, family_size_reduced
from .ts import block_count


def round_half_up(x: Fraction) -> int:
    return (2 * x + 1) // 2


@dataclass
class HeuristicRow:
    degree: int
    predicted: Fraction
    rounded: int
    actual: int | None = None
    approx: Fraction | None = None
    below_threshold: bool | None = None


@dataclass
class HeuristicReport:
    model: str  # naive-H', family-lambda, TS-lambda
    params: dict
    rows: list[HeuristicRow] = field(default_factory=list)
    zero_mass: Fraction | None = None  # naive model: P(all coefficients zero)

    def rounded_by_degree(self) -> dict[int, int]:
        return {row.degree: row.rounded for row in self.rows}

    def rounded_nonzero(self) -> dict[int, int]:
        return {row.degree: row.rounded for row in self.rows if row.rounded >= 1}

    def attach_actuals(self, counts: dict[int, int]):
        for row in self.rows:
            row.actual = counts.get(row.degree, 0)

    def to_json(self) -> dict:
        return {
            "model": self.model,
            "params": self.params,
            "rows": [{
                "degree": row.degree,
                "predicted": str(row.predicted),
                "rounded": str(row.rounded),
                **({"actual": str(row.actual)} if row.actual is not None else {}),
            } for row in self.rows],
        }


def naive_expected_counts(ctx: FieldCtx, degrees=None) -> HeuristicReport:
    """Model H': expected #(deg = m) = 2^r * p^-(r-1-m) * (1 - 1/p).

    The leftover mass 2^r * p^-r (all coefficients zero) is reported as
    zero_mass, so row sums plus zero_mass give exactly 2^r.
    """
    p, r = ctx.p, ctx.r
    if degrees is None:
        degrees = range(r - 1, -1, -1)
    rows = []
    for m in sorted(degrees, reverse=True):
        if 0 <= m <= r - 1:
            val = Fraction(2 ** r * (p - 1), p ** (r - m))
        else:
            val = Fraction(0)
        rows.append(HeuristicRow(m, val, round_half_up(val)))
    return HeuristicReport("naive-H'", {"p": p, "r": r}, rows,
                           zero_mass=Fraction(2 ** r, p ** r))


def family_expected_counts(ctx: FieldCtx, d: int) -> HeuristicReport:
    """lambda_n^(d) = N'(d)/p^n rows at the order-d admissible degrees."""
    _check_family_divisor(ctx, d)
    p = ctx.p
    nprime = family_size_reduced(d)
    rows = []
    for n, deg in enumerate(family_admissible_degrees(ctx, d)):
        lam = nprime / p ** n
        rows.append(HeuristicRow(deg, lam, round_half_up(lam),
                                 approx=Fraction(2 ** d, 2 * d * p ** n),
                                 below_threshold=lam < Fraction(1, 2)))
    big_d = ctx.r // d
    return HeuristicReport("family-lambda", {"p": p, "d": d, "D": big_d}, rows)


def ts_expected_counts(ctx: FieldCtx) -> HeuristicReport:
    """Expected TS counts (1 - 1/p) * 2^(2^{s-1}) / p^n at degrees r-(q-1)/2-nq.

    The degrees are the order-2^{s-1} family's, family_admissible_degrees.
    """
    if ctx.s < 2:
        raise LevelOutOfRange("needs s >= 2")
    p, d = ctx.p, block_count(ctx)
    rows = []
    for n, deg in enumerate(family_admissible_degrees(ctx, d)):
        val = Fraction((p - 1) * 2 ** d, p ** (n + 1))
        rows.append(HeuristicRow(deg, val, round_half_up(val)))
    return HeuristicReport("TS-lambda", {"p": p, "d": d, "D": ctx.q}, rows)


@dataclass(frozen=True)
class MinDegreePrediction:
    global_min: int
    ts_model_a: int  # closed-form floor (N'(d)-free, section-6.3 style)
    ts_model_b: int  # lambda >= 1/2 threshold on the TS expected counts
    per_family: dict[int, int]


def _max_n(bound_num: int, base: int, limit: int) -> int:
    """Largest n in [0, limit] with base^n <= bound_num (exact integers)."""
    n = 0
    v = base
    while n < limit and v <= bound_num:
        n += 1
        v *= base
    return n


def predicted_min_degree(ctx: FieldCtx) -> MinDegreePrediction:
    """Heuristic minimal degrees: global over families, and two TS figures.

    Model A: r - (q-1)/2 - q * floor((2^{s-1}-s+1)/log2 p), evaluated by
    exact comparison p^n <= 2^(2^{s-1}-s+1).  Model B: the deepest n with
    (1-1/p) 2^(2^{s-1}) / p^n >= 1/2.  The two genuinely disagree for
    some primes (e.g. p = 97: 44 vs 41); both are reported.
    """
    p, r, s = ctx.p, ctx.r, ctx.s
    if s < 2:
        raise LevelOutOfRange("needs s >= 2")
    d_ts = block_count(ctx)
    ladder = family_admissible_degrees(ctx, d_ts)  # the TS degrees, descending

    ts_a = ladder[_max_n(2 ** (d_ts - s + 1), p, len(ladder) - 1)]
    # lambda_n >= 1/2  <=>  2 (p-1) 2^d >= p^(n+1)  <=>  p^n <= 2 (p-1) 2^d // p
    ts_b = ladder[_max_n(2 * (p - 1) * 2 ** d_ts // p, p, len(ladder) - 1)]

    per_family: dict[int, int] = {}
    for d in family_orders(r):
        # floor((d - log2 d)/log2 p): largest n with d * p^n <= 2^d
        per_family[d] = family_admissible_degrees(ctx, d)[_max_n(2 ** d // d, p, d - 1)]
    return MinDegreePrediction(global_min=min(per_family.values()),
                               ts_model_a=ts_a, ts_model_b=ts_b,
                               per_family=per_family)
