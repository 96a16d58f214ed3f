"""Sign vectors in {+-1}^d, the flip-shift symmetry, and family sizes."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import LengthMismatch, RangeOutOfBounds, SqrtPolyError


@dataclass(frozen=True)
class SignVector:
    """Bit-packed: bit n set <=> eps_n = -1, so all-plus is the zero word."""
    bits: int
    d: int

    def __post_init__(self):
        if not (self.d >= 1 and 0 <= self.bits < (1 << self.d)):
            raise RangeOutOfBounds(f"need d >= 1 and 0 <= bits < 2^d, got "
                                   f"d = {self.d}, bits = {self.bits}")

    def sign(self, n: int) -> int:
        return -1 if (self.bits >> n) & 1 else 1

    def sign_array(self) -> np.ndarray:
        """[eps_0, ..., eps_{d-1}] as int64, read off the bytes of the word at once."""
        raw = np.frombuffer(self.bits.to_bytes((self.d + 7) // 8, "little"), np.uint8)
        minus = np.unpackbits(raw, count=self.d, bitorder="little")
        return 1 - 2 * minus.astype(np.int64)

    def signs(self) -> list[int]:
        """[eps_0, ..., eps_{d-1}]."""
        return self.sign_array().tolist()

    def __neg__(self) -> "SignVector":
        return SignVector(self.bits ^ ((1 << self.d) - 1), self.d)

    def render(self) -> str:
        return "(" + ",".join("-" if s < 0 else "+" for s in self.signs()) + ")"

    def __repr__(self):
        return f"SignVector{self.render()}"


def from_signs(seq) -> SignVector:
    bits = 0
    for n, s in enumerate(seq):
        if s == -1:
            bits |= 1 << n
        elif s != 1:
            raise LengthMismatch(f"entry {s} is not +-1")
    return SignVector(bits, len(seq))


def flip_shift(eps: SignVector, n: int = 1) -> SignVector:
    """sigma^n by the closed formula: result_i = (-1)^floor((i+n)/d) * eps_{(i+n) mod d}."""
    d = eps.d
    mask = (1 << d) - 1
    n %= 2 * d
    bits = eps.bits
    if n >= d:
        bits ^= mask  # sigma^d = negation
        n -= d
    if n:
        low = bits >> n                      # i < d-n: take eps_{i+n} as is
        high = (~bits & ((1 << n) - 1)) << (d - n)  # wraparound gets negated
        bits = (low | high) & mask
    return SignVector(bits, d)


@dataclass(frozen=True)
class OrbitStats:
    order: int
    alt_order: int
    orbit_size: int


def orbit_stats(eps: SignVector) -> OrbitStats:
    """Least n with sigma^n(eps) = eps, and the alternating order o/2."""
    d = eps.d
    cur = eps
    for n in range(1, 2 * d + 1):
        cur = flip_shift(cur, 1)
        if cur.bits == eps.bits:
            if n % 2:
                raise SqrtPolyError(f"sigma^{n} fixes {eps}, an odd order")
            return OrbitStats(order=n, alt_order=n // 2, orbit_size=n)
    raise AssertionError("sigma^(2d) must fix eps")  # pragma: no cover


def alternating_order_structural(eps: SignVector) -> int:
    """Least divisor d0 of d with d/d0 odd and eps_{d0*x+y} = (-1)^x * eps_y."""
    d = eps.d
    mask0 = None
    for d0 in sorted(_divisors(d)):
        if (d // d0) % 2 == 0:
            continue
        mask0 = (1 << d0) - 1
        block0 = eps.bits & mask0
        ok = True
        for x in range(1, d // d0):
            blk = (eps.bits >> (d0 * x)) & mask0
            want = block0 if x % 2 == 0 else block0 ^ mask0
            if blk != want:
                ok = False
                break
        if ok:
            return d0
    raise AssertionError("d0 = d always satisfies the identity")  # pragma: no cover


def _divisors(n: int) -> list[int]:
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return out


@lru_cache(maxsize=None)
def family_size(d: int) -> int:
    """N(d): number of sign vectors of alternating order exactly d.

    Recursion N(d) = 2^d - sum over proper divisors.  Note this is a
    different quantity from the 2^d block-sign choices of a d-block
    family; see ts.block_choice_count for that one.
    """
    if d < 1:
        raise RangeOutOfBounds(f"family size needs d >= 1, got d = {d}")
    return (1 << d) - sum(family_size(ell) for ell in _divisors(d) if ell < d)


def family_size_reduced(d: int) -> Fraction:
    """N'(d) = N(d)/(2d), the per-orbit count, as an exact rational."""
    return Fraction(family_size(d), 2 * d)
