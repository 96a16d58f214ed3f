"""Prime-field context: the factorization p - 1 = 2^s * q and canonical roots.

Everything downstream (polynomial families, Fourier inversion, censuses)
is phrased relative to one generator gamma of F_p^x.  We always pick the
least primitive root, so identical p gives an identical context and all
golden values are reproducible.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

from .errors import EvenInput, NotAResidue, NotPrime, OrderDoesNotDivide, TooLarge

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3e24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
GAMMA_TABLE_CAP = 28  # the gamma^j table holds at most 2^28 int64 entries (2 GiB)


# is_prime and the root search run once per prime and process: every
# context of p, and one is made per job, reuses them
@lru_cache(maxsize=1024)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for b in _MR_BASES:
        if n == b:
            return True
        if n % b == 0:
            return False
    d = n - 1
    t = 0
    while d % 2 == 0:
        d //= 2
        t += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(t - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Prime factors of n >= 1 in ascending order, with multiplicity.

    Trial division; n < 2^31 here, so this is instant.
    """
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=1024)
def _least_primitive_root(p: int) -> int:
    ells = set(prime_factors(p - 1))
    g = 2
    while True:
        if all(pow(g, (p - 1) // ell, p) != 1 for ell in ells):
            return g
        g += 1


def _gamma_table(p: int, gamma: int):
    """gamma^j mod p for 0 <= j < p-1, by doubling: out[n:2n] = out[:n] * gamma^n
    mod p, exact in int64 while p^2 < 2^63."""
    import numpy as np

    out = np.empty(p - 1, dtype=np.int64)
    out[0] = 1
    n = 1
    while n < p - 1:
        k = min(n, p - 1 - n)
        out[n:n + k] = out[:k] * pow(gamma, n, p) % p
        n += k
    return out


class FieldCtx:
    """All fixed-per-prime data; immutable after construction."""

    def __init__(self, p: int):
        if p % 2 == 0:
            raise EvenInput(f"p = {p} is even")
        if p < 3 or not is_prime(p):
            raise NotPrime(f"p = {p} is not an odd prime")
        self.p = p
        s, q = 0, p - 1
        while q % 2 == 0:
            q //= 2
            s += 1
        self.s = s
        self.q = q
        self.r = (p - 1) // 2
        self.gamma = _least_primitive_root(p)
        # primitive 2r-th root (= gamma), r-th root, and 2^{s-1}-th root
        self.zeta2r = self.gamma
        self.zetaR = self.gamma * self.gamma % p
        self.zetaTS = pow(self.gamma, 2 * q, p) if s >= 2 else None

    def __repr__(self):
        return (f"FieldCtx(p={self.p}, s={self.s}, q={self.q}, r={self.r}, "
                f"gamma={self.gamma})")

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and other.p == self.p

    def __hash__(self):
        return hash(("FieldCtx", self.p))

    def inv(self, a: int) -> int:
        return pow(a, -1, self.p)

    def check_gamma_table(self):
        """Refuse, with TooLarge, a gamma^j table of over 2^GAMMA_TABLE_CAP entries.

        Every r-entry list or table at p needs that table, so a caller
        that builds one asks this first.  Under the cap p^2 < 2^57, and
        products of two entries are exact in int64.
        """
        if self.p - 1 > 1 << GAMMA_TABLE_CAP:
            raise TooLarge(f"gamma^j table for p={self.p}: {self.p - 1} entries "
                           f"exceed the cap 2^{GAMMA_TABLE_CAP}")

    @cached_property
    def gamma_powers(self):
        """Read-only numpy table gamma^j for 0 <= j < p-1 (lazy; used by vectorized paths).

        One table serves every context of p: _modmat._TABLES keeps it with
        the power tables.  check_gamma_table refuses a p past the cap
        before anything is allocated.
        """
        from ._modmat import _TABLES

        p = self.p
        self.check_gamma_table()
        return _TABLES.keep((p, "gamma"), lambda: _gamma_table(p, self.gamma))

    @cached_property
    def _baby_steps(self) -> tuple[int, dict[int, int]]:
        """(m, {gamma^j: j for j < m}), m = ceil(sqrt(p - 1)), for dlog."""
        m = math.isqrt(self.p - 2) + 1
        baby = {}
        v = 1
        for j in range(m):
            baby.setdefault(v, j)
            v = v * self.gamma % self.p
        return m, baby

    def dlog(self, a: int) -> int:
        """n with gamma^n = a, by baby-step giant-step."""
        a %= self.p
        if a == 0:
            raise NotAResidue("0 has no discrete log")
        m, baby = self._baby_steps
        giant = pow(self.inv(self.gamma), m, self.p)
        cur = a
        for i in range(m + 1):
            if cur in baby:
                return (i * m + baby[cur]) % (self.p - 1)
            cur = cur * giant % self.p
        raise NotAResidue(f"no discrete log for {a}")  # pragma: no cover


def make_field_ctx(p: int) -> FieldCtx:
    return FieldCtx(p)


def legendre(a: int, ctx: FieldCtx) -> int:
    """Euler's criterion a^((p-1)/2), mapped to {-1, 0, +1}."""
    v = pow(a % ctx.p, ctx.r, ctx.p)
    if v == 0:
        return 0
    return 1 if v == 1 else -1


def root_of_unity(ctx: FieldCtx, m: int) -> int:
    """The canonical primitive m-th root gamma^((p-1)/m)."""
    if m <= 0 or (ctx.p - 1) % m != 0:
        raise OrderDoesNotDivide(f"m = {m} does not divide p-1 = {ctx.p - 1}")
    return pow(ctx.gamma, (ctx.p - 1) // m, ctx.p)


def canonical_sqrt(ctx: FieldCtx, a: int) -> int:
    """The branch sqrt(gamma^(2n)) := gamma^n with 0 <= n < r."""
    if legendre(a, ctx) != 1:
        raise NotAResidue(f"{a} is not a quadratic residue mod {ctx.p}")
    n = ctx.dlog(a)
    if n % 2:
        raise NotAResidue(f"{a} = gamma^{n} has an odd discrete log mod {ctx.p}")
    return pow(ctx.gamma, (n // 2) % ctx.r, ctx.p)
