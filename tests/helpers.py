"""Independent little oracles used to cross-check the library.

Everything here is deliberately naive (Lagrange interpolation, direct
sums, Gray-code walks, dense sign matrices, per-point Horner checks) so
that agreement with the fast paths actually means something.
"""


def lagrange_interpolate(p, points):
    """Coefficients of the unique poly through (x_i, y_i), naive O(n^3)."""
    n = len(points)
    coeffs = [0] * n
    for i, (xi, yi) in enumerate(points):
        # basis poly prod_{j != i} (x - x_j) / (x_i - x_j)
        basis = [1]
        denom = 1
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            new = [0] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k] = (new[k] - c * xj) % p
                new[k + 1] = (new[k + 1] + c) % p
            basis = new
            denom = denom * (xi - xj) % p
        scale = yi * pow(denom, -1, p) % p
        for k, c in enumerate(basis):
            coeffs[k] = (coeffs[k] + scale * c) % p
    return coeffs


def scalar_mul(c, a):
    """The polynomial c * a, coefficient by coefficient."""
    from sqrtpoly.poly import Poly

    p = a.ctx.p
    c %= p
    return Poly(a.ctx, [c * x % p for x in a.coeffs])


def mul_cyclic(a, b):
    """Schoolbook product with exponents reduced mod r.  O(r^2) on purpose."""
    from sqrtpoly.poly import Poly, _same_ctx

    _same_ctx(a, b)
    p, r = a.ctx.p, a.ctx.r
    out = [0] * r
    for i, x in enumerate(a.coeffs):
        if not x:
            continue
        for j, y in enumerate(b.coeffs):
            if y:
                k = i + j
                if k >= r:
                    k -= r
                out[k] = (out[k] + x * y) % p
    return Poly(a.ctx, out)


def naive_half_sum(p, zeta, ell, signs):
    """sum_n eps_n zeta^(n*ell) mod p by direct powering."""
    return sum(s * pow(zeta, (n * ell) % (p - 1), p)
               for n, s in enumerate(signs)) % p


def naive_flip_shift(signs, n):
    """sigma^n by the index formula, as a plain list of +-1."""
    d = len(signs)
    out = []
    for i in range(d):
        j = i + n
        sgn = -1 if (j // d) % 2 else 1
        out.append(sgn * signs[j % d])
    return out


def shift_members(ctx, members, i):
    """Every row of members shifted to block i, f |-> gamma^i f(gamma^(-2i) x)."""
    import numpy as np

    from sqrtpoly.ts import shift_scales

    scales = shift_scales(ctx, i, members.shape[1])
    return (members.astype(np.int64) * scales % ctx.p).astype(members.dtype)


def block_constant(ctx, k):
    """tau^(-k) for block k, tau = gamma^q, the branch zeta^(1/2), by pow."""
    p = ctx.p
    return pow(ctx.gamma, -ctx.q * k % (p - 1), p)


def block_minimal_poly(ctx, k):
    """zeta^{-k/2} x^{(q+1)/2} on S_k, with the branch zeta^{1/2} := gamma^q."""
    from sqrtpoly import poly, ts
    from sqrtpoly.errors import BlockOutOfRange

    d = ts.block_count(ctx)
    if not (0 <= k < d):
        raise BlockOutOfRange(f"block {k} not in [0, {d})")
    return poly.monomial(ctx, block_constant(ctx, k), (ctx.q + 1) // 2)


def block_part(ctx, k, sign):
    """sign * block_minimal_poly(ctx, k) reduced mod x^q - zeta^k, for glue_crt.

    x^e = zeta^(k (e // q)) x^(e mod q) there; only q = 1 reduces.
    """
    from sqrtpoly import poly

    p, q = ctx.p, ctx.q
    e = (q + 1) // 2
    c = sign * block_constant(ctx, k) * pow(ctx.zetaTS, k * (e // q), p)
    return poly.monomial(ctx, c, e % q)


def shift_family(ctx, f0, i):
    """The block bijection f |-> gamma^i * f(gamma^(-2i) x), on one polynomial.

    Maps square-root polynomials on S_0^k to ones on S_i^k, uniformly
    across levels (tau = gamma^2, tau^(1/2) = gamma).
    """
    from sqrtpoly.poly import Poly

    return Poly(ctx, [c * pow(ctx.gamma, (i - 2 * i * j) % (ctx.p - 1), ctx.p) % ctx.p
                      for j, c in enumerate(f0.coeffs)])


def glue_all(ctx, a, b, k, i=0):
    """All |a| x |b| gluings of level-k families into level k+1, row by row."""
    import numpy as np

    p, dtype = ctx.p, a.dtype
    alpha = pow(ctx.zetaTS, ((1 << k) * i) % (1 << (ctx.s - 1)), p)
    c = pow(2 * alpha % p, -1, p)
    a = a.astype(np.int64)[:, None, :]
    b = b.astype(np.int64)[None, :, :]
    lo = (a * (alpha * c) + b * (alpha * c)) % p
    hi = (a * c - b * c) % p
    return np.concatenate([lo, hi], axis=2).reshape(-1, 2 * lo.shape[2]).astype(dtype)


def naive_glue_crt(ctx, parts):
    """glue_crt's coefficient list by a size-2^(s-1) inverse DFT per column.

    Coefficient j + t q is (1/d) sum_k c_{k,j} zeta^(-kt), every power by
    a running product.
    """
    p, q = ctx.p, ctx.q
    d = 1 << (ctx.s - 1)
    zeta_inv = pow(ctx.zetaTS, -1, p)
    inv_d = pow(d, -1, p)
    out = [0] * ctx.r
    for j in range(q):
        col = [f.coeffs[j] for f in parts]
        w = 1  # zeta^(-t)
        for t in range(d):
            b = 0
            wk = 1  # zeta^(-kt)
            for k in range(d):
                b += col[k] * wk
                wk = wk * w % p
            out[j + t * q] = b % p * inv_d % p
            w = w * zeta_inv % p
    return out


def as_pair(rows, p):
    """rows as the pair (rows, one zero row) that _kernels joins.

    Row u of the pair is rows[u] + 0, in the narrowest dtype of p - 1.
    """
    import numpy as np

    rows = np.asarray(rows).astype(np.min_scalar_type(p - 1))
    return rows, np.zeros((1, rows.shape[1]), dtype=rows.dtype)


def subgroup_weights(ctx, d):
    """w[n, k] = zeta_d^(n(m-k)) / d mod p with m = (d+1)/2, for n, k < d, by pow.

    c_k = sum_n eps_n w[n, k] are the coefficients of
    fourier.subgroup_coeffs, which take the canonical half root
    a^((d+1)/2) on mu_d, d odd.
    """
    import numpy as np

    p = ctx.p
    zd, inv_d, m = pow(ctx.gamma, (p - 1) // d, p), pow(d, -1, p), (d + 1) // 2
    return np.array([[pow(zd, n * (m - k) % d, p) * inv_d % p for k in range(d)]
                     for n in range(d)], dtype=np.int64)


def oracle_level_members(ctx, k):
    """F_0^k built in full: the dense sign table of mu_q, then glue upward.

    Level k + 1 glues every member of level k with every member of its
    partner, level k shifted by 2^(s-2-k) blocks.  Its members are
    search.build_level's in another order.
    """
    from sqrtpoly import _kernels

    members = _kernels.sign_table(subgroup_weights(ctx, ctx.q), ctx.p)
    members = members.astype("uint8")
    for j in range(k):
        partner = shift_members(ctx, members, 1 << (ctx.s - 2 - j))
        members = glue_all(ctx, members, partner, j)
    return members


def oracle_families(ctx):
    """The two top families of the search, F_0^(s-2) and its shift to block 1."""
    fam_a = oracle_level_members(ctx, ctx.s - 2)
    return fam_a, shift_members(ctx, fam_a, 1)


def naive_minimal_search(ctx, keep_representatives=16, pair_cap=10 ** 6):
    """minimal_search with a per-column lexsort and a Python loop per group.

    The families are the oracle's, built in full.  Returns (prefix_length,
    minimizer_count, representative coefficient lists), in the order
    minimal_search reports them.
    """
    import numpy as np

    from sqrtpoly import poly

    m = (ctx.p - 1) // 4
    k = ctx.s - 2
    fam_a, fam_b = oracle_families(ctx)
    rows = np.vstack([fam_a, fam_b]).astype(np.int64)
    src = np.concatenate([np.zeros(len(fam_a), dtype=np.int8),
                          np.ones(len(fam_b), dtype=np.int8)])
    order = np.lexsort(tuple(rows[:, j] for j in range(m)))
    rows, src = rows[order], src[order]
    eq_rev = (rows[:-1] == rows[1:])[:, ::-1]
    lcp = np.where(eq_rev.all(axis=1), m, (~eq_rev).argmax(axis=1))
    best = int(lcp[src[:-1] != src[1:]].max())
    breaks = np.flatnonzero(lcp < best)
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks + 1, [len(rows)]])
    minimizer_count = 0
    rep_pairs = []
    want = keep_representatives if keep_representatives is not None else pair_cap
    many = ends - starts > 1  # a group of one row pairs with nothing
    for s0, s1 in zip(starts[many], ends[many]):
        grp_src = src[s0:s1]
        a_rows = rows[s0:s1][grp_src == 0]
        b_rows = rows[s0:s1][grp_src == 1]
        n_pairs = len(a_rows) * len(b_rows)
        if n_pairs == 0:
            continue
        minimizer_count += n_pairs
        for ar in a_rows:
            for br in b_rows:
                if len(rep_pairs) < want:
                    rep_pairs.append((ar, br))
            if len(rep_pairs) >= want:
                break
    reps = []
    for ar, br in rep_pairs:
        f0 = poly.from_coeffs(ctx, [int(v) for v in ar])
        f1 = poly.from_coeffs(ctx, [int(v) for v in br])
        reps.append(poly.glue_pair(ctx, f0, f1, k, 0).coeffs)
    return best, minimizer_count, reps


def _gray_flip(i):
    """(n, to_minus): Gray index i - 1 -> i flips bit n, to -1 if it sets it."""
    n = (i & -i).bit_length() - 1
    return n, bool(((i ^ (i >> 1)) >> n) & 1)


def gray_walk_census(ctx, lo, hi):
    """Degree histogram over the Gray indices [lo, hi), one flip per step.

    hist[k+1] counts degree k and hist[0] the zero polynomial, as
    _kernels.range_hist gives it.  The coefficients are kept up to date
    from census._delta_table, and at the end they must equal a fresh DFT
    of the last vector, or the walk raises.
    """
    from sqrtpoly import census

    p, r = ctx.p, ctx.r
    delta = census._delta_table(ctx).tolist()
    c = census._seed_coeffs(ctx, lo ^ (lo >> 1)).tolist()
    hist = [0] * (r + 1)

    def tally():
        k = r - 1
        while k >= 0 and c[k] == 0:
            k -= 1
        hist[k + 1] += 1

    tally()
    for i in range(lo + 1, hi):
        n, to_minus = _gray_flip(i)
        sign = -1 if to_minus else 1
        c = [(ck + sign * dk) % p for ck, dk in zip(c, delta[n])]
        tally()
    last = hi - 1
    if c != census._seed_coeffs(ctx, last ^ (last >> 1)).tolist():
        raise AssertionError("incremental coefficient drift detected")
    return hist


def segment_prefix_counts(lcp, src, levels):
    """Z_j for j = 0..levels from join_sort's lcp and src, one scan a level.

    The links lcp < j cut the sorted rows into segments whose top j
    columns agree, and Z_j sums na * nb over them; at j = 0 every row is
    in one segment.  The segments are read off the cuts, independently of
    the library's runs.
    """
    import numpy as np

    upto = np.concatenate(([0], np.cumsum(src, dtype=np.int64)))
    z = np.empty(levels + 1, dtype=np.int64)
    for j in range(levels + 1):
        bounds = np.concatenate(([0], np.flatnonzero(lcp < j) + 1, [len(src)]))
        nb = upto[bounds[1:]] - upto[bounds[:-1]]
        z[j] = (np.diff(bounds) - nb) @ nb
    return z


def gray_walk_vanishing(ctx, d, ell, lo, hi, zeta=None):
    """#{Gray indices i in [lo, hi) : sum_n eps_n zeta^(n*ell) = 0}.

    zeta defaults to the canonical primitive 2d-th root; a set bit n of
    gray(i) means eps_n = -1.
    """
    from sqrtpoly.field import root_of_unity

    p = ctx.p
    if zeta is None:
        zeta = root_of_unity(ctx, 2 * d)
    w = [pow(zeta, n * ell % (2 * d), p) for n in range(d)]
    word = lo ^ (lo >> 1)
    h = sum(-wn if (word >> n) & 1 else wn for n, wn in enumerate(w)) % p
    count = int(h == 0)
    for i in range(lo + 1, hi):
        n, to_minus = _gray_flip(i)
        h = (h - 2 * w[n] if to_minus else h + 2 * w[n]) % p
        count += h == 0
    return count


def residue_dp_vanishing(ctx, d, ell):
    """#{eps in E_d : sum_n eps_n w^n = 0 mod p}, w = zeta^ell for the
    canonical primitive 2d-th root zeta, with no join.

    The count is the constant term of prod_n (x^(w^n) + x^(-w^n)) mod
    x^p - 1: a DP over the d signs whose state is the count of each
    residue, O(d p) big-integer additions.
    """
    import numpy as np

    from sqrtpoly.field import root_of_unity

    p = ctx.p
    w = pow(root_of_unity(ctx, 2 * d), ell % (2 * d), p)
    counts = np.zeros(p, dtype=object)
    counts[0] = 1
    a = 1
    for _ in range(d):
        counts = np.roll(counts, a) + np.roll(counts, -a)
        a = a * w % p
    return counts[0]


def _dense_sign_rows(d):
    """(words, +-1 sign rows) of all 2^d sign words, 2^16 words at a time."""
    import numpy as np

    bits = np.arange(d, dtype=np.int64)
    for lo in range(0, 1 << d, 1 << 16):
        words = np.arange(lo, min(lo + (1 << 16), 1 << d), dtype=np.int64)
        yield words, 1 - 2 * ((words[:, None] >> bits) & 1)


def dense_family_census(ctx, d):
    """{degree: count} over the 2^d members of the order-d family.

    Every block-sign word's d admissible coefficients, by one int64
    product per chunk of words; the degree is the first nonzero one.
    """
    import numpy as np

    from sqrtpoly import census

    p = ctx.p
    k_ts = census.family_admissible_degrees(ctx, d)  # descending
    ys = np.arange(d, dtype=np.int64)
    z = ctx.gamma_powers[ys[:, None] * (1 - 2 * np.array(k_ts)) % (p - 1)]
    counts = {}
    for _, signs in _dense_sign_rows(d):
        c = (signs @ z) % p
        nz = c != 0
        assert nz.any(axis=1).all(), "a member with no nonzero coefficient"
        for k in np.array(k_ts)[nz.argmax(axis=1)].tolist():
            counts[k] = counts.get(k, 0) + 1
    return counts


def dense_vanishing_words(ctx, ells):
    """Sorted sign words eps with sum_n eps_n gamma^(n ell) = 0 for every ell."""
    import numpy as np

    p, r = ctx.p, ctx.r
    ns = np.arange(r, dtype=np.int64)
    w = ctx.gamma_powers[ns[:, None] * (np.array(ells) % (p - 1)) % (p - 1)]
    out = []
    for words, signs in _dense_sign_rows(r):
        out += words[((signs @ w) % p == 0).all(axis=1)].tolist()
    return out


def naive_is_sqrt_poly(ctx, f):
    """f(a)^2 = a at every a = gamma^(2n), each point by Horner's rule."""
    p = ctx.p
    g2 = ctx.gamma * ctx.gamma % p
    a = 1
    for _ in range(ctx.r):
        v = 0
        for c in reversed(f.coeffs):
            v = (v * a + c) % p
        if v * v % p != a:
            return False
        a = a * g2 % p
    return True


def naive_subgroup_coeffs(ctx, d, signs):
    """c_k = (1/d) sum_n eps_n zeta_d^(n(m-k)), m = (d+1)/2, by a double loop."""
    p = ctx.p
    zd = pow(ctx.gamma, (p - 1) // d, p)
    inv_d = pow(d, -1, p)
    m = (d + 1) // 2
    out = []
    for k in range(d):
        w = pow(zd, (m - k) % d, p)
        acc = 0
        cur = 1  # zeta_d^(n(m-k))
        for s in signs:
            acc += s * cur
            cur = cur * w % p
        out.append(acc % p * inv_d % p)
    return out
