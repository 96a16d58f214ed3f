"""The meet-in-the-middle join shared by the census, the vanishing counts
and the minimal-degree search (Horowitz-Sahni).

Each of them asks how many pairs (a row of A, a row of B) agree on their
top j columns.  join_sort sorts the rows of both tables together, top
column first, and gives the common-prefix length of each adjacent pair
of sorted rows: packed_keys packs the rows into uint64 keys and
sort_keys sorts those.  A table is a 2-d array of rows, or a pair
(P, Q) of half tables whose row u * len(Q) + v is P[u] + Q[v] mod p;
a pair's keys are packed column by column from broadcast sums, so its
rows are never built.  scan_runs cuts the sorted rows into runs that
agree on their top j columns and counts each run's rows from A and from
B; a run of na rows of A and nb rows of B holds na * nb agreeing pairs.

The censuses and the vanishing counts sum signed weights: sign_table
gives sum_n eps_n weights[n] mod p for every sign word, and it is the
one place that turns sign words into signs.  With half_tables A and B
of the low and the high signs, a vector's row is A + B mod p, and its
top j entries vanish exactly when its A and -B rows agree on them.
range_hist counts the degrees of A + B over a range of Gray indices by
join_hist; its hist[0] counts the rows that vanish outright.  run_pairs
lists the agreeing pairs themselves, and shard_range is the one rule
that cuts Gray indices into shards.
"""

from __future__ import annotations

import numpy as np

from . import _modmat
from .errors import RangeOutOfBounds, SqrtPolyError

_BLOCK_ROWS = 1 << 16  # rows of a table packed at a time: 512 KB of keys


def _digits(p: int) -> tuple[int, int]:
    """(bits, per): bits of a value in [0, p), values per uint64 key."""
    bits = (p - 1).bit_length()
    return bits, 64 // bits


def key_count(cols: int, p: int) -> int:
    """Number of uint64 keys a row of cols values in [0, p) packs into."""
    return -(-cols // _digits(p)[1])


def _height(table) -> int:
    """Rows of a table: a 2-d array, or a pair (P, Q) of len(P) * len(Q) rows."""
    if isinstance(table, tuple):
        return len(table[0]) * len(table[1])
    return len(table)


def _width(table) -> int:
    """Columns of a table's rows."""
    return (table[0] if isinstance(table, tuple) else table).shape[1]


def _sum_mod(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """(x + y) mod p for x, y in [0, p), in the narrowest unsigned dtype of 2(p - 1).

    The sum is reduced by one conditional subtract, not a division.
    """
    s = np.add(x, y, dtype=np.min_scalar_type(2 * (p - 1)))
    np.minimum(s, s - s.dtype.type(p), out=s)  # s - p wraps round when s < p
    return s


def _column(table, j: int, p: int) -> np.ndarray:
    """Column j of a table's rows, as packed_keys reads them."""
    if not isinstance(table, tuple):
        return table[:, j].astype(np.uint64)
    hi, lo = table
    return _sum_mod(hi[:, j, None], lo[None, :, j], p).ravel()


def pair_rows(pair: tuple, rows: np.ndarray, p: int) -> np.ndarray:
    """Rows u * len(Q) + v of a pair (P, Q), as (P[u] + Q[v]) mod p in P's dtype."""
    hi, lo = pair
    u, v = np.divmod(np.asarray(rows, dtype=np.int64), len(lo))
    return _sum_mod(hi[u], lo[v], p).astype(hi.dtype, copy=False)


def _blocks(table) -> list:
    """The table cut into sub-tables of about _BLOCK_ROWS rows, in row order."""
    if isinstance(table, tuple):
        hi, lo = table
        step = max(1, _BLOCK_ROWS // len(lo))
        return [(hi[u:u + step], lo) for u in range(0, len(hi), step)]
    return [table[r:r + _BLOCK_ROWS] for r in range(0, len(table), _BLOCK_ROWS)]


def packed_keys(a, b, p: int) -> list[np.ndarray]:
    """The rows of a, then of b, packed into uint64 keys, top column first.

    a and b are tables: 2-d arrays of rows, or pairs (P, Q) whose row
    u * len(Q) + v is P[u] + Q[v] mod p.  Each key holds `per` columns of
    `bits` bits, a higher column in higher bits, so comparing the keys in
    turn compares the rows column by column from the top.  The keys are
    stacked; the rows are not, and a pair's rows are never built.  Keys
    are packed a block of rows at a time, so the block stays in cache
    while its columns are shifted in.
    """
    bits, per = _digits(p)
    shift, blocks = np.uint64(bits), _blocks(a) + _blocks(b)
    keys = []
    for hi in range(_width(a), 0, -per):
        key = np.zeros(_height(a) + _height(b), dtype=np.uint64)
        at = 0
        for block in blocks:
            part = key[at:at + _height(block)]
            at += len(part)
            for j in range(hi - 1, max(hi - per, 0) - 1, -1):
                part <<= shift
                part |= _column(block, j, p)
        keys.append(key)
    return keys


def _zero_top_digits(x: np.ndarray, digits: int, bits: int) -> np.ndarray:
    """How many top digits (of `bits` bits, `digits` in all) of each x are 0."""
    n = np.zeros(len(x), dtype=np.uint8)
    for t in range(digits - 1, -1, -1):
        below = x < np.uint64(1 << (bits * t))
        if not below.any():
            break
        n += below
    return n


def join_sort(a, b, p: int):
    """Sort the rows of tables a and b together, top column first.

    a and b are tables as packed_keys takes them, with values in [0, p)
    and the same number of columns.  Returns sort_keys' (order, src, lcp)
    for their packed keys.
    """
    return sort_keys(packed_keys(a, b, p), _height(a), _width(a), p)


def sort_keys(keys: list[np.ndarray], na: int, cols: int, p: int):
    """Sort rows of cols columns by their packed keys, as packed_keys gives them.

    The first na rows are table a's, the rest table b's.  Returns
    (order, src, lcp): sorted row t is row order[t] of a stacked over b,
    src[t] is its table (0 for a, 1 for b), and lcp[t] is how many top
    columns sorted rows t and t+1 share.  Equal rows keep a before b and
    their own order, as in a stable sort.  The first key alone seldom
    ties, so rows are sorted on it, and only rows that tie on it are
    sorted again on all keys and their index; likewise only pairs that
    tie on the keys so far compare the next key.
    """
    bits, per = _digits(p)
    order = np.argsort(keys[0])
    top = keys[0][order]
    tied = np.flatnonzero(top[1:] == top[:-1])
    if len(tied):
        in_tie = np.zeros(len(order), dtype=bool)
        in_tie[tied] = in_tie[tied + 1] = True
        at = np.flatnonzero(in_tie)  # np.union1d would import numpy.ma
        sub = order[at]
        order[at] = sub[np.lexsort([sub] + [k[sub] for k in keys[::-1]])]
    lcp = _zero_top_digits(top[1:] ^ top[:-1], min(per, cols), bits)
    del top
    for i, key in enumerate(keys[1:], 1):
        if not len(tied):
            break
        x = key[order[tied + 1]] ^ key[order[tied]]
        lcp[tied] += _zero_top_digits(x, min(per, cols - i * per), bits)
        tied = tied[x == 0]
    src = (order >= na).astype(np.int8)
    return order, src, lcp


def scan_runs(lcp: np.ndarray, src: np.ndarray, length: int):
    """Runs of join_sort's rows whose top `length` columns agree.

    A run is a maximal chain of links lcp >= length, so it holds at least
    two rows; a row in no run pairs with nothing.  Returns
    (starts, b_first, na, nb): run t begins at sorted row starts[t],
    b_first[t] rows of b come before it, and it holds na[t] rows of a
    and nb[t] rows of b.
    """
    link = np.flatnonzero(lcp >= length)
    starts = link[np.diff(link, prepend=-2) != 1]
    ends = link[np.diff(link, append=len(lcp) + 1) != 1] + 2
    b_before = np.concatenate([[0], np.cumsum(src, dtype=np.int64)])
    b_first = b_before[starts]
    nb = b_before[ends] - b_first
    return starts, b_first, ends - starts - nb, nb


def run_pairs(order: np.ndarray, src: np.ndarray, runs: tuple,
              want: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Rows (of a, of b) of the first `want` agreeing pairs; all if None.

    runs is scan_runs' result for join_sort's order and src.  Runs come
    in order, and a run pairs each of its a rows, in order, with each of
    its b rows, in order: pair t of a run of nb b rows is (t // nb, t % nb).
    Only the sorted rows of the runs that hold the pairs are read.
    """
    starts, _, na, nb = runs
    upto = np.cumsum(na * nb)  # pairs in the runs up to each run
    total = int(upto[-1]) if len(upto) else 0
    t = np.arange(total if want is None else min(want, total), dtype=np.int64)
    g = np.searchsorted(upto, t, side="right")  # the run of each pair
    t -= upto[g] - na[g] * nb[g]
    new = np.diff(g, prepend=-1) != 0  # g ascends; np.unique would import numpy.ma
    used = g[new]
    k = np.cumsum(new) - 1  # the place of each pair's run among the used
    size = na[used] + nb[used]
    at = np.repeat(starts[used] - (np.cumsum(size) - size), size) + np.arange(size.sum())
    rows, in_b = order[at], src[at] == 1
    a_first = np.cumsum(na[used]) - na[used]
    b_first = np.cumsum(nb[used]) - nb[used]
    n_a = len(src) - np.count_nonzero(src)
    return (rows[~in_b][a_first[k] + t // nb[g]],
            rows[in_b][b_first[k] + t % nb[g]] - n_a)


def sign_table(weights: np.ndarray, p: int) -> np.ndarray:
    """sum_n eps_n weights[n] mod p for every word of len(weights) bits.

    Bit n of a word set means eps_n = -1, so row w of the result is the
    signed sum for word w.  The signs enter as +-1, so no partial sum
    exceeds len(weights) * (p - 1) in size, and matmul_mod keeps it exact
    at any p < 2^63.
    """
    bits = np.arange(len(weights), dtype=np.int64)
    words = np.arange(1 << len(weights), dtype=np.int64)
    return _modmat.matmul_mod(1 - 2 * ((words[:, None] >> bits) & 1), weights, p)


def half_tables(weights: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, int]:
    """sign_table of the low and the high signs of weights, and the split.

    With d = len(weights) and b = d // 2, bit n of a low word w is the
    sign at n < b and bit n of a high word the sign at b + n; A[w] and
    B[w] hold the sum over their half, so a vector's row is
    A[low word] + B[high word] mod p.
    """
    half = len(weights) // 2
    return sign_table(weights[:half], p), sign_table(weights[half:], p), half


def shard_range(bits: int, index: int, count: int) -> tuple[int, int]:
    """Shard index of count of the 2^bits Gray indices, as [lo, hi).

    The shards of 0..count-1 cover every index once, in order.
    """
    if not 0 <= index < count:
        raise RangeOutOfBounds(f"shard {index}/{count}: need 0 <= i < N")
    total = 1 << bits
    return total * index // count, total * (index + 1) // count


def degree_hist(c: np.ndarray) -> np.ndarray:
    """hist[k+1] = number of rows of degree k; hist[0] counts zero rows."""
    cols = c.shape[1]
    nz = c != 0
    deg = np.where(nz.any(axis=1), cols - 1 - nz[:, ::-1].argmax(axis=1), -1)
    return np.bincount(deg + 1, minlength=cols + 1)


def join_hist(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Degree histogram of all sums a[i] + b[j] mod p, as degree_hist.

    A run of the rows of a and -b sorted together whose top j columns
    agree pairs each a row with each -b row into a sum whose top j
    coefficients vanish, so Z_j = sum over runs of #a * #b, and degree
    cols-1-j occurs Z_j - Z_{j+1} times.
    """
    cols = a.shape[1]
    _, src, lcp = join_sort(a, (-b) % p, p)
    z = np.empty(cols + 1, dtype=np.int64)
    for j in range(cols + 1):
        _, _, na, nb = scan_runs(lcp, src, j)
        z[j] = na @ nb
    hist = np.empty(cols + 1, dtype=np.int64)
    hist[0] = z[cols]
    hist[1:] = (z[:-1] - z[1:])[::-1]
    return hist


def range_hist(tables: tuple, p: int, lo: int, hi: int) -> np.ndarray:
    """Degree histogram of A + B over the Gray indices [lo, hi), as join_hist.

    The high bits of gray(i) are gray(i >> b), so the full row h of 2^b
    indices is every low word paired with the high word gray(h): full
    rows join against the whole A table.  The partial rows at unaligned
    ends are summed and read directly.  The histogram must count exactly
    hi - lo rows, or SqrtPolyError is raised.
    """
    a, b, half = tables
    width = 1 << half
    first, last = -(-lo // width), hi // width
    hist = np.zeros(a.shape[1] + 1, dtype=np.int64)
    ends = [(lo, hi)]
    if first < last:
        rows = np.arange(first, last, dtype=np.int64)
        hist += join_hist(a, b[rows ^ (rows >> 1)], p)
        ends = [(lo, first * width), (last * width, hi)]
    for x, y in ends:
        if x < y:
            idx = np.arange(x, y, dtype=np.int64)
            word = idx ^ (idx >> 1)
            hist += degree_hist((a[word & (width - 1)] + b[word >> half]) % p)
    if hist.sum() != hi - lo:
        raise SqrtPolyError(f"census of [{lo}, {hi}) counted {hist.sum()} vectors")
    return hist
