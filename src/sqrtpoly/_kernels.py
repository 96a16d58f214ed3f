"""The two-list join of Horowitz and Sahni, shared by the census, the
vanishing counts and the minimal-degree search.

Each of them asks how many pairs (a row of A, a row of B) agree on their
top j columns.  Every table is a pair (P, Q) whose row u * len(Q) + v is
P[u] + Q[v] mod p, a half list held as the sum of two quarter lists
(Schroeppel-Shamir), and no table of its rows is ever built.  join_sort
sorts the rows of both tables together, top column first, and gives the
common-prefix length of each adjacent pair of sorted rows.  It packs one
uint64 key per row, the row's top columns above its index, from
broadcast sums of P and Q, and sorts the keys by value: the sorted keys
give the order and the prefix lengths, and only the rows that tie on
all the key's columns are built, a few columns at a time, and sorted on
the rest.  _runs cuts the sorted rows into runs that agree on their top
j columns, from where the mask lcp >= j flips, and every run of the join
comes from it: the tie pass's, scan_runs' and prefix_counts'.  A run of
na rows of A and nb rows of B holds na * nb agreeing pairs; scan_runs
lists the runs at one j, and prefix_counts sums them at every j, Z_j,
from one cumsum of the rows' tables.

The censuses and the vanishing counts sum signed weights: sign_table
gives sum_n eps_n weights[n] mod p for every sign word, and it is the
one place that turns sign words into signs.  half_tables gives A, the
sign_pair of the low signs, and B, the sign_pair of the high signs'
negated weights, so a vector's row is A - B mod p, and its top j entries
vanish exactly when its A and B rows agree on them.  join_hist turns the
Z_j of a join into the degree histogram of the differences of its rows,
and range_hist counts the degrees of A - B over a range of Gray indices
by one join_hist per aligned block of indices, whose words are a
sub-pair of A against a sub-pair of B; its hist[0] counts the rows that
vanish outright.  run_pairs lists the agreeing pairs themselves, and
shard_range is the one rule that cuts Gray indices into shards.  No side
of a join holds over 2^JOIN_CAP rows: check_side is the one place that
refuses a larger one, asked with the rows of the side, and check_signs
asks it for the larger side of the half_tables of d signs.
"""

from __future__ import annotations

import time

import numpy as np

from . import _modmat
from .errors import RangeOutOfBounds, SqrtPolyError, TooLarge

_BLOCK_ROWS = 1 << 16  # rows of a table packed at a time: 512 KB of keys
JOIN_CAP = 26  # a side of a join holds at most 2^JOIN_CAP rows
_TIE_COLUMNS = 4  # columns the tie pass sorts on at a time


def _height(pair) -> int:
    """Rows of a pair (P, Q): len(P) * len(Q)."""
    return len(pair[0]) * len(pair[1])


def _sum_mod(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """(x + y) mod p for x, y in [0, p), in the narrowest unsigned dtype of 2(p - 1).

    The sum is reduced by one conditional subtract, not a division.
    """
    s = np.add(x, y, dtype=np.min_scalar_type(2 * (p - 1)))
    np.minimum(s, s - s.dtype.type(p), out=s)  # s - p wraps round when s < p
    return s


def pair_rows(pair: tuple, rows: np.ndarray, p: int) -> np.ndarray:
    """Rows u * len(Q) + v of a pair (P, Q), as (P[u] + Q[v]) mod p in P's dtype."""
    hi, lo = pair
    u, v = np.divmod(np.asarray(rows, dtype=np.int64), len(lo))
    return _sum_mod(hi[u], lo[v], p).astype(hi.dtype, copy=False)


def _sub_pair(pair, start: int, size: int) -> tuple:
    """Rows start..start + size - 1 of a pair, as a pair of views.

    size is a power of two and start a multiple of it, and len(Q) is a
    power of two, so the rows are whole rows of P against all of Q, or
    one row of P against a slice of Q.
    """
    hi, lo = pair
    u, v = divmod(start, len(lo))
    if size >= len(lo):
        return hi[u:u + size // len(lo)], lo
    return hi[u:u + 1], lo[v:v + size]


def _packed_key(a, b, p: int) -> tuple[np.ndarray, int, int]:
    """One uint64 per row of a, then of b: its top c columns above its index.

    Row t of the stack (a's rows, then b's) needs ibits bits for t, and
    its key holds t in its low ibits bits and, above them, as many top
    columns as fit, c of them, `bits` bits each and a higher column in
    higher bits.  Returns (key, c, ibits).  The pairs' rows are never
    built, and their top c columns are copied out as rows, so each is
    read contiguously.  The key is packed a block of about _BLOCK_ROWS
    rows at a time, so the block stays in cache while its columns are
    shifted in.
    """
    bits, cols = (p - 1).bit_length(), a[0].shape[1]
    ibits = (_height(a) + _height(b) - 1).bit_length()
    c = min(cols, (64 - ibits) // bits)
    key = np.zeros(_height(a) + _height(b), dtype=np.uint64)
    at = 0
    for pair in (a, b):
        hi, lo = (np.ascontiguousarray(t[:, cols - c:].T) for t in pair)
        step = max(1, _BLOCK_ROWS // len(pair[1]))
        for u in range(0, len(pair[0]), step):
            part = key[at:at + len(pair[0][u:u + step]) * len(pair[1])]
            for j in range(c - 1, -1, -1):
                part <<= np.uint64(bits)
                part |= _sum_mod(hi[j, u:u + step, None], lo[j, None, :], p).ravel()
            part <<= np.uint64(ibits)
            part |= np.arange(at, at + len(part), dtype=np.uint64)
            at += len(part)
    return key, c, ibits


def _zero_top_digits(x: np.ndarray, digits: int, bits: int) -> np.ndarray:
    """How many top digits (of `bits` bits, `digits` in all) of each x are 0."""
    n = np.zeros(len(x), dtype=np.uint8)
    for t in range(digits - 1, -1, -1):
        below = x < np.uint64(1 << (bits * t))
        if not below.any():
            break
        n += below
    return n


def _runs(lcp: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    """The runs of sorted rows at level j: the maximal chains of links lcp >= j.

    Link t joins sorted rows t and t + 1, and run k covers sorted rows
    starts[k] up to ends[k], exclusive, so it holds at least two rows.
    The runs begin and end where the mask lcp >= j flips, and the flips
    are found a block of _BLOCK_ROWS links at a time, so no mask of all
    of lcp is built.
    """
    edges, was = [np.zeros(0, dtype=np.intp)], False  # was: the mask before the block
    for at in range(0, len(lcp), _BLOCK_ROWS):
        mask = lcp[at:at + _BLOCK_ROWS] >= j
        if mask[0] != was:
            edges.append([at])
        edges.append(np.flatnonzero(mask[1:] != mask[:-1]) + (at + 1))
        was = mask[-1]
    if was:
        edges.append([len(lcp)])
    # the edges alternate: a run's first link, then the link after its last
    edges = np.concatenate(edges)
    return edges[0::2], edges[1::2] + 1


def _spans(starts: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The positions starts[k], ..., starts[k] + size[k] - 1 of every k in turn."""
    return np.repeat(starts - (np.cumsum(size) - size), size) + np.arange(size.sum())


def _break_ties(a, b, p: int, order: np.ndarray, lcp: np.ndarray,
                rest: int) -> np.ndarray:
    """Sort the runs of rows tied on their key columns by their `rest` others.

    order is sorted by key columns and then index, and lcp counts shared
    key columns, so the rows tied on all of them are the runs at the
    level of the key's columns.  The runs are sorted _TIE_COLUMNS columns
    at a time, top first: the next columns of their rows are built, each
    run is sorted again on them and then its index, its links' lcp are
    extended over them, and only the runs at the level of every column
    read so far go on to the columns below.  Returns the columns the
    first pass read.
    """
    na, cols_all = _height(a), a[0].shape[1]
    first = np.zeros((0, 0), dtype=np.uint8)
    while rest:
        starts, ends = _runs(lcp, cols_all - rest)
        if not len(starts):
            break
        cols = slice(max(rest - _TIE_COLUMNS, 0), rest)
        at = _spans(starts, ends - starts)
        run = np.repeat(np.arange(len(starts)), ends - starts)  # each row's tied run
        sub = order[at]
        in_a = sub < na
        rows = np.empty((len(sub), cols.stop - cols.start), np.result_type(*a, *b))
        rows[in_a] = pair_rows(tuple(t[:, cols] for t in a), sub[in_a], p)
        rows[~in_a] = pair_rows(tuple(t[:, cols] for t in b), sub[~in_a] - na, p)
        # a run's rows come in index order, and lexsort is stable; the run
        # goes in as 16-bit digits, which lexsort sorts by radix, not merging
        digits = range(0, int(run[-1]).bit_length() or 1, 16)
        perm = np.lexsort([*rows.T, *((run >> d).astype(np.uint16) for d in digits)])
        order[at] = sub[perm]
        # rows i and i + 1 read, of one run, are sorted rows at[i], at[i] + 1
        i = np.flatnonzero(run[1:] == run[:-1])
        eq = (rows[perm[i]] == rows[perm[i + 1]])[:, ::-1]
        lcp[at[i]] += np.logical_and.accumulate(eq, axis=1).sum(axis=1, dtype=np.uint8)
        rest = cols.start
        first = rows if not first.size else first
    return first


def join_sort(a, b, p: int, stats: dict | None = None):
    """Sort the rows of tables a and b together, top column first.

    a and b are pairs (P, Q) whose row u * len(Q) + v is P[u] + Q[v]
    mod p, with values in [0, p) and the same number of columns.
    Returns (order, src, lcp): sorted row t is row order[t] of a stacked
    over b, src[t] is its table (0 for a, 1 for b), and lcp[t] is how
    many top columns sorted rows t and t+1 share.  Equal rows keep a
    before b and their own order, as in a stable sort.

    Each row gets one uint64 key: as many top columns as fit above its
    stacked index (c of them, maybe none), so sorting the keys by value
    sorts the rows on those columns and then by index, and the index is
    read back from the sorted keys.  Only rows whose c top columns tie
    with a neighbour's are built, a few of their other columns at a time,
    and each such run is sorted again on them and its index.  When stats
    is a dict, join_sort puts in it the time the key was packed
    (`packed_at`, by time.perf_counter), c (`key_columns`), the rows
    read for ties (`tied_rows`) and the bytes of the arrays it built
    (`memory_bytes`; order is the key itself).
    """
    key, c, ibits = _packed_key(a, b, p)
    if stats is not None:
        stats["packed_at"] = time.perf_counter()
    key.sort()
    bits, rest = (p - 1).bit_length(), a[0].shape[1] - c  # rest: columns not in the key
    lcp = np.empty(max(len(key) - 1, 0), dtype=np.uint8)
    for at in range(0, len(lcp), _BLOCK_ROWS):
        # the key digits that links at..end - 1 share, a block at a time
        end = min(at + _BLOCK_ROWS, len(lcp))
        x = key[at + 1:end + 1] ^ key[at:end]
        x >>= np.uint64(ibits)
        lcp[at:end] = _zero_top_digits(x, c, bits)
    key &= np.uint64((1 << ibits) - 1)
    order = key.view(np.int64)
    rows = _break_ties(a, b, p, order, lcp, rest)
    src = (order >= _height(a)).astype(np.int8)
    if stats is not None:
        stats.update(key_columns=c, tied_rows=len(rows),
                     memory_bytes=sum(t.nbytes for t in (order, src, lcp, rows)))
    return order, src, lcp


def _b_upto(src: np.ndarray) -> np.ndarray:
    """upto[t]: the rows of b among sorted rows 0..t-1, for t = 0..len(src).

    It is summed a block of rows at a time: a cumsum that widens int8
    would first cast the whole of src to the wider dtype.
    """
    upto = np.zeros(len(src) + 1, dtype=np.int32 if len(src) < 1 << 31 else np.int64)
    for at in range(0, len(src), _BLOCK_ROWS):
        part = upto[at + 1:at + 1 + _BLOCK_ROWS]
        np.cumsum(src[at:at + _BLOCK_ROWS], dtype=upto.dtype, out=part)
        part += upto[at]
    return upto


def scan_runs(lcp: np.ndarray, src: np.ndarray, length: int):
    """Runs of join_sort's rows whose top `length` columns agree.

    A run is a maximal chain of links lcp >= length (_runs), so it holds
    at least two rows; a row in no run pairs with nothing.  Returns
    (starts, na, nb): run t begins at sorted row starts[t] and holds
    na[t] rows of a and nb[t] rows of b.  Only the rows of the runs are
    read for nb.
    """
    starts, ends = _runs(lcp, length)
    size = ends - starts
    nb = np.add.reduceat(src[_spans(starts, size)], np.cumsum(size) - size,
                         dtype=np.int64)
    return starts, size - nb, nb


def prefix_counts(lcp: np.ndarray, src: np.ndarray, levels: int) -> np.ndarray:
    """Z_j for j = 0..levels: the (a row, b row) pairs whose top j columns agree.

    lcp and src are join_sort's.  A run at level j (_runs) of na rows of
    a and nb rows of b holds na * nb agreeing pairs, and a row in no run
    pairs with nothing, so Z_0 = len(a) * len(b).  One cumsum of src
    gives every run's nb.  The levels above the first that no link
    reaches hold no pairs and are not read.
    """
    upto = _b_upto(src)
    z = np.zeros(levels + 1, dtype=np.int64)
    for j in range(levels + 1):
        starts, ends = _runs(lcp, j)
        if not len(starts):
            break
        nb = (upto[ends] - upto[starts]).astype(np.int64)
        z[j] = (ends - starts - nb) @ nb
    return z


def run_pairs(order: np.ndarray, src: np.ndarray, runs: tuple,
              want: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Rows (of a, of b) of the first `want` agreeing pairs; all if None.

    runs is scan_runs' result for join_sort's order and src.  Runs come
    in order, and a run pairs each of its a rows, in order, with each of
    its b rows, in order: pair t of a run of nb b rows is (t // nb, t % nb).
    Only the sorted rows of the runs that hold the pairs are read.
    """
    starts, na, nb = runs
    upto = np.cumsum(na * nb)  # pairs in the runs up to each run
    total = int(upto[-1]) if len(upto) else 0
    t = np.arange(total if want is None else min(want, total), dtype=np.int64)
    g = np.searchsorted(upto, t, side="right")  # the run of each pair
    t -= upto[g] - na[g] * nb[g]
    new = np.diff(g, prepend=-1) != 0  # g ascends; np.unique would import numpy.ma
    used = g[new]
    k = np.cumsum(new) - 1  # the place of each pair's run among the used
    at = _spans(starts[used], na[used] + nb[used])
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


def sign_pair(weights: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """sign_table of weights as a pair (P, Q), in the narrowest dtype of p - 1.

    Q is the sign_table of the low len(weights) // 2 weights and P of the
    others, so row u * len(Q) + v of the pair, P[u] + Q[v] mod p, is
    sign_table row u * len(Q) + v.
    """
    low, dtype = len(weights) // 2, np.min_scalar_type(p - 1)
    return (sign_table(weights[low:], p).astype(dtype),
            sign_table(weights[:low], p).astype(dtype))


def check_side(rows: int):
    """Refuse a join side of more than 2^JOIN_CAP rows, with TooLarge.

    The one size rule of every join: each caller asks it, with the rows
    of its larger side, before it builds any weight matrix or table.  A
    side of 2^64 rows or more is named by its power of two.
    """
    if rows > 1 << JOIN_CAP:
        size = rows if rows < 1 << 64 else f"2^{rows.bit_length() - 1} or more"
        raise TooLarge(f"a join side of {size} rows exceeds the join cap "
                       f"2^{JOIN_CAP}")


def check_signs(d: int):
    """check_side for the half_tables of d signs: the high half's 2^(d - d // 2) rows."""
    check_side(1 << min(d - d // 2, 64))  # past 2^64 rows no huge integer is built


def half_tables(weights: np.ndarray, p: int) -> tuple[tuple, tuple, int]:
    """sign_pair of the low signs and of the high signs negated, and the split.

    With d = len(weights) and b = d // 2, bit n of a low word w is the
    sign at n < b and bit n of a high word the sign at b + n; row A[w]
    holds the sum over the low half and row B[w] minus the sum over the
    high half, from the negated weights, so a vector's row is
    A[low word] - B[high word] mod p.  Its caller has asked check_signs(d).
    """
    half = len(weights) // 2
    return sign_pair(weights[:half], p), sign_pair(-weights[half:] % p, p), half


def shard_range(bits: int, index: int, count: int) -> tuple[int, int]:
    """Shard index of count of the 2^bits Gray indices, as [lo, hi).

    The shards of 0..count-1 cover every index once, in order.
    """
    if not 0 <= index < count:
        raise RangeOutOfBounds(f"shard {index}/{count}: need 0 <= i < N")
    total = 1 << bits
    return total * index // count, total * (index + 1) // count


def join_hist(a: tuple, b: tuple, p: int) -> np.ndarray:
    """Degree histogram of all differences a[i] - b[j] mod p.

    A difference's top j coefficients vanish exactly when its rows agree
    on their top j columns, so Z_j (prefix_counts) counts them, and a
    difference has degree cols-1-j exactly when its top j columns vanish
    and its next does not: hist[cols-j] = Z_j - Z_{j+1}, and hist[0] =
    Z_cols counts the equal pairs.
    """
    src, lcp = join_sort(a, b, p)[1:]
    z = prefix_counts(lcp, src, a[0].shape[1])
    return np.concatenate((z[-1:], (z[:-1] - z[1:])[::-1]))


def _gray_blocks(lo: int, hi: int) -> list[tuple[int, int]]:
    """The sign words of the Gray indices [lo, hi), as aligned word blocks.

    [lo, hi) is cut into aligned blocks of indices k 2^t .. (k+1) 2^t - 1,
    each the largest that fits.  For v < 2^t, gray(k 2^t + v) is
    gray(k) 2^t plus gray(v) with bit t-1 flipped when k is odd, which
    runs over every u < 2^t, so a block's words are exactly
    gray(k) 2^t + u.  Returns (gray(k) 2^t, t) for each block.
    """
    out = []
    while lo < hi:
        t = (hi - lo).bit_length() - 1
        if lo:
            t = min(t, (lo & -lo).bit_length() - 1)
        k = lo >> t
        out.append(((k ^ (k >> 1)) << t, t))
        lo += 1 << t
    return out


def range_hist(tables: tuple, p: int, lo: int, hi: int) -> np.ndarray:
    """Degree histogram of A - B over the Gray indices [lo, hi), as join_hist.

    Each aligned block of 2^t indices (_gray_blocks) is the words
    start + u, u < 2^t: for t >= b, all of A against 2^(t-b) rows of B,
    and for t < b, 2^t rows of A against one row of B, so each block is
    one join_hist of a sub-pair of A and a sub-pair of B.  The histogram
    must count exactly hi - lo rows, or SqrtPolyError is raised.
    """
    a, b, half = tables
    hist = np.zeros(a[0].shape[1] + 1, dtype=np.int64)
    for start, t in _gray_blocks(lo, hi):
        low = _sub_pair(a, start & ((1 << half) - 1), 1 << min(t, half))
        high = _sub_pair(b, start >> half, 1 << max(t - half, 0))
        hist += join_hist(low, high, p)
    if hist.sum() != hi - lo:
        raise SqrtPolyError(f"census counted {hist.sum()} of {hi - lo} vectors "
                            f"in the Gray indices [{lo}, {hi})")
    return hist
