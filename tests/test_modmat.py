import numpy as np

import pytest

from sqrtpoly import _modmat, make_field_ctx
from sqrtpoly._modmat import matmul_mod, power_sums


def test_matmul_mod_exact_past_int64():
    # (p-1)^2 * 4 wraps int64 at p = 2^61 - 1; the answer is 4 mod p
    p = (1 << 61) - 1
    got = matmul_mod([[p - 1] * 4], [[p - 1]] * 4, p)
    assert got.tolist() == [[4]] and got.dtype == np.int64
    # within 2^53 the float64 route gives the same as Python integers
    rng = np.random.default_rng(1)
    a = rng.integers(-1000, 1000, (7, 5))
    b = rng.integers(0, 1000, (5, 3))
    want = [[sum(int(x) * int(y) for x, y in zip(row, col)) % 1009
             for col in b.T] for row in a]
    assert matmul_mod(a, b, 1009).tolist() == want


def _naive_power_sums(ctx, rows, exps):
    p, g = ctx.p, ctx.gamma
    return [[sum(int(c) * pow(g, n * int(e), p) for n, c in enumerate(row)) % p
             for e in exps] for row in rows]


def test_power_sums_zero_rows_build_no_table(monkeypatch, ctx41):
    def no_table(*args):
        raise AssertionError("power table built for all-zero rows")

    monkeypatch.setattr(_modmat, "power_block", no_table)
    got = power_sums(ctx41, np.zeros((2, 20), dtype=np.int64), np.arange(7))
    assert got.tolist() == [[0] * 7] * 2 and got.dtype == np.int64


def test_power_sums_single_column(monkeypatch, ctx41):
    built = []
    power_block = _modmat.power_block
    monkeypatch.setattr(_modmat, "power_block",
                        lambda ctx, rows, cols: built.append(rows.tolist())
                        or power_block(ctx, rows, cols))
    rows = np.zeros((3, 20), dtype=np.int64)
    rows[:, 13] = [5, -1, 40]
    exps = np.array([0, 1, 2, 39, -3])
    got = power_sums(ctx41, rows, exps)
    assert built == [[13]]
    assert got.tolist() == [[c * pow(6, 13 * int(e), 41) % 41 for e in exps]
                            for c in (5, -1, 40)]


@pytest.mark.parametrize("entries", [1, 7, 1 << 21])
def test_power_sums_blocks_agree(monkeypatch, entries):
    ctx = make_field_ctx(97)
    monkeypatch.setattr(_modmat, "_BLOCK_ENTRIES", entries)
    rng = np.random.default_rng(entries)
    rows = rng.integers(-200, 200, (4, 48))
    rows[:, 5:30] = 0
    exps = rng.integers(-100, 100, 30)
    assert power_sums(ctx, rows, exps).tolist() == _naive_power_sums(ctx, rows, exps)
