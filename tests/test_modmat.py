import numpy as np

from sqrtpoly._modmat import matmul_mod


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
