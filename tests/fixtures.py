"""Known-good reference values, frozen from independent computations.

Degree histograms were cross-checked against a separate brute-force
enumeration before being pinned here; treat any mismatch as a library
regression, not a fixture typo.
"""

# p = 41: the 16 block-sign choices (h0,h1,h2,h3) and the sparse
# coefficients (c18, c13, c8, c3) of the glued polynomial.  Exact
# pairing, not just the set.
P41_TS_TABLE = {
    (-1, -1, -1, -1): (15, 31, 30, 5),
    (-1, -1, -1, 1): (37, 24, 8, 12),
    (-1, -1, 1, -1): (31, 15, 5, 30),
    (-1, -1, 1, 1): (12, 8, 24, 37),
    (-1, 1, -1, -1): (8, 12, 37, 24),
    (-1, 1, -1, 1): (30, 5, 15, 31),
    (-1, 1, 1, -1): (24, 37, 12, 8),
    (-1, 1, 1, 1): (5, 30, 31, 15),
    (1, -1, -1, -1): (36, 11, 10, 26),
    (1, -1, -1, 1): (17, 4, 29, 33),
    (1, -1, 1, -1): (11, 36, 26, 10),
    (1, -1, 1, 1): (33, 29, 4, 17),
    (1, 1, -1, -1): (29, 33, 17, 4),
    (1, 1, -1, 1): (10, 26, 36, 11),
    (1, 1, 1, -1): (4, 17, 33, 29),
    (1, 1, 1, 1): (26, 10, 11, 36),
}

# Full-census degree histograms (all 2^r sign vectors).
ALL_COUNTS = {
    29: {11: 4, 12: 560, 13: 15820},
    37: {14: 4, 15: 180, 16: 6984, 17: 254976},
    41: {17: 640, 18: 24936, 19: 1023000},
    53: {20: 4, 22: 416, 23: 23660, 24: 1242124, 25: 65842660},
    # counted by the search's block join, and at p = 61 also by a join of
    # built half tables
    61: {23: 4, 25: 120, 26: 5100, 27: 283500, 28: 17292540, 29: 1056160560},
    73: {31: 2088, 32: 172480, 33: 12716784, 34: 928438416, 35: 67778146968},
}

# Rounded expected counts under the independent-coefficient model.
ALL_EXPECTED = {
    29: {10: 1, 11: 19, 12: 545, 13: 15819},
    37: {14: 5, 15: 186, 16: 6893, 17: 255059},
    41: {16: 15, 17: 609, 18: 24951, 19: 1023001},
    53: {20: 0, 21: 8, 22: 442, 23: 23440, 24: 1242314, 25: 65842659},
}

# Degree histograms of the 2^(2^{s-1}) block-sign gluings.
TS_COUNTS = {
    7: {2: 2},
    11: {3: 2},
    13: {5: 4},
    17: {7: 16, 8: 240},
    19: {5: 2},
    23: {6: 2},
    29: {11: 4},
    31: {8: 2},
    37: {14: 4},
    41: {18: 16},
    43: {11: 2},
    47: {12: 2},
    53: {20: 4},
    59: {15: 2},
    61: {23: 4},
    67: {17: 2},
    71: {18: 2},
    73: {32: 16},
    79: {20: 2},
    83: {21: 2},
    89: {39: 16},
    97: {41: 32, 44: 640, 47: 64864},
    101: {38: 4},
    103: {26: 2},
    107: {27: 2},
    109: {41: 4},
    113: {53: 256},
    127: {32: 2},
    131: {33: 2},
    137: {60: 16},
    139: {35: 2},
    149: {56: 4},
    151: {38: 2},
    157: {59: 4},
    163: {41: 2},
    167: {42: 2},
    173: {65: 4},
    179: {45: 2},
    181: {68: 4},
    191: {48: 2},
    353: {160: 96, 171: 65440},
}

# Rounded expectations for the same family (zero rows omitted).
TS_EXPECTED = {
    7: {2: 2},
    11: {3: 2},
    13: {5: 4},
    17: {6: 1, 7: 14, 8: 241},
    19: {5: 2},
    23: {6: 2},
    29: {11: 4},
    31: {8: 2},
    37: {14: 4},
    41: {18: 16},
    43: {11: 2},
    47: {12: 2},
    53: {20: 4},
    59: {15: 2},
    61: {23: 4},
    67: {17: 2},
    71: {18: 2},
    73: {32: 16},
    79: {20: 2},
    83: {21: 2},
    89: {39: 16},
    97: {41: 7, 44: 669, 47: 64860},
    101: {38: 4},
    103: {26: 2},
    107: {27: 2},
    109: {41: 4},
    113: {46: 2, 53: 254},
    127: {32: 2},
    131: {33: 2},
    137: {60: 16},
    139: {35: 2},
    149: {56: 4},
    151: {38: 2},
    157: {59: 4},
    163: {41: 2},
    167: {42: 2},
    173: {65: 4},
    179: {45: 2},
    181: {68: 4},
    191: {48: 2},
    # 353 omitted: the formula gives {149: 1, 160: 185, 171: 65350};
    # asserted separately without the n=0 row.
}

# p = 41 example: a degree-17 minimizer, coefficients ascending.
P41_MINIMAL = [35, 33, 7, 36, 6, 29, 9, 0, 1, 1, 1, 5, 25, 37, 12, 4, 32, 15]

# Its two-level block decomposition (ascending coefficient lists).
P41_MINIMAL_HALF_0 = [36, 38, 32, 32, 18, 33, 0, 15, 1, 1]
P41_MINIMAL_HALF_1 = [34, 28, 23, 40, 35, 25, 18, 26, 1, 1]
P41_MINIMAL_LEAVES = {
    0: [28, 38, 6, 33, 19],
    1: [14, 30, 35, 31, 26],
    2: [3, 38, 17, 31, 17],
    3: [13, 26, 11, 8, 3],
}

# p = 41 gluing arithmetic fixture (pure linear algebra: the parts are
# block monomials with mixed conventions, not verified point values).
P41_GLUE_PARTS = [21, 19, 25, 34]  # coefficient of x^3 in each part
P41_GLUE_RESULT = {18: 2, 13: 29, 8: 37, 3: 35}
P41_GLUE_HALF_0 = {8: 39, 3: 23}
P41_GLUE_HALF_1 = {8: 35, 3: 6}
