"""The benchmark's own expected values, kept apart from the program's tables.

A check compares what the program computes with these values, so a change
that altered both the code and the program's golden table would still fail.
"""

# Dimension of the space of quintic forms singular along a generic
# configuration of each of the 42 types (the paper's golden table).
GOLDEN_DIMS = {
    1: 18, 2: 15, 3: 12, 4: 11, 5: 10, 6: 10, 7: 10, 8: 10, 9: 10, 10: 10,
    11: 10, 12: 9, 13: 8, 14: 7, 15: 7, 16: 7, 17: 7, 18: 6, 19: 5, 20: 4,
    21: 4, 22: 4, 23: 4, 24: 4, 25: 4, 26: 3, 27: 3, 28: 3, 29: 3, 30: 3,
    31: 3, 32: 3, 33: 3, 34: 2, 35: 1, 36: 1, 37: 1, 38: 1, 39: 1, 40: 1,
    41: 1, 42: 0,
}

# Point count of each finite type; the other eight types carry a full line,
# conic or the whole plane.  check_conditions visits every proper nonempty
# subset of a sample, 2^k - 2 of them.
FINITE_POINTS = {
    1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6, 7: 7, 8: 8, 9: 9, 10: 10,
    12: 4, 13: 5, 14: 6, 15: 7, 16: 8, 18: 5, 19: 6, 20: 7, 21: 8, 23: 6,
    24: 6, 25: 7, 26: 6, 27: 7, 28: 8, 30: 8, 32: 7, 34: 7, 35: 7, 36: 7,
    37: 8, 38: 8, 39: 9, 40: 10,
}

# Type to which the singular set of a random member of a type's linear system
# classifies over GF(101) when the system forces more than the configuration:
# five or more collinear singular points force the whole line, and so on.
# Observed on the form-level route; the oracle workload counts agreement with
# it and does not gate on it.
ORACLE_CLOSURE = {
    5: 11, 6: 11, 7: 11, 8: 11, 9: 11, 10: 11,
    14: 17, 15: 17, 16: 17,
    20: 22, 21: 22,
    23: 25,
    27: 31, 28: 31, 29: 31, 30: 31,
    32: 33,
    35: 37,
}

# The headline gate: the factored Poincaré polynomial of the space of
# nonsingular plane quintics, and the built-in twisted-homology models.
HEADLINE_FACTORED = "(1+t)(1+t^3)(1+t^5)"
COL39_CONCLUSION = "column 39 contributes 0"
HOMOLOGY_MODELS = ("pairs-a1", "pairs-a2", "pairs-a3", "punctured-line")
