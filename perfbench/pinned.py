"""Exact sl4 tables every sample is checked against.

The diamond is h^{i,j} for the Springer resolution of the sl4 nilpotent
cone, all 28 entries (total 125).  The DC table is every nonzero
bidegree of the diagonal coinvariant algebra DC_4.  The CE profiles are
the weight-zero Lie algebra cohomology of the complete modules
V_k^{-2r}, one entry per cohomological degree; they equal
bgg.multiplicity on the same modules (selfcheck.py confirms this).
`consistency_errors` cross-checks the three tables against each other
without calling the library.
"""

DIAMOND_SL4 = {
    (0, 0): 1, (0, 2): 1, (0, 4): 1, (0, 6): 1, (0, 8): 1, (0, 10): 1, (0, 12): 1,
    (1, 1): 3, (1, 3): 4, (1, 5): 4, (1, 7): 4, (1, 9): 4, (1, 11): 3,
    (2, 2): 5, (2, 4): 9, (2, 6): 9, (2, 8): 9, (2, 10): 5,
    (3, 3): 6, (3, 5): 11, (3, 7): 11, (3, 9): 6,
    (4, 4): 5, (4, 6): 8, (4, 8): 5,
    (5, 5): 3, (5, 7): 3,
    (6, 6): 1,
}

DC_SL4 = {
    (0, 0): 1, (0, 1): 3, (0, 2): 5, (0, 3): 6, (0, 4): 5, (0, 5): 3, (0, 6): 1,
    (1, 0): 3, (1, 1): 8, (1, 2): 11, (1, 3): 9, (1, 4): 4, (1, 5): 1,
    (2, 0): 5, (2, 1): 11, (2, 2): 9, (2, 3): 4, (2, 4): 1,
    (3, 0): 6, (3, 1): 9, (3, 2): 4, (3, 3): 1,
    (4, 0): 5, (4, 1): 4, (4, 2): 1,
    (5, 0): 3, (5, 1): 1,
    (6, 0): 1,
}

# (k, r) -> profile of V_k^{-2r}
CE_PROFILES_SL4 = {
    (2, 1): [1, 4, 0, 0, 0, 0, 0],
    (3, 2): [0, 4, 9, 0, 0, 0, 0],
    (4, 2): [1, 5, 7, 0, 0, 0, 0],
    (4, 3): [0, 0, 9, 11, 0, 0, 0],
    (5, 4): [0, 0, 0, 11, 8, 0, 0],
    (6, 4): [0, 0, 9, 17, 3, 0, 0],
}


def consistency_errors():
    """Disagreements between the pinned tables; empty when they agree."""
    n = 6  # dim of the flag variety of sl4
    errors = []
    for table, name in ((DIAMOND_SL4, "diamond"), (DC_SL4, "DC_4")):
        if sum(table.values()) != 125:
            errors.append("%s total is %d, not 125" % (name, sum(table.values())))
    # h^{i,j} = d^{n-(i+j)/2, (j-i)/2}
    for (i, j), h in DIAMOND_SL4.items():
        d = DC_SL4.get((n - (i + j) // 2, (j - i) // 2), 0)
        if d != h:
            errors.append("h^{%d,%d} = %d but DC gives %d" % (i, j, h, d))
    # degree i = 2r - k of V_k^{-2r} is the diamond entry (i, k)
    for (k, r), profile in CE_PROFILES_SL4.items():
        i = 2 * r - k
        if DIAMOND_SL4.get((i, k)) != profile[i]:
            errors.append("V_%d^{-%d} degree %d is %d but h^{%d,%d} = %s"
                          % (k, 2 * r, i, profile[i], i, k, DIAMOND_SL4.get((i, k))))
    return errors
