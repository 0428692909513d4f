"""End-to-end acceptance checks.

Each test covers one headline claim and prints a single PASS/FAIL line
(run pytest with -s or check the captured output).  All comparisons are
exact integer equalities; the only tolerances are wall-clock budgets.
"""

import functools
import time

from springercenter import springer, bgg, ce_oracle, coinvariants, checks
from springercenter.bmodule import (
    sub_n, quotient_u, trivial_module, tensor, wedge,
)


def report(num, label, ok):
    print("criterion %d (%s): %s" % (num, label, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d failed: %s" % (num, label)


def report_checks(num, label, *fns):
    """report() on the checks for m = 2, 3, 4, printing the first failure at each m."""
    ok = True
    for m in (2, 3, 4):
        get_diamond = functools.cache(lambda: bgg.hodge_diamond(m))
        try:
            for fn in fns:
                fn(m, get_diamond)
        except checks.InvariantFails as ex:
            print("m = %d: %s" % (m, ex))
            ok = False
    report(num, label, ok)


SL2_DIAMOND = {(0, 0): 1, (1, 1): 1, (0, 2): 1}

SL3_DIAMOND = {(0, 0): 1,
               (1, 1): 2, (0, 2): 1,
               (2, 2): 2, (1, 3): 3, (0, 4): 1,
               (3, 3): 1, (2, 4): 2, (1, 5): 2, (0, 6): 1}

SL4_ROWS = [(1,), (3, 1), (5, 4, 1), (6, 9, 4, 1), (5, 11, 9, 4, 1),
            (3, 8, 11, 9, 4, 1), (1, 3, 5, 6, 5, 3, 1)]


def sl4_expected():
    # one row per total degree s = i + j, entries listed from i = s//2 down
    out = {}
    for s, row in zip(range(0, 13, 2), SL4_ROWS):
        for t, h in enumerate(row):
            i = s // 2 - t
            out[(i, s - i)] = h
    return out


def test_criterion_1_sl2_diamond():
    t0 = time.monotonic()
    diamond = bgg.hodge_diamond(2)
    elapsed = time.monotonic() - t0
    ok = diamond == SL2_DIAMOND and sum(diamond.values()) == 3 and elapsed < 1.0
    report(1, "sl2 diamond, total 3, under 1s", ok)


def test_criterion_2_sl3_diamond():
    t0 = time.monotonic()
    diamond = bgg.hodge_diamond(3)
    elapsed = time.monotonic() - t0
    ok = diamond == SL3_DIAMOND and sum(diamond.values()) == 16 and elapsed < 10.0
    report(2, "sl3 diamond, total 16, under 10s", ok)


def test_criterion_3_sl4_diamond():
    t0 = time.monotonic()
    diamond = bgg.hodge_diamond(4, jobs=4)
    elapsed = time.monotonic() - t0
    expect = sl4_expected()
    ok = (diamond == expect and sum(diamond.values()) == 125
          and elapsed <= 30 * 60)
    report(3, "sl4 diamond, total 125, within 30min at 4 jobs", ok)


def test_criterion_4_bundle_decompositions():
    n = sub_n(3)
    u = quotient_u(3)
    rho = (1, 1)
    zero = (0, 0)
    poin = [1, 2, 2, 1]  # the elements of S_3 by length
    ok = ce_oracle.full_decomposition(tensor(n, u)) == {
        zero: [1, 0, 0, 0], rho: [0, 2, 0, 0]}
    ok = ok and ce_oracle.full_decomposition(tensor(wedge(n, 2), u)) == {
        zero: [0, 3, 0, 0]}
    for i in range(4):
        mod = wedge(n, i) if i else trivial_module(3)
        prof = ce_oracle.ce_cohomology(mod)
        ok = ok and prof[i] == poin[i] and sum(prof) == poin[i]
    ok = ok and ce_oracle.full_decomposition(wedge(n, 3)) == {zero: [0, 0, 0, 1]}
    ok = ok and ce_oracle.full_decomposition(u) == {rho: [1, 0, 0, 0]}
    report(4, "sl3 bundle cohomology decompositions", ok)


def test_criterion_5_oracle_equivalence():
    report_checks(5, "resolution route equals Lie algebra cohomology route",
                  checks.check_oracle)


def test_criterion_6_diagonal_coinvariants():
    ok = [sum(coinvariants.dc_table(m).values()) for m in (2, 3, 4)] == [3, 16, 125]
    ok = ok and coinvariants.dc_table(3) == {
        (0, 0): 1, (1, 0): 2, (0, 1): 2,
        (2, 0): 2, (1, 1): 3, (0, 2): 2,
        (3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1}
    for m in (2, 3, 4):
        ok = ok and coinvariants.expected_diamond_from_dc(m) == bgg.hodge_diamond(m)
    report(6, "diagonal coinvariant totals and bigraded match", ok)


def test_criterion_7_structural_invariants():
    report_checks(7, "complexes, dualities, edge rows, invariant witnesses",
                  checks.check_complex, checks.check_duality, checks.check_sl2,
                  checks.check_witness)


def test_criterion_8_line_bundle_classifier():
    report_checks(8, "line bundle cohomology classifier on random weights",
                  checks.check_bwb)


def test_criterion_9_degree_zero_deformations():
    ok = True
    for m, theta in [(3, (1, 1)), (4, (1, 0, 1))]:
        mod = springer.build_vk_component(m, 1, 0).module
        prof = ce_oracle.ce_cohomology(mod, theta)
        # H^1 holds h (x) g, the adjoint m - 1 times; H^0 one adjoint copy
        ok = ok and prof[0] == 1 and prof[1] == m - 1 and not any(prof[2:])
    report(9, "degree-zero deformation space is h (x) g", ok)
