"""End-to-end acceptance checks.

Each test covers one headline claim and prints a single PASS/FAIL line
(run pytest with -s or check the captured output).  All comparisons are
exact integer equalities; the only tolerances are wall-clock budgets.
"""

import random
import time

from springercenter import rootdata, springer, bgg, ce_oracle, coinvariants, cli
from springercenter.bmodule import (
    sub_n, quotient_u, trivial_module, tensor, wedge,
)


def report(num, label, ok):
    print("criterion %d (%s): %s" % (num, label, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d failed: %s" % (num, label)


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
    poin = rootdata.poincare_polynomial(3)
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
    ok = True
    for m in (2, 3):
        for (i, j) in bgg.diamond_entries(m):
            k, r = bgg.entry_component(m, i, j)
            mod = springer.build_vk_component(m, k, r).module
            ok = ok and bgg.multiplicity(mod) == ce_oracle.ce_cohomology(mod)
    for (i, j) in [(1, 1), (0, 2), (1, 3), (2, 2)]:
        mod = springer.build_vk_component(4, j, (i + j) // 2).module
        ok = ok and bgg.multiplicity(mod) == ce_oracle.ce_cohomology(mod)
    report(5, "resolution route equals Lie algebra cohomology route", ok)


def test_criterion_6_diagonal_coinvariants():
    ok = (coinvariants.dc_total(2) == 3
          and coinvariants.dc_total(3) == 16
          and coinvariants.dc_total(4) == 125)
    ok = ok and coinvariants.dc_table(3) == {
        (0, 0): 1, (1, 0): 2, (0, 1): 2,
        (2, 0): 2, (1, 1): 3, (0, 2): 2,
        (3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1}
    for m in (2, 3, 4):
        ok = ok and coinvariants.expected_diamond_from_dc(m) == bgg.hodge_diamond(m)
    report(6, "diagonal coinvariant totals and bigraded match", ok)


def test_criterion_7_structural_invariants():
    ok = True
    # differentials square to zero on every assembled complex
    for m in (2, 3):
        for (i, j) in bgg.diamond_entries(m):
            k, r = bgg.entry_component(m, i, j)
            comp = springer.build_vk_component(m, k, r,
                                               window=bgg.cochain_window(m))
            cx = bgg.bgg_cochain(comp.module)
            cx.check_complex()
    # duality: direct recomputation beyond the middle power agrees with
    # the mirrored entries, and partner characters agree everywhere
    for (i, j) in [(0, 4), (1, 5), (2, 4), (3, 3)]:
        comp = springer.build_vk_component(3, j, (i + j) // 2,
                                           window=bgg.cochain_window(3))
        direct = bgg.bgg_cochain(comp.module).cohomology_dims()[i]
        ok = ok and direct == bgg.hodge_entry(3, i, j)
    for m in (2, 3):
        nn = m * (m - 1) // 2
        for k in range(2 * nn + 1):
            for r in range(max(0, k - nn), min(k, nn) + 1):
                k2, r2 = springer.duality_partner(m, k, r)
                a = springer.build_vk_component(m, k, r).module.character()
                b = springer.build_vk_component(m, k2, r2).module.character()
                ok = ok and a == b
    for m in (2, 3, 4):
        n = m * (m - 1) // 2
        diamond = bgg.hodge_diamond(m)
        poin = rootdata.poincare_polynomial(m)
        # symplectic symmetry along each diagonal of constant i
        ok = ok and all(diamond[(i, j)] == diamond[(i, 2 * n - j)]
                        for (i, j) in diamond)
        # first column, bottom row, and the all-ones edge
        ok = ok and [diamond[(i, i)] for i in range(n + 1)] == poin
        ok = ok and [diamond[(i, 2 * n - i)] for i in range(n + 1)] == poin
        ok = ok and all(diamond[(0, 2 * r)] == 1 for r in range(n + 1))
        # one trivial summand witness per middle component
        comp, lift = springer.trivial_summand_witness(m)
        zero = tuple([0] * (m - 1))
        vec = comp.project(zero, lift)
        ok = ok and bool(vec)
        for i in range(1, m):
            ok = ok and not comp.module.lower_matrix(i, zero).apply(vec)
    report(7, "complexes, dualities, edge rows, invariant witnesses", ok)


def test_criterion_8_line_bundle_classifier():
    rng = random.Random(2024)
    ok = True
    count = 0
    while count < 100:
        m = rng.choice((2, 3, 4))
        lam = tuple(rng.randint(-6, 6) for _ in range(m - 1))
        v = rootdata.to_eps(rootdata.add(lam, rootdata.rho(m)))
        on_wall = len(set(v)) < m
        kind, w, mu = rootdata.bwb_classify(lam)
        ok = ok and (kind == "singular") == on_wall
        if kind == "regular":
            # exactly one nonvanishing degree, and the round trip holds
            ok = ok and rootdata.is_dominant(mu)
            ok = ok and w.dot(lam) == mu
            kind2, w2, mu2 = rootdata.bwb_classify(w.inverse().dot(mu))
            ok = ok and kind2 == "regular" and mu2 == mu
            ok = ok and w2.length() == w.length()
        count += 1
    # dominant weights classify in degree zero
    for m in (2, 3, 4):
        for _ in range(10):
            lam = tuple(rng.randint(0, 5) for _ in range(m - 1))
            kind, w, mu = rootdata.bwb_classify(lam)
            ok = ok and kind == "regular" and w.length() == 0 and mu == lam
        # and w . lam classifies as (l(w), lam)
        for w in rootdata.weyl_group(m):
            lam = tuple(rng.randint(0, 3) for _ in range(m - 1))
            kind, w2, mu = rootdata.bwb_classify(w.dot(lam))
            ok = ok and kind == "regular" and mu == lam
            ok = ok and w2.length() == w.length()
    report(8, "line bundle cohomology classifier on random weights", ok)


def test_criterion_9_degree_zero_deformations():
    ok = True
    for m, theta in [(3, (1, 1)), (4, (1, 0, 1))]:
        mod = springer.build_vk_component(m, 1, 0).module
        prof = ce_oracle.ce_cohomology(mod, theta)
        ok = ok and prof[1] == m - 1
    report(9, "degree-zero deformation space is h (x) g", ok)
