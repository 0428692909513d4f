"""Structural invariants, each written once, run by `verify` and the
acceptance tests.  A check takes (m, get_diamond), get_diamond() giving
bgg.hodge_diamond(m), and raises InvariantFails naming what fails first."""

import random

from . import rootdata, bmodule, springer, bgg, ce_oracle
from .exactla import NotAComplex


class InvariantFails(Exception):
    pass


def _require(ok, message, *args):
    if not ok:
        raise InvariantFails(message % args)


def check_complex(m, get_diamond):
    """The Serre relations hold on g, and d.d = 0 on the whole resolution
    complex of every diamond component, built on cochain_window(m)."""
    try:
        bmodule.check_serre(bmodule.adjoint_g(m))
    except bmodule.SerreRelationFails as ex:
        raise InvariantFails("sl_%d: %s" % (m, ex)) from ex
    window = bgg.cochain_window(m)
    for k, r in sorted({bgg.entry_component(m, i, j) for (i, j) in bgg.diamond_entries(m)}):
        comp = springer.build_vk_component(m, k, r, window=window)
        try:
            bgg.bgg_cochain(comp.module).check_complex()
        except NotAComplex as ex:
            raise InvariantFails("sl_%d: %s on V_%d^{-%d}" % (m, ex, k, 2 * r)) from ex


def check_duality(m, get_diamond):
    """Partner components have one character, and each (i, j) with j > n,
    computed from V_j^{-(i+j)} as hodge_entry computes an entry, equals
    the diamond's (i, j) and (i, 2n - j)."""
    n = m * (m - 1) // 2
    for k in range(n):  # k > n pairs with 2n - k < n, and (n, r) with itself
        for r in range(k + 1):
            k2, r2 = springer.duality_partner(m, k, r)
            _require(springer.quotient_character(m, k, r) == springer.quotient_character(
                m, k2, r2), "V_%d^{-%d} and its partner V_%d^{-%d} differ in character",
                k, 2 * r, k2, 2 * r2)
    diamond = get_diamond()
    for i, j in [e for e in bgg.diamond_entries(m) if e[1] > n]:
        h = bgg.profile_degree(m, j, (i + j) // 2, i)
        _require(h == diamond[(i, j)] == diamond[(i, 2 * n - j)], "entry (%d, %d) is %d "
                 "computed directly, but %d in the diamond and %d at (%d, %d)",
                 i, j, h, diamond[(i, j)], diamond[(i, 2 * n - j)], i, 2 * n - j)


def check_sl2(m, get_diamond):
    """The first column counts the Weyl group by length, and h^{0,2r} = 1."""
    diamond, poin = get_diamond(), rootdata.poincare_polynomial(m)
    for i, count in enumerate(poin):
        _require(diamond[(i, i)] == count, "entry (%d, %d) is %d, but %d Weyl group "
                 "elements have length %d", i, i, diamond[(i, i)], count, i)
        _require(diamond[(0, 2 * i)] == 1, "entry (0, %d) is %d, not 1", 2 * i, diamond[(0, 2 * i)])


def check_oracle(m, get_diamond):
    """Both routes give one profile on the complete component of each entry."""
    for k, r in sorted({bgg.entry_component(m, i, j) for (i, j) in bgg.diamond_entries(m)}):
        mod = springer.build_vk_component(m, k, r).module
        a, b = bgg.multiplicity(mod), ce_oracle.ce_cohomology(mod)
        _require(a == b, "V_%d^{-%d}: resolution %r, Lie algebra cohomology %r", k, 2 * r, a, b)


def check_bwb(m, get_diamond):
    """bwb_classify(lam) is singular exactly when lam + rho is on a wall, else
    w.lam = mu is dominant; w.lam for dominant lam gives (w^-1, lam), w = 1 too."""
    rng = random.Random(97)
    for _ in range(200):
        lam = tuple(rng.randint(-6, 6) for _ in range(m - 1))
        v = rootdata.to_eps(rootdata.add(lam, rootdata.rho(m)))
        kind, w, mu = rootdata.bwb_classify(lam)
        _require((kind == "singular") == (len(set(v)) < m) and (
            kind == "singular" or rootdata.is_dominant(mu) and w.dot(lam) == mu),
            "weight %r classifies as (%s, %r, %r)", lam, kind, w and w.perm, mu)
    for w in rootdata.weyl_group(m):
        for _ in range(5):
            lam = tuple(rng.randint(0, 4) for _ in range(m - 1))
            kind, w2, mu = rootdata.bwb_classify(w.dot(lam))
            _require(kind == "regular" and mu == lam and w2.perm == w.inverse().perm
                     and w2.length() == w.length() and w2.dot(w.dot(lam)) == lam,
                     "weight %r = %r.%r classifies as (%s, %r, %r)",
                     w.dot(lam), w.perm, lam, kind, w2 and w2.perm, mu)


def check_witness(m, get_diamond):
    """The witness of the trivial summand of V_2^{-2} projects to a nonzero
    vector that every f_i kills."""
    comp, lift = springer.trivial_summand_witness(m)
    zero = (0,) * (m - 1)
    vec = comp.project(zero, lift)
    _require(vec, "the witness of V_2^{-2} projects to zero")
    for i in range(1, m):
        _require(not comp.module.lower_matrix(i, zero).apply(vec),
                 "f_%d does not kill the witness of V_2^{-2}", i)


def _bwb_and_witness(m, get_diamond):
    check_bwb(m, get_diamond)
    check_witness(m, get_diamond)


SUITES = [("complex", check_complex), ("duality", check_duality),
          ("sl2", check_sl2), ("oracle", check_oracle), ("bwb", _bwb_and_witness)]
