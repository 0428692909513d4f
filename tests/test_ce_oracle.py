from springercenter import bgg, springer
from springercenter.bmodule import (
    adjoint_g, sub_n, quotient_u, trivial_module, tensor, wedge,
)
from springercenter.ce_oracle import ce_cohomology, full_decomposition


def test_structure_sheaf_cohomology():
    for m in (2, 3):
        n = m * (m - 1) // 2
        prof = ce_cohomology(trivial_module(m))
        assert prof == [1] + [0] * n


def test_wedge_powers_of_cotangent_give_betti_numbers():
    # H^i(Omega^i) carries the cohomology of the base; the trivial
    # multiplicity in degree i matches the length generating function
    from springercenter.rootdata import poincare_polynomial
    m = 3
    poin = poincare_polynomial(m)
    for i in range(4):
        mod = wedge(sub_n(m), i) if i else trivial_module(m)
        prof = ce_cohomology(mod)
        assert prof[i] == poin[i]
        assert sum(prof) == poin[i]


def test_full_decomposition_of_small_bundles():
    n = sub_n(3)
    u = quotient_u(3)
    rho = (1, 1)
    zero = (0, 0)
    # tangent bundle of the base: global sections are the adjoint rep
    assert full_decomposition(u) == {rho: [1, 0, 0, 0]}
    # cotangent (x) tangent: trivial in degree 0, two adjoints in degree 1
    assert full_decomposition(tensor(n, u)) == {
        zero: [1, 0, 0, 0], rho: [0, 2, 0, 0]}
    # second wedge of cotangent (x) tangent: three trivials in degree 1
    assert full_decomposition(tensor(wedge(n, 2), u)) == {zero: [0, 3, 0, 0]}
    # top wedge of the cotangent bundle: one trivial in top degree
    assert full_decomposition(wedge(n, 3)) == {zero: [0, 0, 0, 1]}


def test_agrees_with_resolution_route_at_weight_zero():
    mods = [trivial_module(3), adjoint_g(3), sub_n(3),
            tensor(sub_n(3), quotient_u(3)), wedge(sub_n(3), 2)]
    for mod in mods:
        assert ce_cohomology(mod) == bgg.multiplicity(mod)


def test_agrees_with_resolution_on_quotient_components():
    for (m, k, r) in [(2, 1, 1), (2, 2, 1), (3, 2, 1), (3, 1, 0), (3, 3, 2)]:
        mod = springer.build_vk_component(m, k, r).module
        assert ce_cohomology(mod) == bgg.multiplicity(mod)
