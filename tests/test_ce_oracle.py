from springercenter import bgg, springer
from springercenter.bmodule import (
    adjoint_g, sub_n, quotient_u, trivial_module, tensor, wedge,
)
from springercenter.ce_oracle import ce_cohomology


def test_structure_sheaf_cohomology():
    for m in (2, 3):
        n = m * (m - 1) // 2
        prof = ce_cohomology(trivial_module(m))
        assert prof == [1] + [0] * n


def test_agrees_with_resolution_route_at_weight_zero():
    mods = [trivial_module(3), adjoint_g(3), sub_n(3),
            tensor(sub_n(3), quotient_u(3)), wedge(sub_n(3), 2)]
    for mod in mods:
        assert ce_cohomology(mod) == bgg.multiplicity(mod)


def test_agrees_with_resolution_on_quotient_components():
    for (m, k, r) in [(2, 1, 1), (2, 2, 1), (3, 2, 1), (3, 1, 0), (3, 3, 2)]:
        mod = springer.build_vk_component(m, k, r).module
        assert ce_cohomology(mod) == bgg.multiplicity(mod)
