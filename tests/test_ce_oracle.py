import hashlib
import weakref

import pytest

from springercenter import bgg, bmodule, exactla, springer
from springercenter.exactla import CochainComplex
from springercenter.bmodule import (
    BModule,
    adjoint_g, sub_n, quotient_u, trivial_module, tensor, wedge,
)
from springercenter.ce_oracle import ce_cochain, ce_cohomology

from helpers import assert_cleared_sweeps_agree


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


def test_ce_complexes_are_pinned(monkeypatch):
    # dims and sorted entries of every CE complex that reaches
    # cohomology_dims: the complete sl2/sl3 diamond components, the six
    # sl4 components of the ce-sl4 benchmark workload and two nonzero
    # weights; cleared ranks do not depend on the order of entries
    seen = []
    plain = CochainComplex.cohomology_dims

    def spy(cx):
        seen.append((cx.dims, [sorted(mp.entries.items()) for mp in cx.maps]))
        return plain(cx)

    monkeypatch.setattr(CochainComplex, "cohomology_dims", spy)
    for m in (2, 3):
        for k, r in sorted({bgg.entry_component(m, i, j) for (i, j) in bgg.diamond_entries(m)}):
            ce_cohomology(springer.build_vk_component(m, k, r).module)
    for k, r in [(2, 1), (3, 2), (4, 2), (4, 3), (5, 4), (6, 4)]:
        ce_cohomology(springer.build_vk_component(4, k, r).module)
    ce_cohomology(tensor(sub_n(3), quotient_u(3)), (1, 1))
    ce_cohomology(adjoint_g(4), (1, 0, 1))
    assert len(seen) == 16
    assert (hashlib.sha256(repr(seen).encode()).hexdigest()
            == "7879187793bb610c531b909144489318960eed68e2852c554d2cd3fe58ceb32b")


def test_each_root_matrix_is_formed_once_per_call(monkeypatch):
    # ce_cochain asks the module for each (root, weight) once, and the
    # module forms it from its own action: no product runs inside
    # root_lower_matrix (matmul goes through product_sum too)
    mod = springer.build_vk_component(4, 4, 2).module
    inside, asked, sums = [False], [], []
    plain_root, plain_sum = BModule.root_lower_matrix, exactla.product_sum

    def root_spy(self, root, mu):
        asked.append((root, mu))
        inside[0] = True
        try:
            return plain_root(self, root, mu)
        finally:
            inside[0] = False

    def sum_spy(terms):
        if inside[0]:
            sums.append(len(terms))
        return plain_sum(terms)

    monkeypatch.setattr(BModule, "root_lower_matrix", root_spy)
    monkeypatch.setattr(exactla, "product_sum", sum_spy)
    assert ce_cohomology(mod) == [1, 5, 7, 0, 0, 0, 0]
    assert len(asked) == len(set(asked))
    assert any(b > a + 1 for (a, b), _ in asked)
    assert sums == []


def test_cleared_images_of_every_sl4_ce_complex_span_as_in_a_full_sweep():
    components = sorted({bgg.entry_component(4, i, j) for (i, j) in bgg.diamond_entries(4)})
    assert len(components) == 16
    for k, r in components:
        assert_cleared_sweeps_agree(ce_cochain(springer.build_vk_component(4, k, r).module))


@pytest.mark.parametrize("force_full, steps", [(False, 2632), (True, 5250)])
def test_cleared_ranks_clear_only_leading_columns(monkeypatch, force_full, steps):
    # an elimination step reads one pivot row, echelon[p]; on V_6^{-6}
    # the cleared ranks take half the steps of a full sweep (full=True)
    cx = ce_cochain(springer.build_vk_component(4, 6, 3).module)
    count = [0]

    class Counted(dict):
        def __getitem__(self, p):
            count[0] += 1
            return dict.__getitem__(self, p)

    class Reducer(exactla.RowReducer):
        def __init__(self, full=True):
            super().__init__(full or force_full)
            self.echelon = Counted()

    monkeypatch.setattr(exactla, "RowReducer", Reducer)
    assert cx.cohomology_dims() == [1, 5, 12, 1, 0, 0, 0]
    assert count[0] == steps


def test_windowed_module_is_refused():
    mod = springer.build_vk_component(3, 2, 1, window=bgg.cochain_window(3)).module
    with pytest.raises(ValueError, match="need a complete module"):
        ce_cohomology(mod)


def test_nonzero_weight_tensor_is_dropped_before_ranking(monkeypatch):
    # the tensor built for lam keeps its factors' relabelled columns in
    # its action, so it must be freed before the ranks
    built, alive = [], []
    plain_tensor, ranks = bmodule.tensor, CochainComplex.cohomology_dims

    def tensor_spy(a, b):
        mod = plain_tensor(a, b)
        built.append(weakref.ref(mod))
        return mod

    def ranks_spy(cx):
        alive.append(built[-1]() is not None)
        return ranks(cx)

    monkeypatch.setattr(bmodule, "tensor", tensor_spy)
    monkeypatch.setattr(CochainComplex, "cohomology_dims", ranks_spy)
    assert ce_cohomology(quotient_u(3), (1, 1)) == [1, 0, 0, 0]
    assert alive == [False]
