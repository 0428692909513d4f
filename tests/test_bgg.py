import json
import os
import subprocess
import sys

import pytest

import springercenter
from springercenter import rootdata, bgg, springer
from springercenter.bgg import (
    bgg_data, bgg_cochain, cochain_window, multiplicity, diamond_entries,
    hodge_entry, hodge_diamond, diamond_total,
)
from springercenter.bmodule import (
    adjoint_g, sub_n, quotient_u, trivial_module, tensor, wedge,
)


def test_arrows_cover_bruhat_graph():
    for m in (2, 3, 4):
        data = bgg_data(m)
        got = set()
        for (w, w2) in data.arrows:
            u = rootdata.WeylElement.from_word(m, w).perm
            v = rootdata.WeylElement.from_word(m, w2).perm
            got.add((u, v))
        expect = {(e.lower.perm, e.upper.perm) for e in rootdata.bruhat_graph(m)}
        assert got == expect


def test_unsupported_rank_raises():
    with pytest.raises(Exception):
        bgg_data(5)


def test_node_layers_match_length_generating_function():
    for m in (2, 3, 4):
        data = bgg_data(m)
        assert [len(layer) for layer in data.nodes] == rootdata.poincare_polynomial(m)


def test_complexes_square_to_zero():
    mods = [adjoint_g(2), adjoint_g(3), adjoint_g(4),
            tensor(sub_n(3), quotient_u(3)),
            wedge(sub_n(3), 2),
            tensor(adjoint_g(4), adjoint_g(4))]
    for mod in mods:
        bgg_cochain(mod).check_complex()


def test_window_contains_all_node_weights():
    for m in (2, 3, 4):
        data = bgg_data(m)
        window = cochain_window(m)
        for layer in data.nodes:
            for word in layer:
                assert data.node_weight(word) in window


def test_trivial_multiplicity_profiles():
    # cohomology of the structure sheaf: one class in degree 0 only
    assert multiplicity(trivial_module(3)) == [1, 0, 0, 0]
    # adjoint bundle has no trivial part anywhere
    assert multiplicity(adjoint_g(3)) == [0, 0, 0, 0]
    # cotangent-times-tangent analogues on the base
    assert multiplicity(tensor(sub_n(3), quotient_u(3))) == [1, 0, 0, 0]
    assert multiplicity(tensor(wedge(sub_n(3), 2), quotient_u(3))) == [0, 3, 0, 0]
    # wedges of the cotangent bundle reproduce the betti numbers
    assert multiplicity(wedge(sub_n(3), 2)) == [0, 0, 2, 0]
    assert multiplicity(wedge(sub_n(3), 3)) == [0, 0, 0, 1]


def test_nonzero_weight_multiplicity():
    rho = (1, 1)
    assert multiplicity(tensor(sub_n(3), quotient_u(3)), rho) == [0, 2, 0, 0]
    assert multiplicity(quotient_u(3), rho) == [1, 0, 0, 0]


def test_nonzero_weight_agrees_with_lie_algebra_route():
    from springercenter.ce_oracle import ce_cohomology
    cases = [(tensor(sub_n(3), quotient_u(3)), (1, 1)),
             (adjoint_g(3), (1, 1)),
             (wedge(sub_n(3), 2), (0, 1)),
             (quotient_u(3), (2, 0))]
    for mod, lam in cases:
        assert multiplicity(mod, lam) == ce_cohomology(mod, lam)


def test_diamond_entries_shape():
    for m in (2, 3, 4):
        n = m * (m - 1) // 2
        entries = diamond_entries(m)
        assert all((i + j) % 2 == 0 for (i, j) in entries)
        assert all(0 <= i <= min(j, 2 * n - j) for (i, j) in entries)
        assert len(set(entries)) == len(entries)


def test_invalid_entry_rejected():
    with pytest.raises(ValueError):
        hodge_entry(3, 0, 1)
    with pytest.raises(ValueError):
        hodge_entry(3, 5, 5)


def test_sl2_diamond():
    assert hodge_diamond(2) == {(0, 0): 1, (1, 1): 1, (0, 2): 1}


def test_sl3_diamond():
    expect = {(0, 0): 1,
              (1, 1): 2, (0, 2): 1,
              (2, 2): 2, (1, 3): 3, (0, 4): 1,
              (3, 3): 1, (2, 4): 2, (1, 5): 2, (0, 6): 1}
    assert hodge_diamond(3) == expect
    assert diamond_total(hodge_diamond(3)) == 16


def test_mirrored_entries_match_direct_computation():
    # recompute entries beyond the middle wedge power without using the
    # duality shortcut and compare
    for (i, j) in [(0, 4), (1, 5), (2, 4)]:
        r = (i + j) // 2
        comp = springer.build_vk_component(3, j, r, window=cochain_window(3))
        direct = bgg_cochain(comp.module).cohomology_dims()[i]
        assert direct == hodge_entry(3, i, j)


def test_parallel_diamond_matches_serial():
    assert hodge_diamond(3, jobs=2) == hodge_diamond(3)


def test_entries_fold_onto_one_component_across_the_middle():
    assert bgg.entry_component(3, 1, 5) == bgg.entry_component(3, 1, 1) == (1, 1)
    assert bgg.entry_component(3, 0, 4) == bgg.entry_component(3, 0, 2) == (2, 1)
    with pytest.raises(ValueError, match="no diamond entry"):
        bgg.entry_component(3, 0, 1)


def test_parallel_failure_names_its_entry(monkeypatch):
    real = bgg.hodge_entry

    def failing(m, i, j):
        if (i, j) == (1, 3):
            raise ZeroDivisionError("boom")
        return real(m, i, j)

    # pool workers fork after the patch, so they run it too
    monkeypatch.setattr(bgg, "hodge_entry", failing)
    with pytest.raises(bgg.EntryFailed, match=r"entry \(1, 3\).*ZeroDivisionError: boom"):
        hodge_diamond(3, jobs=2)


def test_arrow_landing_at_the_wrong_weight_raises(monkeypatch):
    mod = trivial_module(3)
    real = mod.apply_lowering_polynomial

    def shifted(poly, mu, vec):
        tgt, img = real(poly, mu, vec)
        return rootdata.add(tgt, (1, 0)), img

    monkeypatch.setattr(mod, "apply_lowering_polynomial", shifted)
    with pytest.raises(ValueError, match="lands at weight"):
        bgg_cochain(mod)


def test_truncated_map_landing_at_the_wrong_weight_raises(monkeypatch):
    mod = quotient_u(3)
    real = mod.apply_word

    def shifted(word, mu, vec):
        tgt, img = real(word, mu, vec)
        return rootdata.add(tgt, (1, 0)), img

    monkeypatch.setattr(mod, "apply_word", shifted)
    with pytest.raises(ValueError, match="lands at weight"):
        multiplicity(mod, (1, 1))


def test_both_routes_run_with_asserts_stripped():
    # python -O removes every assert, so the invariant checks on these
    # paths must be raised exceptions to survive it
    code = "\n".join([
        "import json, sys",
        "from springercenter import bgg, ce_oracle, springer",
        "mod = springer.build_vk_component(3, 2, 1).module",
        "print(json.dumps([sys.flags.optimize,",
        "                  bgg.diamond_total(bgg.hodge_diamond(3)),",
        "                  bgg.multiplicity(mod), ce_oracle.ce_cohomology(mod)]))",
    ])
    src = os.path.dirname(os.path.dirname(springercenter.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    optimize, total, via_bgg, via_ce = json.loads(proc.stdout)
    assert optimize == 1
    assert total == 16
    assert via_bgg == via_ce == [1, 3, 0, 0]
