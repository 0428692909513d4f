import hashlib
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from springercenter import bmodule, rootdata, springer
from springercenter.bmodule import (
    bracket, gl_label_weight, lie_labels, adjoint_g, sub_n, sub_b, quotient_u,
    trivial_module, natural_module, irreducible_module, tensor, wedge,
    sym, direct_sum, dual, check_serre, serre_relations, BModule,
    MissingWeightSpace, SerreRelationFails,
)
from springercenter.exactla import SparseMatrix, product_sum
import springercenter

from helpers import character, columns_from, every_lowering, weights


def all_labels(m):
    out = [("H", i) for i in range(1, m)]
    out += [("E", a, b) for a in range(m) for b in range(m) if a != b]
    return out


def test_bracket_antisymmetry_and_jacobi():
    rng = random.Random(5)
    for m in (3, 4):
        labels = all_labels(m)
        for _ in range(60):
            x, y, z = (rng.choice(labels) for _ in range(3))
            xy = bracket(m, x, y)
            yx = bracket(m, y, x)
            assert xy == {k: -v for k, v in yx.items()}

            def br_into(coeffs, w):
                out = {}
                for lbl, c in coeffs.items():
                    for lbl2, c2 in bracket(m, lbl, w).items():
                        out[lbl2] = out.get(lbl2, 0) + c * c2
                return {k: v for k, v in out.items() if v}

            jac = {}
            for term in (br_into(xy, z),
                         br_into(bracket(m, y, z), x),
                         br_into(bracket(m, z, x), y)):
                for lbl, c in term.items():
                    jac[lbl] = jac.get(lbl, 0) + c
            assert not any(jac.values())


def test_bracket_weights_add():
    for m in (3, 4):
        labels = all_labels(m)
        for x in labels:
            for y in labels:
                wsum = rootdata.add(gl_label_weight(m, x), gl_label_weight(m, y))
                for lbl in bracket(m, x, y):
                    assert gl_label_weight(m, lbl) == wsum


def test_standard_module_dimensions():
    for m in (2, 3, 4):
        n = m * (m - 1) // 2
        assert adjoint_g(m).dim == m * m - 1
        assert sub_n(m).dim == n
        assert quotient_u(m).dim == n
        assert sub_b(m).dim == n + m - 1
        assert trivial_module(m).dim == 1
        assert natural_module(m).dim == m


def test_serre_relations_hold_on_standard_modules():
    for m in (2, 3, 4):
        for mod in (adjoint_g(m), sub_n(m), quotient_u(m), sub_b(m)):
            check_serre(mod)
    check_serre(tensor(sub_n(3), quotient_u(3)))
    check_serre(wedge(adjoint_g(3), 2))


def test_adjoint_lowering_matches_bracket():
    for m in (3, 4):
        g = adjoint_g(m)
        for mu in weights(g):
            for i in range(1, m):
                tgt = rootdata.sub(mu, rootdata.simple_root(m, i))
                mat = g.lower_matrix(i, mu)
                for col, lbl in enumerate(g.labels(mu)):
                    expect = bracket(m, ("E", i, i - 1), lbl)
                    got = {}
                    for (r, c), v in mat.entries.items():
                        if c == col:
                            got[g.labels(tgt)[r]] = v
                    expect = {k: Fraction(v) for k, v in expect.items()
                              if k in set(g.labels(tgt))}
                    assert got == expect


def test_root_lowering_matches_bracket_on_adjoint():
    # f_{(a,b)} = E_{b,a} acts on g by the bracket, every label of which
    # lies in the target weight space
    columns = {}
    for m in (3, 4):
        g = adjoint_g(m)
        columns[m] = 0
        for a, b in rootdata.positive_roots(m):
            for mu in weights(g):
                tgt = rootdata.sub(mu, rootdata.root_weight(m, a, b))
                if tgt not in g.spaces:
                    continue
                mat = g.root_lower_matrix((a, b), mu)
                assert (mat.nrows, mat.ncols) == (len(g.labels(tgt)), len(g.labels(mu)))
                for col, lbl in enumerate(g.labels(mu)):
                    got = {g.labels(tgt)[r]: v for (r, c), v in mat.entries.items() if c == col}
                    assert got == bracket(m, ("E", b, a), lbl)
                    columns[m] += 1
    assert columns == {3: 15, 4: 48}


@pytest.mark.parametrize("build", [lambda: tensor(sub_n(4), quotient_u(4)),
                                   lambda: dual(adjoint_g(4)),
                                   lambda: irreducible_module(4, (1, 0, 1)),
                                   lambda: springer.build_vk_component(4, 4, 2).module,
                                   lambda: springer.build_vk_component(4, 6, 4).module],
                         ids=["n(x)u_sl4", "dual_g4", "L101", "V4^-4_sl4", "V6^-8_sl4"])
def test_root_lowering_is_the_commutator_of_shorter_roots(build):
    # the reference for each module's own action of f_(a,b) = E_ba is the
    # recursion f_(a,b) = [f_b, f_(a,b-1)], formed as one product_sum
    mod = build()
    m, checked = mod.m, 0
    for a, b in rootdata.positive_roots(m):
        if b == a + 1:
            continue
        for mu in weights(mod):
            mid1 = rootdata.sub(mu, rootdata.root_weight(m, a, b - 1))
            mid2 = rootdata.sub(mu, rootdata.simple_root(m, b))
            want = product_sum([
                (1, mod.lower_matrix(b, mid1), mod.root_lower_matrix((a, b - 1), mu)),
                (-1, mod.root_lower_matrix((a, b - 1), mid2), mod.lower_matrix(b, mu))])
            assert mod.root_lower_matrix((a, b), mu) == want
            checked += bool(want.cols)
    assert checked


def test_natural_module_lowering_chain():
    # f_1 v_0 = v_1, then f_2 v_1 = v_2, then f_3 v_2 = v_3
    nat = natural_module(4)
    tgt, mat = nat.word_matrices(rootdata.from_eps([1, 0, 0, 0]), [(1, 2, 3)])[(1, 2, 3)]
    assert tgt == rootdata.from_eps([0, 0, 0, 1])
    assert mat.entries == {(0, 0): 1}


_WORD_MODULES = {
    "g4": adjoint_g(4),
    "n3 (x) u3": tensor(sub_n(3), quotient_u(3)),
    "natural4": natural_module(4),
    "g3": adjoint_g(3),
}


@st.composite
def _module_weight_words(draw):
    """A module, one of its weights, and words in its f_i that share a
    random stem, so that one call gets words with common prefixes."""
    name = draw(st.sampled_from(sorted(_WORD_MODULES)))
    mod = _WORD_MODULES[name]
    letters = st.integers(1, mod.m - 1)
    stem = draw(st.lists(letters, max_size=3))
    tails = st.lists(letters, min_size=1, max_size=3)
    words = draw(st.lists(tails.map(lambda tail: tuple(stem + tail)), min_size=1, max_size=4))
    return name, draw(st.sampled_from(weights(mod))), words


@given(_module_weight_words())
@example(("natural4", rootdata.from_eps([1, 0, 0, 0]), [(1, 2, 3)]))
@example(("g3", (1, 1), [(1, 2), (2, 1)]))
@settings(max_examples=60, deadline=None)
def test_word_products_are_chained_lowering_on_unit_vectors(case):
    # word[0] acts first: every prefix product, on each unit vector,
    # equals applying the letters one at a time with apply_lower
    name, mu, words = case
    mod = _WORD_MODULES[name]
    prods = mod.word_matrices(mu, words)
    assert set(prods) == {w[:n] for w in words for n in range(1, len(w) + 1)}
    for prefix, (tgt, mat) in prods.items():
        for col in range(mod.weight_dim(mu)):
            cur, vec = mu, {col: 1}
            for i in prefix:
                cur, vec = mod.apply_lower(i, cur, vec)
            assert tgt == cur
            assert {r: v for (r, c), v in mat.entries.items() if c == col} == vec


def test_tensor_wedge_sym_dimensions():
    g = adjoint_g(3)
    n = sub_n(3)
    assert tensor(g, n).dim == 8 * 3
    assert wedge(g, 2).dim == 8 * 7 // 2
    assert sym(n, 2).dim == 3 * 4 // 2
    assert direct_sum(g, n).dim == 11


def test_character_multiplicativity_under_tensor():
    a = sub_n(3)
    b = quotient_u(3)
    ca, cb = character(a), character(b)
    expect = {}
    for mu, da in ca.items():
        for nu, db in cb.items():
            key = rootdata.add(mu, nu)
            expect[key] = expect.get(key, 0) + da * db
    assert character(tensor(a, b)) == expect


def test_dual_negates_weights():
    n = sub_n(3)
    d = dual(n)
    assert character(d) == {tuple(-c for c in mu): v
                            for mu, v in character(n).items()}
    check_serre(d)


def test_lie_labels_are_sorted_and_split_g_into_b_and_u():
    # springer's wedge bases and _insert_sorted rely on the sorted order
    for m in (2, 3, 4, 5):
        g, b, n, u = (lie_labels(m, name) for name in "gbnu")
        for labels in (g, b, n, u):
            assert labels == sorted(labels)
        assert sorted(b + u) == g
        assert n == [x for x in b if x[0] == "E"]


def test_irreducible_module_dimensions():
    cases = [(2, (3,)), (3, (1, 1)), (3, (2, 0)), (4, (1, 0, 1)), (4, (0, 1, 0))]
    for m, lam in cases:
        mod = irreducible_module(m, lam)
        assert mod.dim == rootdata.weyl_dim(lam)
        check_serre(mod)


def test_irreducible_adjoint_matches_adjoint_character():
    for m in (3, 4):
        theta = tuple([1] + [0] * (m - 3) + [1]) if m > 2 else (2,)
        mod = irreducible_module(m, theta)
        assert character(mod) == character(adjoint_g(m))


def test_action_landing_at_the_wrong_weight_raises():
    # f_(0,1) sends v_0 to v_1 on the natural module; v_2 has another weight
    nat = natural_module(3)
    labeled = [(lbl, mu) for mu, lbls in nat.spaces.items() for lbl in lbls]

    def act(root, lbl):
        return {("v", 2): 1} if (root, lbl) == ((0, 1), ("v", 0)) else {}

    # the action runs on the first read of a matrix, not at construction
    mod = bmodule._module_from_action(3, labeled, act)
    with pytest.raises(ValueError,
                       match=r"f_\(0, 1\) sends \('v', 0\) to \('v', 2\), not to weight"):
        mod.lower_matrix(1, labeled[0][1])


def test_each_lowering_matrix_is_formed_once_on_first_read():
    # the action runs once per (i, mu) whose two weight spaces have
    # labels, zero matrices included, however often and by whichever
    # path the matrix is read; non-simple roots are formed on each call
    g = adjoint_g(4)
    want = {((i - 1, i), mu) for mu in g.spaces for i in range(1, 4)
            if rootdata.sub(mu, rootdata.simple_root(4, i)) in g.spaces}
    zero, calls = min(want), []

    def columns(root, mu, target):
        calls.append((root, mu))
        return {} if (root, mu) == zero else g.columns(root, mu, target)

    mod = BModule(4, g.spaces, columns)
    assert calls == []
    for _ in range(2):
        lowered = every_lowering(mod)
        for mu in mod.spaces:
            mod.word_matrices(mu, [(1, 2, 3), (3, 2, 1), (2, 1, 3)])
        for (a, b), mu in want:
            assert mod.root_lower_matrix((a, b), mu) is mod.lower_matrix(b, mu)
    assert sorted(calls) == sorted(want)
    assert (zero[0][1], zero[1]) not in lowered and len(lowered) == len(want) - 1
    calls.clear()
    root = (0, 2)
    mu = next(mu for mu in mod.spaces
              if rootdata.sub(mu, rootdata.root_weight(4, *root)) in mod.spaces)
    for _ in range(2):
        mod.root_lower_matrix(root, mu)
    assert calls == [(root, mu)] * 2


def test_incomplete_module_raises_outside_window():
    g = adjoint_g(3)
    windowed = BModule(3, {mu: g.labels(mu) for mu in [(1, 1)]}, columns_from({}),
                       window={(1, 1)})
    with pytest.raises(MissingWeightSpace):
        windowed.lower_matrix(1, (0, 0))


_DOUBLE_ONE_LOWERING = """
from springercenter.bmodule import BModule, adjoint_g
g = adjoint_g(3)
key = min((i, mu) for mu in g.spaces for i in (1, 2) if g.lower_matrix(i, mu).cols)

def columns(root, mu, target):
    cols = g.columns(root, mu, target)
    if (root, mu) == ((key[0] - 1, key[0]), key[1]):
        return {c: {r: 2 * v for r, v in col.items()} for c, col in cols.items()}
    return cols

mod = BModule(3, g.spaces, columns)
"""


def test_check_serre_raises_when_distant_generators_fail_to_commute():
    # four lines at mu, mu - alpha_1, mu - alpha_3, mu - alpha_1 - alpha_3:
    # f_3 f_1 = 2 but f_1 f_3 = 1 on mu, while f_2 is zero, so every
    # relation with |i - j| = 1 holds
    m, mu = 4, (0, 0, 0)
    a1, a3 = rootdata.simple_root(m, 1), rootdata.simple_root(m, 3)
    both = rootdata.sub(rootdata.sub(mu, a1), a3)
    spaces = {mu: ["a"], rootdata.sub(mu, a1): ["b"], rootdata.sub(mu, a3): ["c"],
              both: ["d"]}
    lower = {(1, mu): SparseMatrix(1, 1, {(0, 0): 1}),
             (3, mu): SparseMatrix(1, 1, {(0, 0): 1}),
             (1, rootdata.sub(mu, a3)): SparseMatrix(1, 1, {(0, 0): 1}),
             (3, rootdata.sub(mu, a1)): SparseMatrix(1, 1, {(0, 0): 2})}
    failure = r"Serre relation \(1,3\) fails at weight \(0, 0, 0\)"
    with pytest.raises(SerreRelationFails, match=failure):
        check_serre(BModule(m, spaces, columns_from(lower)))
    lower[(3, rootdata.sub(mu, a1))] = SparseMatrix(1, 1, {(0, 0): 1})
    assert check_serre(BModule(m, spaces, columns_from(lower))) == 4 * len(serre_relations(m))


def test_check_serre_raises_on_a_doubled_lowering_matrix():
    # one source builds the broken module here and in the subprocess
    scope = {}
    exec(_DOUBLE_ONE_LOWERING, scope)
    with pytest.raises(SerreRelationFails, match="Serre relation"):
        check_serre(scope["mod"])
    # python -O strips asserts; the failure must still be raised
    code = _DOUBLE_ONE_LOWERING + "\n".join([
        "import sys",
        "from springercenter.bmodule import check_serre, SerreRelationFails",
        "assert False, 'asserts are live'",
        "try:",
        "    check_serre(mod)",
        "except SerreRelationFails:",
        "    sys.exit(3)",
    ])
    src = os.path.dirname(os.path.dirname(springercenter.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr


def _generic_modules():
    n3, u3, g3, n4 = sub_n(3), quotient_u(3), adjoint_g(3), sub_n(4)
    l21 = irreducible_module(3, (2, 1))
    # f_i halved on the natural module, so f_(a,b) = E_ba / 2^(b-a): sym^2
    # doubles the f_i entries back to integers, which must be stored as ints
    nat = natural_module(3)
    half = bmodule._module_from_action(
        3, [(lbl, mu) for mu, lbls in nat.spaces.items() for lbl in lbls],
        lambda root, lbl: ({("v", root[1]): Fraction(1, 2 ** (root[1] - root[0]))}
                           if lbl[1] == root[0] else {}))
    return [sym(half, 2), tensor(half, dual(half)), wedge(half, 2),
            tensor(n3, u3), tensor(l21, wedge(natural_module(3), 2)),
            wedge(g3, 2), wedge(n4, 3), wedge(tensor(n3, u3), 2),
            sym(u3, 2), sym(l21, 2), sym(dual(n3), 3),
            direct_sum(g3, dual(sub_b(3))), direct_sum(n4, quotient_u(4)),
            dual(g3), dual(tensor(n4, n4)), dual(l21),
            l21, irreducible_module(3, (1, 1)), irreducible_module(4, (1, 0, 1)),
            irreducible_module(4, (0, 2, 1))]


def test_generic_module_matrices_are_pinned():
    # weight, dim and the sorted entries of every lowering matrix, with
    # their int or Fraction type, of the generic constructors on sl3/sl4
    # inputs; labels are left out, so only the matrices are pinned
    seen = []
    for mod in _generic_modules():
        seen.append([(mu, len(mod.spaces[mu])) for mu in sorted(mod.spaces)])
        for mu in sorted(mod.spaces):
            for i in range(1, mod.m):
                if rootdata.sub(mu, rootdata.simple_root(mod.m, i)) in mod.spaces:
                    mat = mod.lower_matrix(i, mu)
                    seen.append((i, mu, mat.nrows, mat.ncols, sorted(mat.entries.items())))
    assert (hashlib.sha256(repr(seen).encode()).hexdigest()
            == "50ec75cc0bf3a60b8a37d3f24c045c5f2b381f7f7d2bafc08a3e553c5ba98cde")


def test_non_simple_root_matrices_are_pinned():
    # root, weight, shape and the sorted entries, with their int or
    # Fraction type, of every non-simple f_(a,b) = E_ba on the generic
    # modules and on the six V_k^{-2r} of the ce-sl4 benchmark
    mods = _generic_modules() + [springer.build_vk_component(4, k, r).module for k, r
                                 in [(2, 1), (3, 2), (4, 2), (4, 3), (5, 4), (6, 4)]]
    seen = []
    for mod in mods:
        for mu in sorted(mod.spaces):
            for a, b in rootdata.positive_roots(mod.m):
                tgt = rootdata.sub(mu, rootdata.root_weight(mod.m, a, b))
                if b > a + 1 and tgt in mod.spaces:
                    mat = mod.root_lower_matrix((a, b), mu)
                    seen.append(((a, b), mu, mat.nrows, mat.ncols, sorted(mat.entries.items())))
    assert len(seen) == 969
    assert (hashlib.sha256(repr(seen).encode()).hexdigest()
            == "e2ba79332bfa44201b9cf95c780a3b60e135113075c474409c724b01b4e24103")
