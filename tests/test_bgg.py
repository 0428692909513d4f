import concurrent.futures
import hashlib
import itertools
import json
import logging
import os
import random
import subprocess
import sys
import weakref

import pytest

import springercenter
from springercenter import rootdata, bgg, coinvariants, springer
from springercenter.bgg import (
    bgg_data, bgg_cochain, cochain_window, multiplicity, diamond_entries,
    hodge_entry, hodge_diamond,
)
from springercenter.bmodule import (
    adjoint_g, sub_n, quotient_u, trivial_module, tensor, wedge, sym, serre_relations,
)
from springercenter.exactla import CochainComplex, RowReducer
from springercenter.ce_oracle import ce_cohomology
from helpers import SerreQuotient, character, composite_resolution, kernel_line, pbw_sum

# direct sl5 diamond entries whose components build in well under a second
SL5_ENTRIES = [(1, 1), (0, 2), (2, 2), (1, 3), (3, 3), (2, 4), (4, 4)]

# direct sl5 entries whose three terms take about 0.9 s together, half
# of it (4,8)
SL5_CHEAP_ENTRIES = [(0, 4), (3, 5), (4, 6), (4, 8), (5, 5), (5, 7), (6, 6), (6, 8),
                     (6, 10), (7, 7), (7, 9), (8, 8), (8, 10), (9, 9), (10, 10)]


def _assert_arrows_cover_bruhat_graph(m):
    got = set()
    for (w, w2), terms in bgg_data(m).arrows.items():
        u = rootdata.WeylElement.from_word(m, w).perm
        v = rootdata.WeylElement.from_word(m, w2).perm
        got.add((u, v))
        assert all(type(c) is int for c, _ in terms)
    assert got == {(e.lower.perm, e.upper.perm) for e in rootdata.bruhat_graph(m)}


def test_arrows_cover_bruhat_graph():
    for m in (2, 3, 4):
        _assert_arrows_cover_bruhat_graph(m)


def _kostant(counts, roots):
    """Ways to write counts (coefficients on the simple roots) as a sum of
    the given positive roots, with repetition."""
    if not any(counts):
        return 1
    if not roots:
        return 0
    head, rest = roots[0], roots[1:]
    total, cur = 0, counts
    while min(cur) >= 0:
        total += _kostant(cur, rest)
        cur = tuple(c - h for c, h in zip(cur, head))
    return total


def _roots(m):
    """The positive roots as counts on the simple roots."""
    return [tuple(1 if a < i <= b else 0 for i in range(1, m))
            for a in range(m) for b in range(a + 1, m)]


# the most of each f_i at the weights the Serre quotient tests check, by m
SERRE_TOPS = {3: 3, 4: 2}


def _small_weights(m):
    """The nonzero weights with at most SERRE_TOPS[m] of each f_i."""
    return [counts for counts in itertools.product(range(SERRE_TOPS.get(m, 0) + 1), repeat=m - 1)
            if any(counts)]


def _serre_quotients():
    """(env, counts, words, reducer of the Serre ideal, Kostant number)
    at every _small_weights weight for sl3 and sl4."""
    for m in SERRE_TOPS:
        env, reference = bgg._Enveloping(m), SerreQuotient(m)
        for counts in _small_weights(m):
            words, reducer = reference.space(counts)
            yield env, counts, words, reducer, _kostant(counts, _roots(m))


def test_serre_quotient_has_the_pbw_dimension():
    # PBW: dim U(n^-) at a weight is the Kostant partition number
    for _, counts, words, reducer, kostant in _serre_quotients():
        assert len(words) - reducer.rank == kostant, counts


def test_standard_words_are_the_serre_quotients_kept_words():
    # on the weights above, and on the drop of every arrow of the
    # resolution at m = 3, 4, 5 (the letter counts of its words)
    for m in (3, 4, 5):
        env, reference = bgg._Enveloping(m), SerreQuotient(m)
        drops = {tuple(word.count(i) for i in range(1, m))
                 for terms in bgg_data(m).arrows.values() for _, word in terms}
        for counts in sorted(drops.union(_small_weights(m))):
            words = env.standard_words(counts)
            assert words == reference.kept(counts), (m, counts)
            assert len(words) == _kostant(counts, _roots(m)), (m, counts)


def _straighten(env, terms):
    out = {}
    for c, word in terms:
        bgg._accumulate(out, env.pbw(word), c)
    return out


def test_serre_relations_straighten_to_zero():
    for m in range(2, 7):
        env = bgg._Enveloping(m)
        for rel in serre_relations(m):
            assert _straighten(env, rel) == {}, (m, rel)


def test_straightening_is_associative():
    # (f_x f_y) f_z = f_x (f_y f_z) on every triple of root vectors: the
    # Jacobi identity of the bracket table, which no Serre relation sees
    for m in range(2, 7):
        env = bgg._Enveloping(m)

        def times(p, q):
            out = {}
            for mono, c in q.items():
                prod = p
                for x in mono:
                    step = {}
                    for head, v in prod.items():
                        bgg._accumulate(step, env._times(head, x), v)
                    prod = step
                bgg._accumulate(out, prod, c)
            return out

        for x, y, z in itertools.product(range(len(rootdata.positive_roots(m))), repeat=3):
            fx, fy, fz = {(x,): 1}, {(y,): 1}, {(z,): 1}
            assert times(times(fx, fy), fz) == times(fx, times(fy, fz)), (m, x, y, z)


def test_pbw_normal_form_is_the_serre_quotient():
    # the words' PBW images span the Kostant number of monomials, and
    # every echelon row of the Serre ideal maps to zero
    for env, counts, words, reducer, kostant in _serre_quotients():
        images = [env.pbw(w) for w in words]
        column = {mono: c for c, mono in enumerate({mono for im in images for mono in im})}
        span = RowReducer()
        for im in images:
            span.add({column[mono]: v for mono, v in im.items()})
        assert span.rank == len(column) == kostant, counts
        for row in reducer.echelon.values():
            assert _straighten(env, [(v, words[c]) for c, v in row.items()]) == {}, counts


def _bgg_digest(m):
    """sha256 of the arrows, nodes and node weights of bgg_data(m)."""
    data = bgg_data(m)
    return hashlib.sha256(repr((sorted(data.arrows.items()), data.nodes,
                                sorted(data.weight.items()))).encode()).hexdigest()


def test_bgg_data_4_is_pinned():
    assert _bgg_digest(4) == "844110b85fb22f9abbe5e776527c770a35e08a0d43828facc4cb90a852bb6a8c"


def test_bgg_data_5_is_pinned():
    # arrows, nodes and node weights of the generated sl5 resolution
    assert _bgg_digest(5) == "34ea3932014d23fa69d9aee6a58263698897100c76d96b37fc837a0f53acf9d8"


def test_bgg_data_6_is_pinned():
    assert _bgg_digest(6) == "b4ad5ba8a6ee8155547b3c74292fbc55590b05f94725cd1498c584f0026b4fd9"


def test_resolution_equals_the_composite_expansion_reference():
    # the scalars solved on coefficient sums are those solved on the
    # composites expanded in PBW coordinates
    for m in (2, 3, 4, 5):
        assert bgg._resolution(m) == composite_resolution(m), m


def test_scaled_paths_cancel_in_pbw_coordinates():
    # for every up and every lo two layers below, the paths lo -> mid ->
    # up sum to zero in U(n^-); a length-2 Bruhat interval has 0 or 2 mids
    for m in (2, 3, 4, 5):
        res, env = bgg._resolution(m), bgg._Enveloping(m)
        into = {}
        for lo, up in res:
            into.setdefault(up, []).append(lo)
        for up, mids in into.items():
            for lo in {lo for mid in mids for lo in into.get(mid, ())}:
                paths = [mid for mid in mids if (lo, mid) in res]
                assert len(paths) == 2, (m, lo, up)
                assert pbw_sum(env, [(c * d, v + u) for mid in paths for c, u in res[lo, mid]
                                     for d, v in res[mid, up]]) == {}, (m, lo, up)


def test_every_arrow_coefficient_sum_is_a_sign():
    # pi sends each arrow to its coefficient sum times x^weight; the
    # cancellation systems need it nonzero, and it is +-1
    for m in (2, 3, 4, 5):
        assert {abs(sum(c for c, _ in terms)) for terms in bgg_data(m).arrows.values()} == {1}


def test_zero_coefficient_sum_names_its_arrow(monkeypatch):
    # the singular vector of (1,) -> (1, 2), -2 f_1 f_2 + f_2 f_1, given
    # coefficients that sum to 0
    singular, mu = bgg._Enveloping.singular, rootdata.WeylElement.from_word(3, (1,)).dot((0, 0))

    def zero_sum(env, weight, counts):
        if weight == mu and counts == (1, 1):
            return [(-1, (1, 2)), (1, (2, 1))]
        return singular(env, weight, counts)

    monkeypatch.setattr(bgg._Enveloping, "singular", zero_sum)
    with pytest.raises(ValueError, match=r"arrow \(1,\) -> \(1, 2\) has coefficient sum 0"):
        bgg._resolution(3)


def test_line_runs_once_per_bruhat_edge(monkeypatch):
    # only the singular vectors are solved in PBW coordinates
    calls, line = [], bgg._Enveloping.line

    def counted(env, columns):
        calls.append(len(columns))
        return line(env, columns)

    monkeypatch.setattr(bgg._Enveloping, "line", counted)
    bgg._resolution(4)
    assert len(calls) == len(rootdata.bruhat_graph(4)) == 58


def test_line_is_the_coprime_kernel_basis_vector():
    # on random integer systems of every kernel dimension, zero rows and
    # columns included, and on the singular-vector systems at m = 4
    rng = random.Random(7)
    for _ in range(400):
        ncols = rng.randint(1, 6)
        rows = [{c: rng.choice([0, 0, 1, -1, 2, -3, 6]) for c in range(ncols)}
                for _ in range(rng.randint(0, ncols))]
        assert bgg._line(rows, ncols) == kernel_line(rows, ncols), (rows, ncols)
    env, systems, data = bgg._Enveloping(4), [], bgg_data(4)
    line = env.line
    env.line = lambda columns: systems.append(columns) or line(columns)
    for (w, _), terms in data.arrows.items():
        env.singular(data.weight[w], tuple(terms[0][1].count(i) for i in range(1, 4)))
    assert len(systems) == 58
    for columns in systems:
        rows = {}
        for col, combos in enumerate(columns):
            for key, terms in combos.items():
                for mono, v in pbw_sum(env, terms).items():
                    rows.setdefault((key, mono), {})[col] = v
        assert line(columns) == kernel_line(rows.values(), len(columns))


def test_generated_sl3_arrows_are_the_classical_singular_vectors():
    # product-order words: (1, 2) stands for f_1 f_2
    classical = {
        ((), (1,)): [(1, (1,))],
        ((), (2,)): [(1, (2,))],
        ((1,), (2, 1)): [(1, (2, 2))],
        ((1,), (1, 2)): [(-2, (1, 2)), (1, (2, 1))],
        ((2,), (1, 2)): [(1, (1, 1))],
        ((2,), (2, 1)): [(-2, (2, 1)), (1, (1, 2))],
        ((2, 1), (1, 2, 1)): [(1, (1,))],
        ((1, 2), (1, 2, 1)): [(1, (2,))],
    }
    env = bgg._Enveloping(3)
    generated = bgg._resolution(3)
    assert set(generated) == set(classical)
    for pair, terms in classical.items():
        # x generated + y classical = 0 in U(n^-) has a solution with x, y nonzero
        line = env.line([{0: generated[pair]}, {0: terms}])
        assert line is not None and len(line) == 2


def test_sl5_resolution_route_matches_diagonal_coinvariants():
    assert [len(layer) for layer in bgg_data(5).nodes] == rootdata.poincare_polynomial(5)
    _assert_arrows_cover_bruhat_graph(5)
    # each entry runs check_complex, so d.d = 0 is checked on its module
    dc = coinvariants.expected_diamond_from_dc(5)
    for (i, j) in SL5_ENTRIES + SL5_CHEAP_ENTRIES:
        assert hodge_entry(5, i, j) == dc[(i, j)], (i, j)


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
                assert data.weight[word] in window
        assert cochain_window(m, 0, m * (m - 1) // 2) == window


def test_truncated_degree_matches_the_whole_profile():
    # every degree of every sl3 and sl4 diamond component, including the
    # degrees that the diamond never reads
    for m in (3, 4):
        n = m * (m - 1) // 2
        for k, r in {bgg.entry_component(m, i, j) for (i, j) in diamond_entries(m)}:
            comp = springer.build_vk_component(m, k, r, window=cochain_window(m))
            profile = multiplicity(comp.module)
            assert [bgg.profile_degree(m, k, r, i) for i in range(n + 1)] == profile, (m, k, r)


def test_profile_degree_drops_the_module_before_ranking(monkeypatch):
    k, r = bgg.entry_component(4, 2, 4)
    want = bgg.profile_degree(4, k, r, 2)
    modules, alive = [], []
    build, ranks = springer.build_vk_component, CochainComplex.cohomology_dims

    def build_spy(*args, **kwargs):
        comp = build(*args, **kwargs)
        modules.append(weakref.ref(comp.module))
        return comp

    def ranks_spy(cx):
        alive.append(modules[-1]() is not None)
        return ranks(cx)

    monkeypatch.setattr(springer, "build_vk_component", build_spy)
    monkeypatch.setattr(CochainComplex, "cohomology_dims", ranks_spy)
    assert bgg.profile_degree(4, k, r, 2) == want
    assert alive == [False]


def test_profile_degree_logs_its_maps_at_info_only(caplog):
    k, r = bgg.entry_component(3, 1, 3)
    with caplog.at_level(logging.WARNING, logger="springercenter.bgg"):
        bgg.profile_degree(3, k, r, 1)
    assert not caplog.records
    with caplog.at_level(logging.INFO, logger="springercenter.bgg"):
        bgg.profile_degree(3, k, r, 1)
    assert [rec.getMessage() for rec in caplog.records] == [
        "V_3^{-4} degree 1: window 8 weights, module dim 12, maps ['4x1', '2x4']"]


def test_windowed_component_forms_only_the_lowerings_its_words_read():
    # bgg_cochain reads f_i at each weight that a prefix of an arrow's
    # word passes through, from the source nodes of layers lo..hi-1; the
    # component forms those f_i whose two weight spaces have labels and
    # no other, fewer than every f_i between its labelled weights
    m, lo, hi = 4, 1, 3
    data = bgg_data(m)
    mod = springer.build_vk_component(m, *bgg.entry_component(m, 2, 6),
                                      window=cochain_window(m, lo, hi)).module
    formed, act = [], mod.columns

    def columns(root, mu, target):
        formed.append((root[1], mu))
        return act(root, mu, target)

    mod.columns = columns
    bgg_cochain(mod, lo, hi)
    read = set()
    for (w, _), terms in data.arrows.items():
        if lo <= len(w) < hi:
            for _, word in terms:
                read.update(zip(word, rootdata.lowering_path(m, data.weight[w], word)))
    want = {(i, mu) for i, mu in read if mod.spaces.get(mu)
            and mod.spaces.get(rootdata.sub(mu, rootdata.simple_root(m, i)))}
    assert sorted(formed) == sorted(want)
    labelled = sum(1 for mu in mod.spaces for i in range(1, m)
                   if mod.spaces.get(rootdata.sub(mu, rootdata.simple_root(m, i))))
    assert len(want) < labelled


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
    assert ce_cohomology(tensor(sub_n(3), quotient_u(3)), rho) == [0, 2, 0, 0]
    assert ce_cohomology(quotient_u(3), rho) == [1, 0, 0, 0]


def test_nonzero_weight_agrees_with_lie_algebra_route():
    # a nonzero lam runs on the Lie algebra route; its Euler
    # characteristic must be that of the resolution complex, sum over
    # w of (-1)^l(w) dim E[w.lam], read off the character
    cases = [(tensor(sub_n(3), quotient_u(3)), (1, 1)),
             (adjoint_g(3), (1, 1)),
             (wedge(sub_n(3), 2), (0, 1)),
             (quotient_u(3), (2, 0)),
             (adjoint_g(4), (1, 0, 1)),
             (sym(quotient_u(3), 2), (2, 2))]
    for mod, lam in cases:
        assert _euler(ce_cohomology(mod, lam)) == _euler_from_character(character(mod), mod.m, lam)


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


def test_unknown_method_is_refused_before_building(monkeypatch):
    # a method other than "bgg" or "ce", even "CE", must not fall through
    # to a route, nor start a pool whose workers each fail their entry
    def build(*args, **kwargs):
        raise AssertionError("a component was built")

    def pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(springer, "build_vk_component", build)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    for jobs, method in itertools.product((1, 2), ("CE", "resolution")):
        with pytest.raises(ValueError, match="unknown method %r" % method):
            hodge_diamond(3, jobs=jobs, method=method)


def test_parallel_diamond_matches_serial():
    assert hodge_diamond(3, jobs=2) == hodge_diamond(3)


def test_entries_fold_onto_one_component_across_the_middle():
    assert bgg.entry_component(3, 1, 5) == bgg.entry_component(3, 1, 1) == (1, 1)
    assert bgg.entry_component(3, 0, 4) == bgg.entry_component(3, 0, 2) == (2, 1)
    with pytest.raises(ValueError, match="no diamond entry"):
        bgg.entry_component(3, 0, 1)


def test_parallel_failure_names_its_entry(monkeypatch):
    real = bgg.hodge_entry

    def failing(m, i, j, method="bgg"):
        if (i, j) == (1, 3):
            raise ZeroDivisionError("boom")
        return real(m, i, j, method)

    # pool workers fork after the patch, so they run it too
    monkeypatch.setattr(bgg, "hodge_entry", failing)
    with pytest.raises(bgg.EntryFailed, match=r"entry \(1, 3\).*ZeroDivisionError: boom"):
        hodge_diamond(3, jobs=2)


def test_parallel_ce_failure_names_its_entry(monkeypatch):
    # the CE route builds complete components; (1, 3) is on V_3^{-4}
    real = springer.build_vk_component

    def failing(m, k, r, window=None):
        if (k, r) == (3, 2) and window is None:
            raise ZeroDivisionError("boom")
        return real(m, k, r, window=window)

    monkeypatch.setattr(springer, "build_vk_component", failing)
    with pytest.raises(bgg.EntryFailed, match=r"entry \(1, 3\).*ZeroDivisionError: boom"):
        hodge_diamond(3, jobs=2, method="ce")


def test_arrow_landing_at_the_wrong_weight_raises(monkeypatch):
    # validated data whose arrow () -> (1,) is swapped afterwards for f_2,
    # which drops by alpha_2 instead of alpha_1
    data = bgg.BGGData(3, bgg._resolution(3))
    data.arrows[((), (1,))] = [(1, (2,))]
    monkeypatch.setattr(bgg, "bgg_data", lambda m: data)
    with pytest.raises(ValueError, match="lands at weight"):
        bgg_cochain(trivial_module(3))


def test_validation_rejects_an_arrow_with_the_wrong_weight_drop():
    res = bgg._resolution(3)
    res[((), (1,))] = [(1, (2,))]
    with pytest.raises(ValueError, match="wrong weight"):
        bgg.BGGData(3, res)


def test_validation_rejects_a_word_that_is_not_reduced():
    # node (1, 2) renamed (2, 2): length 2, but s_2 s_2 is the identity
    def rename(w):
        return (2, 2) if w == (1, 2) else w

    res = {(rename(w), rename(w2)): terms
           for (w, w2), terms in bgg._resolution(3).items()}
    with pytest.raises(ValueError, match="not reduced"):
        bgg.BGGData(3, res)


def test_validation_rejects_a_missing_node():
    res = {pair: terms for pair, terms in bgg._resolution(3).items()
           if pair[1] != (1, 2, 1)}
    with pytest.raises(ValueError, match="miss Weyl"):
        bgg.BGGData(3, res)


def _reference_cochain(e):
    """bgg_cochain assembled column by column, one unit vector at a time
    through apply_lowering_polynomial."""
    data = bgg_data(e.m)
    offsets, dims = [], []
    for layer in data.nodes:
        off, total = {}, 0
        for word in layer:
            off[word] = total
            total += e.weight_dim(data.weight[word])
        offsets.append(off)
        dims.append(total)
    maps = []
    for t in range(len(data.nodes) - 1):
        ent = {}
        for (w, w2), terms in data.arrows.items():
            if len(w) != t:
                continue
            mu = data.weight[w]
            for col in range(e.weight_dim(mu)):
                tgt, vec = e.apply_lowering_polynomial(terms, mu, {col: 1})
                assert tgt == data.weight[w2]
                for row, v in vec.items():
                    key = (offsets[t + 1][w2] + row, offsets[t][w] + col)
                    ent[key] = ent.get(key, 0) + v
        maps.append((dims[t + 1], dims[t], {k: v for k, v in ent.items() if v}))
    return dims, maps


def _assert_matches_reference(e):
    cx = bgg_cochain(e)
    dims, maps = _reference_cochain(e)
    assert cx.dims == dims
    assert [(mp.nrows, mp.ncols, mp.entries) for mp in cx.maps] == maps
    for mp in cx.maps:
        assert all(type(v) is int for v in mp.entries.values())


def test_word_product_assembly_matches_column_by_column_at_m3():
    for k in range(7):
        for r in range(max(0, k - 3), min(k, 3) + 1):
            _assert_matches_reference(springer.build_vk_component(3, k, r).module)
            comp = springer.build_vk_component(3, k, r, window=cochain_window(3))
            _assert_matches_reference(comp.module)


def test_word_product_assembly_matches_column_by_column_at_m4():
    # the three largest windowed sl4 components
    window = cochain_window(4)
    for k, r in [(6, 3), (4, 2), (5, 3)]:
        _assert_matches_reference(springer.build_vk_component(4, k, r, window=window).module)


def _euler_from_character(char, m, lam=None):
    """sum over w of (-1)^l(w) dim E[w.lam] for the character of E, with
    no elimination; lam defaults to the zero weight."""
    lam = lam or tuple([0] * (m - 1))
    return sum((-1) ** w.length() * char.get(w.dot(lam), 0)
               for w in rootdata.weyl_group(m))


def _quotient_euler(m, k, r):
    return _euler_from_character(springer.quotient_character(m, k, r), m)


def _euler(profile):
    return sum((-1) ** i * h for i, h in enumerate(profile))


def test_euler_identity_on_sl3_profiles_of_both_routes():
    for k in range(7):
        for r in range(max(0, k - 3), min(k, 3) + 1):
            mod = springer.build_vk_component(3, k, r).module
            want = _quotient_euler(3, k, r)
            assert _euler(ce_cohomology(mod)) == want
            assert _euler(multiplicity(mod)) == want


def test_euler_identity_on_sl4_ce_profiles():
    for k, r in [(2, 1), (3, 2), (4, 2), (4, 3), (5, 4), (6, 4)]:
        mod = springer.build_vk_component(4, k, r).module
        assert _euler(ce_cohomology(mod)) == _quotient_euler(4, k, r)


def test_euler_identity_on_sl4_and_sl5_resolution_profiles():
    # every sl4 diamond component and the components of the sl5 entries,
    # on the windowed modules the diamond runs over
    comps = [(4, k, r) for k, r in {bgg.entry_component(4, i, j)
                                    for (i, j) in diamond_entries(4)}]
    assert len(comps) == 16
    comps += [(5,) + bgg.entry_component(5, i, j) for (i, j) in SL5_ENTRIES]
    for m, k, r in comps:
        comp = springer.build_vk_component(m, k, r, window=cochain_window(m))
        profile = bgg_cochain(comp.module).cohomology_dims()
        assert _euler(profile) == _quotient_euler(m, k, r)


def test_both_routes_run_with_asserts_stripped():
    # python -O removes every assert, so the invariant checks on these
    # paths must be raised exceptions to survive it
    code = "\n".join([
        "import json, sys",
        "from springercenter import bgg, ce_oracle, springer",
        "mod = springer.build_vk_component(3, 2, 1).module",
        "print(json.dumps([sys.flags.optimize,",
        "                  sum(bgg.hodge_diamond(3).values()),",
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
