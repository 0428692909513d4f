import hashlib
import itertools
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from springercenter import rootdata, bgg, bmodule, springer
from springercenter.bmodule import sub_n, check_serre, MissingWeightSpace
from springercenter.exactla import RowReducer, SparseMatrix
from helpers import character, every_lowering
from springercenter.springer import (
    duality_partner, ambient_bases, ambient_component, build_vk_component,
    quotient_character, trivial_summand_witness, WitnessNotInvariant,
    WitnessNotUnique, delta_subspace,
)


def test_duality_partner_involution():
    for m in (2, 3, 4):
        n = m * (m - 1) // 2
        for k in range(0, 2 * n + 1):
            for r in range(0, n + 1):
                k2, r2 = duality_partner(m, k, r)
                assert duality_partner(m, k2, r2) == (k, r)


def test_lowest_weight_component_is_wedge_of_n():
    # when r = k every generator comes from n, so the quotient is just
    # the k-th wedge of n
    for m, k in [(2, 1), (3, 2), (3, 3)]:
        comp = build_vk_component(m, k, k)
        expect = sub_n(m)
        from springercenter.bmodule import wedge
        if k > 1:
            expect = wedge(sub_n(m), k)
        assert character(comp.module) == character(expect)


def test_degree_minus_two_tangent_is_n():
    for m in (2, 3, 4):
        comp = build_vk_component(m, 1, 1)
        assert character(comp.module) == character(sub_n(m))


def test_degree_zero_tangent_weight_zero_dimension():
    # (g + u(x)n)/Delta(b) at weight 0: the ambient space has dimension
    # (m-1) + #positive roots and Delta(b) injects, leaving n dimensions
    for m in (2, 3, 4):
        n = m * (m - 1) // 2
        comp = build_vk_component(m, 1, 0)
        zero = tuple([0] * (m - 1))
        assert comp.module.weight_dim(zero) == n


def test_quotient_dimensions_are_consistent():
    for (m, k, r) in [(3, 2, 1), (3, 3, 2), (4, 2, 1)]:
        bases = ambient_bases(m, k, r)
        comp = build_vk_component(m, k, r)
        for mu, amb in bases.items():
            cut = len(delta_subspace(m, k, r, mu))
            assert comp.module.weight_dim(mu) <= len(amb)
            # the spanning set can be redundant but never undershoots
            assert len(amb) - comp.module.weight_dim(mu) <= cut


def test_components_respect_serre_relations():
    for (m, k, r) in [(3, 2, 1), (3, 1, 0), (4, 2, 1)]:
        check_serre(build_vk_component(m, k, r).module)


def _per_degree_ranges(m):
    n = m * (m - 1) // 2
    return sorted({(max(i - 1, 0), min(i + 1, n)) for i in range(n + 1)})


def _diamond_components(m):
    return sorted({bgg.entry_component(m, i, j) for (i, j) in bgg.diamond_entries(m)})


def test_windowed_component_matches_complete_on_window():
    # labels in order and every lowering matrix entry for entry, in
    # insertion order, on each per-degree window of every diamond
    # component at sl3 and sl4
    for m in (3, 4):
        for k, r in _diamond_components(m):
            full = build_vk_component(m, k, r).module
            for lo, hi in _per_degree_ranges(m):
                window = bgg.cochain_window(m, lo, hi)
                part = build_vk_component(m, k, r, window=window).module
                assert set(part.spaces) <= window
                for mu in window:
                    assert part.spaces.get(mu) == full.spaces.get(mu), (m, k, r, lo, hi, mu)
                full_lower, part_lower = every_lowering(full), every_lowering(part)
                keys = {(i, mu) for (i, mu) in full_lower if mu in window
                        and rootdata.sub(mu, rootdata.simple_root(m, i)) in window}
                assert set(part_lower) == keys, (m, k, r, lo, hi)
                for key in keys:
                    got, want = part_lower[key], full_lower[key]
                    assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
                    assert list(got.entries.items()) == list(want.entries.items()), key


def _walk(m, k, r, window=None):
    return list(springer._blocks(m, k, r, partial(springer._graded, m), window))


# every diamond component at sl3 and sl4; at sl5 a few whose complete
# walks are short (at most 2,342 blocks), since every windowed walk
# still visits each block of the complete one
_WALKED = [(m, k, r) for m in (3, 4) for k, r in _diamond_components(m)]
_WALKED += [(5, 3, 2), (5, 6, 5), (5, 10, 8)]


def test_windowed_walk_is_the_complete_walk_on_the_window():
    # same blocks, the same list objects, in the same order, on every
    # window cochain_window(m, lo, hi) with lo <= hi
    for m, k, r in _WALKED:
        n = m * (m - 1) // 2
        full = _walk(m, k, r)
        for lo in range(n + 1):
            for hi in range(lo, n + 1):
                window = bgg.cochain_window(m, lo, hi)
                assert _walk(m, k, r, window) == [blk for blk in full if blk[0] in window], \
                    (m, k, r, lo, hi)


@st.composite
def _walk_windows(draw):
    m, k, r = draw(st.sampled_from([c for c in _WALKED if c[0] < 5]))
    weights = sorted({blk[0] for blk in _walk(m, k, r)})
    some = draw(st.lists(st.sampled_from(weights), max_size=len(weights)))
    other = draw(st.lists(st.tuples(*[st.integers(-9, 9)] * (m - 1)), max_size=4))
    return m, k, r, set(some) | set(other)


@given(_walk_windows())
@settings(max_examples=40, deadline=None)
def test_walk_on_any_window_filters_the_complete_walk(case):
    m, k, r, window = case
    assert _walk(m, k, r, window) == [blk for blk in _walk(m, k, r) if blk[0] in window]


def test_packed_codes_are_linear_and_checked():
    limit = 2 ** 15
    pack = springer._pack
    assert pack(()) == 0
    assert pack((3, -1, 2)) == 3 - 2 ** 16 + 2 * 2 ** 32
    edge = [(limit - 1, 1 - limit), (1 - limit, limit - 1), (0, limit - 1), (limit - 1, 0)]
    assert len({pack(mu) for mu in edge}) == len(edge)
    assert pack((limit - 1, -5)) + pack((-3, 7)) == pack((limit - 4, 2))
    for bad in [(limit, 0), (0, -limit), (1, 2, limit + 7)]:
        with pytest.raises(ValueError, match="packed range"):
            pack(bad)
    # a window weight outside the range, and factors that are each in
    # range but whose sum is not, both raise
    with pytest.raises(ValueError, match="packed range"):
        _walk(3, 2, 1, {(0, 0), (limit, 0)})
    big = {(limit // 3 + 1,): [()]}
    with pytest.raises(ValueError, match="packed range"):
        list(springer._blocks(2, 1, 0, lambda name, degree: big))


def _graded_by_tuples(m, name, degree):
    # the graded basis summing tuple weights label by label, as a
    # reference for _graded's packed sums
    gen = itertools.combinations_with_replacement if name == "u" else itertools.combinations
    out = {}
    for combo in gen(bmodule.lie_labels(m, name), degree):
        mu = tuple([0] * (m - 1))
        for lbl in combo:
            mu = rootdata.add(mu, bmodule.gl_label_weight(m, lbl))
        out.setdefault(mu, []).append(combo)
    return out


def test_graded_weight_codes_are_distinct_and_additive():
    # every wedge(n) degree for m <= 6, every wedge(g) degree for m <= 4
    # and the low degrees beyond; S(u) in degrees up to 4
    for m in (2, 3, 4, 5, 6):
        n = m * (m - 1) // 2
        gmax = m * m - 1 if m <= 4 else 3
        for name, degrees in (("n", range(n + 1)), ("g", range(gmax + 1)), ("u", range(5))):
            for degree in degrees:
                table = springer._graded(m, name, degree)
                assert list(table.items()) == list(_graded_by_tuples(m, name, degree).items())
                codes = [springer._pack(mu) for mu in table]
                assert len(set(codes)) == len(codes)
                weight = {lbl: springer._pack(bmodule.gl_label_weight(m, lbl))
                          for lbl in bmodule.lie_labels(m, name)}
                for code, combos in zip(codes, table.values()):
                    assert all(sum(weight[lbl] for lbl in c) == code for c in combos)


def test_windowed_component_raises_outside_its_window():
    # the degree-0 window of sl3 holds layers 0 and 1 only, so -2 rho,
    # the weight of the top node, is outside it
    m, k, r = 3, 3, 3
    comp = build_vk_component(m, k, r, window=bgg.cochain_window(m, 0, 1))
    top = (-2, -2)
    assert top not in bgg.cochain_window(m, 0, 1)
    assert build_vk_component(m, k, r).module.weight_dim(top)
    with pytest.raises(MissingWeightSpace):
        comp.module.weight_dim(top)
    with pytest.raises(MissingWeightSpace):
        comp.module.labels(top)


def test_projecting_a_vector_where_no_ambient_basis_exists_raises():
    m, k, r = 3, 2, 1
    empty = (9, 9)  # far above every ambient weight
    assert not ambient_component(m, k, r, empty)
    comp = build_vk_component(m, k, r, window=bgg.cochain_window(m) | {empty})
    assert comp.project(empty, {}) == {}
    label = ambient_component(m, k, r, (0, 0))[0]
    with pytest.raises(ValueError, match="not a kept label"):
        comp.project(empty, {label: 1})
    with pytest.raises(MissingWeightSpace):
        comp.project((8, 8), {label: 1})


def test_witness_is_the_poisson_bivector():
    # the b-invariant line in V_2^{-2} is spanned by
    # sum_gamma e_gamma (x) f_gamma + e_theta (x) f_1 ^ f_2 for sl3
    comp, lift = trivial_summand_witness(3)
    zero = (0, 0)
    explicit = {((), (("E", a, b),), (("E", b, a),)): Fraction(1)
                for (a, b) in [(0, 1), (1, 2), (0, 2)]}
    explicit[((("E", 0, 2),), (), (("E", 1, 0), ("E", 2, 1)))] = Fraction(1)
    assert comp.project(zero, explicit) == comp.project(zero, lift)


def test_top_witness_exists():
    # the top wedge power also contains exactly one trivial line
    for m in (2, 3):
        n = m * (m - 1) // 2
        comp, lift = trivial_summand_witness(m, 2 * n, n)
        assert lift


def test_missing_witness_raises():
    with pytest.raises(WitnessNotInvariant):
        trivial_summand_witness(2, 1, 1)  # V_1^{-2} = n has no weight 0


def test_witness_that_is_not_a_line_raises(monkeypatch):
    monkeypatch.setattr(springer, "kernel_basis", lambda rows, ncols: [{0: 1}, {1: 1}])
    with pytest.raises(WitnessNotUnique, match="not a line"):
        trivial_summand_witness(3)


def _ambient_act(m, root, label):
    """f_root applied to an ambient basis element, one label at a time;
    dict label -> coeff.  The per-label reference for VkComponent's
    factor tables."""
    mono, gset, nset = label
    out = {}

    def accum(lbl, c):
        if c:
            out[lbl] = out.get(lbl, 0) + c

    au = bmodule.lie_action(m, root, "u")
    for t, ul in enumerate(mono):
        for ul2, c in au[ul].items():
            accum((tuple(sorted(mono[:t] + (ul2,) + mono[t + 1:])), gset, nset), c)
    ag = bmodule.lie_action(m, root, "g")
    for t, gl in enumerate(gset):
        for gl2, c in ag[gl].items():
            rest = gset[:t] + gset[t + 1:]
            new, pos = springer._insert_sorted(rest, gl2)
            if new is None:
                continue
            sign = (-1) ** (pos - t) if pos > t else (-1) ** (t - pos)
            accum((mono, new, nset), c * sign)
    an = bmodule.lie_action(m, root, "n")
    for t, nl in enumerate(nset):
        for nl2, c in an[nl].items():
            rest = nset[:t] + nset[t + 1:]
            new, pos = springer._insert_sorted(rest, nl2)
            if new is None:
                continue
            sign = (-1) ** (pos - t) if pos > t else (-1) ** (t - pos)
            accum((mono, gset, new), c * sign)
    return {lbl: c for lbl, c in out.items() if c}


def _eliminated_component(m, k, r, window):
    """V_k^{-2r} the slow way: eliminate the span of delta_subspace at
    each weight and project lowering images onto the non-pivot labels.
    Returns (spaces, lowering entries by (i, mu))."""
    bases = ambient_bases(m, k, r)
    quots, spaces = {}, {}
    for mu in window:
        amb = bases.get(mu)
        if not amb:
            continue
        red = RowReducer()
        for vec in delta_subspace(m, k, r, mu):
            red.add(vec)
        kept = [c for c in range(len(amb)) if c not in red.echelon]
        quots[mu] = (red, {c: q for q, c in enumerate(kept)})
        if kept:
            spaces[mu] = [amb[c] for c in kept]
    lower = {}
    for mu, lbls in spaces.items():
        for i in range(1, m):
            target = rootdata.sub(mu, rootdata.simple_root(m, i))
            if target not in window:
                continue
            idx = {lbl: j for j, lbl in enumerate(bases.get(target, []))}
            ent = {}
            for col, lbl in enumerate(lbls):
                img = _ambient_act(m, (i - 1, i), lbl)
                if not img:
                    continue
                red, kept_col = quots[target]
                for c, v in red.reduce({idx[l]: v for l, v in img.items()}).items():
                    ent[(kept_col[c], col)] = v
            if ent:
                lower[(i, mu)] = SparseMatrix(len(spaces[target]), len(lbls), ent).entries
    return spaces, lower


def _assert_matches_elimination(m, k, r, window=None):
    comp = build_vk_component(m, k, r, window=window)
    if window is None:
        assert quotient_character(m, k, r) == character(comp.module)
        window = set(ambient_bases(m, k, r))
    spaces, lower = _eliminated_component(m, k, r, window)
    assert comp.module.spaces == spaces, (m, k, r)
    got = {key: mat.entries for key, mat in every_lowering(comp.module).items()}
    assert got == lower, (m, k, r)
    for mu in window:
        amb = ambient_component(m, k, r, mu)
        for vec in delta_subspace(m, k, r, mu):
            assert not comp.project(mu, {amb[j]: v for j, v in vec.items()}), (m, k, r, mu)


def test_substitution_matches_elimination_at_m2_m3():
    # the quotient basis is the labels with no b factor in g, and the
    # projection substitutes Delta(b) away: both must agree with
    # eliminating the Delta-span, label for label and entry for entry
    for m in (2, 3):
        n = m * (m - 1) // 2
        for k in range(0, 2 * n + 1):
            for r in range(max(0, k - n), min(k, n) + 1):
                _assert_matches_elimination(m, k, r)


def test_substitution_matches_elimination_at_m4():
    _assert_matches_elimination(4, 2, 1)
    _assert_matches_elimination(4, 4, 2, window=bgg.cochain_window(4))


def _lowering_snapshot(comp):
    # entries in insertion order, so the order is compared too
    return {key: (mat.nrows, mat.ncols, list(mat.entries.items()))
            for key, mat in every_lowering(comp.module).items()}


def test_factor_tables_match_acting_on_each_label_at_sl5():
    # the memoised per-factor images against acting on each kept label
    # and projecting, on the windowed sl5 component (4,2): every nonzero
    # f_i in insertion order, and every non-simple root the module forms
    m, k, r = 5, 4, 2
    window = bgg.cochain_window(m)
    comp = build_vk_component(m, k, r, window=window)
    spaces = {}
    for mu in window:
        kept = [l for l in ambient_component(m, k, r, mu) if springer._b_position(l[1]) is None]
        if kept:
            spaces[mu] = kept
    assert comp.module.spaces == spaces
    assert list(comp.module.spaces) == list(spaces)
    lower, formed = {}, 0
    for mu, lbls in spaces.items():
        for a, b in rootdata.positive_roots(m):
            target = rootdata.sub(mu, rootdata.root_weight(m, a, b))
            if target not in window:
                continue
            ent = {}
            for col, lbl in enumerate(lbls):
                for q, v in comp.project(target, _ambient_act(m, (a, b), lbl)).items():
                    ent[(q, col)] = v
            if b > a + 1:
                assert comp.module.root_lower_matrix((a, b), mu).entries == ent
                formed += bool(ent)
            elif ent:
                lower[(b, mu)] = (len(spaces[target]), len(lbls), list(ent.items()))
    assert _lowering_snapshot(comp) == lower
    assert formed
    assert comp.module.dim == 13954


def test_factor_tables_do_not_leak_across_m():
    # ids are per m: builds of m = 3 and m = 4 interleaved on shared
    # tables give the matrices of builds on fresh tables
    cases = [(3, 2, 1, None), (4, 2, 1, None), (3, 3, 2, None),
             (4, 4, 2, bgg.cochain_window(4)), (3, 1, 0, None), (4, 3, 2, None)]
    springer._factor_tables.cache_clear()
    shared = [_lowering_snapshot(build_vk_component(m, k, r, window=w))
              for (m, k, r, w) in cases]
    for (m, k, r, w), got in zip(cases, shared):
        springer._factor_tables.cache_clear()
        assert _lowering_snapshot(build_vk_component(m, k, r, window=w)) == got, (m, k, r)


def _order_digest():
    # every diamond component of sl2/sl3/sl4 on the whole-complex window
    # and on each per-degree window, plus the complete module for m <= 3:
    # weight order, labels, lowering entries and differentials, all in
    # insertion order
    h = hashlib.sha256()
    for m in (2, 3, 4):
        n = m * (m - 1) // 2
        ranges = [(0, None)] + [(max(i - 1, 0), min(i + 1, n)) for i in range(n + 1)]
        for k, r in sorted({bgg.entry_component(m, i, j) for (i, j) in bgg.diamond_entries(m)}):
            builds = [(lo, hi, bgg.cochain_window(m, lo, hi)) for lo, hi in ranges]
            if m <= 3:
                builds.append((0, None, None))
            for lo, hi, window in builds:
                mod = build_vk_component(m, k, r, window=window).module
                lower = [(key, list(mat.entries.items()))
                         for key, mat in every_lowering(mod).items()]
                cx = bgg.bgg_cochain(mod, lo, hi)
                h.update(repr((m, k, r, lo, hi, list(mod.spaces.items()), lower,
                               cx.dims, [list(mp.entries.items()) for mp in cx.maps])).encode())
    return h.hexdigest()


def test_label_and_weight_order_is_pinned():
    # the order of weights, labels and matrix entries decides the
    # bit-identical tables; a change that moves the kept-label enumeration
    # and the lowering matrices together still changes this digest
    assert _order_digest() == "db9c5ffd35f7606009375d7a479d1f554882ebe918bbd66d0d223871e2e05b10"
