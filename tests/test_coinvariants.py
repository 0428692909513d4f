import contextlib
import itertools
import math
import random

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from springercenter import coinvariants
from springercenter.exactla import RowReducer
from springercenter.rootdata import poincare_polynomial
from springercenter.coinvariants import (
    dc_entry, dc_table, expected_diamond_from_dc,
    pf_table, _compositions, _dc_table, _monomials, _pack, _slice_echelon, _substituted,
)
from springercenter.bgg import hodge_diamond


def dc_table_groebner(m):
    """Independent recomputation of the bigraded dimensions via a Groebner
    staircase count."""
    xs = sp.symbols("x0:%d" % m)
    ys = sp.symbols("y0:%d" % m)
    gens = list(xs) + list(ys)
    polys = []
    for a in range(m + 1):
        for b in range(m + 1 - a):
            if 1 <= a + b <= m:
                polys.append(sum(xs[t] ** a * ys[t] ** b for t in range(m)))
    basis = sp.groebner(polys, *gens, order="grevlex")
    lead = [sp.Poly(g, *gens).monoms(order="grevlex")[0] for g in basis.exprs]

    def reducible(mono):
        return any(all(x <= y for x, y in zip(l, mono)) for l in lead)

    out = {}
    for deg in range(4 * m):
        found = False
        for mono in itertools.product(*[range(deg + 1)] * (2 * m)):
            if sum(mono) != deg or reducible(mono):
                continue
            key = (sum(mono[:m]), sum(mono[m:]))
            out[key] = out.get(key, 0) + 1
            found = True
        if deg > 0 and not found:
            break
    return out


def _dc_entry_full(m, i, j):
    """dim of the bidegree (i, j) component of DC_m, eliminated in all
    2m variables with every p_{a,b}, 1 <= a+b <= m, and no substitution."""
    monos = [(xe, ye)
             for xe in _compositions(i, m)
             for ye in _compositions(j, m)]
    idx = {mono: k for k, mono in enumerate(monos)}
    rows = []
    for a in range(0, m + 1):
        for b in range(0, m + 1 - a):
            if a + b < 1 or a > i or b > j:
                continue
            for xe in _compositions(i - a, m):
                for ye in _compositions(j - b, m):
                    row = {}
                    for t in range(m):
                        xs = list(xe)
                        ys = list(ye)
                        xs[t] += a
                        ys[t] += b
                        col = idx[(tuple(xs), tuple(ys))]
                        row[col] = row.get(col, 0) + 1
                    rows.append(row)
    return len(monos) - _slice_echelon(len(monos), rows).rank


def _dc_table_eliminated(m):
    """dc_table(m) with every slice eliminated, shell by shell, up to
    and including the first shell that vanishes."""
    out = {}
    for d in range(m * m + 3):
        shell = {(i, d - i): dc_entry(m, i, d - i) for i in range(d + 1)}
        if d > 0 and not any(shell.values()):
            return out
        out.update((key, val) for key, val in shell.items() if val)
    raise AssertionError("DC_%d did not vanish" % m)


def _eliminated_slices(m):
    """(table, slices): _dc_table(m) computed afresh, and the slices it
    handed to dc_entry, in call order."""
    seen = []
    real = coinvariants.dc_entry

    def spy(m_, i, j, **kwargs):
        seen.append((i, j))
        return real(m_, i, j, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coinvariants, "dc_entry", spy)
        table = _dc_table.__wrapped__(m)
    return table, seen


@contextlib.contextmanager
def _row_additions():
    """A list that gains one entry per RowReducer.add call in the block."""
    added = []
    real = RowReducer.add

    def add(self, row):
        added.append(row)
        return real(self, row)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RowReducer, "add", add)
        yield added


def _pivots(m, i, j):
    """(dim, leading monomials) of slice (i, j) as dc_entry finds them."""
    leads = set()
    return dc_entry(m, i, j, leads=leads), leads


def _unpruned_pivots(m, i, j):
    """(dim, leading monomials, row additions) of slice (i, j)
    eliminated on every generator multiple, none skipped."""
    n = m - 1
    base = max(i, j) + 1
    monos = _monomials(m, i, j)
    cols = {_pack(xe, ye, base): k for k, (xe, ye) in enumerate(monos)}
    rows = []
    for a in range(m + 1):
        for b in range(max(0, 2 - a), m + 1 - a):
            if a > i or b > j:
                continue
            terms = [(_pack(xe, ye, base), c) for (xe, ye), c in _substituted(m, a, b)]
            for xe in _compositions(i - a, n):
                for ye in _compositions(j - b, n):
                    shift = _pack(xe, ye, base)
                    rows.append({cols[shift + code]: c for code, c in terms})
    with _row_additions() as added:
        red = _slice_echelon(len(monos), rows)
    leads = {monos[k][0] + monos[k][1] for k in red.echelon}
    return len(monos) - red.rank, leads, len(added)


def test_skipped_rows_keep_every_slice_dim_and_pivot_set():
    # the F5 criterion drops only rows in the span of the rows kept
    cases = [(m, i, j) for m in (1, 2, 3, 4) for i, j in _eliminated_slices(m)[1]]
    cases += [(5, i, d - i) for d in range(7) for i in range(d + 1)]
    for m, i, j in cases:
        assert _pivots(m, i, j) == _unpruned_pivots(m, i, j)[:2], (m, i, j)


def test_criterion_skips_105_of_654_row_additions_at_m4():
    with _row_additions() as added:
        _, seen = _eliminated_slices(4)
    unpruned = sum(_unpruned_pivots(4, i, j)[2] for i, j in seen)
    assert (unpruned, len(added)) == (654, 549)


@pytest.mark.parametrize("permute", [
    lambda gens: gens[::-1],
    lambda gens: random.Random(len(gens)).sample(gens, len(gens)),
], ids=["reversed", "shuffled"])
def test_any_generator_order_keeps_dims_and_pivots(permute, monkeypatch):
    # the criterion holds for any order of the generators, only the
    # rows it skips change
    cases = [(m, i, j) for m in (3, 4) for i, j in _eliminated_slices(m)[1]]
    real = coinvariants._generators
    monkeypatch.setattr(coinvariants, "_generators", lambda m: permute(real(m)))
    for m, i, j in cases:
        assert _pivots(m, i, j) == _unpruned_pivots(m, i, j)[:2], (m, i, j)


def test_every_slice_the_certificate_skips_eliminates_to_zero():
    # a skipped slice below the diagonal is never eliminated by the
    # table, which copies its mirror; eliminated here it gives that value
    for m in (1, 2, 3, 4):
        table, seen = _eliminated_slices(m)
        top = max(i + j for i, j in table) + 1
        skipped = [(i, d - i) for d in range(top + 1) for i in range(d + 1)
                   if (i, d - i) not in seen]
        for i, j in skipped:
            mirror = table.get((j, i), 0) if i > j else 0
            assert dc_entry(m, i, j) == mirror == table.get((i, j), 0), (m, i, j)
        assert table == dc_table(m) == _dc_table_eliminated(m)


def test_table_eliminates_no_slice_below_the_diagonal():
    for m in (1, 2, 3, 4):
        _, seen = _eliminated_slices(m)
        assert seen and all(i <= j for i, j in seen), (m, seen)


def test_certificate_skips_the_vanishing_shell_and_nothing_it_cannot_cover():
    table, seen = _eliminated_slices(4)
    assert len(seen) == 16 == len(set(seen))
    assert max(i + j for i, j in seen) == 6 == max(i + j for i, j in table)
    # at m = 2 shell 2 holds new generators p_{2,0}, p_{1,1}, p_{0,2}
    # on top of a shell with no ideal, so it has to be eliminated
    _, seen = _eliminated_slices(2)
    assert sorted(seen) == [(0, 0), (0, 1), (0, 2), (1, 1)]


@st.composite
def shifted_pairs(draw):
    """(m, i, j, v, p, q): a slice of DC_m, one of its 2(m-1) variables
    v and two column positions p <= q."""
    m = draw(st.integers(2, 4))
    i, j = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    ncols = len(_monomials(m, i, j))
    p = draw(st.integers(0, ncols - 1))
    q = draw(st.integers(p, ncols - 1))
    return m, i, j, draw(st.integers(0, 2 * m - 3)), p, q


@given(shifted_pairs())
@settings(max_examples=100, deadline=None)
def test_multiplying_by_a_variable_keeps_the_column_order(case):
    # the certificate reads v * (leading monomial) as a leading monomial
    m, i, j, v, p, q = case
    n = m - 1

    def times_v(mono):
        e = list(mono[0] + mono[1])
        e[v] += 1
        return tuple(e[:n]), tuple(e[n:])

    cols = _monomials(m, i, j)
    shifted = _monomials(m, i + (v < n), j + (v >= n))
    a, b = (shifted.index(times_v(cols[k])) for k in (p, q))
    assert (a < b) == (p < q) and (a == b) == (p == q)


def test_substituted_slices_match_full_variable_slices():
    # every bidegree up to and including the shell that vanishes
    for m in (1, 2, 3, 4):
        for d in range(math.comb(m, 2) + 2):
            for i in range(d + 1):
                assert dc_entry(m, i, d - i) == _dc_entry_full(m, i, d - i), (m, i, d - i)


def _evaluate(terms, xs, ys):
    return sum(c * math.prod(x ** e for x, e in zip(xs, xe))
               * math.prod(y ** e for y, e in zip(ys, ye))
               for (xe, ye), c in terms)


@st.composite
def substitutions(draw):
    """(m, a, b, xs, ys): 2 <= a+b <= m <= 5 and an integer point of the
    m-1 remaining variables of each set."""
    m = draw(st.integers(2, 5))
    a = draw(st.integers(0, m))
    b = draw(st.integers(max(0, 2 - a), m - a))
    point = st.lists(st.integers(-5, 5), min_size=m - 1, max_size=m - 1)
    return m, a, b, draw(point), draw(point)


@given(substitutions())
@settings(max_examples=80, deadline=None)
def test_substituted_generator_is_the_power_sum_on_the_hyperplanes(case):
    m, a, b, xs, ys = case
    full_x = xs + [-sum(xs)]
    full_y = ys + [-sum(ys)]
    assert _evaluate(_substituted(m, a, b), xs, ys) == sum(
        x ** a * y ** b for x, y in zip(full_x, full_y))
    # the linear invariants are the kernel, hence no generator of degree 1
    assert _substituted(m, 1, 0) == _substituted(m, 0, 1) == ()


def test_zero_variable_ring_after_substitution():
    assert _compositions(0, 0) == ((),)
    assert dc_table(1) == {(0, 0): 1}


def test_bigraded_tables_match_groebner_oracle():
    for m in (2, 3):
        assert dc_table(m) == dc_table_groebner(m)


def test_table_is_symmetric_in_the_two_degrees():
    for m in (2, 3, 4):
        table = dc_table(m)
        assert table == {(j, i): v for (i, j), v in table.items()}


def test_known_small_tables():
    assert dc_table(2) == {(0, 0): 1, (1, 0): 1, (0, 1): 1}
    assert dc_table(3) == {
        (0, 0): 1, (1, 0): 2, (0, 1): 2,
        (2, 0): 2, (1, 1): 3, (0, 2): 2,
        (3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1}


def test_dc_table_is_memoized_but_returns_copies():
    table = dc_table(3)
    table[(9, 9)] = 1
    assert dc_table(3) is not table
    assert (9, 9) not in dc_table(3)


def test_single_set_specialization_gives_coinvariant_series():
    # setting one variable set to zero recovers the ordinary coinvariant
    # algebra, whose Hilbert series is the length generating function
    for m in (2, 3, 4):
        table = dc_table(m)
        edge = [table.get((i, 0), 0) for i in range(len(poincare_polynomial(m)))]
        assert edge == poincare_polynomial(m)


def test_predicted_diamond_matches_computed_diamond():
    for m in (2, 3):
        assert expected_diamond_from_dc(m) == hodge_diamond(m)


def test_parking_function_series_matches_slice_elimination():
    for m in (2, 3, 4):
        assert pf_table(m) == dc_table(m)


def test_parking_function_series_at_m5():
    table = pf_table(5)
    assert sum(table.values()) == 6 ** 4
    dims = {(i, d - i): dc_entry(5, i, d - i) for d in range(7) for i in range(d + 1)}
    assert dims[(3, 3)] == table[(3, 3)] == 58
    assert dims[(4, 2)] == table[(4, 2)] == 54
    assert dims == {key: table.get(key, 0) for key in dims}


@st.composite
def slices(draw):
    """(ncols, rows): small integer rows over ncols columns.  Half the
    draws add every unit vector and a second copy of e_0, so the rank
    reaches ncols before the last row and _slice_echelon stops early."""
    ncols = draw(st.integers(1, 6))
    row = st.dictionaries(st.integers(0, ncols - 1), st.integers(-3, 3),
                          max_size=ncols)
    rows = draw(st.lists(row, max_size=8))
    if draw(st.booleans()):
        rows += [{c: 1} for c in range(ncols)] + [{0: 1}]
    return ncols, rows


@given(slices(), st.data())
@settings(max_examples=80, deadline=None)
def test_slice_dim_is_corank_under_any_row_order(slice_, data):
    ncols, rows = slice_
    rows = data.draw(st.permutations(rows))
    dense = sp.Matrix(len(rows), ncols, lambda r, c: rows[r].get(c, 0))
    rank = dense.rank() if rows else 0
    assert _slice_echelon(ncols, rows).rank == rank
