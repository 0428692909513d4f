from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from springercenter.exactla import (
    SparseMatrix, RowReducer, rank, kernel_basis, product_sum,
    CochainComplex, NotAComplex, block_complex,
)

from helpers import assert_cleared_sweeps_agree, from_rows, transpose


def dense(mat):
    out = [[0] * mat.ncols for _ in range(mat.nrows)]
    for (r, c), v in mat.entries.items():
        out[r][c] = v
    return out


def sympy_rank(mat):
    if not (mat.nrows and mat.ncols):
        return 0
    return sympy.Matrix(mat.nrows, mat.ncols,
                        lambda r, c: mat.entries.get((r, c), 0)).rank()


small_fraction = st.fractions(min_value=-5, max_value=5, max_denominator=4)
small_int = st.integers(min_value=-5, max_value=5)
# ints, integral Fractions and proper Fractions side by side
small_rational = st.one_of(small_int, small_fraction)


def sparse_vectors(ncols, values=small_rational):
    """Dicts col -> value over ncols columns."""
    if not ncols:
        return st.just({})
    return st.dictionaries(st.integers(0, ncols - 1), values, max_size=ncols)


@st.composite
def sparse_matrices(draw, max_dim=6, values=small_rational, nrows=None, ncols=None):
    """Random sparse matrices; the shape is drawn unless given."""
    nrows = draw(st.integers(0, max_dim)) if nrows is None else nrows
    ncols = draw(st.integers(0, max_dim)) if ncols is None else ncols
    entries = {}
    if nrows and ncols:
        count = draw(st.integers(0, nrows * ncols))
        for _ in range(count):
            r = draw(st.integers(0, nrows - 1))
            c = draw(st.integers(0, ncols - 1))
            v = draw(values)
            if v:
                entries[(r, c)] = v
    return SparseMatrix(nrows, ncols, entries)


@st.composite
def matrices_and_vectors(draw):
    mat = draw(sparse_matrices())
    return mat, draw(sparse_vectors(mat.ncols))


@st.composite
def reduced_rows_and_vector(draw):
    """A reducer fed random sparse rows, the dense rows, and one more
    vector; entries are all Fractions, all ints, or mixed, and the rows
    are stored after a full or a leading-only sweep."""
    values = draw(st.sampled_from([small_fraction, small_int, small_rational]))
    ncols = draw(st.integers(1, 7))
    sparse = sparse_vectors(ncols, values)
    rows = draw(st.lists(sparse, max_size=7))
    vec = draw(sparse)
    red = RowReducer(full=draw(st.booleans()))
    for row in rows:
        red.add(row)
    dense_rows = [[row.get(c, 0) for c in range(ncols)] for row in rows]
    return red, dense_rows, ncols, vec


@given(reduced_rows_and_vector())
@settings(max_examples=80, deadline=None)
def test_pivots_and_reduced_rows_match_sympy_rref(case):
    red, dense_rows, ncols, _ = case
    if dense_rows:
        rref, pivots = sympy.Matrix(dense_rows).rref()
    else:
        rref, pivots = sympy.zeros(0, ncols), ()
    assert sorted(red.echelon) == list(pivots)
    reduced = red.reduced_rows()
    assert list(reduced) == list(pivots)
    for k, p in enumerate(pivots):
        want = {c: Fraction(int(v.p), int(v.q)) for c, v in enumerate(rref.row(k)) if v}
        assert reduced[p] == want


@given(reduced_rows_and_vector(), st.fractions(min_value=-3, max_value=3, max_denominator=5))
@settings(max_examples=80, deadline=None)
def test_reduce_gives_the_unique_residual_off_the_pivots(case, q):
    red, _, _, vec = case
    res = red.reduce(vec)
    assert not set(res) & set(red.echelon)
    assert all(v and type(v) is Fraction for v in res.values())
    # vec - res lies in the span
    diff = {c: vec.get(c, 0) - res.get(c, 0) for c in set(vec) | set(res)}
    before = red.rank
    assert not red.add(diff)
    assert red.rank == before
    scaled = red.reduce({c: q * v for c, v in vec.items()})
    assert scaled == {c: q * v for c, v in res.items() if q}


@given(reduced_rows_and_vector(), st.lists(small_fraction, min_size=7, max_size=7))
@settings(max_examples=60, deadline=None)
def test_coordinates_recover_a_combination_of_reduced_rows(case, coeffs):
    red, _, _, _ = case
    vec = {}
    for k, row in enumerate(red.reduced_rows().values()):
        for c, v in row.items():
            vec[c] = vec.get(c, 0) + coeffs[k] * v
    vec = {c: v for c, v in vec.items() if v}
    assert red.coordinates(vec) == {k: coeffs[k] for k in range(red.rank) if coeffs[k]}


@given(sparse_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_matches_sympy(mat):
    assert rank(mat) == sympy_rank(mat)


@given(sparse_matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_basis_spans_kernel(mat):
    basis = kernel_basis(mat.rows(), mat.ncols)
    assert len(basis) == mat.ncols - rank(mat)
    for vec in basis:
        image = mat.apply(vec)
        assert not image, "kernel vector has nonzero image"
    # the basis vectors are linearly independent
    red = RowReducer()
    added = 0
    for vec in basis:
        added += red.add(vec)
    assert added == len(basis)


@given(sparse_matrices(), sparse_matrices())
@settings(max_examples=40, deadline=None)
def test_matmul_matches_dense(a, b):
    if a.ncols != b.nrows:
        b = SparseMatrix(a.ncols, b.ncols, {
            (r, c): v for (r, c), v in b.entries.items() if r < a.ncols})
    prod = a.matmul(b)
    da, db = dense(a), dense(b)
    for r in range(prod.nrows):
        for c in range(prod.ncols):
            want = sum(da[r][t] * db[t][c] for t in range(a.ncols))
            assert prod.entries.get((r, c), 0) == want


@given(matrices_and_vectors())
@settings(max_examples=60, deadline=None)
def test_apply_matches_dense(case):
    mat, vec = case
    got = mat.apply(vec)
    d = dense(mat)
    want = {r: sum(d[r][c] * x for c, x in vec.items()) for r in range(mat.nrows)}
    assert got == {r: v for r, v in want.items() if v}


def _is_canonical(v):
    """Nonzero, and an int exactly when it is integral."""
    return v and (type(v) is int) == (Fraction(v).denominator == 1)


@given(sparse_matrices(), sparse_matrices())
@settings(max_examples=40, deadline=None)
def test_stored_entries_are_canonical(a, b):
    _assert_column_invariants(a)
    b = SparseMatrix(a.ncols, b.ncols, {
        (r, c): v for (r, c), v in b.entries.items() if r < a.ncols})
    _assert_column_invariants(a.matmul(b))
    _assert_column_invariants(transpose(a))
    _assert_column_invariants(from_rows(a.rows(), a.ncols))


def _assert_column_invariants(mat):
    """No empty column, no zero and every value canonical, all inside
    the shape."""
    for c, col in mat.cols.items():
        assert col and 0 <= c < mat.ncols
        assert all(0 <= r < mat.nrows and _is_canonical(v) for r, v in col.items())


# matrices of int values, of Fraction values, and of both
value_kinds = st.sampled_from([small_int, small_fraction, small_rational])


@st.composite
def product_pairs(draw):
    """(A, B, C, D) with A @ B and C @ D of one shape, all four with
    values of one kind."""
    values = draw(value_kinds)
    n, k, l, p = (draw(st.integers(0, 5)) for _ in range(4))
    return tuple(draw(sparse_matrices(values=values, nrows=r, ncols=c))
                 for r, c in [(n, k), (k, p), (n, l), (l, p)])


@given(value_kinds.flatmap(lambda values: sparse_matrices(values=values)))
@settings(max_examples=60, deadline=None)
def test_columns_keep_their_invariants(mat):
    _assert_column_invariants(mat)
    assert SparseMatrix(mat.nrows, mat.ncols, mat.entries) == mat
    back = from_rows(mat.rows(), mat.ncols)
    _assert_column_invariants(back)
    assert back == mat
    with pytest.raises(TypeError):
        mat.entries[(0, 0)] = 1


@given(product_pairs(), small_rational)
@settings(max_examples=60, deadline=None)
def test_product_sum_matches_dense(mats, coeff):
    a, b, c, d = mats
    got = product_sum([(1, a, b), (-1, c, d)])
    _assert_column_invariants(got)
    da, db, dc, dd = map(dense, mats)
    want = [[sum(da[r][t] * db[t][q] for t in range(a.ncols))
             - sum(dc[r][t] * dd[t][q] for t in range(c.ncols))
             for q in range(b.ncols)] for r in range(a.nrows)]
    assert (got.nrows, got.ncols) == (a.nrows, b.ncols)
    assert dense(got) == want
    # one term is matmul, and a coefficient scales the product
    assert product_sum([(1, a, b)]) == a.matmul(b)
    scaled = product_sum([(coeff, a, b)])
    _assert_column_invariants(scaled)
    assert dense(scaled) == [[coeff * v for v in row] for row in dense(a.matmul(b))]


def test_product_sum_refuses_mismatched_shapes():
    a, b = SparseMatrix(2, 3), SparseMatrix(3, 2)
    with pytest.raises(ValueError):
        product_sum([(1, a, SparseMatrix(2, 2))])
    with pytest.raises(ValueError):
        product_sum([(1, a, b), (1, b, a)])


@given(st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)), small_int))
@settings(max_examples=40, deadline=None)
def test_integral_fractions_store_as_ints(ints):
    as_int = SparseMatrix(6, 6, ints)
    as_fraction = SparseMatrix(6, 6, {k: Fraction(v) for k, v in ints.items()})
    assert as_int == as_fraction
    assert all(type(v) is int for v in as_fraction.entries.values())


@pytest.mark.parametrize("value", [1, -3, Fraction(1, 2), Fraction(4, 2)])
def test_entries_outside_the_shape_are_refused(value):
    # ints skip canonical() but not the bounds check
    for key in [(2, 0), (0, 3), (-1, 0), (0, -1), (2, 3)]:
        with pytest.raises(IndexError):
            SparseMatrix(2, 3, {(1, 2): 1, key: value})


def test_from_rows_takes_the_given_width():
    assert from_rows([{0: 1}], 4).ncols == 4
    assert from_rows([{0: 1}, {3: 2, 9: 0}]).ncols == 4
    assert from_rows([], 0) == SparseMatrix(0, 0)
    with pytest.raises(IndexError):
        from_rows([{0: 1}, {3: 2}], 3)


def test_row_reducer_reduces_spanned_vectors_to_zero():
    red = RowReducer()
    red.add({0: Fraction(1), 1: Fraction(2)})
    red.add({1: Fraction(1), 2: Fraction(-1)})
    combo = {0: Fraction(3), 1: Fraction(6 + 5), 2: Fraction(-5)}
    assert red.reduce(combo) == {}
    assert red.add(dict(combo)) == 0


def test_transpose_round_trip():
    mat = SparseMatrix(2, 3, {(0, 1): Fraction(2), (1, 2): Fraction(-1)})
    back = transpose(transpose(mat))
    assert back.nrows == 2 and back.ncols == 3
    assert back.entries == mat.entries


def test_complex_cohomology_exact_sequence():
    # 0 -> Q -> Q^2 -> Q -> 0 with the obvious maps is exact
    d0 = SparseMatrix(2, 1, {(0, 0): Fraction(1), (1, 0): Fraction(1)})
    d1 = SparseMatrix(1, 2, {(0, 0): Fraction(1), (0, 1): Fraction(-1)})
    cx = CochainComplex([1, 2, 1], [d0, d1])
    assert cx.cohomology_dims() == [0, 0, 0]


def test_complex_with_zero_maps_gives_dims():
    cx = CochainComplex([2, 3], [SparseMatrix(3, 2, {})])
    assert cx.cohomology_dims() == [2, 3]


def test_non_complex_is_rejected():
    d0 = SparseMatrix(1, 1, {(0, 0): Fraction(1)})
    d1 = SparseMatrix(1, 1, {(0, 0): Fraction(1)})
    with pytest.raises(NotAComplex):
        CochainComplex([1, 1, 1], [d0, d1]).check_complex()


@given(sparse_matrices())
@settings(max_examples=40, deadline=None)
def test_two_step_complex_euler_characteristic(mat):
    # pad with a zero map so that kernel/image bookkeeping is exercised
    cx = CochainComplex([mat.ncols, mat.nrows, 0],
                        [mat, SparseMatrix(0, mat.nrows, {})])
    h = cx.cohomology_dims()
    assert h[0] - h[1] + h[2] == mat.ncols - mat.nrows


@st.composite
def cochain_complexes(draw):
    """A complex of 2 or 3 maps with integer or rational entries: d0 is
    random, and each row of a later map is a random combination of the
    left kernel of the map before it, so that every d.d is zero."""
    values = draw(st.sampled_from([small_int, small_rational]))
    dims = [draw(st.integers(0, 5)), draw(st.integers(0, 6))]
    entries = {}
    if dims[0] and dims[1]:
        entries = draw(st.dictionaries(
            st.tuples(st.integers(0, dims[1] - 1), st.integers(0, dims[0] - 1)),
            values, min_size=1))
    maps = [SparseMatrix(dims[1], dims[0], entries)]
    for _ in range(draw(st.integers(1, 2))):
        # the rows of the transpose are the columns
        left_kernel = kernel_basis(maps[-1].cols.values(), dims[-1])
        rows = []
        for _ in range(draw(st.integers(0, 5))):
            coeffs = draw(st.lists(values, min_size=len(left_kernel),
                                   max_size=len(left_kernel)))
            row = {}
            for a, vec in zip(coeffs, left_kernel):
                for c, v in vec.items():
                    row[c] = row.get(c, 0) + a * v
            rows.append(row)
        entries = {(r, c): v for r, row in enumerate(rows) for c, v in row.items()}
        maps.append(SparseMatrix(len(rows), dims[-1], entries))
        dims.append(len(rows))
    return CochainComplex(dims, maps)


@given(cochain_complexes())
@settings(max_examples=80, deadline=None)
def test_cleared_cohomology_matches_sympy_ranks(cx):
    ranks = [0] + [sympy_rank(mp) for mp in cx.maps] + [0]
    assert cx.cohomology_dims() == [d - ranks[t + 1] - ranks[t]
                                    for t, d in enumerate(cx.dims)]


@given(cochain_complexes())
@settings(max_examples=80, deadline=None)
def test_leading_only_cleared_images_span_what_a_full_sweep_spans(cx):
    assert_cleared_sweeps_agree(cx)


def test_leading_only_sweep_leaves_later_pivots_in_the_row():
    red = RowReducer(full=False)
    red.add({1: 1, 2: 1})
    red.add({0: 1, 1: 1})
    # the leading column 0 is no pivot, so pivot 1 stays in the row
    assert red.echelon == {1: {1: 1, 2: 1}, 0: {0: 1, 1: 1}}
    # adding at pivot 1 leaves column 2 leading, and pivot 0 is not reached
    assert red.add({1: 2, 3: 1})
    assert red.echelon[2] == {2: 2, 3: -1}
    full = RowReducer()
    for row in [{1: 1, 2: 1}, {0: 1, 1: 1}, {1: 2, 3: 1}]:
        full.add(row)
    assert full.echelon[0] == {0: 1, 2: -1}
    assert red.reduce({0: 1}) == full.reduce({0: 1}) == {3: Fraction(1, 2)}
    assert red.reduced_rows() == full.reduced_rows()
    # clearing pivot 0 cancels column 1, the smallest non-pivot column,
    # so the sweep goes on to pivot 2 and finds the vector in the span
    red = RowReducer(full=False)
    assert red.add({2: 1}) and red.add({0: 1, 1: 1})
    assert not red.add({0: 1, 1: 1, 2: 1})
    assert red.rank == 2


def test_cohomology_of_a_non_complex_is_refused():
    d0 = SparseMatrix(1, 1, {(0, 0): 1})
    d1 = SparseMatrix(1, 1, {(0, 0): 1})
    with pytest.raises(NotAComplex):
        CochainComplex([1, 1, 1], [d0, d1]).cohomology_dims()


def test_block_complex_lays_out_and_sums_blocks():
    # a zero-dim node between two others, and two blocks on (y, a) that add
    layers = [[("a", 2), ("z", 0), ("b", 1)], [("x", 1), ("y", 2)]]
    blocks = {
        "a": [("y", 3, SparseMatrix(2, 2, {(0, 0): 1, (0, 1): 2, (1, 1): 1})),
              ("y", -1, SparseMatrix(2, 2, {(0, 0): 1, (1, 0): 4})),
              ("x", 1, SparseMatrix(1, 2, {(0, 0): 5}))],
        "b": [("x", Fraction(1, 2), SparseMatrix(1, 1, {(0, 0): 2})),
              ("y", 1, SparseMatrix(2, 1, {(1, 0): 7}))],
    }
    calls = []

    def blocks_of(t, node):
        calls.append((t, node))
        return blocks[node]

    cx = block_complex(layers, blocks_of)
    assert calls == [(0, "a"), (0, "b")]
    assert cx.dims == [3, 3]
    assert dense(cx.maps[0]) == [[5, 0, 1],
                                 [2, 6, 0],
                                 [-4, 3, 7]]
    assert all(type(v) is int for v in cx.maps[0].entries.values())


def test_block_complex_refuses_a_block_of_the_wrong_shape():
    # five rows for the three of node b would spill into node c below it
    layers = [[("a", 2)], [("b", 3), ("c", 4)]]
    for mat in [SparseMatrix(5, 2, {(4, 0): 1}), SparseMatrix(3, 1, {(0, 0): 1}),
                SparseMatrix(2, 2)]:
        with pytest.raises(ValueError, match="shape"):
            block_complex(layers, lambda t, node: [("b", 1, mat)])
