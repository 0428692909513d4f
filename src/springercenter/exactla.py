"""Exact linear algebra over the rationals.

Everything downstream (weight-space quotients, BGG complexes, ideal
slices) reduces to rank, kernel and quotient computations on sparse
matrices over Q, so this module keeps those primitives in one place,
along with block_complex, the one layout of a cochain complex.
A rational is held in canonical form: an int when it is integral,
otherwise a Fraction.  Most matrices in the pipeline are integral, and
int arithmetic costs far less than Fraction arithmetic.  A matrix is
stored by columns, each a dict row -> value, the form that every
consumer reads: products are formed by one kernel, product_sum, which
accumulates each column of a sum of products in its own dict; ranks
eliminate the columns as they are stored; block_complex lays whole
columns out at their offsets.  The primitives share one elimination
kernel, RowReducer: a fraction-free integer echelon, exact over Q,
which clears denominators once per vector (not at all when every value
is an int) and works on Python ints after that.  No floating point
anywhere.

Ranks are taken on column images: the rank of d is the rank of the
vectors d(e_j).  For a complex this allows "clearing", the step of
persistent homology that skips work known to give zero (Chen-Kerber
2011, Persistent homology computation with a twist; Bauer-Kerber-
Reininghaus 2014, Clear and compress).  Let S_t be the pivot columns of
an echelon basis of im d_{t-1} in C^t.  Then C^t is the direct sum of
im d_{t-1} and the span of the e_j with j outside S_t, and d_t vanishes
on im d_{t-1}, so rank d_t is the rank of the d_t(e_j) with j outside
S_t; the pivots of their echelon are S_{t+1}.  cohomology_dims reduces
those images only, so the images that reduce to zero number at most
the total cohomology dimension.  Since nearly every image it reduces
grows the span, each is swept only until its leading column is not a
pivot and stored as it stands, its later pivot columns left in: the
pivots of a span do not depend on how far its rows are reduced, and
exhaustive reduction is an optional extra (Bauer-Kerber-Reininghaus).
The diagonal coinvariant slices keep the full sweep: a row that reduces
to zero needs every pivot column cleared anyway, 86 of the 549 rows that
dc_table(4) adds do, and with later pivots left in the stored rows
dc_table(5) took four times as long.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from types import MappingProxyType


class NotAComplex(Exception):
    """Raised when consecutive maps of an alleged complex fail d.d == 0."""


def canonical(v):
    """The rational v as an int when it is integral, else as a Fraction."""
    if type(v) is int:
        return v
    if type(v) is not Fraction:
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


class SparseMatrix:
    """Immutable-by-convention sparse matrix over Q, stored by columns.

    mat.cols maps a column to a dict row -> value.  No zero and no empty
    column is stored, and every value is canonical: an int exactly when
    it is integral, otherwise a Fraction.  The public constructor takes
    entries keyed by (row, col) and bounds-checks every one; it stores an
    int as it is, since most entries are ints and already canonical, and
    passes only other values through canonical().  Products, ranks and
    block layouts read and write the columns directly, and the matrices
    they form go through from_cols, which trusts its input.  Neither the
    matrix nor its column dicts may change after construction.
    """

    def __init__(self, nrows, ncols, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self.cols = cols = {}
        if entries:
            for (r, c), v in entries.items():
                if v:
                    if not (0 <= r < nrows and 0 <= c < ncols):
                        raise IndexError("entry (%d,%d) outside %dx%d" % (r, c, nrows, ncols))
                    col = cols.get(c)
                    if col is None:
                        col = cols[c] = {}
                    col[r] = v if type(v) is int else canonical(v)

    @classmethod
    def from_cols(cls, nrows, ncols, cols):
        """The matrix whose columns are cols, stored as given: every
        column must be nonempty and inside the shape, and every value
        nonzero and canonical.  Nothing is checked or copied."""
        mat = cls.__new__(cls)
        mat.nrows, mat.ncols, mat.cols = nrows, ncols, cols
        return mat

    @property
    def entries(self):
        """A read-only (row, col) -> value view, built in O(nnz) on each
        call, column by column."""
        return MappingProxyType({(r, c): v for c, col in self.cols.items()
                                 for r, v in col.items()})

    def rows(self):
        out = [dict() for _ in range(self.nrows)]
        for c, col in self.cols.items():
            for r, v in col.items():
                out[r][c] = v
        return out

    def matmul(self, other):
        return product_sum([(1, self, other)])

    def apply(self, vec):
        """Apply to a sparse vector (dict col -> value); returns a dict.

        Only the columns that vec touches are visited."""
        cols = self.cols
        out = {}
        get = out.get
        for c, x in vec.items():
            col = cols.get(c)
            if col:
                for r, v in col.items():
                    out[r] = get(r, 0) + v * x
        return {r: v for r, v in out.items() if v}

    def is_zero(self):
        return not self.cols

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix)
                and (self.nrows, self.ncols) == (other.nrows, other.ncols)
                and self.cols == other.cols)

    def __repr__(self):
        return "SparseMatrix(%dx%d, nnz=%d)" % (
            self.nrows, self.ncols, sum(map(len, self.cols.values())))


def _finish(nrows, ncols, acc):
    """from_cols on columns summed in place: zeros and then empty
    columns are dropped, and values that are not ints made canonical."""
    cols = {}
    for c, col in acc.items():
        if 0 in col.values():
            col = {r: v for r, v in col.items() if v}
        if col:
            for r, v in col.items():
                if type(v) is not int:
                    col[r] = canonical(v)
            cols[c] = col
    return SparseMatrix.from_cols(nrows, ncols, cols)


def product_sum(terms):
    """The sum of coeff * a @ b over the (coeff, a, b) of terms, all of
    one shape.  This is the one product kernel: each column of the sum
    accumulates in its own dict, a column of b at a time, so no
    intermediate product is formed.  Columns and their rows come in the
    order they are first reached."""
    nrows, ncols = terms[0][1].nrows, terms[0][2].ncols
    acc = {}
    for coeff, a, b in terms:
        if a.ncols != b.nrows or (a.nrows, b.ncols) != (nrows, ncols):
            raise ValueError("shape mismatch %dx%d @ %dx%d in a %dx%d sum"
                             % (a.nrows, a.ncols, b.nrows, b.ncols, nrows, ncols))
        acols = a.cols
        for c, bcol in b.cols.items():
            out = acc.get(c)
            if out is None:
                out = acc[c] = {}
            get = out.get
            for k, w in bcol.items():
                acol = acols.get(k)
                if acol:
                    if coeff != 1:
                        w *= coeff
                    for r, v in acol.items():
                        out[r] = get(r, 0) + v * w
    return _finish(nrows, ncols, acc)


def _integer_row(vec):
    """Primitive integer multiple of a sparse vector over Q.

    Returns (row, num, den) with row == vec * num / den: num clears the
    denominators and den is the gcd of the cleared entries.  Zero
    entries are dropped.
    """
    if all(type(x) is int for x in vec.values()):
        num = 1
        row = {c: x for c, x in vec.items() if x}
    else:
        num = lcm(*[x.denominator for x in vec.values()])
        row = {c: x.numerator * (num // x.denominator) for c, x in vec.items() if x}
    den = gcd(*row.values())
    if den > 1:
        row = {c: x // den for c, x in row.items()}
    return row, num, max(den, 1)


def _sweep(row, echelon, full=True):
    """Eliminate pivot columns of `echelon` from the integer row, in place.

    echelon maps a pivot column to an integer row whose smallest column
    is that pivot.  Pivots are cleared in ascending order, so clearing
    one only adds entries at larger columns.  With full, every pivot
    column is cleared; otherwise the sweep stops as soon as the row's
    smallest column is not a pivot, and later pivot columns stay in the
    row.  Each step first scales the row by the smallest positive
    integer that makes its pivot entry a multiple of the pivot row's.
    Returns the product m of those scalings: the result equals m times
    the given row modulo the span.
    """
    heap = [c for c in row if c in echelon]
    heapify(heap)
    get = row.get
    mult = 1
    # the row's non-pivot columns, a heap from which cancelled columns
    # are dropped lazily; left empty on a full sweep
    lead = not full
    free = [c for c in row if c not in echelon] if lead else []
    heapify(free)
    while heap:
        p = heappop(heap)
        b = get(p)
        if b is None:
            continue
        if free and free[0] < p:
            while free and free[0] not in row:
                heappop(free)
            if free and free[0] < p:
                break
        prow = echelon[p]
        a = prow[p]
        g = gcd(a, b)
        if g != a:
            s = a // g
            mult *= s
            for c in row:
                row[c] *= s
        t = b // g
        for c, x in prow.items():
            y = get(c)
            if y is None:
                row[c] = -t * x
                if c in echelon:
                    heappush(heap, c)
                elif lead:
                    heappush(free, c)
            else:
                y -= t * x
                if y:
                    row[c] = y
                else:
                    del row[c]
    return mult


class RowReducer:
    """Fraction-free semi-echelon form of a growing span over Q.

    Each row is a primitive integer row (coprime Python ints) whose
    smallest column is its pivot, with a positive entry there.  Rows are
    never reduced against later rows: rank and quotient projection do
    not need it, and reduced_rows() back-solves once when a caller does.

    add() sweeps a new vector to the depth chosen at construction: with
    full (the default) it clears every pivot column before storing the
    row; without, it clears only while the row's smallest column is a
    pivot and stores the row with its later pivot columns left in (see
    the module docstring for who uses which).  Rows stored either way
    have the same pivots and span, and reduce(), reduced_rows() and
    coordinates() give the same results on them.

    The pivot columns are the leading columns of the span's vectors, so
    they depend on the span alone; the non-pivot columns index a basis
    of the quotient, and reduce() gives the projection of any ambient
    vector in those coordinates.
    """

    def __init__(self, full=True):
        self.echelon = {}  # pivot column -> primitive integer row
        self.full = full

    @property
    def rank(self):
        return len(self.echelon)

    def reduce(self, vec):
        """The unique representative of vec modulo the span that has no
        entry at a pivot column, with Fraction entries."""
        row, num, den = _integer_row(vec)
        num *= _sweep(row, self.echelon)
        return {c: Fraction(x * den, num) for c, x in row.items()}

    def add(self, vec):
        """Absorb a vector; returns True if it enlarged the span."""
        row, _, _ = _integer_row(vec)
        _sweep(row, self.echelon, self.full)
        if not row:
            return False
        piv = min(row)
        g = gcd(*row.values())
        if row[piv] < 0:
            g = -g
        if g != 1:
            row = {c: x // g for c, x in row.items()}
        self.echelon[piv] = row
        return True

    def reduced_rows(self):
        """The reduced row echelon basis of the span, by one back-solve.

        Returns pivot -> row in ascending pivot order; each row has
        Fraction entries, a 1 at its pivot and 0 at every other pivot.
        """
        done = {}
        for p in sorted(self.echelon, reverse=True):
            row = dict(self.echelon[p])
            _sweep(row, done)
            g = gcd(*row.values())
            done[p] = {c: x // g for c, x in row.items()}
        out = {}
        for p in sorted(done):
            row = done[p]
            out[p] = {c: Fraction(x, row[p]) for c, x in row.items()}
        return out

    def coordinates(self, vec):
        """Coordinates of a vector of the span in the basis reduced_rows(),
        keyed by position in ascending pivot order.  That basis is 1 at
        its own pivot and 0 at the others, so they are vec's pivot values."""
        return {k: vec[p] for k, p in enumerate(sorted(self.echelon)) if p in vec}


def _image_reducer(mat, cleared=()):
    """RowReducer holding the images mat(e_j) of the basis vectors e_j
    for the columns j not in cleared; its pivots are the leading
    columns of the span of those images.

    The images are swept leading-only: a rank needs the pivots alone,
    and nearly every image grows the span, so each is stored once its
    leading column is not a pivot.  That leaves the fill of a full sweep
    undone: on sl5 (2,10) the cleared ranks take 2.4 s against 27.6 s
    for a full sweep, and the entry peaks at 104 MB against 614 MB.

    The last column goes first: on the sl4 complexes that takes a third
    to a half less elimination time than first-column-first order."""
    red = RowReducer(full=False)
    cols = mat.cols
    for c in sorted(cols, reverse=True):
        if c not in cleared:
            red.add(cols[c])
    return red


def rank(mat):
    return _image_reducer(mat).rank


def kernel_basis(rows, ncols):
    """Basis of the right kernel of the matrix with the given sparse rows
    (dicts col -> value) and ncols columns, one sparse dict per free
    column."""
    red = RowReducer()
    for row in rows:
        red.add(row)
    rref = red.reduced_rows()
    out = []
    for c in range(ncols):
        if c in rref:
            continue
        vec = {c: Fraction(1)}
        for p, row in rref.items():
            v = row.get(c)
            if v:
                vec[p] = -v
        out.append(vec)
    return out


class CochainComplex:
    """A finite cochain complex of Q-vector spaces.

    dims[t] is the dimension of the degree-t term; maps[t] is the
    differential from term t to term t+1 (so maps has one fewer entry,
    and maps[t] is a dims[t+1] x dims[t] matrix acting on column vectors).
    """

    def __init__(self, dims, maps):
        if len(maps) != max(len(dims) - 1, 0):
            raise ValueError("need exactly len(dims)-1 maps")
        for t, mp in enumerate(maps):
            if mp.ncols != dims[t] or mp.nrows != dims[t + 1]:
                raise ValueError("map %d has shape %dx%d, expected %dx%d"
                                 % (t, mp.nrows, mp.ncols, dims[t + 1], dims[t]))
        self.dims = list(dims)
        self.maps = list(maps)

    def check_complex(self):
        for t in range(len(self.maps) - 1):
            if not self.maps[t + 1].matmul(self.maps[t]).is_zero():
                raise NotAComplex("composite of maps %d and %d is nonzero" % (t, t + 1))

    def cohomology_dims(self):
        """dim H^t for every degree t, with cleared ranks.

        The maps must compose to zero, which is what makes clearing
        valid, so check_complex runs first.  Walking t upward, rank d_t
        is taken on the images d_t(e_j) for j outside the pivots S_t of
        im d_{t-1} (see the module docstring), and their pivots are
        S_{t+1}.  At most d_t - r_{t-1} images are reduced at degree t,
        so r_{t-1} + r_t <= d_t holds by construction.
        """
        self.check_complex()
        ranks = [0]
        cleared = ()
        for mp in self.maps:
            red = _image_reducer(mp, cleared)
            ranks.append(red.rank)
            cleared = red.echelon
        ranks.append(0)
        return [d - ranks[t] - ranks[t + 1] for t, d in enumerate(self.dims)]


def block_complex(layers, blocks):
    """The cochain complex whose term t is the direct sum of the nodes of
    layers[t], a list of (node, dim) in block order.

    For each node of layers[t] with nonzero dim, blocks(t, node) yields
    (node2, coeff, mat): coeff times mat, a dim(node2) x dim(node)
    matrix, is added into the map from term t to term t + 1 at the rows
    of node2 in layers[t + 1] and the columns of node.  Blocks that land
    on the same position add up; a block of another shape raises
    ValueError.  Each column of a map accumulates in its own dict.
    """
    offsets, dims = [], []
    for layer in layers:
        off, total = {}, 0
        for node, d in layer:
            off[node] = (total, d)
            total += d
        offsets.append(off)
        dims.append(total)
    maps = []
    for t in range(len(layers) - 1):
        acc = {}
        rows = offsets[t + 1]
        for node, d in layers[t]:
            if not d:
                continue
            col0 = offsets[t][node][0]
            for node2, coeff, mat in blocks(t, node):
                row0, d2 = rows[node2]
                if (mat.nrows, mat.ncols) != (d2, d):
                    raise ValueError("block %r -> %r has shape %dx%d, expected %dx%d"
                                     % (node, node2, mat.nrows, mat.ncols, d2, d))
                for c, col in mat.cols.items():
                    out = acc.get(col0 + c)
                    if out is None:
                        out = acc[col0 + c] = {}
                    get = out.get
                    for r, v in col.items():
                        r += row0
                        out[r] = get(r, 0) + coeff * v
        maps.append(_finish(dims[t + 1], dims[t], acc))
    return CochainComplex(dims, maps)
