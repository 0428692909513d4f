"""Diagonal coinvariant algebras by exact ideal-slice elimination.

DC_m is the quotient of Q[x_1..x_m, y_1..y_m] by the ideal generated by
the polarized power sums p_{a,b} = sum_t x_t^a y_t^b with 1 <= a+b <= m.
The ideal contains the two linear invariants p_{1,0} = sum x_t and
p_{0,1} = sum y_t, so the slices are taken after substituting them away:
x_m -> -(x_1+...+x_{m-1}), y_m -> -(y_1+...+y_{m-1}) is a surjective
bigraded ring map onto Q[x_1..x_{m-1}, y_1..y_{m-1}] whose kernel is
(p_{1,0}, p_{0,1}).  DC_m is therefore the quotient of the smaller ring
by the images of p_{a,b} with 2 <= a+b <= m, and every bidegree keeps
its dimension.

Each bidegree (i, j) slice is finite dimensional and its dimension is
the number of monomials in the 2(m-1) variables minus the rank of the
generator multiples landing in that slice.  The ideal absorbs
multiplication, so once a whole total-degree shell vanishes everything
above it does too; tables are computed shell by shell until that
happens.

The multiples enter the elimination sorted by their leading (smallest)
column, largest first.  A new row then meets pivots that mostly lie
beyond its own leading column, so clearing it touches few of them and
the echelon fills in less.  The rank does not depend on the order in
which rows are added, so neither does any dimension.  The substitution
shrinks each slice and leaves this order as it is.

Many rows the elimination would only reduce to zero are left out before it
starts, by the criterion of Faugere's F5 (2002, A new efficient
algorithm for computing Groebner bases without reduction to zero) in
its Macaulay-matrix form (Bardet-Faugere-Salvy 2015).  Take the
generators g_1, g_2, ... by degree a+b, then by a, and skip the row
mono*g_k when mono is divisible by the leading monomial of some g_l,
l < k.  Write mono = w*LM(g_l) and h = w*g_l.  The column order is
multiplicative (see below), so LM(h) = mono and, up to its leading
coefficient, mono*g_k is h*g_k minus the rows m'*g_k with m' after
mono.  h*g_k is a sum of rows of g_l, so by induction over k, and over
mono from the last column down, the rows kept span the slice.  Its
rank and leading monomials are unchanged, for any order of the
generators and of the rows.  At m = 4 this removes 105 of the 654 row
additions, and 86 of the 549 left still reduce to zero.

Swapping x_t <-> y_t for every t is a ring automorphism sigma of
Q[x_1..x_m, y_1..y_m].  It sends p_{a,b} to p_{b,a}, so it maps the
ideal onto itself and slice (i, j) onto slice (j, i), and the two have
one dimension (Haiman 2002).  Write phi for the substitution and tau
for the swap x_t <-> y_t, t < m.  Then phi(sigma(x_m)) = phi(y_m) =
-(y_1+...+y_{m-1}) = tau(phi(x_m)), likewise for y_m, and the other
variables are fixed by phi, so phi sigma = tau phi.  Hence tau maps the
substituted ideal onto itself and the substituted slice (i, j) onto
(j, i), and the smaller ring keeps the symmetry.  _dc_table therefore
computes only the slices with i <= j and writes each value to both
(i, j) and (j, i).

A slice can be proved zero without building a row.  Its columns are in
lexicographic order of the exponent vector xe + ye, and adding the same
exponent vector to two monomials keeps their lexicographic order, so
multiplying a polynomial by a variable v moves its leading monomial from
u to v*u.  The pivots of the slice's elimination are the leading
monomials of the ideal there; they depend on the span, not on the rows
chosen.  Let every monomial of slice (i, j) be v*u, with u a leading
monomial of slice (i-1, j) and v an x, or of slice (i, j-1) and v a y.
Then picking one such v*g_u per monomial gives ideal elements whose
leading monomials are distinct and cover every column, so the slice has
full rank and dimension 0.  _dc_table checks this cover on the pivots of
the previous shell and eliminates only the slices it leaves open; a
slice proved zero counts as having every monomial leading.

The cover reads leading monomials in the x-first order only.  A slice
(i, j) with i > j is never eliminated, so its leads in that order are
unknown, and they are not the tau images of the leads of (j, i): tau
turns x^xe y^ye into x^ye y^xe, so it carries the x-first order of one
slice to the y-first order of its mirror.  A slice with i < j needs
only (i-1, j) and (i, j-1), both with first index <= second.  A
diagonal slice (i, i) has only (i-1, i) of its two neighbours
eliminated, so it is covered by x-multiples alone and eliminated when
they leave a column open.  The vanishing shell has odd degree
m(m-1)/2 + 1 at m = 4 and 5, so it holds no diagonal slice, and the
cover proves all of it: at m = 4 _dc_table eliminates 16 slices (all
of shells 0-6 with i <= j), and at m = 5 it eliminates 36, none of
shell 11.  At m = 3 the vanishing shell 4 holds (2, 2), which is
eliminated, to 0; at m = 2 the shell of degree 2 carries new
generators over an empty ideal and is eliminated.

pf_table is an independent check that uses no linear algebra: the
Hilbert series of DC_m as a sum over parking functions (Haiman 2002;
Haglund-Loehr 2005; the shuffle theorem, Carlsson-Mellit 2018).
"""

import functools
import itertools
import math

from .exactla import RowReducer


@functools.lru_cache(maxsize=None)
def _compositions(total, parts):
    """All tuples of `parts` nonnegative ints summing to `total`, as a
    tuple in lexicographic order."""
    if parts == 0:
        return ((),) if total == 0 else ()
    return tuple((first,) + rest
                 for first in range(total + 1)
                 for rest in _compositions(total - first, parts - 1))


def _slice_echelon(ncols, rows):
    """RowReducer of the sparse rows, eliminated last leading column
    first, stopped as soon as every one of the ncols columns is a pivot.
    dc_entry passes no row that the F5 criterion of the module docstring
    proves redundant; a row that still reduces to zero costs a sweep of
    every pivot it meets."""
    red = RowReducer()
    for row in sorted(rows, key=lambda r: min(r, default=-1), reverse=True):
        if red.add(row) and red.rank == ncols:
            break
    return red


def _monomials(m, i, j):
    """The columns of slice (i, j): the exponent pairs (xe, ye) of its
    monomials in the 2(m-1) remaining variables, in lexicographic order."""
    n = m - 1
    return list(itertools.product(_compositions(i, n), _compositions(j, n)))


@functools.lru_cache(maxsize=None)
def _substituted(m, a, b):
    """The image of p_{a,b} under x_m -> -(x_1+...+x_{m-1}),
    y_m -> -(y_1+...+y_{m-1}): a tuple of ((xe, ye), coeff), one per
    monomial x^xe y^ye in the m-1 remaining variables of each set, with
    nonzero integer coefficients, in lexicographic order of xe + ye, so
    the first is the leading monomial.  The last term expands by the
    multinomial theorem."""
    n = m - 1
    top = (-1) ** (a + b) * math.factorial(a) * math.factorial(b)
    terms = {(xe, ye): top // math.prod(map(math.factorial, xe + ye))
             for xe, ye in itertools.product(_compositions(a, n), _compositions(b, n))}
    for t in range(n):
        mono = (tuple(a * (s == t) for s in range(n)), tuple(b * (s == t) for s in range(n)))
        terms[mono] += 1
    return tuple((mono, c) for mono, c in terms.items() if c)


def _generators(m):
    """The exponents (a, b) of the substituted generators p_{a,b},
    2 <= a+b <= m, by degree a+b, then by a."""
    return [(a, d - a) for d in range(2, m + 1) for a in range(d + 1)]


def _pack(xe, ye, base):
    """The exponent code sum_k e_k base^k of x^xe y^ye.  Within one
    bidegree slice no exponent reaches base, so multiplying monomials
    adds their codes."""
    code = 0
    for e in reversed(xe + ye):
        code = code * base + e
    return code


def dc_entry(m, i, j, leads=None):
    """dim of the bidegree (i, j) component of DC_m.

    The slice is taken in Q[x_1..x_{m-1}, y_1..y_{m-1}] modulo the
    images of p_{a,b}, 2 <= a+b <= m, which has the same dimension (see
    the module docstring).  Its columns are _monomials(m, i, j); its
    rows are each generator image times each monomial of the
    complementary bidegree, less the rows the F5 criterion skips (a
    multiple of an earlier generator's leading monomial, found by its
    packed code), eliminated leading column largest first.
    A given set `leads` receives the leading monomials of the ideal in
    the slice, as exponent tuples xe + ye."""
    n = m - 1
    base = max(i, j) + 1
    monos = _monomials(m, i, j)
    cols = {_pack(xe, ye, base): k for k, (xe, ye) in enumerate(monos)}
    rows = []
    earlier = []
    for a, b in _generators(m):
        if a > i or b > j:
            continue
        terms = [(_pack(xe, ye, base), c) for (xe, ye), c in _substituted(m, a, b)]
        skip = {lead + _pack(xe, ye, base)
                for lead, la, lb in earlier
                for xe in _compositions(i - a - la, n)
                for ye in _compositions(j - b - lb, n)}
        for xe in _compositions(i - a, n):
            for ye in _compositions(j - b, n):
                shift = _pack(xe, ye, base)
                if shift not in skip:
                    rows.append({cols[shift + code]: c for code, c in terms})
        earlier.append((terms[0][0], a, b))
    red = _slice_echelon(len(monos), rows)
    if leads is not None:
        leads.update(monos[k][0] + monos[k][1] for k in red.echelon)
    return len(monos) - red.rank


class _Every:
    """The leading monomials of a slice the ideal fills: all of them."""

    def __contains__(self, mono):
        return True


_EVERY = _Every()


def _covered(m, i, j, below):
    """True when every monomial of slice (i, j) is v*u, with u a leading
    monomial of slice (i-1, j) and v an x, or of slice (i, j-1) and v a
    y.  below maps a slice of the previous shell to its leading
    monomials (exponent tuples xe + ye) in the x-first order of the
    columns; a slice missing from below offers none.  _dc_table leaves
    out every slice with i > j, so a diagonal slice is covered by
    x-multiples only (see the module docstring)."""
    n = m - 1
    left = below.get((i - 1, j), ())
    down = below.get((i, j - 1), ())
    for xe, ye in _monomials(m, i, j):
        e = xe + ye
        for t, k in enumerate(e):
            if k and e[:t] + (k - 1,) + e[t + 1:] in (left if t < n else down):
                break
        else:
            return False
    return True


def dc_table(m):
    """All nonzero bigraded dimensions of DC_m: dict (i, j) -> dim."""
    return dict(_dc_table(m))


@functools.lru_cache(maxsize=None)
def _dc_table(m):
    """dc_table shell by shell: each slice with i <= j is proved zero by
    _covered or eliminated by dc_entry, and its nonzero value is written
    to (i, j) and to its mirror (j, i), equal by the x <-> y swap (see
    the module docstring).  Stops at the first shell after degree 0
    that vanishes."""
    out = {}
    cap = m * m + 2
    leads = {}
    for d in range(cap + 1):
        below, leads = leads, {}
        shell = {}
        for i in range(d // 2 + 1):
            key = (i, d - i)
            if _covered(m, i, d - i, below):
                leads[key] = _EVERY
                shell[key] = 0
            else:
                leads[key] = set()
                shell[key] = dc_entry(m, i, d - i, leads=leads[key])
        if d > 0 and not any(shell.values()):
            return out
        for (i, j), val in shell.items():
            if val:
                out[(i, j)] = out[(j, i)] = val
    raise AssertionError("DC_%d did not terminate below total degree %d" % (m, cap))


def _area_vectors(m):
    """Area sequences of the Dyck paths of size m >= 1: a_1 = 0 and
    0 <= a_{i+1} <= a_i + 1."""
    out = [(0,)]
    for _ in range(m - 1):
        out = [a + (b,) for a in out for b in range(a[-1] + 2)]
    return out


def pf_table(m):
    """The bigraded Hilbert series of DC_m, dict (dinv, area) -> count,
    summed over parking functions; equals dc_table(m).

    A parking function is an area sequence a with labels l, a
    permutation of range(m) that increases along every rise
    (a_{i+1} = a_i + 1).  Its area is sum(a) and its dinv counts the
    pairs i < j with a_i = a_j and l_i < l_j, or with a_i = a_j + 1 and
    l_i > l_j.
    """
    out = {}
    for a in _area_vectors(m):
        rises = [i for i in range(m - 1) if a[i + 1] == a[i] + 1]
        level = [(i, j) for i, j in itertools.combinations(range(m), 2) if a[i] == a[j]]
        step = [(i, j) for i, j in itertools.combinations(range(m), 2) if a[i] == a[j] + 1]
        area = sum(a)
        for l in itertools.permutations(range(m)):
            if any(l[i] > l[i + 1] for i in rises):
                continue
            dinv = (sum(l[i] < l[j] for i, j in level)
                    + sum(l[i] > l[j] for i, j in step))
            key = (dinv, area)
            out[key] = out.get(key, 0) + 1
    return out


def expected_diamond_from_dc(m):
    """The diamond predicted by the diagonal coinvariants: the (i, j)
    entry reads off the DC_m dimension in bidegree
    (m(m-1)/2 - (i+j)/2, (j-i)/2), from the parking-function series."""
    from .bgg import diamond_entries
    n = m * (m - 1) // 2
    table = pf_table(m)
    out = {}
    for (i, j) in diamond_entries(m):
        out[(i, j)] = table.get((n - (i + j) // 2, (j - i) // 2), 0)
    return out
