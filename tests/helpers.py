"""Views of package objects that only the tests need."""

from fractions import Fraction
from math import gcd, lcm

from springercenter import bgg, exactla, rootdata
from springercenter.bmodule import serre_relations
from springercenter.exactla import RowReducer, SparseMatrix


def transpose(mat):
    """The transpose of a SparseMatrix."""
    return SparseMatrix(mat.ncols, mat.nrows,
                        {(c, r): v for (r, c), v in mat.entries.items()})


def from_rows(rows, ncols=None):
    """A SparseMatrix built from a list of sparse rows (dicts col ->
    value).  Given ncols is the width, and a row reaching past it raises
    IndexError; without it the matrix is as wide as its widest nonzero
    entry needs."""
    entries = {(r, c): v for r, row in enumerate(rows) for c, v in row.items() if v}
    if ncols is None:
        ncols = max((c + 1 for _, c in entries), default=0)
    return SparseMatrix(len(rows), ncols, entries)


def weights(mod):
    """The weights of a BModule's nonzero weight spaces, sorted."""
    return sorted(mod.spaces)


def character(mod):
    """A BModule's character: weight -> dim of its weight space."""
    return {mu: len(lbls) for mu, lbls in mod.spaces.items()}


def every_lowering(mod):
    """(i, mu) -> the matrix of f_i on the mu weight space, for every
    nonzero f_i between two weights with labels, read in order: weights
    as mod.spaces lists them, then i ascending."""
    out = {}
    for mu in mod.spaces:
        for i in range(1, mod.m):
            if mod.spaces.get(rootdata.sub(mu, rootdata.simple_root(mod.m, i))):
                mat = mod.lower_matrix(i, mu)
                if mat.cols:
                    out[i, mu] = mat
    return out


def columns_from(lower):
    """An action, as BModule takes it, whose f_i are the matrices of
    lower, keyed (i, mu); a missing key and every non-simple root act by
    zero."""
    def columns(root, mu, target):
        mat = lower.get((root[1], mu)) if root[1] == root[0] + 1 else None
        return {} if mat is None else mat.cols
    return columns


class SerreQuotient:
    """Weight spaces of the free algebra on f_1, ..., f_{m-1} modulo the
    two-sided Serre ideal, keyed by the tuple of letter counts: the
    reference that bgg's standard words are checked against."""

    def __init__(self, m):
        self.m, self._spaces = m, {}
        self.relations = serre_relations(m)

    def space(self, counts):
        """(words in lexicographic order, RowReducer of the ideal on their
        columns: each relation times every word, and f_i times the
        ideal).  The words off its pivots are a basis of the quotient."""
        if counts not in self._spaces:
            lower = [(i, self.space(counts[:i - 1] + (counts[i - 1] - 1,) + counts[i:]))
                     for i in range(1, self.m) if counts[i - 1]]
            words = [(i,) + w for i, (ws, _) in lower for w in ws] or [()]
            index = {w: c for c, w in enumerate(words)}
            vectors = [{index[(i,) + ws[c]]: v for c, v in row.items()}
                       for i, (ws, red) in lower for row in red.echelon.values()]
            for rel in self.relations:
                rest = tuple(n - rel[0][1].count(i + 1) for i, n in enumerate(counts))
                if min(rest) >= 0:
                    vectors += [{index[s + w]: c for c, s in rel} for w in self.space(rest)[0]]
            red = RowReducer()
            for vec in vectors:
                red.add(vec)
            self._spaces[counts] = (words, red)
        return self._spaces[counts]

    def kept(self, counts):
        """The words off the pivots of space(counts), in order."""
        words, red = self.space(counts)
        return [w for c, w in enumerate(words) if c not in red.echelon]


def rref_kernel(rows, ncols):
    """The right kernel of the rows (dicts col -> value) on ncols columns,
    one vector per free column in ascending order, read off the Fraction
    RREF of RowReducer.reduced_rows(): 1 at the free column, minus that
    column of each reduced row at its pivot, then scaled to coprime
    integers.  The reference for exactla.kernel_basis."""
    red = RowReducer()
    for row in rows:
        red.add(row)
    rref = red.reduced_rows()
    out = []
    for f in range(ncols):
        if f not in rref:
            vec = {f: Fraction(1), **{p: -row[f] for p, row in rref.items() if row.get(f)}}
            den = lcm(*[v.denominator for v in vec.values()])
            g = gcd(*[int(v * den) for v in vec.values()])
            out.append({c: int(v * den) // g for c, v in vec.items()})
    return out


def kernel_line(rows, ncols):
    """rref_kernel's one vector, or None unless the kernel is a line."""
    kernel = rref_kernel(rows, ncols)
    return kernel[0] if len(kernel) == 1 else None


def product_covers(m):
    """The Bruhat covers (w, t w, (a, b)) of S_m found by forming each
    product t w and recounting its inversions, in weyl_group order and
    then positive_roots order: the reference for rootdata.bruhat_graph."""
    edges = []
    for w in rootdata.weyl_group(m):
        for (a, b) in rootdata.positive_roots(m):
            t = list(range(m))
            t[a], t[b] = b, a
            up = tuple(t[w[x]] for x in range(m))
            if rootdata.length(up) == rootdata.length(w) + 1:
                edges.append((w, up, (a, b)))
    return edges


def pbw_sum(env, terms):
    """The sum of c times each product word of terms, in the PBW
    coordinates of the bgg._Enveloping env."""
    out = {}
    for c, word in terms:
        bgg._accumulate(out, env.pbw(word), c)
    return out


def composite_resolution(m):
    """bgg._resolution with each cancellation system solved on the
    composites of the two-step paths expanded in PBW coordinates, one
    row per (lo, monomial), through kernel_line: the reference for the
    coefficient-sum systems."""
    name = {w: rootdata.reduced_word(w) for w in rootdata.weyl_group(m)}
    weight = {w: rootdata.dot(w, (0,) * (m - 1)) for w in name}
    env, arrows, into = bgg._Enveloping(m), {}, {}
    for lo, up, (a, b) in rootdata.bruhat_graph(m):
        v = rootdata.to_eps(rootdata.add(weight[lo], rootdata.rho(m)))
        counts = tuple(v[a] - v[b] if a < i <= b else 0 for i in range(1, m))
        arrows[lo, up] = env.singular(weight[lo], counts)
        into.setdefault(up, []).append(lo)
    for up in sorted(into, key=lambda p: len(name[p])):
        rows = {}
        for col, mid in enumerate(into[up]):
            for lo in into.get(mid, ()):
                composite = pbw_sum(env, [(c * d, v + u) for c, u in arrows[lo, mid]
                                          for d, v in arrows[mid, up]])
                for mono, v in composite.items():
                    rows.setdefault((lo, mono), {})[col] = v
        line = kernel_line(rows.values(), len(into[up]))
        assert line is not None and len(line) == len(into[up]), up
        for col, mid in enumerate(into[up]):
            arrows[mid, up] = [(line[col] * c, w) for c, w in arrows[mid, up]]
    return {(name[lo], name[up]): terms for (lo, up), terms in arrows.items()}


def assert_cleared_sweeps_agree(cx):
    """Walk the cleared ranks of cx as cohomology_dims does, and check at
    every map that the leading-only images it stores span the space of a
    full sweep of the same images: the same pivots and the same reduced
    rows."""
    cleared = ()
    for mp in cx.maps:
        lead = exactla._image_reducer(mp, cleared)
        full = RowReducer()
        for c in sorted(mp.cols, reverse=True):
            if c not in cleared:
                full.add(mp.cols[c])
        assert sorted(lead.echelon) == sorted(full.echelon)
        assert lead.reduced_rows() == full.reduced_rows()
        cleared = lead.echelon
