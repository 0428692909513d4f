"""Resolution complexes of weight spaces for computing multiplicities.

For a module E over the Borel, the multiplicity of the simple L_lam in
the cohomology of the associated sheaf is the cohomology of

    0 -> E[lam] -> ... -> (+)_{l(w)=j} E[w.lam] -> ... -> E[w0.lam] -> 0

where the differentials act by lowering operators.  The maps between
terms come from explicit matrices over U(n) acting on the free modules
by right multiplication; on weight spaces they act by the word-reversed
elements (dualization is an anti-homomorphism on words).  Each block
of a differential is assembled as a sum of products of the module's
lowering matrices along the words, memoised by word prefix with one
memo per source node.

The matrices for the zero weight are hardcoded below for m = 2, 3, 4.
Node names are reduced words in the simple reflections.  The data is
validated structurally: reduced words, full Weyl group coverage, weight
homogeneity of every arrow, and d.d == 0 on each module it is run over.
"""

import logging
from functools import lru_cache

from .exactla import SparseMatrix, CochainComplex, canonical
from . import rootdata, springer

log = logging.getLogger(__name__)


class LoweringPolynomial:
    """A Q-linear combination of words in the lowering generators."""

    def __init__(self, terms):
        self.terms = [(canonical(c), tuple(w)) for c, w in terms]

    def weight_drop(self, m):
        drops = set()
        for _, word in self.terms:
            d = tuple([0] * (m - 1))
            for i in word:
                d = rootdata.add(d, rootdata.simple_root(m, i))
            drops.add(d)
        if len(drops) != 1:
            raise ValueError("inhomogeneous polynomial")
        return drops.pop()

    def reversed_words(self):
        return LoweringPolynomial([(c, w[::-1]) for c, w in self.terms])

    def __repr__(self):
        return "LoweringPolynomial(%r)" % (self.terms,)


# Right-multiplication matrices of the resolution of the trivial module,
# as pairs (shorter word, longer word) -> terms.  Single letters denote
# generator subscripts, so (2, (1, 2)) stands for 2 f_1 f_2.
_RESOLUTION = {
    2: {
        ((), (1,)): [(1, (1,))],
    },
    3: {
        ((), (1,)): [(1, (1,))],
        ((), (2,)): [(1, (2,))],
        ((1,), (2, 1)): [(1, (2, 2))],
        ((1,), (1, 2)): [(-2, (1, 2)), (1, (2, 1))],
        ((2,), (1, 2)): [(1, (1, 1))],
        ((2,), (2, 1)): [(-2, (2, 1)), (1, (1, 2))],
        ((2, 1), (1, 2, 1)): [(1, (1,))],
        ((1, 2), (1, 2, 1)): [(1, (2,))],
    },
    4: {
        # length 0 -> 1
        ((), (1,)): [(1, (1,))],
        ((), (2,)): [(1, (2,))],
        ((), (3,)): [(1, (3,))],
        # length 1 -> 2
        ((1,), (2, 1)): [(-1, (2, 2))],
        ((1,), (1, 2)): [(2, (1, 2)), (-1, (2, 1))],
        ((1,), (3, 1)): [(-1, (3,))],
        ((2,), (2, 1)): [(2, (2, 1)), (-1, (1, 2))],
        ((2,), (1, 2)): [(-1, (1, 1))],
        ((2,), (3, 2)): [(1, (3, 3))],
        ((2,), (2, 3)): [(1, (3, 2)), (-2, (2, 3))],
        ((3,), (3, 1)): [(1, (1,))],
        ((3,), (3, 2)): [(1, (2, 3)), (-2, (3, 2))],
        ((3,), (2, 3)): [(1, (2, 2))],
        # length 2 -> 3
        ((2, 1), (1, 2, 1)): [(-1, (1,))],
        ((2, 1), (3, 2, 1)): [(1, (3, 3, 3))],
        ((2, 1), (2, 3, 1)): [(3, (2, 3)), (-2, (3, 2))],
        ((1, 2), (1, 2, 1)): [(-1, (2,))],
        ((1, 2), (3, 1, 2)): [(1, (3, 3))],
        ((1, 2), (1, 2, 3)): [(6, (1, 2, 3)), (-4, (2, 1, 3)),
                              (-3, (1, 3, 2)), (2, (3, 2, 1))],
        ((3, 1), (3, 2, 1)): [(-1, (3, 3, 2, 2)), (-4, (3, 2, 3, 2)),
                              (-2, (2, 3, 2, 3)), (6, (3, 2, 2, 3))],
        ((3, 1), (2, 3, 1)): [(-1, (2, 2, 2))],
        ((3, 1), (3, 1, 2)): [(4, (1, 3, 2)), (-2, (3, 2, 1)),
                              (-2, (1, 2, 3)), (1, (2, 3, 1))],
        ((3, 1), (1, 2, 3)): [(1, (1, 1, 2, 2)), (4, (1, 2, 1, 2)),
                              (2, (2, 1, 2, 1)), (-6, (1, 2, 2, 1))],
        ((3, 2), (3, 2, 1)): [(-6, (3, 2, 1)), (4, (2, 1, 3)),
                              (3, (1, 3, 2)), (-2, (1, 2, 3))],
        ((3, 2), (3, 1, 2)): [(1, (1, 1))],
        ((3, 2), (2, 3, 2)): [(1, (2,))],
        ((2, 3), (2, 3, 1)): [(3, (2, 1)), (-2, (1, 2))],
        ((2, 3), (1, 2, 3)): [(-1, (1, 1, 1))],
        ((2, 3), (2, 3, 2)): [(1, (3,))],
        # length 3 -> 4
        ((1, 2, 1), (1, 3, 2, 1)): [(-1, (3, 3, 3))],
        ((1, 2, 1), (1, 2, 3, 1)): [(6, (1, 2, 3)), (-4, (1, 3, 2)),
                                    (-3, (2, 1, 3)), (2, (3, 2, 1))],
        ((1, 2, 1), (2, 3, 1, 2)): [(1, (2, 2, 3, 3)), (4, (2, 3, 2, 3)),
                                    (2, (3, 2, 3, 2)), (-6, (2, 3, 3, 2))],
        ((3, 2, 1), (1, 3, 2, 1)): [(-1, (1,))],
        ((3, 2, 1), (2, 3, 2, 1)): [(1, (2,))],
        ((2, 3, 1), (2, 3, 2, 1)): [(-1, (3, 3))],
        ((2, 3, 1), (1, 2, 3, 1)): [(1, (1, 1))],
        ((2, 3, 1), (2, 3, 1, 2)): [(4, (2, 1, 3)), (-2, (1, 2, 3)),
                                    (-2, (3, 2, 1)), (1, (1, 3, 2))],
        ((3, 1, 2), (1, 3, 2, 1)): [(2, (2, 3)), (-3, (3, 2))],
        ((3, 1, 2), (2, 3, 1, 2)): [(1, (2, 2, 2))],
        ((3, 1, 2), (1, 2, 3, 2)): [(2, (2, 1)), (-3, (1, 2))],
        ((1, 2, 3), (1, 2, 3, 1)): [(1, (2,))],
        ((1, 2, 3), (1, 2, 3, 2)): [(1, (3,))],
        ((2, 3, 2), (2, 3, 2, 1)): [(6, (3, 2, 1)), (-4, (1, 3, 2)),
                                    (-3, (2, 1, 3)), (2, (1, 2, 3))],
        ((2, 3, 2), (2, 3, 1, 2)): [(-1, (2, 2, 1, 1)), (-4, (2, 1, 2, 1)),
                                    (-2, (1, 2, 1, 2)), (6, (2, 1, 1, 2))],
        ((2, 3, 2), (1, 2, 3, 2)): [(1, (1, 1, 1))],
        # length 4 -> 5
        ((1, 3, 2, 1), (2, 3, 1, 2, 1)): [(1, (2, 2))],
        ((1, 3, 2, 1), (1, 2, 3, 2, 1)): [(1, (2, 1)), (-2, (1, 2))],
        ((2, 3, 2, 1), (2, 3, 1, 2, 1)): [(2, (2, 1)), (-1, (1, 2))],
        ((2, 3, 2, 1), (1, 2, 3, 2, 1)): [(-1, (1, 1))],
        ((1, 2, 3, 1), (1, 2, 3, 2, 1)): [(-1, (3, 3))],
        ((1, 2, 3, 1), (2, 1, 2, 3, 2)): [(1, (3, 2)), (-2, (2, 3))],
        ((2, 3, 1, 2), (2, 3, 1, 2, 1)): [(1, (3,))],
        ((2, 3, 1, 2), (2, 1, 2, 3, 2)): [(1, (1,))],
        ((1, 2, 3, 2), (1, 2, 3, 2, 1)): [(2, (3, 2)), (-1, (2, 3))],
        ((1, 2, 3, 2), (2, 1, 2, 3, 2)): [(1, (2, 2))],
        # length 5 -> 6
        ((2, 3, 1, 2, 1), (1, 2, 3, 1, 2, 1)): [(-1, (1,))],
        ((1, 2, 3, 2, 1), (1, 2, 3, 1, 2, 1)): [(-1, (2,))],
        ((2, 1, 2, 3, 2), (1, 2, 3, 1, 2, 1)): [(1, (3,))],
    },
}


class BGGData:
    def __init__(self, m, resolution):
        self.m = m
        self.arrows = {pair: LoweringPolynomial(terms).reversed_words()
                       for pair, terms in resolution.items()}
        max_len = m * (m - 1) // 2
        self.nodes = [[] for _ in range(max_len + 1)]
        seen = set()
        for (w, w2) in resolution:
            for word in (w, w2):
                if word not in seen:
                    seen.add(word)
                    self.nodes[len(word)].append(word)
        for layer in self.nodes:
            layer.sort()
        self._validate()

    def node_weight(self, word, lam=None):
        if lam is None:
            lam = tuple([0] * (self.m - 1))
        return rootdata.WeylElement.from_word(self.m, word).dot(lam)

    def _validate(self):
        m = self.m
        elems = {}
        for length, layer in enumerate(self.nodes):
            for word in layer:
                w = rootdata.WeylElement.from_word(m, word)
                if not w.length() == len(word) == length:
                    raise ValueError("word %r is not reduced" % (word,))
                if w.perm in elems:
                    raise ValueError("duplicate node %r" % (word,))
                elems[w.perm] = word
        if len(elems) != len(rootdata.weyl_group(m)):
            raise ValueError("nodes miss Weyl elements")
        for (w, w2), poly in self.arrows.items():
            drop = poly.weight_drop(m)
            expect = rootdata.sub(self.node_weight(w), self.node_weight(w2))
            if drop != expect:
                raise ValueError("arrow %r -> %r has wrong weight" % (w, w2))


@lru_cache(maxsize=None)
def bgg_data(m):
    # the combinatorial data is lam-independent; weights come out of
    # node_weight(word, lam) at use sites
    if m not in _RESOLUTION:
        raise ValueError("resolution matrices are only available for m = 2, 3, 4")
    return BGGData(m, _RESOLUTION[m])


def cochain_window(m, lam=None):
    """All weights touched while running the complex: node weights plus
    every intermediate weight along each word of each arrow."""
    data = bgg_data(m)
    window = set()
    for layer in data.nodes:
        for word in layer:
            window.add(data.node_weight(word, lam))
    for (w, _), poly in data.arrows.items():
        mu = data.node_weight(w, lam)
        for _, word in poly.terms:
            cur = mu
            for i in word:
                cur = rootdata.sub(cur, rootdata.simple_root(m, i))
                window.add(cur)
    return window


def bgg_cochain(e, lam=None):
    """The complex of weight spaces of e with the lowering differentials.

    lam must be the zero weight (the hardcoded matrices are for the
    resolution of the trivial module); use multiplicity() for general lam.
    The block of an arrow w -> w2 sums coeff times the product of the
    lowering matrices along each word.  Prefix products are shared only
    by words from one node, since distinct nodes have distinct weights,
    so the memo is dropped once the node's arrows are placed.
    """
    m = e.m
    zero = tuple([0] * (m - 1))
    if lam is not None and lam != zero:
        raise ValueError("explicit matrices only cover the zero weight")
    data = bgg_data(m)
    node_wt = {}
    offsets = []
    dims = []
    for layer in data.nodes:
        off = {}
        total = 0
        for word in layer:
            node_wt[word] = data.node_weight(word)
            off[word] = total
            total += e.weight_dim(node_wt[word])
        offsets.append(off)
        dims.append(total)
    maps = []
    for t in range(len(data.nodes) - 1):
        ent = {}
        get = ent.get
        for w in data.nodes[t]:
            mu = node_wt[w]
            if not e.weight_dim(mu):
                continue
            col0 = offsets[t][w]
            # word prefix -> (weight reached, product of lowering matrices)
            memo = {}
            for w2 in data.nodes[t + 1]:
                poly = data.arrows.get((w, w2))
                if poly is None:
                    continue
                row0 = offsets[t + 1][w2]
                for coeff, word in poly.terms:
                    tgt, prod = mu, None
                    for n in range(1, len(word) + 1):
                        got = memo.get(word[:n])
                        if got is None:
                            i = word[n - 1]
                            low = e.lower_matrix(i, tgt)
                            got = memo[word[:n]] = (
                                rootdata.sub(tgt, rootdata.simple_root(m, i)),
                                low if prod is None else low.matmul(prod))
                        tgt, prod = got
                    if tgt != node_wt[w2]:
                        raise ValueError("arrow %r -> %r lands at weight %r, not %r"
                                         % (w, w2, tgt, node_wt[w2]))
                    for (r, c), v in prod.entries.items():
                        key = (row0 + r, col0 + c)
                        ent[key] = get(key, 0) + coeff * v
        maps.append(SparseMatrix(dims[t + 1], dims[t], ent))
    return CochainComplex(dims, maps)


def multiplicity(e, lam=None):
    """Multiplicity profile of L_lam in the sheaf cohomology of e, one
    entry per cohomological degree.

    For lam = 0 this runs the full hardcoded complex.  The matrices cover
    only the zero weight, so a nonzero dominant lam goes to the Lie
    algebra cohomology route.
    """
    m = e.m
    zero = tuple([0] * (m - 1))
    if lam is None or lam == zero:
        return bgg_cochain(e).cohomology_dims()
    if not rootdata.is_dominant(lam):
        raise ValueError("lam must be dominant")
    from . import ce_oracle
    return ce_oracle.ce_cohomology(e, lam)


def diamond_entries(m):
    n = m * (m - 1) // 2
    return [(i, j) for j in range(2 * n + 1)
            for i in range(min(j, 2 * n - j) + 1) if (i + j) % 2 == 0]


def entry_component(m, i, j):
    """The (k, r) of the component V_k^{-2r} whose profile holds diamond
    entry (i, j) in degree i.  The symplectic pairing against the top
    power folds (i, j) and (i, 2n - j) onto the same k = min(j, 2n - j)."""
    n = m * (m - 1) // 2
    if not (0 <= i <= min(j, 2 * n - j) and (i + j) % 2 == 0):
        raise ValueError("no diamond entry at (%d, %d)" % (i, j))
    k = min(j, 2 * n - j)
    return k, (i + k) // 2


def hodge_entry(m, i, j):
    """dim of the (-i-j)-graded part of H^i of the j-th exterior power of
    the tangent sheaf, as a multiplicity of the trivial module."""
    k, r = entry_component(m, i, j)
    window = cochain_window(m)
    comp = springer.build_vk_component(m, k, r, window=window)
    cx = bgg_cochain(comp.module)
    log.info("entry (%d,%d): window %d weights, module dim %d, maps %s",
             i, j, len(window), comp.module.dim,
             ["%dx%d" % (mp.nrows, mp.ncols) for mp in cx.maps])
    return cx.cohomology_dims()[i]


class EntryFailed(Exception):
    """A pool worker's exception, re-raised with the diamond entry that
    the worker was computing."""


def _entry_task(args):
    m, i, j = args
    try:
        return (i, j), hodge_entry(m, i, j)
    except Exception as ex:
        raise EntryFailed("diamond entry (%d, %d) for m = %d failed: %s: %s"
                          % (i, j, m, type(ex).__name__, ex)) from ex


def hodge_diamond(m, jobs=1):
    """All bigraded dimensions as a dict (i, j) -> h."""
    n = m * (m - 1) // 2
    entries = diamond_entries(m)
    direct = [(i, j) for (i, j) in entries if j <= n]
    out = {}
    if jobs and jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            for key, h in ex.map(_entry_task, [(m, i, j) for (i, j) in direct]):
                out[key] = h
    else:
        for (i, j) in direct:
            out[(i, j)] = hodge_entry(m, i, j)
    for (i, j) in entries:
        if j > n:
            out[(i, j)] = out[(i, 2 * n - j)]
    return out


def diamond_total(diamond):
    return sum(diamond.values())
