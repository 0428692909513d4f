"""Resolution complexes of weight spaces for computing multiplicities.

For a module E over the Borel, the multiplicity of the simple L_lam in
the cohomology of the associated sheaf is the cohomology of

    0 -> E[lam] -> ... -> (+)_{l(w)=j} E[w.lam] -> ... -> E[w0.lam] -> 0

where the differentials act by lowering operators.  The maps between
terms come from explicit matrices over U(n) acting on the free modules
by right multiplication; on weight spaces they act by the word-reversed
elements (dualization is an anti-homomorphism on words), so BGGData
reverses each arrow's words once, into application order.  Each block
of a differential is a sum of products of the module's lowering
matrices along the words, taken from BModule.word_matrices, one call
per source node; exactla.block_complex lays the blocks out.

The resolution of the trivial module is generated for every m: nodes are
reduced words of Weyl group elements, and the arrow of a Bruhat cover
w -> w' is the Verma embedding M(w'.0) -> M(w.0), the singular vector of
weight w'.0 - w.0 in U(n^-) (BGG 1975; Humphreys 2008, ch. 6).  Each
singular vector is written on the standard words of its weight, a basis
of U(n^-) there with one word per Kostant partition (Lalonde-Ram 1995;
Bokut-Klein 1996 for type A).  Its coefficients are solved in PBW
coordinates of U(n^-), where each product is straightened by the
root-vector brackets (de Graaf 2000), with no ideal to eliminate.

The scalars that make the two paths through each length-2 interval
lo < mid < up cancel are solved on coefficient sums.  The composites of
those paths are proportional, as Hom(M(up.0), M(lo.0)) is at most a line
(Humphreys 2008, Thm 4.2).  The algebra map pi: U(n^-) -> Q[x_1..x_{m-1}]
induced by n^- -> n^-/[n^-, n^-] sends f_i to x_i and every other root
vector to 0, so an arrow of weight gamma to s x^gamma, s its coefficient
sum; pi is multiplicative, so when no s is 0 the composites cancel
exactly when the products of their sums do.  Every s is +-1 for m <= 6,
signs on the squares as in BGG, and a zero s raises.  The data is
validated structurally: reduced words, full Weyl group coverage, weight
homogeneity of every arrow, and d.d == 0 on each module it is run over.

A diamond entry is one degree i of one component's profile, and H^i
needs only d_{i-1} and d_i.  So each entry builds its component on the
weights of layers i-1..i+1 and the weights their arrows pass through,
and assembles only those three terms.  Clearing (exactla) stays valid
on the pair, as it needs only d_i d_{i-1} = 0: d_{i-1} is ranked on all
its columns, and d_i off the pivots of im d_{i-1}.

hodge_diamond is the one diamond driver for both routes: the resolution
complex here, or the Lie algebra cohomology complex of ce_oracle.
"""

import logging
from functools import lru_cache
from math import gcd

from .exactla import RowReducer, block_complex
from . import rootdata, springer

log = logging.getLogger(__name__)


def _accumulate(out, terms, c):
    """out += c * terms, both dicts to int, dropping zero entries."""
    for key, v in terms.items():
        v = out.get(key, 0) + c * v
        if v:
            out[key] = v
        else:
            out.pop(key, None)


def _line(rows, ncols):
    """Coprime integers spanning the right kernel of the integer rows
    (dicts col -> int) on ncols columns, nonzero entries only, the last
    positive; None unless the kernel is a line.  The pivots are solved
    down from the one free column, scaling by a / gcd(s, a) at each."""
    red = RowReducer()
    for row in rows:
        red.add(row)
    if red.rank != ncols - 1:
        return None
    x = {next(c for c in range(ncols - 1, -1, -1) if c not in red.echelon): 1}
    for p in sorted(red.echelon, reverse=True):
        row = red.echelon[p]
        s = sum(v * x.get(c, 0) for c, v in row.items())
        if s:
            a, g = row[p], gcd(s, row[p])
            if g != a:
                x = {c: v * (a // g) for c, v in x.items()}
            x[p] = -s // g
    g = gcd(*x.values())
    return {c: v // g for c, v in x.items()}


class _Enveloping:
    """Weight spaces of U(n^-).  `line` solves its scalars in PBW
    coordinates: root vectors f_(a,b) = E_ba in rootdata.positive_roots(m)
    order, monomials as non-decreasing index tuples.  `singular` writes
    its vector on the standard words in the f_i (Lalonde-Ram 1995), a
    basis of each weight space keyed by the tuple of letter counts.  pi
    (module docstring) sends a singular vector to s x^weight, s = +-1 at m <= 6."""

    def __init__(self, m):
        self.m = m
        roots = rootdata.positive_roots(m)
        index = {r: t for t, r in enumerate(roots)}
        self._simple = {i: index[i - 1, i] for i in range(1, m)}
        # (y, x) -> (sign, z) with [f_y, f_x] = sign f_z, for x < y, from
        # [E_ba, E_dc] = delta_ad E_bc - delta_cb E_da
        self._bracket = {}
        for y, (a, b) in enumerate(roots):
            for x, (c, d) in enumerate(roots[:y]):
                if a == d:
                    self._bracket[y, x] = (1, index[c, b])
                elif c == b:
                    self._bracket[y, x] = (-1, index[a, d])
        self._products, self._words, self._standard = {}, {(): {(): 1}}, {}
        self._root_words = sorted(((tuple(range(a + 1, b + 1)), a, b) for a, b in roots),
                                  reverse=True)

    def standard_words(self, counts):
        """The standard words of weight `counts`, in lexicographic order:
        for each Kostant partition, the words of its roots f_(a,b) ->
        (a+1, ..., b) concatenated in non-increasing lexicographic order."""
        if counts not in self._standard:
            out = []

            def walk(s, rest, word):
                if not any(rest):
                    out.append(word)
                    return
                for t in range(s, len(self._root_words)):
                    root, a, b = self._root_words[t]
                    if min(rest[a:b]) > 0:
                        walk(t, rest[:a] + tuple(n - 1 for n in rest[a:b]) + rest[b:], word + root)

            walk(0, counts, ())
            self._standard[counts] = sorted(out)
        return self._standard[counts]

    def _times(self, mono, x):
        """mono f_x in PBW coordinates, straightened by f_y f_x = f_x f_y + [f_y, f_x]."""
        if (mono, x) not in self._products:
            if not mono or mono[-1] <= x:
                out = {mono + (x,): 1}
            else:
                out, y = {}, mono[-1]
                for head, c in self._times(mono[:-1], x).items():
                    _accumulate(out, self._times(head, y), c)
                if (y, x) in self._bracket:
                    sign, z = self._bracket[y, x]
                    _accumulate(out, self._times(mono[:-1], z), sign)
            self._products[mono, x] = out
        return self._products[mono, x]

    def pbw(self, word):
        """The product of the word's f_i (word[0] leftmost) in PBW
        coordinates, monomial -> int, memoised per prefix."""
        if word not in self._words:
            out = {}
            for mono, c in self.pbw(word[:-1]).items():
                _accumulate(out, self._times(mono, self._simple[word[-1]]), c)
            self._words[word] = out
        return self._words[word]

    def line(self, columns):
        """Coprime integers x with sum over col of x[col] columns[col][key]
        zero in U(n^-) for every key, or None unless they form one line."""
        rows = {}
        for col, combos in enumerate(columns):
            for key, terms in combos.items():
                for c, w in terms:
                    for mono, v in self.pbw(w).items():
                        row = rows.setdefault((key, mono), {})
                        row[col] = row.get(col, 0) + c * v
        return _line(rows.values(), len(columns))

    def singular(self, mu, counts):
        """The u of weight `counts` with u v_mu singular in M(mu), on the kept
        words.  As [e_j, f_i] = delta_ij h_j, e_j f_{i_1} ... f_{i_h} v_mu sums
        over i_p = j the word without f_{i_p} times <mu - sum_{q>p} alpha_{i_q}, alpha_j^vee>."""
        kept = self.standard_words(counts)
        columns = [{} for _ in kept]
        for combos, word in zip(columns, kept):
            for j in set(word):
                val, combos[j] = mu[j - 1], []
                for p in range(len(word) - 1, -1, -1):
                    if word[p] == j:
                        combos[j].append((val, word[:p] + word[p + 1:]))
                    val -= rootdata.simple_root(self.m, word[p])[j - 1]
        line = self.line(columns)
        if line is None:
            raise ValueError("M%r has no unique singular line at drop %r" % (mu, counts))
        return [(line[c], kept[c]) for c in sorted(line)]


def _resolution(m):
    """(shorter, longer) -> [(coeff, product word)] on reduced words, so
    (2, (1, 2)) is 2 f_1 f_2.  The cover w -> t_alpha w drops the weight by
    <w(rho), alpha^vee> alpha.  By length, the arrows into each `up` are
    scaled so that the two paths from each lo two steps below cancel, on
    coefficient sums (module docstring): one row per lo, one column per
    mid.  An arrow whose sum is 0 raises ValueError."""
    name = {w.perm: w.reduced_word() for w in rootdata.weyl_group(m)}
    weight = {p: rootdata.WeylElement(p).dot((0,) * (m - 1)) for p in name}
    env, arrows, total, into = _Enveloping(m), {}, {}, {}
    for edge in rootdata.bruhat_graph(m):
        lo, up = edge.lower.perm, edge.upper.perm
        (a, b), v = edge.root, rootdata.to_eps(rootdata.add(weight[lo], rootdata.rho(m)))
        counts = tuple(v[a] - v[b] if a < i <= b else 0 for i in range(1, m))
        arrows[lo, up] = env.singular(weight[lo], counts)
        total[lo, up] = sum(c for c, _ in arrows[lo, up])
        if not total[lo, up]:
            raise ValueError("arrow %r -> %r has coefficient sum 0" % (name[lo], name[up]))
        into.setdefault(up, []).append(lo)
    for up in sorted(into, key=lambda p: len(name[p])):
        rows = {}
        for col, mid in enumerate(into[up]):
            for lo in into.get(mid, ()):
                rows.setdefault(lo, {})[col] = total[lo, mid] * total[mid, up]
        line = _line(rows.values(), len(into[up]))
        if line is None or len(line) != len(into[up]):
            raise ValueError("the paths into %r have no cancelling scalars" % (up,))
        for col, mid in enumerate(into[up]):
            arrows[mid, up] = [(line[col] * c, w) for c, w in arrows[mid, up]]
            total[mid, up] *= line[col]
    return {(name[lo], name[up]): terms for (lo, up), terms in arrows.items()}


class BGGData:
    """The resolution's nodes, layer by layer, each node's weight w.0 as
    weight[word], and its arrows as (w, w2) -> [(coeff, word)], each word
    in application order (word[0] acts first): the product-order words
    of the resolution, reversed."""

    def __init__(self, m, resolution):
        self.m = m
        self.arrows = {pair: [(c, w[::-1]) for c, w in terms]
                       for pair, terms in resolution.items()}
        max_len = m * (m - 1) // 2
        self.nodes = [[] for _ in range(max_len + 1)]
        for word in sorted({word for pair in resolution for word in pair}):
            self.nodes[len(word)].append(word)
        self._validate()

    def _validate(self):
        m = self.m
        elems, self.weight = {}, {}
        for length, layer in enumerate(self.nodes):
            for word in layer:
                w = rootdata.WeylElement.from_word(m, word)
                if not w.length() == len(word) == length:
                    raise ValueError("word %r is not reduced" % (word,))
                if w.perm in elems:
                    raise ValueError("duplicate node %r" % (word,))
                elems[w.perm] = word
                self.weight[word] = w.dot((0,) * (m - 1))
        if len(elems) != len(rootdata.weyl_group(m)):
            raise ValueError("nodes miss Weyl elements")
        for (w, w2), terms in self.arrows.items():
            if any(rootdata.lowering_path(m, self.weight[w], word)[-1] != self.weight[w2]
                   for _, word in terms):
                raise ValueError("arrow %r -> %r has wrong weight" % (w, w2))


@lru_cache(maxsize=None)
def bgg_data(m):
    return BGGData(m, _resolution(m))


@lru_cache(maxsize=None)
def cochain_window(m, lo=0, hi=None):
    """The weights the complex on layers lo..hi (all layers when hi is
    None) touches: the node weights of those layers plus every weight
    that the words of the arrows out of layers lo..hi-1 pass through;
    built once per range."""
    data = bgg_data(m)
    hi = len(data.nodes) - 1 if hi is None else hi
    window = {data.weight[word] for layer in data.nodes[lo:hi + 1] for word in layer}
    for (w, _), terms in data.arrows.items():
        if lo <= len(w) < hi:
            mu = data.weight[w]
            for _, word in terms:
                window.update(rootdata.lowering_path(m, mu, word))
    return frozenset(window)


def bgg_cochain(e, lo=0, hi=None):
    """The complex of weight spaces of e with the lowering differentials
    of the resolution of the trivial module, whose cohomology is the
    multiplicity of L_0.

    Only layers lo..hi are built (all of them when hi is None), so term t
    of the result is term lo + t of the whole complex and e needs only
    the weights of cochain_window(m, lo, hi).  On a truncation only the
    interior degrees, and an end that is also an end of the whole
    complex, give its true cohomology.

    The block of an arrow w -> w2 sums coeff times the product of the
    lowering matrices along each word; block_complex lays the blocks
    out.  The products come from one word_matrices call per source node,
    on the words of all its arrows: prefixes are shared only within a
    node, since distinct nodes have distinct weights.
    """
    data = bgg_data(e.m)
    layers = data.nodes[lo:None if hi is None else hi + 1]
    weight = data.weight

    def blocks(t, w):
        arrows = [(w2, data.arrows[w, w2]) for w2 in layers[t + 1] if (w, w2) in data.arrows]
        prods = e.word_matrices(weight[w], [word for _, terms in arrows for _, word in terms])
        for w2, terms in arrows:
            for coeff, word in terms:
                tgt, prod = prods[word]
                if tgt != weight[w2]:
                    raise ValueError("arrow %r -> %r lands at weight %r, not %r"
                                     % (w, w2, tgt, weight[w2]))
                yield w2, coeff, prod

    return block_complex([[(w, e.weight_dim(weight[w])) for w in layer] for layer in layers],
                         blocks)


def multiplicity(e):
    """Multiplicity profile of L_0 in the sheaf cohomology of e, one
    entry per cohomological degree, from the whole resolution complex.
    The resolution is generated only for the zero weight; a nonzero lam
    runs on the Lie algebra cohomology route, ce_oracle.ce_cohomology.
    e is dropped before the ranks, so a temporary is freed there."""
    cx = bgg_cochain(e)
    del e
    return cx.cohomology_dims()


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


def profile_degree(m, k, r, i):
    """Degree i of the resolution profile of V_k^{-2r}, from layers
    lo = max(i - 1, 0) to hi = min(i + 1, n) only, on cochain_window(m,
    lo, hi).  d_{i-1} is ranked uncleared and d_i off the pivots of
    im d_{i-1}; cohomology_dims checks d_i d_{i-1} = 0 first, which
    keeps that clearing valid.  The module is dropped before the ranks:
    it is many times the size of the three terms (19 times at sl6
    (7,11)), and nothing else holds it once the complex is built."""
    lo, hi = max(i - 1, 0), min(i + 1, m * (m - 1) // 2)
    window = cochain_window(m, lo, hi)
    comp = springer.build_vk_component(m, k, r, window=window)
    dim = comp.module.dim
    cx = bgg_cochain(comp.module, lo, hi)
    del comp
    if log.isEnabledFor(logging.INFO):
        log.info("V_%d^{-%d} degree %d: window %d weights, module dim %d, maps %s",
                 k, 2 * r, i, len(window), dim,
                 ["%dx%d" % (mp.nrows, mp.ncols) for mp in cx.maps])
    return cx.cohomology_dims()[i - lo]


def _check_method(method):
    if method not in ("bgg", "ce"):
        raise ValueError("unknown method %r: use 'bgg' or 'ce'" % (method,))


def hodge_entry(m, i, j, method="bgg"):
    """dim of the (-i-j)-graded part of H^i of the j-th exterior power of
    the tangent sheaf, as a multiplicity of the trivial module: degree i
    of the profile of the component entry_component(m, i, j).

    method "ce" runs the Lie algebra cohomology complex on the complete
    component, and "bgg" the resolution complex on the three terms around
    degree i only, since H^i needs just d_{i-1} and d_i (profile_degree);
    any other method raises ValueError."""
    _check_method(method)
    k, r = entry_component(m, i, j)
    if method == "ce":
        from . import ce_oracle
        return ce_oracle.ce_cohomology(springer.build_vk_component(m, k, r).module)[i]
    return profile_degree(m, k, r, i)


class EntryFailed(Exception):
    """A pool worker's exception, re-raised with the diamond entry that
    the worker was computing."""


def _entry_task(args):
    m, i, j, method = args
    try:
        return (i, j), hodge_entry(m, i, j, method)
    except Exception as ex:
        raise EntryFailed("diamond entry (%d, %d) for m = %d failed: %s: %s"
                          % (i, j, m, type(ex).__name__, ex)) from ex


def hodge_diamond(m, jobs=1, method="bgg"):
    """All bigraded dimensions as a dict (i, j) -> h in diamond_entries
    order, on the resolution route ("bgg") or the Lie algebra cohomology
    route ("ce").

    Only the direct entries j <= n are computed, one hodge_entry each
    (in a pool of `jobs` workers when jobs > 1); entry_component is
    injective on them, so each component is built once.  They are run
    from the largest j down, as the costliest entries sit at large j and
    should not start last in the pool.  The entries with j > n are read
    off their partners (i, 2n - j)."""
    _check_method(method)
    n = m * (m - 1) // 2
    entries = diamond_entries(m)
    direct = sorted([(i, j) for (i, j) in entries if j <= n], key=lambda e: (-e[1], e[0]))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            got = dict(ex.map(_entry_task, [(m, i, j, method) for (i, j) in direct]))
    else:
        got = {(i, j): hodge_entry(m, i, j, method) for (i, j) in direct}
    return {(i, j): got[(i, min(j, 2 * n - j))] for (i, j) in entries}
