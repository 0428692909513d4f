"""Graded pieces of the exterior powers of the pushed-down tangent sheaf.

The degree -2r piece of the k-th exterior power is the B-module

    V_k^{-2r} = ( direct sum of S^p(u) (x) wedge^a(g) (x) wedge^b(n)
                  over a+b = k, p = b - r )
                / ( Delta(S(u) (x) b) wedged against wedge^{k-1} )

where Delta(s (x) x) = s (x) x  +  sum_t (s u_t) (x) n_t with
ad(x) = sum_t u_t (x) n_t the coadjoint expansion of the b-action on the
fiber n.  Gradings: g and b sit in degree 0, n in degree -2, u in +2.

The quotient needs no elimination.  Write Delta(x) = x + y_x for x in
b, where y_x = sum_t u_t (x) n_t is odd and has no factor in b.  Sending
each x in b to -y_x is a map of graded-commutative algebras (the y_x
anticommute and square to zero), and its kernel is the ideal that
Delta(b) generates.  So V_k^{-2r} is the image of that substitution: its
basis at each weight is the ambient labels whose g wedge factors all lie
in u (no H_i and no E_ab with a > b), and an ambient label projects by
replacing one b factor at a time by -y_x until none is left.  These are
the non-pivot labels, and the same representatives, that eliminating
delta_subspace() gives: the inclusion term x ^ omega of each spanning
vector has the most g factors, so it leads in the order of _blocks.

The root matrices are read off per-factor tables, not off the labels.
f_(a,b) = E_ba acts as a derivation on S(u) (x) wedge(g) (x) wedge(n),
so its image on a kept label (mono, gset, nset) is the sum of its
images on the three factors.  Only a g-set term can leave the kept
labels, when the bracket lands in b (on h's for e_ab itself, or on an
n label), and substituting -y_x for that x puts one factor more into
the monomial and into the n-set.  _FactorTables interns each factor of
sl_m as a small int and memoises these images per root and factor id,
so VkComponent keys each weight's index by id triples, and its action
neither acts on nor substitutes in a nested label; the module forms
each matrix from it on first read.  project() still substitutes label
by label, for the witness and the tests.

Every label list, ambient or kept, comes from one walker, _blocks, over
the graded bases of the three factors (_graded), so the kept labels at a
weight are the ambient ones with no b factor, in the same order.  The
kept g-sets leave out a weight whose g-sets all meet b, and a weight
without kept labels has no entry in V_k^{-2r}, not even an empty one.
The walker sums weights as packed ints: weight (c_1, ..., c_{m-1}) is
sum_i c_i 2**(16 i), a linear map that is injective while every
coordinate has |c| < 2**15, and a weight outside that range raises
ValueError.  So a block costs one int add and one dict lookup, into the
codes of the window when one is given, and a windowed walk yields the
complete walk's blocks that lie in the window, in the same order.

Everything is constructed one weight space at a time, since the
denominator is weight-homogeneous.  A construction can be windowed to a
set of weights (enough for running a resolution complex over it), or
built on all weights of the ambient space, which yields a complete
BModule suitable for Lie algebra cohomology.
"""

import itertools
from functools import lru_cache, partial, reduce

from .exactla import kernel_basis
from . import rootdata
from . import bmodule
from .bmodule import _insert_sorted, gl_label_weight


class WitnessNotInvariant(Exception):
    pass


class WitnessNotUnique(Exception):
    pass


def duality_partner(m, k, r):
    """The wedge degree and internal degree pairing with (k, -2r) under
    the symplectic duality of the total exterior algebra."""
    n = m * (m - 1) // 2
    return (2 * n - k, n + r - k)


@lru_cache(maxsize=None)
def _ad_n(m):
    """ad(x) in u (x) n for x in b: sum over gamma of e_gamma (x) [x, f_gamma],
    with e_gamma = E_{ab} the trace-form dual of f_gamma = E_{ba}."""
    out = {}
    for x in bmodule.lie_labels(m, "b"):
        terms = []
        for f in bmodule.lie_labels(m, "n"):
            e = ("E", f[2], f[1])
            for nl, c in bmodule.bracket(m, x, f).items():
                if not (nl[0] == "E" and nl[1] > nl[2]):
                    raise ValueError("[%r, %r] left n" % (x, f))
                terms.append((e, nl, c))
        out[x] = terms
    return out


@lru_cache(maxsize=None)
def _graded(m, name, degree):
    """Weight -> basis tuples of degree `degree`: of S(u) for name "u", of
    wedge(g) or wedge(n) for "g" or "n", and for "kept" of the g-sets
    in wedge(g) with no factor in b.  Each list is in combinations
    order, and a weight without tuples has no key."""
    if name == "kept":
        kept = ((mu, [g for g in gl if _b_position(g) is None])
                for mu, gl in _graded(m, "g", degree).items())
        return {mu: gl for mu, gl in kept if gl}
    gen = itertools.combinations_with_replacement if name == "u" else itertools.combinations
    labels = bmodule.lie_labels(m, name)
    weight = {lbl: gl_label_weight(m, lbl) for lbl in labels}
    code = {lbl: _pack(mu) for lbl, mu in weight.items()}
    by_code = {}
    for combo in gen(labels, degree):
        by_code.setdefault(sum(map(code.__getitem__, combo)), []).append(combo)
    zero = tuple([0] * (m - 1))
    return {reduce(rootdata.add, map(weight.__getitem__, combos[0]), zero): combos
            for combos in by_code.values()}


# A weight (c_1, ..., c_{m-1}) packs into the int sum_i c_i 2**(16 i).
# The map is linear, so the code of a sum is the sum of the codes, and
# it is injective on weights whose coordinates all satisfy |c| < 2**15.
_PACK_BITS = 16
_PACK_LIMIT = 1 << (_PACK_BITS - 1)


def _pack(mu):
    """The packed code of weight mu; ValueError when a coordinate is
    outside the packed range."""
    code = 0
    for c in reversed(mu):
        if not -_PACK_LIMIT < c < _PACK_LIMIT:
            raise ValueError("weight %r is outside the packed range |c| < %d"
                             % (mu, _PACK_LIMIT))
        code = (code << _PACK_BITS) + c
    return code


def _packed(table):
    """(code, weight, value) for each item of a weight-keyed table, in
    its order, and the largest |coordinate| of its weights."""
    items = [(_pack(mu), mu, v) for mu, v in table.items()]
    return items, max((abs(c) for mu in table for c in mu), default=0)


def _blocks(m, k, r, basis, window=None):
    """(weight, monomials, g-sets, n-sets) for each block of labels
    (mono, gset, nset) of V_k^{-2r} with one weight per factor: by
    (a, b, p) with a + b = k, p = b - r, then by the weights of the
    g-sets, the n-sets and the monomials.  This is the order of every
    label list of V_k^{-2r}.  basis(name, degree) gives the factors by
    weight, as _graded does for "u", "kept" and "n".

    A window (a set of weights) keeps the blocks whose weight lies in
    it, in the same order; None keeps every block.  Block weights are
    summed as packed codes (_pack): one int add per block and one dict
    lookup into the codes of the window, or of the weights seen so far,
    and a weight is built as a tuple only once.  A window weight, or a
    sum of three factor weights, with a coordinate outside the packed
    range raises ValueError."""
    weights = {} if window is None else {_pack(mu): mu for mu in window}
    for b in range(max(r, 0), min(k, m * (m - 1) // 2) + 1):
        (gs, bg), (ns, bn), (us, bu) = (_packed(basis(name, degree)) for name, degree
                                        in (("kept", k - b), ("n", b), ("u", b - r)))
        if bg + bn + bu >= _PACK_LIMIT:
            raise ValueError("weights of V_%d^{-%d} leave the packed range |c| < %d"
                             % (k, 2 * r, _PACK_LIMIT))
        for cg, mug, g in gs:
            for cn, mun, n in ns:
                cgn = cg + cn
                for cu, muu, u in us:
                    mu = weights.get(cgn + cu)
                    if mu is None:
                        if window is not None:
                            continue
                        mu = weights[cgn + cu] = rootdata.add(rootdata.add(mug, mun), muu)
                    yield mu, u, g, n


# Bounded: only delta_subspace reads this (VkComponent enumerates the
# kept labels itself), and it reads at most n + 2 keys per weight; 8
# keeps those reads hitting for m <= 4.
@lru_cache(maxsize=8)
def ambient_bases(m, k, r):
    """All weight spaces of the ambient sum, whose g-sets are all of
    wedge(g); dict weight -> list of (mono, gset, nset) labels."""
    def basis(name, degree):
        return _graded(m, "g" if name == "kept" else name, degree)
    out = {}
    for mu, us, gs, ns in _blocks(m, k, r, basis):
        out.setdefault(mu, []).extend(itertools.product(us, gs, ns))
    return out


def ambient_component(m, k, r, mu):
    return ambient_bases(m, k, r).get(mu, [])


def _delta_wedge(m, s_mono, x, omega):
    """Delta(s (x) x) wedged with an ambient element of one lower wedge
    degree; dict label -> coeff."""
    mono_o, gset, nset = omega
    out = {}
    # inclusion part: x enters the g wedge factor
    new_g, pos = _insert_sorted(gset, x)
    if new_g is not None:
        mono = tuple(sorted(s_mono + mono_o))
        lbl = (mono, new_g, nset)
        out[lbl] = out.get(lbl, 0) + (-1) ** pos
    # coadjoint part: one extra linear function, one n wedge factor
    for (e_lbl, n_lbl, c) in _ad_n(m)[x]:
        new_n, pos = _insert_sorted(nset, n_lbl)
        if new_n is None:
            continue
        mono = tuple(sorted(s_mono + (e_lbl,) + mono_o))
        sign = (-1) ** (len(gset) + pos)
        lbl = (mono, gset, new_n)
        out[lbl] = out.get(lbl, 0) + c * sign
    return {lbl: v for lbl, v in out.items() if v}


def delta_subspace(m, k, r, mu):
    """Spanning vectors (index dicts over ambient_component(m,k,r,mu)) of
    the subspace being quotiented out at weight mu."""
    amb = ambient_component(m, k, r, mu)
    if not amb:
        return []
    idx = {lbl: j for j, lbl in enumerate(amb)}
    n_dim = m * (m - 1) // 2
    pmax = min(k - 1, n_dim) - r
    vectors = []
    zero = tuple([0] * (m - 1))
    for p in range(0, pmax + 1):
        sub = ambient_bases(m, k - 1, r + p)
        su = _graded(m, "u", p)
        for x in bmodule.lie_labels(m, "b"):
            wx = gl_label_weight(m, x)
            for ws, s_list in su.items():
                wo = rootdata.sub(rootdata.sub(mu, wx), ws)
                olist = sub.get(wo)
                if not olist:
                    continue
                for s in s_list:
                    for omega in olist:
                        vec = _delta_wedge(m, s, x, omega)
                        if vec:
                            vectors.append({idx[lbl]: v for lbl, v in vec.items()})
    return vectors


def _b_position(gset):
    """Index of the first g wedge factor in b (H_i, or E_ab with a > b),
    or None.  The quotient basis is the ambient labels where it is None."""
    for t, x in enumerate(gset):
        if x[0] == "H" or x[1] > x[2]:
            return t
    return None


def quotient_character(m, k, r):
    """Character of V_k^{-2r}, counted off the blocks of kept labels
    without enumerating them or building lowering matrices."""
    out = {}
    for mu, us, gs, ns in _blocks(m, k, r, partial(_graded, m)):
        out[mu] = out.get(mu, 0) + len(us) * len(gs) * len(ns)
    return out


def _substitute(m, label):
    """Projection of one ambient label to the kept labels, as dict label
    -> coeff.  Not memoised: project() is the only caller, and
    VkComponent reads the same substitution off _FactorTables."""
    mono, gset, nset = label
    pos = _b_position(gset)
    if pos is None:
        return {label: 1}
    # Delta(x) ^ rest = (-1)^pos label + sum_t c (-1)^(|rest|+pos_n) label_t
    x, rest = gset[pos], gset[:pos] + gset[pos + 1:]
    out = {}
    for (e_lbl, n_lbl, c) in _ad_n(m)[x]:
        new_n, pos_n = _insert_sorted(nset, n_lbl)
        if new_n is None:
            continue
        coeff = -c if (pos + len(rest) + pos_n) % 2 == 0 else c
        sub = (tuple(sorted(mono + (e_lbl,))), rest, new_n)
        for lbl, v in _substitute(m, sub).items():
            out[lbl] = out.get(lbl, 0) + coeff * v
    return {lbl: v for lbl, v in out.items() if v}


class _Memo(dict):
    """A dict that fills a missing key with fill(key) on its first read."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        got = self[key] = self.fill(key)
        return got


class _FactorTables:
    """The factors of the kept labels of sl_m, interned as small ints,
    with their images under each f_(a,b) memoised per factor id.

    Factor kind 0 is the monomial in S(u), 1 the g-set (kept, so inside
    u) and 2 the n-set.  images[root][kind][id] is f_root on one factor,
    for each positive root; a g-set term that lands in b (an h_i or an
    n label) carries its x, and raises[kind, x][id] gives what
    substituting -y_x does to the monomial and to the n-set.  Both are
    _Memo dicts, so a read computes only on a miss.  One table per m:
    the interned labels are shared by all (k, r), but ad(x) depends on m.
    """

    def __init__(self, m):
        self.m = m
        self.ids = ({}, {}, {})        # factor -> id, per kind
        self.factors = ([], [], [])    # id -> factor, per kind
        self._bases = {}               # (name, degree) -> weight -> (factors, ids)
        self.images = {root: tuple(_Memo(partial(self._image, root, kind)) for kind in range(3))
                       for root in rootdata.positive_roots(m)}
        self.raises = _Memo(lambda kind_x: _Memo(partial(self._raises, *kind_x)))

    def _intern(self, kind, factor):
        ids = self.ids[kind]
        j = ids.get(factor)
        if j is None:
            j = ids[factor] = len(self.factors[kind])
            self.factors[kind].append(factor)
        return j

    def basis(self, name, degree):
        """_graded(m, name, degree) for name "u", "kept" or "n", each
        list paired with its factor ids."""
        key = (name, degree)
        if key not in self._bases:
            kind = ("u", "kept", "n").index(name)
            self._bases[key] = {mu: (fs, [self._intern(kind, f) for f in fs])
                                for mu, fs in _graded(self.m, name, degree).items()}
        return self._bases[key]

    def key(self, label):
        """The id triple of a kept label; a factor never interned has id
        None, so the triple is in no index."""
        return tuple(self.ids[kind].get(f) for kind, f in enumerate(label))

    def _image(self, root, kind, fid):
        """f_root on factor fid: (id, coeff) pairs, except that a g-set term
        whose new factor lies in b is (rest id, coeff, x) with the sign
        of substituting -y_x for x already in coeff."""
        m, f = self.m, self.factors[kind][fid]
        if kind == 0:
            out = {}
            for t, ul in enumerate(f):
                for ul2, c in bmodule.lie_action(m, root, "u")[ul].items():
                    j = self._intern(0, tuple(sorted(f[:t] + (ul2,) + f[t + 1:])))
                    out[j] = out.get(j, 0) + c
            return [(j, c) for j, c in out.items() if c]
        out = []
        for t, x in enumerate(f):
            rest = f[:t] + f[t + 1:]
            for x2, c in bmodule.lie_action(m, root, "g" if kind == 1 else "n")[x].items():
                new, pos = _insert_sorted(rest, x2)
                if new is None:
                    continue
                c = c if (pos - t) % 2 == 0 else -c
                if kind == 2 or _b_position(new) is None:
                    out.append((self._intern(kind, new), c))
                else:
                    # x2 is the only b factor of new, so _substitute
                    # replaces it at pos: sign (-1)^(pos+|rest|+pos_n+1)
                    c = c if (pos + len(rest)) % 2 == 0 else -c
                    out.append((self._intern(1, rest), c, x2))
        return out

    def _raises(self, kind, x, fid):
        """The monomial (kind 0) or n-set (kind 2) factor fid after each
        term (e, n, c) of ad(x): for the monomial the id of mono * e, for
        the n-set (id of nset ^ n, -c (-1)^pos_n) or None when n is
        already a factor."""
        f = self.factors[kind][fid]
        got = []
        for e_lbl, n_lbl, c in _ad_n(self.m)[x]:
            if kind == 0:
                got.append(self._intern(0, tuple(sorted(f + (e_lbl,)))))
                continue
            new, pos_n = _insert_sorted(f, n_lbl)
            got.append(None if new is None else
                       (self._intern(2, new), -c if pos_n % 2 == 0 else c))
        return got

    def kept_bases(self, k, r, window):
        """Weight -> (kept labels, their id triples) of V_k^{-2r}, in the
        order of _blocks, over the weights of window (all weights when
        None).  A weight without kept labels has no key."""
        out = {}
        for mu, (us, uids), (gs, gids), (ns, nids) in _blocks(self.m, k, r, self.basis,
                                                               window):
            lbls, keys = out.setdefault(mu, ([], []))
            lbls += itertools.product(us, gs, ns)
            keys += itertools.product(uids, gids, nids)
        return out

    def lowering(self, root, index, target_index):
        """Columns col -> {row: coeff} of f_root from the weight whose
        id-triple index is index (keyed in column order) to the one
        whose index is target_index, in the order that acting on each
        ambient label and projecting gives; no zero and no empty column."""
        cols = {}
        monos_f, gsets_f, nsets_f = self.images[root]
        raises = self.raises
        for col, (mid, gid, nid) in enumerate(index):
            out = {}
            for mid2, c in monos_f[mid]:
                q = target_index[(mid2, gid, nid)]
                out[q] = out.get(q, 0) + c
            for term in gsets_f[gid]:
                if len(term) == 2:
                    q = target_index[(mid, term[0], nid)]
                    out[q] = out.get(q, 0) + term[1]
                    continue
                rid, c, x = term
                monos = raises[0, x][mid]
                for t, got in enumerate(raises[2, x][nid]):
                    if got is not None:
                        q = target_index[(monos[t], rid, got[0])]
                        out[q] = out.get(q, 0) + c * got[1]
            for nid2, c in nsets_f[nid]:
                q = target_index[(mid, gid, nid2)]
                out[q] = out.get(q, 0) + c
            if 0 in out.values():
                out = {q: v for q, v in out.items() if v}
            if out:
                cols[col] = out
        return cols


@lru_cache(maxsize=None)
def _factor_tables(m):
    return _FactorTables(m)


class VkComponent:
    """The quotient module V_k^{-2r}, weight space by weight space.

    The kept labels are enumerated directly, in the order of _blocks,
    and each weight that has any keeps an index keyed by their id
    triples in the m's _FactorTables.  Each root matrix sums the
    memoised images of the three factors of each label, so its entries,
    and their order, are those of acting on each label and projecting
    it.  The module's action captures the index, not self, so the
    module is in no reference cycle.
    """

    def __init__(self, m, k, r, window=None):
        self.m, self.k, self.r = m, k, r
        tables = self._tables = _factor_tables(m)
        bases = tables.kept_bases(k, r, window)
        index, spaces = {}, {}
        for mu in set(bases) if window is None else set(window):
            if mu in bases:
                spaces[mu], keys = bases[mu]
                index[mu] = {key: j for j, key in enumerate(keys)}
        self._index = index
        self.module = bmodule.BModule(
            m, spaces, lambda root, mu, target: tables.lowering(root, index[mu], index[target]),
            "V_%d^{-%d}" % (k, 2 * r), window)

    def project(self, mu, label_vec):
        """Project an ambient vector, given as dict label -> coeff, to
        quotient coordinates at weight mu; the module raises
        MissingWeightSpace when mu is outside its window, and a label
        that substitutes to labels of another weight raises ValueError."""
        self.module.require(mu)
        idx = self._index.get(mu, {})
        out = {}
        for lbl, v in label_vec.items():
            for kept, c in _substitute(self.m, lbl).items():
                q = idx.get(self._tables.key(kept))
                if q is None:
                    raise ValueError("%r is not a kept label of V_%d^{-%d} at weight %r"
                                     % (kept, self.k, 2 * self.r, mu))
                out[q] = out.get(q, 0) + c * v
        return {q: v for q, v in out.items() if v}


def build_vk_component(m, k, r, window=None):
    return VkComponent(m, k, r, window=window)


def trivial_summand_witness(m, k=2, r=1):
    """The b-invariant vector of weight 0 in V_k^{-2r}.

    Returns (component, lift) where lift is an ambient representative as
    dict label -> coefficient.  Raises WitnessNotInvariant when the joint
    kernel of the lowering operators on the weight-0 quotient is trivial,
    and WitnessNotUnique when it has dimension more than one.
    """
    zero = tuple([0] * (m - 1))
    window = {zero}
    for i in range(1, m):
        window.add(tuple(-c for c in rootdata.simple_root(m, i)))
    comp = build_vk_component(m, k, r, window=window)
    mod = comp.module
    dim0 = mod.weight_dim(zero)
    if dim0 == 0:
        raise WitnessNotInvariant("weight-0 space of V_%d^{-%d} is zero" % (k, 2 * r))
    rows = [row for i in range(1, m) for row in mod.lower_matrix(i, zero).rows()]
    kern = kernel_basis(rows, dim0)
    if not kern:
        raise WitnessNotInvariant(
            "no b-invariant vector in V_%d^{-%d} at weight 0" % (k, 2 * r))
    if len(kern) > 1:
        raise WitnessNotUnique("b-invariant vectors of V_%d^{-%d} at weight 0 span "
                               "%d dimensions, not a line" % (k, 2 * r, len(kern)))
    vec = kern[0]
    labels = mod.labels(zero)
    lift = {labels[c]: v for c, v in vec.items()}
    return comp, lift
