"""Weight-graded modules over the Borel of sl_m.

A BModule is a basis split into weight spaces together with its
action, which gives every negative root vector f_(a,b) = E_ba as a
matrix between two weight spaces.  That is all the structure the
resolution complexes and the Lie algebra cohomology computations need:
the Borel action is generated by the f_i = E_{i+1,i} (the torus part is
the grading itself).

Modules built by the constructors here are "complete" (window None): a
weight absent from the table genuinely has a zero weight space.  The
quotient bundles constructed in springer.py can be windowed to a subset
of weights, in which case asking for the dimension, the labels or a
matrix at a weight outside the window raises MissingWeightSpace instead
of silently returning zero.

Every module here and in springer.py is constructed from its weight
spaces and its action on each positive root, and forms no matrix until
one is read.  tensor, wedge, sym and direct_sum label the basis vectors
of their factors by (weight, index) pairs, which sort as the factors'
weight spaces do, and read f_(a,b) off the factors' columns.

A word in the f_i acts through word_matrices, which forms the product
of the lowering matrices along every prefix of the words it is given;
serre_relations lists the relations those products must satisfy.  A
negative root vector acts through root_lower_matrix, which forms it
from the module's action, with no product.  The module keeps each f_i
it forms, so the action runs at most once per (i, weight); a non-simple
root is formed on each call, and a caller that reads one more than once
keeps it itself.
"""

import itertools
from functools import lru_cache, reduce

from .exactla import SparseMatrix, RowReducer, canonical
from . import rootdata


class MissingWeightSpace(Exception):
    """A windowed module was asked for a weight it never materialized."""


class SerreRelationFails(Exception):
    """The lowering matrices of a module break a Serre relation."""


def _diag_to_h(diag):
    """Express a traceless diagonal (d_1..d_m) in the h_i basis."""
    if sum(diag):
        raise ValueError("diagonal %r is not traceless" % (diag,))
    out = {}
    acc = 0
    for i in range(len(diag) - 1):
        acc += diag[i]
        if acc:
            out[("H", i + 1)] = acc
    return out


def bracket(m, x, y):
    """Bracket of gl basis labels, expanded in the E/H basis of sl_m.

    Labels are ("E", a, b) with 0 <= a != b < m, or ("H", i) with
    h_i = E_{ii} - E_{i+1,i+1}, i in 1..m-1.
    """
    def expand(lbl):
        # to a dict of gl matrix units E_{ab} (a may equal b)
        if lbl[0] == "E":
            return {(lbl[1], lbl[2]): 1}
        i = lbl[1]
        return {(i - 1, i - 1): 1, (i, i): -1}

    acc = {}
    for (p, q), cx in expand(x).items():
        for (a, b), cy in expand(y).items():
            if q == a:
                acc[(p, b)] = acc.get((p, b), 0) + cx * cy
            if b == p:
                acc[(a, q)] = acc.get((a, q), 0) - cx * cy
    out = {}
    diag = [0] * m
    for (a, b), c in acc.items():
        if not c:
            continue
        if a == b:
            diag[a] += c
        else:
            out[("E", a, b)] = out.get(("E", a, b), 0) + c
    for lbl, c in _diag_to_h(diag).items():
        out[lbl] = out.get(lbl, 0) + c
    return {k: v for k, v in out.items() if v}


def gl_label_weight(m, lbl):
    if lbl[0] == "H":
        return tuple([0] * (m - 1))
    return rootdata.root_weight(m, lbl[1], lbl[2])


class BModule:
    def __init__(self, m, spaces, columns, name="", window=None):
        """columns(root, mu, target): f_(a,b) = E_ba for the positive root
        (a, b), from mu to target = mu - (eps_a - eps_b), as the columns
        SparseMatrix.from_cols takes; called only when both spaces have
        labels.  window: the weights a windowed module has materialized,
        some possibly as zero spaces; None for a complete module."""
        self.m = m
        self.name = name
        self.window = None if window is None else frozenset(window)
        self.spaces = {mu: list(lbls) for mu, lbls in spaces.items() if lbls}
        self.columns = columns
        self._formed = {}

    @property
    def dim(self):
        return sum(len(v) for v in self.spaces.values())

    def weight_dim(self, mu):
        self.require(mu)
        return len(self.spaces.get(mu, ()))

    def labels(self, mu):
        self.require(mu)
        return self.spaces.get(mu, [])

    def require(self, mu):
        """Raise MissingWeightSpace if mu is outside a windowed module's window."""
        if self.window is not None and mu not in self.window:
            raise MissingWeightSpace("weight %r not materialized in %s" % (mu, self.name))

    def lower_matrix(self, i, mu):
        """Matrix of f_i from the mu weight space to the mu - alpha_i one,
        formed from the action on its first read and kept."""
        mat = self._formed.get((i, mu))
        if mat is None:
            mat = self._formed[i, mu] = self._form((i - 1, i), mu)
        return mat

    def _form(self, root, mu):
        target = rootdata.sub(mu, rootdata.root_weight(self.m, *root))
        ncols, nrows = self.weight_dim(mu), self.weight_dim(target)
        if not (nrows and ncols):
            return SparseMatrix(nrows, ncols)
        return SparseMatrix.from_cols(nrows, ncols, self.columns(root, mu, target))

    def apply_lower(self, i, mu, vec):
        target = rootdata.sub(mu, rootdata.simple_root(self.m, i))
        return target, self.lower_matrix(i, mu).apply(vec)

    def word_matrices(self, mu, words):
        """prefix -> (weight reached, matrix) for every prefix of the words
        of f_i's from the mu weight space, word[0] acting first.  This is
        the one place where products along words are formed: each prefix
        is multiplied once, onto its longest proper prefix, and the memo
        lives only as long as the call."""
        memo = {}
        for word in words:
            for n in range(1, len(word) + 1):
                if word[:n] in memo:
                    continue
                i = word[n - 1]
                src, prod = memo[word[:n - 1]] if n > 1 else (mu, None)
                low = self.lower_matrix(i, src)
                memo[word[:n]] = (rootdata.sub(src, rootdata.simple_root(self.m, i)),
                                  low if prod is None else low.matmul(prod))
        return memo

    def apply_lowering_polynomial(self, terms, mu, vec):
        """Apply sum coeff * word over (coeff, word) terms to vec, one
        generator at a time, word[0] acting first; all words must share a
        weight drop."""
        drop = None
        total = {}
        out_mu = None
        for coeff, word in terms:
            w_mu, w_vec = mu, dict(vec)
            for i in word:
                w_mu, w_vec = self.apply_lower(i, w_mu, w_vec)
            if drop is None:
                drop = rootdata.sub(mu, w_mu)
                out_mu = w_mu
            elif rootdata.sub(mu, w_mu) != drop:
                raise ValueError("inhomogeneous lowering polynomial")
            for k, v in w_vec.items():
                total[k] = total.get(k, 0) + coeff * v
        return out_mu, {k: v for k, v in total.items() if v}

    def root_lower_matrix(self, root, mu):
        """Matrix of the negative root vector f_(a,b) = E_ba, for the
        0-indexed positive root (a, b), from the mu weight space to the
        mu - (eps_a - eps_b) one.  A simple root is lower_matrix's kept
        f_i; any other is formed on each call as one matrix of the
        module's own columns, with no product and no cache."""
        a, b = root
        if b == a + 1:
            return self.lower_matrix(b, mu)
        return self._form(root, mu)


def _module_from_action(m, labeled, act, name=""):
    """Build a complete BModule from elementwise root action.

    labeled: list of (label, weight); act(root, label) -> dict label ->
    coeff is f_(a,b) = E_ba on one label, for the positive root (a, b).
    An image term off the labels of the target weight raises ValueError.
    """
    spaces = {}
    for lbl, mu in labeled:
        spaces.setdefault(mu, []).append(lbl)
    index = {mu: {lbl: k for k, lbl in enumerate(lbls)} for mu, lbls in spaces.items()}

    def columns(root, mu, target):
        rows, cols = index[target], {}
        for c, lbl in enumerate(spaces[mu]):
            col = {}
            for out_lbl, v in act(root, lbl).items():
                r = rows.get(out_lbl)
                if r is None:
                    raise ValueError("f_%r sends %r to %r, not to weight %r"
                                     % (root, lbl, out_lbl, target))
                if v:
                    col[r] = v if type(v) is int else canonical(v)
            if col:
                cols[c] = col
        return cols

    return BModule(m, spaces, columns, name)


def lie_labels(m, name):
    """Basis labels of "g", "b", "n" or "u" = g/b, sorted: the matrix
    units E_ab off the diagonal for g, below it (a > b) for b and n,
    above it for u, and the h_i for g and b."""
    below, above = name != "u", name in ("g", "u")
    labels = [("E", a, b) for a in range(m) for b in range(m)
              if (a > b and below) or (a < b and above)]
    if name in ("g", "b"):
        labels += [("H", i) for i in range(1, m)]
    return labels


@lru_cache(maxsize=None)
def lie_action(m, root, name):
    """f_(a,b) = E_ba, for the positive root (a, b), acting by the
    bracket on lie_labels(m, name), as label -> {label: coeff}; on
    u = g/b the part of each bracket in b is dropped."""
    labels = lie_labels(m, name)
    keep, f = set(labels), ("E", root[1], root[0])
    return {x: {k: v for k, v in bracket(m, f, x).items() if k in keep} for x in labels}


def _lie_module(m, name):
    labeled = [(l, gl_label_weight(m, l)) for l in lie_labels(m, name)]
    return _module_from_action(m, labeled, lambda root, lbl: lie_action(m, root, name)[lbl],
                               name=name)


def adjoint_g(m):
    return _lie_module(m, "g")


def sub_n(m):
    """Nilradical of the Borel: strictly lower triangular matrices."""
    return _lie_module(m, "n")


def sub_b(m):
    return _lie_module(m, "b")


def quotient_u(m):
    """g/b, realized on strictly upper triangular matrix units."""
    return _lie_module(m, "u")


def trivial_module(m):
    return _module_from_action(m, [("1", tuple([0] * (m - 1)))], lambda root, lbl: {},
                               name="trivial")


def _elementwise(mod):
    """The basis of mod as (weight, index) pairs, sorted, and
    act(root, pair) -> dict pair -> coeff.  The columns of each f_root
    are relabelled once per (root, weight), cached as long as act lives."""
    basis = [(mu, idx) for mu in sorted(mod.spaces) for idx in range(len(mod.spaces[mu]))]
    cols_cache = {}

    def act(root, vec):
        mu, idx = vec
        cols = cols_cache.get((root, mu))
        if cols is None:
            target = rootdata.sub(mu, rootdata.root_weight(mod.m, *root))
            mat = mod.root_lower_matrix(root, mu)
            cols = cols_cache[root, mu] = {c: {(target, r): v for r, v in col.items()}
                                           for c, col in mat.cols.items()}
        return cols.get(idx, {})

    return basis, act


def tensor(a, b):
    basis_a, act_a = _elementwise(a)
    basis_b, act_b = _elementwise(b)
    labeled = [((va, vb), rootdata.add(va[0], vb[0])) for va in basis_a for vb in basis_b]

    def act(root, lbl):
        va, vb = lbl
        out = {}
        for v2, c in act_a(root, va).items():
            out[(v2, vb)] = out.get((v2, vb), 0) + c
        for v2, c in act_b(root, vb).items():
            out[(va, v2)] = out.get((va, v2), 0) + c
        return out

    return _module_from_action(a.m, labeled, act, name="(%s)x(%s)" % (a.name, b.name))


def _insert_sorted(tup, x):
    """Insert x into a strictly increasing tuple; returns (tuple, position)
    or (None, None) when x already occurs."""
    if x in tup:
        return None, None
    pos = 0
    while pos < len(tup) and tup[pos] < x:
        pos += 1
    return tup[:pos] + (x,) + tup[pos:], pos


def _weight_sum(m, combo):
    return reduce(rootdata.add, (v[0] for v in combo), tuple([0] * (m - 1)))


def wedge(a, k):
    basis_a, act_a = _elementwise(a)
    labeled = [(combo, _weight_sum(a.m, combo))
               for combo in itertools.combinations(basis_a, k)]

    def act(root, combo):
        out = {}
        for t, v in enumerate(combo):
            rest = combo[:t] + combo[t + 1:]
            for v2, c in act_a(root, v).items():
                new, pos = _insert_sorted(rest, v2)
                if new is not None:
                    # the sign of moving v2 from slot t to slot pos
                    out[new] = out.get(new, 0) + (c if (pos - t) % 2 == 0 else -c)
        return {kk: v for kk, v in out.items() if v}

    return _module_from_action(a.m, labeled, act, name="wedge^%d(%s)" % (k, a.name))


def sym(a, p):
    basis_a, act_a = _elementwise(a)
    labeled = [(combo, _weight_sum(a.m, combo))
               for combo in itertools.combinations_with_replacement(basis_a, p)]

    def act(root, combo):
        out = {}
        for t, v in enumerate(combo):
            if t > 0 and combo[t - 1] == v:
                continue  # act once per distinct slot value
            mult = combo.count(v)
            for v2, c in act_a(root, v).items():
                new = tuple(sorted(combo[:t] + (v2,) + combo[t + 1:]))
                out[new] = out.get(new, 0) + mult * c
        return {kk: v for kk, v in out.items() if v}

    return _module_from_action(a.m, labeled, act, name="sym^%d(%s)" % (p, a.name))


def direct_sum(a, b):
    basis_a, act_a = _elementwise(a)
    basis_b, act_b = _elementwise(b)
    labeled = [(("L", v), v[0]) for v in basis_a] + [(("R", v), v[0]) for v in basis_b]

    def act(root, lbl):
        side, v = lbl
        inner = act_a(root, v) if side == "L" else act_b(root, v)
        return {(side, v2): c for v2, c in inner.items()}

    return _module_from_action(a.m, labeled, act, name="(%s)+(%s)" % (a.name, b.name))


def dual(a):
    spaces = {tuple(-c for c in mu): [("dual", l) for l in lbls] for mu, lbls in a.spaces.items()}

    def columns(root, nu, target):
        # f_root on the dual of E[mu - beta], mu = -target, is minus the
        # transpose of f_root : E[mu] -> E[mu - beta]
        cols = {}
        for c, col in a.root_lower_matrix(root, tuple(-x for x in target)).cols.items():
            for r, v in col.items():
                cols.setdefault(r, {})[c] = -v
        return cols

    return BModule(a.m, spaces, columns, "dual(%s)" % a.name)


def natural_module(m):
    labels = [("v", a) for a in range(m)]

    def wt(lbl):
        v = [0] * m
        v[lbl[1]] = 1
        return rootdata.from_eps(v)

    def act(root, lbl):
        # E_ba v_c = delta_{ac} v_b (0-indexed basis positions)
        return {("v", root[1]): 1} if lbl[1] == root[0] else {}

    return _module_from_action(m, [(l, wt(l)) for l in labels], act, name="natural")


def irreducible_module(m, lam):
    """The irreducible L_lam, cut out of a product of fundamental carriers
    by lowering from the highest weight vector."""
    if not rootdata.is_dominant(lam):
        raise ValueError("highest weight must be dominant")
    nat = natural_module(m)
    carrier = None
    for i, mult in enumerate(lam, start=1):
        for _ in range(mult):
            piece = wedge(nat, i)
            carrier = piece if carrier is None else tensor(carrier, piece)
    if carrier is None:
        return trivial_module(m)

    # The weight-lam space of the carrier is a line: lam is the sum of the
    # factor top weights and every factor weight is dominated by its top,
    # so each factor must sit at its top.  Lowering from that line spans L_lam.
    hw_weight = lam
    if len(carrier.spaces[hw_weight]) != 1:
        raise ValueError("carrier top weight space is not a line")

    reducers = {hw_weight: RowReducer()}
    queue = [(hw_weight, {0: 1})]
    reducers[hw_weight].add(queue[0][1])
    while queue:
        mu, vec = queue.pop()
        for i in range(1, m):
            tgt, img = carrier.apply_lower(i, mu, vec)
            if img and reducers.setdefault(tgt, RowReducer()).add(img):
                queue.append((tgt, img))

    # the basis of each weight space is the reduced echelon basis of its span
    basis = {mu: list(red.reduced_rows().values()) for mu, red in reducers.items()}
    spaces = {mu: [("v", mu, k) for k in range(len(rows))] for mu, rows in basis.items()}

    def columns(root, mu, target):
        # the coordinates are Fractions, and from_cols stores values as given
        mat, cols = carrier.root_lower_matrix(root, mu), {}
        for c, row in enumerate(basis[mu]):
            col = reducers[target].coordinates(mat.apply(row))
            if col:
                cols[c] = {r: canonical(v) for r, v in col.items()}
        return cols

    mod = BModule(m, spaces, columns, "L%r" % (lam,))
    if mod.dim != rootdata.weyl_dim(lam):
        raise ValueError("L%r has dimension %d, not the Weyl dimension %d"
                         % (lam, mod.dim, rootdata.weyl_dim(lam)))
    return mod


def serre_relations(m):
    """The Serre relations of U(n^-) as lists of (coeff, word): for
    |i-j| == 1, f_i^2 f_j - 2 f_i f_j f_i + f_j f_i^2, and for |i-j| >= 2
    the commutator of f_i and f_j, once per pair.  Reversing the words
    maps each relation to plus or minus itself, so the words read as
    products or in application order alike."""
    return [[(1, (i, i, j)), (-2, (i, j, i)), (1, (j, i, i))]
            if abs(i - j) == 1 else [(1, (i, j)), (-1, (j, i))]
            for i in range(1, m) for j in range(max(i - 1, 1), m) if j != i]


def check_serre(mod):
    """Verify the Serre relations for the module's lowering matrices.

    Returns the number of (weight space, relation) pairs checked; raises
    SerreRelationFails on failure.
    """
    relations = serre_relations(mod.m)
    words = [word for rel in relations for _, word in rel]
    checked = 0
    for mu in mod.spaces:
        prods = mod.word_matrices(mu, words)
        for rel in relations:
            acc = {}
            for coeff, word in rel:
                for c, col in prods[word][1].cols.items():
                    for r, v in col.items():
                        acc[r, c] = acc.get((r, c), 0) + coeff * v
            if any(acc.values()):
                i, j = rel[0][1][0], rel[0][1][-1]
                raise SerreRelationFails(
                    "Serre relation (%d,%d) fails at weight %r" % (i, j, mu))
            checked += 1
    return checked
