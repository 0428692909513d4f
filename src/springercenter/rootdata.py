"""Root system combinatorics for sl_m (type A_{m-1}).

Weights are tuples of m-1 integers in fundamental-weight coordinates.
Internally most computations pass through "epsilon" coordinates: a
weight is a length-m integer vector determined up to adding a constant,
normalized so the last entry is 0, and the fundamental coordinate c_i
is the difference v_i - v_{i+1}.  Weyl group elements are permutations
of {0,...,m-1}; s_i swaps positions i-1 and i.
"""

import itertools
import operator
from fractions import Fraction
from functools import lru_cache


def to_eps(lam):
    """Fundamental coordinates -> epsilon coordinates with last entry 0."""
    m = len(lam) + 1
    v = [0] * m
    for i in range(m - 2, -1, -1):
        v[i] = v[i + 1] + lam[i]
    return tuple(v)


def from_eps(v):
    return tuple(v[i] - v[i + 1] for i in range(len(v) - 1))


@lru_cache(maxsize=None)
def simple_root(m, i):
    """alpha_i in fundamental coordinates, i in 1..m-1 (a Cartan matrix row)."""
    v = [0] * m
    v[i - 1] = 1
    v[i] = -1
    return from_eps(v)


def rho(m):
    return tuple(1 for _ in range(m - 1))


def positive_roots(m):
    """List of (a, b) pairs with a < b, standing for eps_a - eps_b."""
    return [(a, b) for a in range(m) for b in range(a + 1, m)]


@lru_cache(maxsize=None)
def root_weight(m, a, b):
    """eps_a - eps_b in fundamental coordinates."""
    v = [0] * m
    v[a] = 1
    v[b] = -1
    return from_eps(v)


def add(lam, mu):
    return tuple(map(operator.add, lam, mu))


def sub(lam, mu):
    return tuple(map(operator.sub, lam, mu))


def lowering_path(m, mu, word):
    """The weights from mu that the word of f_i's passes through, word[0]
    acting first: mu, mu - alpha_{word[0]}, ..., the weight it lands at."""
    path = [mu]
    for i in word:
        path.append(sub(path[-1], simple_root(m, i)))
    return path


def is_dominant(lam):
    return all(c >= 0 for c in lam)


class WeylElement:
    """A permutation w of {0,...,m-1}, acting on eps coordinates."""

    def __init__(self, perm):
        self.perm = tuple(perm)
        self.m = len(perm)

    @classmethod
    def identity(cls, m):
        return cls(range(m))

    @classmethod
    def simple(cls, m, i):
        p = list(range(m))
        p[i - 1], p[i] = p[i], p[i - 1]
        return cls(p)

    @classmethod
    def from_word(cls, m, word):
        w = cls.identity(m)
        for i in word:
            w = w * cls.simple(m, i)
        return w

    def __mul__(self, other):
        # (self*other)(x) = self(other(x))
        return WeylElement(tuple(self.perm[other.perm[i]] for i in range(self.m)))

    def inverse(self):
        inv = [0] * self.m
        for i, p in enumerate(self.perm):
            inv[p] = i
        return WeylElement(inv)

    def length(self):
        p = self.perm
        return sum(1 for a in range(self.m) for b in range(a + 1, self.m) if p[a] > p[b])

    def act_eps(self, v):
        """w(eps_i) = eps_{w(i)}, so (w v)_j = v_{w^{-1}(j)}."""
        out = [0] * self.m
        for i, x in enumerate(v):
            out[self.perm[i]] = x
        return tuple(out)

    def act(self, lam):
        return from_eps(self.act_eps(to_eps(lam)))

    def dot(self, lam):
        """Shifted action w.lam = w(lam + rho) - rho."""
        r = rho(self.m)
        return sub(self.act(add(lam, r)), r)

    def reduced_word(self):
        """Greedy word: repeatedly strip a descent on the right."""
        word = []
        w = self
        while True:
            p = w.perm
            for i in range(1, w.m):
                if p[i - 1] > p[i]:
                    word.append(i)
                    w = w * WeylElement.simple(w.m, i)
                    break
            else:
                return tuple(reversed(word))

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self):
        return "WeylElement%r" % (self.perm,)


def weyl_group(m):
    return [WeylElement(p) for p in itertools.permutations(range(m))]


class BruhatEdge:
    """A covering pair w -> w' = t w with l(w') = l(w)+1, t the reflection
    in the positive root eps_a - eps_b."""

    def __init__(self, lower, upper, root):
        self.lower = lower
        self.upper = upper
        self.root = root

    def __repr__(self):
        return "BruhatEdge(%r -> %r via %r)" % (self.lower.perm, self.upper.perm, self.root)


def bruhat_graph(m):
    edges = []
    elems = weyl_group(m)
    for w in elems:
        lw = w.length()
        for (a, b) in positive_roots(m):
            t = list(range(m))
            t[a], t[b] = b, a
            upper = WeylElement(t) * w
            if upper.length() == lw + 1:
                edges.append(BruhatEdge(w, upper, (a, b)))
    return edges


def bwb_classify(lam):
    """Classify an integral weight under the shifted Weyl action.

    Returns ("singular", None, None) when lam + rho lies on a wall,
    otherwise ("regular", w, mu) where mu = w.lam is dominant and the
    cohomology sits in degree l(w).
    """
    m = len(lam) + 1
    v = to_eps(add(lam, rho(m)))
    if len(set(v)) < m:
        return ("singular", None, None)
    # the sorting permutation: send position i to the rank of v_i
    order = sorted(range(m), key=lambda i: -v[i])
    perm = [0] * m
    for rank_pos, i in enumerate(order):
        perm[i] = rank_pos
    w = WeylElement(perm)
    mu = w.dot(lam)
    if not is_dominant(mu):
        raise ValueError("w.lam = %r is not dominant" % (mu,))
    return ("regular", w, mu)


def weyl_dim(lam):
    """Dimension of the irreducible with dominant highest weight lam."""
    if not is_dominant(lam):
        raise ValueError("weight %r is not dominant" % (lam,))
    m = len(lam) + 1
    v = to_eps(add(lam, rho(m)))
    r = to_eps(rho(m))
    num = 1
    den = 1
    for (a, b) in positive_roots(m):
        num *= v[a] - v[b]
        den *= r[a] - r[b]
    d = Fraction(num, den)
    if d.denominator != 1:
        raise ValueError("Weyl dimension of %r is not an integer: %s" % (lam, d))
    return int(d)


def poincare_polynomial(m):
    """Coefficient list of prod_{d=2}^{m} (1 + q + ... + q^{d-1})."""
    poly = [1]
    for d in range(2, m + 1):
        block = [1] * d
        out = [0] * (len(poly) + d - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(block):
                out[i + j] += a * b
        poly = out
    return poly


def candidate_highest_weights(m, weights):
    """Dominant lam such that some w.lam lies in the given weight set.

    Any irreducible constituent of cohomology computed from a module
    with these weights must have its highest weight in the result.
    """
    cands = set()
    r = rho(m)
    for w in weyl_group(m):
        winv = w.inverse()
        for mu in weights:
            lam = sub(winv.act(add(mu, r)), r)
            if is_dominant(lam):
                cands.add(lam)
    return cands
