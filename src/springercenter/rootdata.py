"""Root system combinatorics for sl_m (type A_{m-1}).

Weights are tuples of m-1 integers in fundamental-weight coordinates.
Internally most computations pass through "epsilon" coordinates: a
weight is a length-m integer vector determined up to adding a constant,
normalized so the last entry is 0, and the fundamental coordinate c_i
is the difference v_i - v_{i+1}.

A Weyl group element w is its one-line permutation tuple p of
{0,...,m-1}, p[x] = w(x), acting by w(eps_x) = eps_{w(x)}; products
compose as maps, so right multiplication by s_i swaps positions i-1 and
i, and left multiplication by the reflection t in eps_a - eps_b swaps
the values a and b.  t w covers w in the Bruhat order when a comes
before b in p and no value strictly between a and b sits between them
(Bjorner-Brenti 2005, ch. 2), a test with no product and no length.
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


def from_word(m, word):
    """The product s_{word[0]} s_{word[1]} ... as a one-line tuple: right
    multiplication by s_i swaps positions i-1 and i."""
    p = list(range(m))
    for i in word:
        p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def inverse(p):
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def length(p):
    """The number of inversions."""
    return sum(1 for a in range(len(p)) for b in range(a + 1, len(p)) if p[a] > p[b])


def act(p, lam):
    """w(eps_i) = eps_{w(i)}, so (w v)_j = v_{w^{-1}(j)} in eps coordinates."""
    v, out = to_eps(lam), [0] * len(p)
    for i, x in enumerate(v):
        out[p[i]] = x
    return from_eps(out)


def dot(p, lam):
    """Shifted action w.lam = w(lam + rho) - rho."""
    r = rho(len(p))
    return sub(act(p, add(lam, r)), r)


def reduced_word(p):
    """Greedy word: repeatedly strip the first descent on the right."""
    p, word = list(p), []
    while True:
        for i in range(1, len(p)):
            if p[i - 1] > p[i]:
                word.append(i)
                p[i - 1], p[i] = p[i], p[i - 1]
                break
        else:
            return tuple(reversed(word))


def weyl_group(m):
    return list(itertools.permutations(range(m)))


def bruhat_graph(m):
    """The Bruhat covers (w, t w, (a, b)), t the reflection in the positive
    root eps_a - eps_b, in weyl_group order and then positive_roots order.
    t w swaps the values a and b of w, and covers w exactly when a comes
    before b and no value strictly between them sits between them."""
    edges = []
    for w in weyl_group(m):
        pos = inverse(w)
        for (a, b) in positive_roots(m):
            i, j = pos[a], pos[b]
            if i < j and not any(a < w[x] < b for x in range(i + 1, j)):
                up = list(w)
                up[i], up[j] = b, a
                edges.append((w, tuple(up), (a, b)))
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
    w = inverse(sorted(range(m), key=lambda i: -v[i]))
    mu = dot(w, lam)
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
        winv = inverse(w)
        for mu in weights:
            lam = sub(act(winv, add(mu, r)), r)
            if is_dominant(lam):
                cands.add(lam)
    return cands
