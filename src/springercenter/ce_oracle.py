"""Lie algebra cohomology of the nilradical, restricted to weight zero.

This is an independent route to the same multiplicity spaces that the
resolution complexes compute: the multiplicity of L_lam in degree p is

    dim H^p(n, E (x) L_lam^*)^0

computed from the standard Koszul-type complex Hom(wedge^p n, F).  Only
the weight-zero part of the complex is ever materialized, which keeps
the matrices small: a p-subset S of positive roots contributes the
weight space F[-sum(S)].

The Koszul data depends on m alone and is built once per m (_koszul):
the subsets by size, their weights, and the signed arrows of the
differential, which ce_cochain turns into blocks for
exactla.block_complex, as bgg.bgg_cochain does for the resolution.
The module blocks are the negative root matrices f_beta on the weight
spaces F[-sum(S)], each formed by the module's own action
(BModule.root_lower_matrix) on those weights alone; many subsets share
a weight, so ce_cochain keeps each (root, weight) matrix while it
assembles one complex, and forms it once.

bgg.profile_degree reads degree i of a diamond entry off the Koszul
layers 0..i+1 alone, on ce_window(m, i + 1), as it does the resolution's;
ce_cohomology ranks the whole complex of a complete module.
"""

import itertools
from functools import lru_cache

from .exactla import SparseMatrix, block_complex
from . import rootdata, bmodule


@lru_cache(maxsize=None)
def _koszul(m):
    """(subsets, weight, module_part, bracket_part) of the weight-zero
    Koszul complex of n, on the fixed ordering of positive roots.

    subsets[p] lists the p-subsets S, as sorted tuples of root indices,
    and weight[S] is -sum(S).  The differential sends a cochain on S to
    S + {beta} by f_beta with sign (-1)^(# of S before beta), listed in
    module_part[S] as (beta, S + {beta}, sign); and to each T whose
    pair of roots brackets onto a root of S by the bracket coefficient
    with its signs, listed in bracket_part[S] as (T, coeff)."""
    roots = rootdata.positive_roots(m)
    n = len(roots)
    index = {("E", b, a): k for k, (a, b) in enumerate(roots)}
    betas = [rootdata.root_weight(m, a, b) for (a, b) in roots]
    subsets = [list(itertools.combinations(range(n), p)) for p in range(n + 1)]
    every = [s for layer in subsets for s in layer]
    weight = {s: tuple(-sum(betas[k][c] for k in s) for c in range(m - 1)) for s in every}
    module_part = {s: [(roots[k], tuple(sorted(s + (k,))), (-1) ** sum(x < k for x in s))
                       for k in range(n) if k not in s] for s in every}
    bracket_part = {s: [] for s in every}
    # T receives phi([f_ti, f_tj], rest) for each pair i < j of T
    for t in every:
        for i, j in itertools.combinations(range(len(t)), 2):
            (a1, b1), (a2, b2) = roots[t[i]], roots[t[j]]
            rest = t[:i] + t[i + 1:j] + t[j + 1:]
            for lbl, c in bmodule.bracket(m, ("E", b1, a1), ("E", b2, a2)).items():
                if lbl not in index:
                    raise ValueError("bracket of n left n")
                delta = index[lbl]
                if delta not in rest:
                    sigma = (-1) ** sum(x < delta for x in rest)
                    bracket_part[tuple(sorted(rest + (delta,)))].append(
                        (t, c * sigma * (-1) ** (i + j)))
    return subsets, weight, module_part, bracket_part


@lru_cache(maxsize=None)
def ce_window(m, hi=None):
    """The weights -sum(S) of the Koszul subsets S with |S| <= hi (all of
    them when hi is None), the only weights ce_cochain reads on layers
    0..hi: root_lower_matrix reads just its source and target."""
    return frozenset(nu for s, nu in _koszul(m)[1].items() if hi is None or len(s) <= hi)


def ce_cochain(f, hi=None):
    """The weight-zero Koszul complex Hom(wedge^p n, f) of the module f,
    whose degree-p cohomology is dim H^p(n, f)^0, on layers 0..hi only
    (all of them when hi is None), so f needs only ce_window(m, hi).
    Every weight space it reads must be known: a windowed f raises
    MissingWeightSpace on a weight outside its window."""
    subsets, weight, module_part, bracket_part = _koszul(f.m)
    subsets = subsets[:None if hi is None else hi + 1]
    dim = {s: f.weight_dim(weight[s]) for layer in subsets for s in layer}
    eye = {d: SparseMatrix(d, d, {(r, r): 1 for r in range(d)}) for d in set(dim.values())}
    root_matrix = lru_cache(maxsize=None)(f.root_lower_matrix)

    def blocks(p, s):
        # forming root matrices is the costly step: each (root, weight) is
        # formed once, and a zero target is skipped first
        for root, t, sign in module_part[s]:
            if dim[t]:
                yield t, sign, root_matrix(root, weight[s])
        for t, coeff in bracket_part[s]:
            yield t, coeff, eye[dim[s]]

    return block_complex([[(s, dim[s]) for s in layer] for layer in subsets], blocks)


def ce_cohomology(e, lam=None):
    """Multiplicity profile of L_lam in the sheaf cohomology of e, via
    weight-zero Lie algebra cohomology.  e must be a complete module.
    e, and a tensor built for lam, which holds its factors' relabelled
    columns, are dropped before the ranks."""
    if e.window is not None:
        raise ValueError("need a complete module (all weight spaces known)")
    if lam is None or not any(lam):
        cx = ce_cochain(e)
    else:
        cx = ce_cochain(bmodule.tensor(e, bmodule.dual(bmodule.irreducible_module(e.m, lam))))
    del e
    return cx.cohomology_dims()


def full_decomposition(e):
    """All simple constituents of the sheaf cohomology of e with their
    multiplicity profiles: dict lam -> list of dims per degree."""
    m = e.m
    cands = rootdata.candidate_highest_weights(m, list(e.spaces))
    out = {}
    for lam in sorted(cands):
        profile = ce_cohomology(e, lam)
        if any(profile):
            out[lam] = profile
    return out
