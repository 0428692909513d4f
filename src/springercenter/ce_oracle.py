"""Lie algebra cohomology of the nilradical, restricted to weight zero.

This is an independent route to the same multiplicity spaces that the
resolution complexes compute: the multiplicity of L_lam in degree p is

    dim H^p(n, E (x) L_lam^*)^0

computed from the standard Koszul-type complex Hom(wedge^p n, F).  Only
the weight-zero part of the complex is ever materialized, which keeps
the matrices small: a p-subset S of positive roots contributes the
weight space F[-sum(S)].
"""

import itertools
from functools import lru_cache

from .exactla import SparseMatrix, CochainComplex
from . import rootdata, bmodule


@lru_cache(maxsize=None)
def _structure_constants(m):
    """[f_beta, f_gamma] expanded over the root basis of n, keyed by the
    pair of root indices in the fixed ordering of positive roots."""
    roots = rootdata.positive_roots(m)
    index = {("E", b, a): k for k, (a, b) in enumerate(roots)}
    sc = {}
    for i, (a1, b1) in enumerate(roots):
        for j, (a2, b2) in enumerate(roots):
            if i >= j:
                continue
            br = bmodule.bracket(m, ("E", b1, a1), ("E", b2, a2))
            terms = {}
            for lbl, c in br.items():
                if lbl not in index:
                    raise ValueError("bracket of n left n")
                terms[index[lbl]] = c
            if terms:
                sc[(i, j)] = terms
    return sc


def ce_cohomology(e, lam=None):
    """Multiplicity profile of L_lam in the sheaf cohomology of e, via
    weight-zero Lie algebra cohomology.  e must be a complete module."""
    m = e.m
    if e.window is not None:
        raise ValueError("need a complete module (all weight spaces known)")
    zero = tuple([0] * (m - 1))
    if lam is None or lam == zero:
        f = e
    else:
        f = bmodule.tensor(e, bmodule.dual(bmodule.irreducible_module(m, lam)))
    roots = rootdata.positive_roots(m)
    betas = [rootdata.root_weight(m, a, b) for (a, b) in roots]
    n = len(roots)
    sc = _structure_constants(m)

    layers = []
    for p in range(n + 1):
        layer = []
        off = 0
        for s in itertools.combinations(range(n), p):
            nu = zero
            for k in s:
                nu = rootdata.sub(nu, betas[k])
            d = f.weight_dim(nu)
            if d:
                layer.append((s, nu, off, d))
                off += d
        layers.append(layer)
    dims = [sum(rec[3] for rec in layer) for layer in layers]

    maps = []
    for p in range(n):
        src = {rec[0]: rec for rec in layers[p]}
        tgt = {rec[0]: rec for rec in layers[p + 1]}
        ent = {}
        # module action part: for each column block (S, v), each beta not
        # in S sends v to f_beta . v inside the block S + {beta}
        for (s, nu, off, d) in layers[p]:
            for k in range(n):
                if k in s:
                    continue
                pos = sum(1 for x in s if x < k)
                t = tuple(sorted(s + (k,)))
                if t not in tgt:
                    continue
                _, nut, offt, _ = tgt[t]
                mat = f.root_lower_matrix(roots[k], nu)
                sign = (-1) ** pos
                for (r, c), v in mat.entries.items():
                    key = (offt + r, off + c)
                    ent[key] = ent.get(key, 0) + sign * v
        # bracket part: rows (T, .) receive phi([f_ti, f_tj], rest)
        for (t, nut, offt, dt) in layers[p + 1]:
            for i, j in itertools.combinations(range(len(t)), 2):
                terms = sc.get((t[i], t[j]))
                if not terms:
                    continue
                rest = t[:i] + t[i + 1:j] + t[j + 1:]
                for delta, c in terms.items():
                    if delta in rest:
                        continue
                    sigma = (-1) ** sum(1 for x in rest if x < delta)
                    s2 = tuple(sorted(rest + (delta,)))
                    if s2 not in src:
                        continue
                    _, _, offs, ds = src[s2]
                    coeff = c * sigma * (-1) ** (i + j)
                    for r in range(ds):
                        key = (offt + r, offs + r)
                        ent[key] = ent.get(key, 0) + coeff
        maps.append(SparseMatrix(dims[p + 1], dims[p], ent))
    return CochainComplex(dims, maps).cohomology_dims()


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
