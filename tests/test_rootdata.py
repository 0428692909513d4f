import itertools

from hypothesis import given, settings, strategies as st

from springercenter import rootdata
from springercenter.rootdata import (
    WeylElement, weyl_group, bruhat_graph, bwb_classify, weyl_dim,
    poincare_polynomial, candidate_highest_weights, rho, add,
    simple_root, positive_roots, is_dominant,
)


def bruhat_leq(u, v):
    """Tableau criterion: u <= v iff the sorted prefixes of v dominate
    those of u entrywise."""
    m = len(u)
    for i in range(1, m):
        a = sorted(u[:i], reverse=True)
        b = sorted(v[:i], reverse=True)
        if any(x > y for x, y in zip(a, b)):
            return False
    return True


def count_covers(m):
    perms = list(itertools.permutations(range(m)))
    def inv(p):
        return sum(1 for i in range(m) for j in range(i + 1, m) if p[i] > p[j])
    total = 0
    for u in perms:
        for v in perms:
            if inv(v) == inv(u) + 1 and bruhat_leq(u, v):
                total += 1
    return total


def test_bruhat_cover_counts():
    assert len(bruhat_graph(2)) == count_covers(2) == 1
    assert len(bruhat_graph(3)) == count_covers(3) == 8
    assert len(bruhat_graph(4)) == count_covers(4) == 58


def test_bruhat_edges_are_covers():
    for e in bruhat_graph(3) + bruhat_graph(4):
        assert e.upper.length() == e.lower.length() + 1
        assert bruhat_leq(e.lower.perm, e.upper.perm)


def test_length_is_inversion_count():
    for m in (2, 3, 4):
        for w in weyl_group(m):
            word = w.reduced_word()
            assert len(word) == w.length()
            assert WeylElement.from_word(m, word).perm == w.perm


def test_longest_element_and_group_order():
    for m in (2, 3, 4):
        lengths = sorted(w.length() for w in weyl_group(m))
        n = m * (m - 1) // 2
        assert len(lengths) == sum(poincare_polynomial(m))
        assert lengths[-1] == n
        assert sum(1 for l in lengths if l == n) == 1


def test_poincare_polynomial_values():
    assert poincare_polynomial(2) == [1, 1]
    assert poincare_polynomial(3) == [1, 2, 2, 1]
    assert poincare_polynomial(4) == [1, 3, 5, 6, 5, 3, 1]


def test_weyl_dim_known_values():
    assert weyl_dim((0,)) == 1
    assert weyl_dim((1,)) == 2
    assert weyl_dim((1, 1)) == 8
    assert weyl_dim((1, 0, 1)) == 15
    assert weyl_dim((1, 1, 1)) == 64
    assert weyl_dim((1, 0, 0)) == 4
    assert weyl_dim((0, 1, 0)) == 6


@given(st.integers(2, 4), st.data())
@settings(max_examples=50, deadline=None)
def test_weyl_dim_matches_weight_count(m, data):
    # the dimension formula agrees with brute-force weight multiplicity
    # accounting for small weights via the Weyl character at q -> 1 is
    # overkill; instead cross-check the eps-coordinate product formula
    # against an independent hook-content style product for one-row lam
    a = data.draw(st.integers(0, 3))
    lam = tuple([a] + [0] * (m - 2))
    # S^a of the natural module has dimension C(m + a - 1, a)
    num = 1
    den = 1
    for t in range(a):
        num *= m + t
        den *= t + 1
    assert weyl_dim(lam) == num // den


def test_dot_action_of_simple_reflection():
    for m in (2, 3, 4):
        zero = tuple([0] * (m - 1))
        for i in range(1, m):
            s = WeylElement.simple(m, i)
            # s_i . 0 = -alpha_i
            assert s.dot(zero) == tuple(-c for c in simple_root(m, i))


def test_candidate_highest_weights_cover_dot_orbits():
    m = 3
    weights = [(0, 0), (1, 1), (-1, 2)]
    cands = candidate_highest_weights(m, weights)
    for lam in cands:
        assert is_dominant(lam)
    # every regular weight must lie in the dot orbit of some candidate
    for mu in weights:
        kind, _, lam = bwb_classify(mu)
        if kind == "regular":
            assert lam in cands


def test_positive_root_weights_sum_to_twice_rho():
    for m in (2, 3, 4):
        zero = tuple([0] * (m - 1))
        total = zero
        for (a, b) in positive_roots(m):
            total = add(total, rootdata.root_weight(m, a, b))
        assert total == tuple(2 * c for c in rho(m))
