"""Diagonal coinvariant algebras by exact ideal-slice elimination.

DC_m is the quotient of Q[x_1..x_m, y_1..y_m] by the ideal generated by
the polarized power sums p_{a,b} = sum_t x_t^a y_t^b with 1 <= a+b <= m.
Each bidegree (i, j) slice is finite dimensional and its dimension is
the number of monomials minus the rank of the generator multiples
landing in that slice.  The ideal absorbs multiplication, so once a
whole total-degree shell vanishes everything above it does too; tables
are computed shell by shell until that happens.
"""

import functools
import itertools

from .exactla import RowReducer


def _compositions(total, parts):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _slice_dim(ncols, rows):
    red = RowReducer()
    for row in rows:
        if red.add(row) and red.rank == ncols:
            return 0
    return ncols - red.rank


def dc_entry(m, i, j):
    """dim of the bidegree (i, j) component of DC_m."""
    monos = [(xe, ye)
             for xe in _compositions(i, m)
             for ye in _compositions(j, m)]
    idx = {mono: k for k, mono in enumerate(monos)}
    rows = []
    for a in range(0, m + 1):
        for b in range(0, m + 1 - a):
            if a + b < 1 or a > i or b > j:
                continue
            for xe in _compositions(i - a, m):
                for ye in _compositions(j - b, m):
                    row = {}
                    for t in range(m):
                        xs = list(xe)
                        ys = list(ye)
                        xs[t] += a
                        ys[t] += b
                        col = idx[(tuple(xs), tuple(ys))]
                        row[col] = row.get(col, 0) + 1
                    rows.append(row)
    return _slice_dim(len(monos), rows)


def dc_table(m):
    """All nonzero bigraded dimensions of DC_m: dict (i, j) -> dim."""
    return dict(_dc_table(m))


@functools.lru_cache(maxsize=None)
def _dc_table(m):
    out = {}
    cap = m * m + 2
    for d in range(cap + 1):
        shell = {(i, d - i): dc_entry(m, i, d - i) for i in range(d + 1)}
        if d > 0 and not any(shell.values()):
            return out
        for key, val in shell.items():
            if val:
                out[key] = val
    raise AssertionError("DC_%d did not terminate below total degree %d" % (m, cap))


def dc_total(m):
    return sum(dc_table(m).values())


def coinvariant_table(m):
    """Graded dims of the one-variable-set coinvariant algebra
    Q[x_1..x_m]/(p_1,...,p_m), as a coefficient list."""
    out = []
    cap = m * m + 2
    for d in range(cap + 1):
        monos = list(_compositions(d, m))
        idx = {mono: k for k, mono in enumerate(monos)}
        rows = []
        for a in range(1, m + 1):
            if a > d:
                continue
            for xe in _compositions(d - a, m):
                row = {}
                for t in range(m):
                    xs = list(xe)
                    xs[t] += a
                    col = idx[tuple(xs)]
                    row[col] = row.get(col, 0) + 1
                rows.append(row)
        dim = _slice_dim(len(monos), rows)
        if d > 0 and dim == 0:
            return out
        out.append(dim)
    raise AssertionError("coinvariants of S_%d did not terminate" % m)


def expected_diamond_from_dc(m):
    """The diamond predicted by the diagonal coinvariants: the (i, j)
    entry reads off the DC_m dimension in bidegree
    (m(m-1)/2 - (i+j)/2, (j-i)/2)."""
    from .bgg import diamond_entries
    n = m * (m - 1) // 2
    table = dc_table(m)
    out = {}
    for (i, j) in diamond_entries(m):
        out[(i, j)] = table.get((n - (i + j) // 2, (j - i) // 2), 0)
    return out
