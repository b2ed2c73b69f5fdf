"""Per-entry reference implementations that the array code is checked
against: the dict-of-dicts unit-pivot elimination over Z and the
dict-column boundary builder.  Also the one converter from ``{row: entry}``
columns to the sparse matrices the program takes."""

from collections import defaultdict

import numpy as np
from scipy import sparse

from xmodcoh.intlinalg import smith_normal_form


def columns_matrix(columns, rows=None):
    """The int64 CSC matrix with ``{row: entry}`` columns; ``rows``
    defaults to one past the largest row used."""
    if rows is None:
        rows = 1 + max((r for col in columns for r in col), default=-1)
    pairs = [(r, c, x) for c, col in enumerate(columns)
             for r, x in col.items()]
    r, c, x = zip(*pairs) if pairs else ((), (), ())
    return sparse.csc_matrix((np.array(x, dtype=np.int64), (r, c)),
                             shape=(rows, len(columns)), dtype=np.int64)


def unit_pivots(vectors):
    """Sparse elimination on +-1 entries of ``{key: entry}`` vectors, one
    pivot at a time: the shortest vector with a unit pivots at the unit
    whose key occurs in the fewest other vectors and is cleared from every
    other vector.  Returns the pivots and the residual vectors, each taken
    once up to sign."""
    vecs, seen = {}, set()
    for vec in vectors:
        key = tuple(sorted((k, x) for k, x in vec.items() if x))
        if key and key not in seen:
            seen.add(key)
            vecs[len(vecs)] = dict(key)

    def has_unit(v):
        return 1 in v.values() or -1 in v.values()

    where, units = defaultdict(set), defaultdict(set)
    for j, v in vecs.items():
        for r in v:
            where[r].add(j)
        if has_unit(v):
            units[len(v)].add(j)
    pivots = []
    while any(units.values()):
        j = units[min(n for n, b in units.items() if b)].pop()
        v = vecs.pop(j)
        for key in v:
            where[key].discard(j)
        r = min((key for key, x in v.items() if x in (1, -1)),
                key=lambda key: len(where[key]))
        inv = v.pop(r)
        v = {key: x * inv for key, x in v.items()}
        pivots.append((r, v))
        for k in where.pop(r):
            w = vecs[k]
            units[len(w)].discard(k)
            f = w.pop(r)
            for key, x in v.items():
                y = w.get(key)
                z = -f * x if y is None else y - f * x
                if z:
                    if y is None:
                        where[key].add(k)
                    w[key] = z
                elif y is not None:
                    del w[key]
                    where[key].discard(k)
            if not w:
                del vecs[k]
            elif has_unit(w):
                units[len(w)].add(k)
    residual = {}
    for v in vecs.values():
        key = tuple(sorted(v.items()))
        if key[0][1] < 0:
            key = tuple((r, -x) for r, x in key)
        residual[key] = None
    return pivots, [dict(key) for key in residual]


def loop_rank_torsion(columns):
    """Rank and torsion by :func:`unit_pivots`, then the Smith form of the
    residual over its own rows."""
    pivots, residual = unit_pivots(columns)
    rows = sorted({r for v in residual for r in v})
    pos = {r: i for i, r in enumerate(rows)}
    dense = [[0] * len(residual) for _ in rows]
    for c, v in enumerate(residual):
        for r, x in v.items():
            dense[pos[r]][c] = x
    form = smith_normal_form(dense)
    return (len(pivots) + form.rank,
            tuple(d for d in form.diag[:form.rank] if d > 1))


def dict_boundary(s, k, nd_low, nd_high):
    """Normalized boundary from level k to level k-1 as ``{row: entry}``
    columns, one simplex and one face at a time."""
    low_pos = {idx: p for p, idx in enumerate(nd_low)}
    out = []
    for idx in nd_high:
        col, sign = {}, 1
        for face in s.face[k]:
            p = low_pos.get(face[idx])
            if p is not None:
                col[p] = col.get(p, 0) + sign
            sign = -sign
        out.append({p: x for p, x in col.items() if x})
    return out
