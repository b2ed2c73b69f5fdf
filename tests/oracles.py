"""Per-entry reference implementations that the array code is checked
against: the dict-of-dicts unit-pivot elimination over Z, the dict-column
boundary builder, the per-simplex identity and homotopy checks, and the
classifying-map, homotopy and conjugation builders that looked each simplex
object up in a dictionary.  Also the one converter from ``{row: entry}``
columns to the sparse matrices the program takes, and the one view of a
nerve level as simplex objects, rebuilt from its label rows."""

from collections import defaultdict
from itertools import combinations
from math import comb

import numpy as np
from scipy import sparse

from xmodcoh.intlinalg import smith_normal_form
from xmodcoh.nerves import PseudofunctorSimplex, simplicial_map_violations
from xmodcoh.simplicial import prism_end


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


# ---------------------------------------------------------------------------
# simplex objects rebuilt from label rows
# ---------------------------------------------------------------------------

def simplex_objects(s, kind):
    """The simplex objects of every level of ``s``, in index order, rebuilt
    from its label rows: ``PseudofunctorSimplex`` for "duskin", a tuple of
    (object, arrow labels) columns for "diag", and the row as a tuple for
    "ordinary" (the chain) and "prism" (the cell (idx, t))."""
    out = []
    for k, rows in enumerate(s.rows):
        rows = rows.tolist()
        if kind == "duskin":
            p = comb(k + 1, 2)
            out.append([PseudofunctorSimplex(k, tuple(r[:p]), tuple(r[p:]))
                        for r in rows])
        elif kind == "diag":
            out.append([tuple((r[c], tuple(r[c + 1:c + k + 1]))
                              for c in range(0, k * (k + 1), k + 1))
                        for r in rows])
        else:
            out.append([tuple(r) for r in rows])
    return out


def simplex_index(levels):
    """One ``{simplex: index}`` dictionary per level."""
    return [{obj: i for i, obj in enumerate(level)} for level in levels]


# ---------------------------------------------------------------------------
# per-simplex structure checks
# ---------------------------------------------------------------------------

def loop_simplicial_violations(s):
    """Every simplicial-identity failure, one simplex at a time."""
    bad = []

    def report(kind, k, i, j, idx):
        bad.append(f"{kind} identity fails at level {k}, (i,j)=({i},{j}), "
                   f"simplex {idx}")

    for k in range(2, s.N + 1):
        for j in range(1, k + 1):
            for i in range(j):
                fi, fj = s.face[k][i], s.face[k][j]
                fl = s.face[k - 1]
                for idx in range(s.count(k)):
                    if fl[i][fj[idx]] != fl[j - 1][fi[idx]]:
                        report("d_i d_j", k, i, j, idx)
    for k in range(s.N - 1):
        for i in range(k + 1):
            for j in range(i, k + 1):
                si, sj = s.degen[k][i], s.degen[k][j]
                sl = s.degen[k + 1]
                for idx in range(s.count(k)):
                    if sl[i][sj[idx]] != sl[j + 1][si[idx]]:
                        report("s_i s_j", k, i, j, idx)
    for k in range(s.N):
        for j in range(k + 1):
            sj = s.degen[k][j]
            for i in range(k + 2):
                di = s.face[k + 1][i]
                for idx in range(s.count(k)):
                    got = di[sj[idx]]
                    if i == j or i == j + 1:
                        if got != idx:
                            report("d_i s_j = id", k, i, j, idx)
                    elif i < j:
                        if k == 0:
                            continue
                        want = s.degen[k - 1][j - 1][s.face[k][i][idx]]
                        if got != want:
                            report("d_i s_j = s_{j-1} d_i", k, i, j, idx)
                    else:
                        if k == 0:
                            continue
                        want = s.degen[k - 1][j][s.face[k][i - 1][idx]]
                        if got != want:
                            report("d_i s_j = s_j d_{i-1}", k, i, j, idx)
    return bad


def loop_homotopy_violations(h):
    """The map check on the cylinder, then both end restrictions one base
    simplex at a time, time 0 before time 1."""
    if h.start.target is not h.end.target and \
            h.start.target.counts() != h.end.target.counts():
        return ["the two maps have different targets"]
    bad = simplicial_map_violations(h.as_map())
    src = h.start.source
    for k in range(src.N + 1):
        for idx in range(src.count(k)):
            if h.layers[k][prism_end(h.cylinder, k, idx, True)] != \
                    h.start.layers[k][idx]:
                bad.append(f"time-0 end differs at level {k}, simplex {idx}")
            if h.layers[k][prism_end(h.cylinder, k, idx, False)] != \
                    h.end.layers[k][idx]:
                bad.append(f"time-1 end differs at level {k}, simplex {idx}")
    return bad


# ---------------------------------------------------------------------------
# classifying maps, prism homotopies and conjugation, one simplex at a time
# ---------------------------------------------------------------------------

def loop_cocycle_layers(group, c, chains, index):
    """Layers of the classifying map of ``c``: each chain of ``chains`` (the
    source's objects) goes to the simplex with alpha and u of its interval
    products, looked up in ``index`` (the target's dictionaries)."""
    n = group.order
    layers = []
    for k, level in enumerate(chains):
        table = []
        for chain in level:
            prods = {(i, j): group.prod(chain[i:j])
                     for i, j in combinations(range(k + 1), 2)}
            alpha = tuple(c.alpha[prods[(i, j)]]
                          for i, j in combinations(range(k + 1), 2))
            u = tuple(c.u[prods[(i, j)] * n + prods[(j, kk)]]
                      for i, j, kk in combinations(range(k + 1), 3))
            table.append(index[k][PseudofunctorSimplex(k, alpha, u)])
        layers.append(table)
    return layers


def theta_simplex(group, x, a, b, w, chain, t):
    """The homotopy value on (chain, t): vertices below t sit at time 0."""
    k = len(chain)
    n = group.order
    h = x.hgroup
    prods = {(i, j): group.prod(chain[i:j])
             for i, j in combinations(range(k + 1), 2)}
    alpha = []
    for i, j in combinations(range(k + 1), 2):
        p = prods[(i, j)]
        alpha.append(b.alpha[p] if i >= t else a.alpha[p])
    u = []
    for i, j, kk in combinations(range(k + 1), 3):
        p, q = prods[(i, j)], prods[(j, kk)]
        if i >= t:
            u.append(b.u[p * n + q])
        elif j >= t:
            u.append(h.op(x.act(a.alpha[p], w[q]), a.u[p * n + q]))
        else:
            u.append(a.u[p * n + q])
    return PseudofunctorSimplex(k, tuple(alpha), tuple(u))


def loop_homotopy_layers(group, x, a, b, w, chains, cells, index):
    """Layers of the prism homotopy from ``a`` to ``b`` with witness table
    ``w``: each prism cell (idx, t) of ``cells`` goes to
    :func:`theta_simplex` of its base chain, looked up in ``index``."""
    return [[index[k][theta_simplex(group, x, a, b, w, chains[k][idx], t)]
             for idx, t in level] for k, level in enumerate(cells)]


def loop_conjugation_layers(x, gamma, levels, index):
    """Layers of the nerve automorphism of conjugation by ``gamma``: alpha
    labels conjugated, u labels acted on, one simplex object at a time."""
    g = x.ggroup
    return [[index[k][PseudofunctorSimplex(
        k, tuple(g.conj(gamma, v) for v in s.alpha),
        tuple(x.act(gamma, v) for v in s.u))] for s in level]
        for k, level in enumerate(levels)]
