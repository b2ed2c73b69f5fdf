"""Per-entry reference implementations that the array code is checked
against: the dict-of-dicts unit-pivot elimination over Z, the Smith form
over Z/m that updates all four transforms at every pivot, ``stable`` by a
second elimination of the Q/Z relations, the dict-column boundary builder, the per-simplex identity and homotopy checks, and the
classifying-map, homotopy and conjugation builders that looked each simplex
object up in a dictionary, and the appendix retraction verifier that
replayed one chain at a time over interned slots, with the pseudofunctor
simplex objects it was built on.  Also the one converter from
``{row: entry}`` columns to the sparse triples the program takes, and the
one view of a nerve level as simplex objects, rebuilt from its label
rows.  For the unitary layer, the per-trial and per-matrix loops: the
unitary-check battery and the random decompose task trial by trial, the
inequality trials, path building with one logarithm per segment,
refinement and decomposition, the descent with fresh cross-check draws
through one-matrix Schur forms, membership and exponential length one
matrix at a time, the circle snap taken when the value is made, and the
helpers only tests use (special-unitary draws, pointwise products of
paths).

Also the fixtures and searches that no task reaches, kept here rather
than in the package: group products, commutativity and relabelling, the
inverse of the abelian shift, the crossed modules A -> 1 and
G -> G, the brute-force witness search between two 1-cocycles, the
simplicial-identity check, the exhaustive prism-homotopy search, the
transport of an obstruction along G and the bucketing of H^1 by induced
module, and the one-matrix self-adjoint gate, self-adjoint draw and
exponential-ball draw."""

import random
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import comb, gcd, lcm, pi, prod, sqrt

import numpy as np
from scipy import sparse

from xmodcoh import modsnf
from xmodcoh.cohomology import (Cochain, CohomologyGroup,
                                cochain_from_function, evaluate)
from xmodcoh.crossed import (AbelianShift, Cocycle1, CrossedModule, Witness1,
                             _witness_iter, compute_H1, transform_cocycle)
from xmodcoh.errors import InvariantError, ResourceLimit
from xmodcoh.groups import FiniteGroup, trivial_group
from xmodcoh.homotopies import SimplicialHomotopy, homotopy_violations
from xmodcoh.intlinalg import smith_normal_form
from xmodcoh.nerves import (SimplicialMap, _duskin_level_rows, delta_map,
                            pair_positions, pullback_positions, sigma_map,
                            simplicial_map_violations, triple_positions)
from xmodcoh.obstruction import (CentralXModExtension, ObstructionClass,
                                 _h_cached, induced_module, theta)
from xmodcoh.retraction import RetractionReport, _identity_pairs
from xmodcoh.simplicial import (TruncatedSimplicialSet, _ints, prism,
                                prism_end)
from xmodcoh.unitary import (DEFAULT_UNITARITY_TOL, ExponentialLength,
                             InequalityReport, PathDecomposition,
                             SUMembership, UnitaryPath, _gaussian_draw,
                             _selfadjoint_stack, as_unitary, ball_draw,
                             ball_elements, circle_value, exp_selfadjoint,
                             operator_norm, random_unitary, tau, unitary_path)


def columns_matrix(columns, rows=None):
    """The int64 triples (rows, cols, values), sorted by column and then
    row, of the matrix with ``{row: entry}`` columns, read off scipy's
    canonical CSC form; ``rows`` defaults to one past the largest row
    used."""
    if rows is None:
        rows = 1 + max((r for col in columns for r in col), default=-1)
    pairs = [(r, c, x) for c, col in enumerate(columns)
             for r, x in col.items()]
    r, c, x = zip(*pairs) if pairs else ((), (), ())
    m = sparse.csc_matrix((np.array(x, dtype=np.int64), (r, c)),
                          shape=(rows, len(columns)), dtype=np.int64)
    m.eliminate_zeros()
    return (m.indices.astype(np.int64),
            np.repeat(np.arange(m.shape[1], dtype=np.int64),
                      np.diff(m.indptr)), m.data)


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


def eager_mod_smith(a, m: int):
    """(diag, u, u^-1, v, v^-1) of ``a`` over Z/m, each local ring's four
    transforms updated at every pivot and then joined over the CRT
    idempotents, row i of U scaled by the unit d_i / d_{i,q} mod q and
    column i of U^-1 by its inverse.  ``modsnf.mod_smith`` records the
    pivots instead and replays each transform when it is first read; the
    two must agree bitwise."""
    a = np.array(a, dtype=np.int64) % m
    parts = [(q, e, eager_local_smith(a % q, p, q))
             for p, q, e in modsnf._local_rings(m)]
    diag = [prod(d) for d in zip(*(local[0] for _, _, local in parts))]
    k, (r, c) = len(diag), a.shape
    mats = [np.zeros((n, n), dtype=np.int64) for n in (r, r, c, c)]
    for q, e, (d, *local) in parts:
        unit = np.array([x // y % q for x, y in zip(diag, d)], dtype=np.int64)
        local[0][:k] = local[0][:k] * unit[:, None] % q
        local[1][:, :k] = local[1][:, :k] * np.array(
            [pow(int(x), -1, q) for x in unit], dtype=np.int64) % q
        for slot, x in enumerate(local):
            mats[slot] = (mats[slot] + x.astype(np.int64) * e % m) % m
    return (diag, *mats)


def eager_local_smith(a: np.ndarray, p: int, q: int):
    """(diag, U, U^-1, V, V^-1) of ``a`` (entries in [0, q)) over Z/q,
    q = p^k, pivoting as ``modsnf._local_smith`` does."""
    r, c = a.shape
    dt = modsnf.dtype_for(q, max(r, c, 1))
    a = a.astype(dt)
    U, Ui, V, Vi = (np.eye(n, dtype=dt) for n in (r, r, c, c))
    diag = []
    for t in range(min(r, c)):
        sub = a[t:, t:]
        i, j = divmod(int(np.argmax(sub % p != 0)), c - t)
        if sub[i, j] % p == 0:
            val = np.gcd(sub, q)
            i, j = divmod(int(np.argmin(val)), c - t)
            if val[i, j] == q:
                break
        i, j = i + t, j + t
        a[[t, i]] = a[[i, t]]
        a[:, [t, j]] = a[:, [j, t]]
        U[[t, i]] = U[[i, t]]
        Ui[:, [t, i]] = Ui[:, [i, t]]
        V[:, [t, j]] = V[:, [j, t]]
        Vi[[t, j]] = Vi[[j, t]]
        g = gcd(int(a[t, t]), q)
        unit = int(a[t, t]) // g
        inv = pow(unit, -1, q)
        a[t] = a[t] * inv % q
        U[t] = U[t] * inv % q
        Ui[:, t] = Ui[:, t] * unit % q
        f = a[t + 1:, t] // g
        if f.any():
            a[t + 1:] = (a[t + 1:] - np.outer(f, a[t])) % q
            U[t + 1:] = (U[t + 1:] - np.outer(f, U[t])) % q
            Ui[:, t] = (Ui[:, t] + Ui[:, t + 1:] @ f) % q
        f = a[t, t + 1:] // g
        if f.any():
            a[t, t + 1:] = 0
            V[:, t + 1:] = (V[:, t + 1:] - np.outer(V[:, t], f)) % q
            Vi[t] = (Vi[t] + f @ Vi[t + 1:]) % q
        diag.append(g)
    return diag + [q] * (min(r, c) - len(diag)), U, Ui, V, Vi


def smith_stable(h: CohomologyGroup) -> bool:
    """``stable`` of a Q/Z cohomology group by a second elimination:
    whether the relations without the Bockstein columns, which present
    H^n(G; Z/m0), have the order of the Q/Z answer."""
    quot, nb = h._quot, h._bock_gens.shape[1] if h.degree else 0
    if not nb:
        return True
    base = np.delete(quot.rel, np.s_[quot.n_l - nb:quot.n_l], axis=1)
    return prod(modsnf.mod_smith(base, quot.m).diag) == quot.order


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
            u.append(op(h, x.act(a.alpha[p], w[q]), a.u[p * n + q]))
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


# ---------------------------------------------------------------------------
# the appendix retraction, one simplex object and one chain at a time
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PseudofunctorSimplex:
    """An n-simplex of the Duskin nerve: alpha over pairs, u over triples.

    Tables are in lexicographic order of the index sets.  Lookups with
    repeated indices follow the strictly unital convention (identity labels).
    """

    n: int
    alpha: tuple[int, ...]
    u: tuple[int, ...]

    def alpha_at(self, x: CrossedModule, i: int, j: int) -> int:
        if i == j:
            return x.ggroup.identity
        return self.alpha[pair_positions(self.n)[(i, j)]]

    def u_at(self, x: CrossedModule, i: int, j: int, k: int) -> int:
        if i == j or j == k:
            return x.hgroup.identity
        return self.u[triple_positions(self.n)[(i, j, k)]]


def pseudofunctor_violations(x: CrossedModule,
                             s: PseudofunctorSimplex) -> list[str]:
    """Failures of the triangle and tetrahedron relations (empty = valid)."""
    g, h = x.ggroup, x.hgroup
    bad = []
    for i, j, k in combinations(range(s.n + 1), 3):
        lhs = op(g, s.alpha_at(x, i, j), s.alpha_at(x, j, k))
        rhs = op(g, x.boundary[s.u_at(x, i, j, k)], s.alpha_at(x, i, k))
        if lhs != rhs:
            bad.append(f"triangle relation fails at ({i},{j},{k})")
    for i, j, k, l in combinations(range(s.n + 1), 4):
        lhs = op(h, x.act(s.alpha_at(x, i, j), s.u_at(x, j, k, l)),
                   s.u_at(x, i, j, l))
        rhs = op(h, s.u_at(x, i, j, k), s.u_at(x, i, k, l))
        if lhs != rhs:
            bad.append(f"tetrahedron relation fails at ({i},{j},{k},{l})")
    return bad


@dataclass(frozen=True)
class NatTransform:
    """A natural transformation between pseudofunctor simplices of equal n.

    ``w`` is a table over pairs i<j in lexicographic order; lookups with
    equal indices return the identity.
    """

    source: PseudofunctorSimplex
    target: PseudofunctorSimplex
    w: tuple[int, ...]

    def w_at(self, x: CrossedModule, i: int, j: int) -> int:
        if i == j:
            return x.hgroup.identity
        return self.w[pair_positions(self.source.n)[(i, j)]]


def nat_violations(x: CrossedModule, nt: NatTransform) -> list[str]:
    """Failures of the naturality square on edges and triples (empty = ok)."""
    if nt.source.n != nt.target.n:
        return ["source and target dimensions differ"]
    n = nt.source.n
    if len(nt.w) != len(pair_positions(n)):
        return ["w table has the wrong size"]
    g, h = x.ggroup, x.hgroup
    bad = []
    for i, j in combinations(range(n + 1), 2):
        lhs = nt.target.alpha_at(x, i, j)
        rhs = op(g, x.boundary[nt.w_at(x, i, j)], nt.source.alpha_at(x, i, j))
        if lhs != rhs:
            bad.append(f"edge identity fails at ({i},{j})")
    for i, j, k in combinations(range(n + 1), 3):
        lhs = op(h, nt.w_at(x, i, j),
                 op(h, x.act(nt.source.alpha_at(x, i, j), nt.w_at(x, j, k)),
                    nt.source.u_at(x, i, j, k)))
        rhs = op(h, nt.target.u_at(x, i, j, k), nt.w_at(x, i, k))
        if lhs != rhs:
            bad.append(f"naturality fails at ({i},{j},{k})")
    return bad


def transport_simplex(x: CrossedModule, s: PseudofunctorSimplex,
                      w: tuple[int, ...]) -> NatTransform:
    """The morphism out of ``s`` with component table ``w``.

    The target pseudofunctor is determined: its edges are twisted by the
    boundary of w and its triangle labels conjugated through the naturality
    square.  The result is checked to be a valid simplex.
    """
    g, h = x.ggroup, x.hgroup
    n = s.n
    pp = pair_positions(n)
    alpha = tuple(op(g, x.boundary[w[pp[(i, j)]]], s.alpha_at(x, i, j))
                  for i, j in combinations(range(n + 1), 2))
    u = []
    for i, j, k in combinations(range(n + 1), 3):
        val = op(h, w[pp[(i, j)]],
                 op(h, x.act(s.alpha_at(x, i, j), w[pp[(j, k)]]),
                    op(h, s.u_at(x, i, j, k), h.inv[w[pp[(i, k)]]])))
        u.append(val)
    target = PseudofunctorSimplex(n, alpha, tuple(u))
    bad = pseudofunctor_violations(x, target)
    if bad:
        raise InvariantError("transport left the simplex space: " + bad[0])
    return NatTransform(s, target, w)


def pull_back(table: tuple[int, ...], positions: tuple[int, ...],
              identity: int) -> tuple[int, ...]:
    """Read a table at ``pullback_positions``, with identity at -1."""
    return tuple(table[p] if p >= 0 else identity for p in positions)


def reindex(x: CrossedModule, s: PseudofunctorSimplex,
            theta: tuple[int, ...]) -> PseudofunctorSimplex:
    """Pull back along a monotone map [m] -> [n] given by its value tuple."""
    return PseudofunctorSimplex(
        len(theta) - 1,
        pull_back(s.alpha, pullback_positions(s.n, theta, 2),
                  x.ggroup.identity),
        pull_back(s.u, pullback_positions(s.n, theta, 3), x.hgroup.identity))


def _duskin_simplices(k: int, rows: np.ndarray) -> list:
    pairs = comb(k + 1, 2)
    return [PseudofunctorSimplex(k, alpha, u) for alpha, u in zip(
        map(tuple, rows[:, :pairs].tolist()),
        map(tuple, rows[:, pairs:].tolist()))]


def _enumerate_duskin_level(x: CrossedModule, k: int) -> list:
    """All valid k-simplices, lexicographic in (edge chain, u table)."""
    return _duskin_simplices(k, _duskin_level_rows(x, k)[1])


def _compose(theta: tuple[int, ...], phi: tuple[int, ...]) -> tuple[int, ...]:
    """theta after phi, as value tuples."""
    return tuple(theta[v] for v in phi)


def pull_table(x: CrossedModule, n: int, w: tuple[int, ...],
               theta: tuple[int, ...]) -> tuple[int, ...]:
    """Pull a pair-indexed H table over [n] back along theta (unital)."""
    return pull_back(w, pullback_positions(n, theta, 2), x.hgroup.identity)


def _table_at(x: CrossedModule, n: int, w, i: int, j: int) -> int:
    if i == j:
        return x.hgroup.identity
    return w[pair_positions(n)[(i, j)]]


# ---------------------------------------------------------------------------
# strict inclusion, lax projection, and the connecting transformation
# ---------------------------------------------------------------------------

def strict_include(x: CrossedModule, chain: tuple[int, ...]
                   ) -> PseudofunctorSimplex:
    """The pseudofunctor with exact edge products and trivial labels."""
    g = x.ggroup
    n = len(chain)
    alpha = tuple(g.prod(chain[i:j])
                  for i, j in combinations(range(n + 1), 2))
    u = (x.hgroup.identity,) * comb(n + 1, 3)
    return PseudofunctorSimplex(n, alpha, u)


def composite_table(x: CrossedModule, alphas: tuple[int, ...],
                    hs: tuple[int, ...]) -> tuple[int, ...]:
    """Horizontal composites of consecutive components along an edge chain."""
    g, h = x.ggroup, x.hgroup
    n = len(alphas)
    out = []
    for i, j in combinations(range(n + 1), 2):
        val = hs[i]
        run = alphas[i]
        for t in range(i + 1, j):
            val = op(h, val, x.act(run, hs[t]))
            run = op(g, run, alphas[t])
        out.append(val)
    return tuple(out)


def strict_project(x: CrossedModule, s: PseudofunctorSimplex
                   ) -> tuple[int, ...]:
    """The edge chain of a pseudofunctor (its strict shadow)."""
    return tuple(s.alpha_at(x, i, i + 1) for i in range(s.n))


def strict_project_morphism(x: CrossedModule, nt: NatTransform
                            ) -> tuple[int, ...]:
    """Horizontal composites of a transformation's consecutive components."""
    n = nt.source.n
    alphas = strict_project(x, nt.source)
    hs = tuple(nt.w_at(x, i, i + 1) for i in range(n))
    return composite_table(x, alphas, hs)


def eta_table(x: CrossedModule, s: PseudofunctorSimplex) -> tuple[int, ...]:
    """Components of the retraction transformation s => include(project(s)).

    The interval value is built by splitting off the last vertex:
    v over [i..j] is v over [i..j-1] times the label at (i, j-1, j).
    """
    h = x.hgroup
    vals: dict[tuple[int, int], int] = {}
    for span in range(1, s.n + 1):
        for i in range(s.n + 1 - span):
            j = i + span
            if span == 1:
                vals[(i, j)] = h.identity
            else:
                vals[(i, j)] = op(h, vals[(i, j - 1)], s.u_at(x, i, j - 1, j))
    return tuple(vals[p] for p in combinations(range(s.n + 1), 2))


# ---------------------------------------------------------------------------
# chains of transformations and the prism data
# ---------------------------------------------------------------------------

class _Slots:
    """Slot-level results of one verification, each computed once.

    A chain x0 -w0-> x1 -w1-> ... -> xm over [n] is the tuple of ids
    (x0, w0, x1, w1, ..., xm), so slot 2i holds object i and slot 2i+1
    morphism i.  Pullbacks are memoized on (id, index map), transport
    targets on (object, table), fillers on (x0, w0, k) (x1 is the transport
    target of x0 along w0) and connectors on (w0, k).  Results are computed
    through this module's ``reindex``, ``pull_table``,
    ``transport_simplex``, ``mu_simplex`` and ``h_table``.
    """

    def __init__(self, x: CrossedModule):
        self.x = x
        self.values: list = []
        self.dims: list[int] = []
        self._ids: dict = {}
        self._pulls: dict[tuple[int, ...], dict[int, int]] = {}
        self._targets: dict[tuple[int, int], int] = {}
        self._fillers: dict[tuple[int, int, int], int] = {}
        self._connectors: dict[tuple[int, int], int] = {}
        self._maps: dict[int, tuple[list, list]] = {}

    def intern(self, value, n: int) -> int:
        """The id of a simplex or table over [n]."""
        i = self._ids.get(value)
        if i is None:
            i = self._ids[value] = len(self.values)
            self.values.append(value)
            self.dims.append(n)
        return i

    def maps(self, n: int) -> tuple[list, list]:
        """The face maps [n-1] -> [n] and degeneracy maps [n+1] -> [n]."""
        out = self._maps.get(n)
        if out is None:
            out = self._maps[n] = ([delta_map(n, i) for i in range(n + 1)],
                                   [sigma_map(n, i) for i in range(n + 1)])
        return out

    def along(self, theta: tuple[int, ...]) -> dict[int, int]:
        """The pullbacks along theta computed so far, by slot id."""
        return self._pulls.setdefault(theta, {})

    def pull(self, i: int, theta: tuple[int, ...]) -> int:
        """The id of slot ``i`` pulled back along theta."""
        memo = self.along(theta)
        j = memo.get(i)
        if j is None:
            v = self.values[i]
            if isinstance(v, PseudofunctorSimplex):
                v = reindex(self.x, v, theta)
            else:
                v = pull_table(self.x, self.dims[i], v, theta)
            j = memo[i] = self.intern(v, len(theta) - 1)
        return j

    def target(self, o: int, w: int) -> int:
        """The id of the target of the morphism out of ``o`` along ``w``."""
        key = (o, w)
        j = self._targets.get(key)
        if j is None:
            v = self.values
            t = transport_simplex(self.x, v[o], v[w]).target
            j = self._targets[key] = self.intern(t, t.n)
        return j

    def filler(self, c: tuple[int, ...], k: int) -> int:
        """The id of the degree-k filler of the chain ``c``."""
        key = (c[0], c[1], k)
        j = self._fillers.get(key)
        if j is None:
            v = self.values
            mu = mu_simplex(self.x, v[c[0]], v[c[1]], v[c[2]], k)
            j = self._fillers[key] = self.intern(mu, mu.n)
        return j

    def connector(self, w0: int, k: int) -> int:
        """The id of the degree-k connector of the first morphism ``w0``."""
        key = (w0, k)
        j = self._connectors.get(key)
        if j is None:
            n = self.dims[w0]
            j = self._connectors[key] = self.intern(
                h_table(self.x, self.values[w0], n, k), n + 1)
        return j


def chain_reindex(slots: _Slots, c: tuple[int, ...],
                  theta: tuple[int, ...]) -> tuple[int, ...]:
    """Pull every slot of a chain back along theta."""
    memo = slots.along(theta)
    try:
        return tuple([memo[i] for i in c])
    except KeyError:
        return tuple([slots.pull(i, theta) for i in c])


def chain_face_v(slots: _Slots, c: tuple[int, ...], i: int) -> tuple[int, ...]:
    return chain_reindex(slots, c, slots.maps(slots.dims[c[0]])[0][i])


def chain_degen_v(slots: _Slots, c: tuple[int, ...],
                  i: int) -> tuple[int, ...]:
    return chain_reindex(slots, c, slots.maps(slots.dims[c[0]])[1][i])


def chain_collapse_h(slots: _Slots, c: tuple[int, ...]) -> tuple[int, ...]:
    """s0_h d0_h: drop the first transformation, restart with the identity."""
    w0 = c[1]
    e = (slots.x.hgroup.identity,) * len(slots.values[w0])
    return (c[2], slots.intern(e, slots.dims[w0])) + c[2:]


def mu_simplex(x: CrossedModule, x0: PseudofunctorSimplex,
               w0: tuple[int, ...], x1: PseudofunctorSimplex,
               k: int) -> PseudofunctorSimplex:
    """The filler pseudofunctor over [n+1] interpolating x0 and x1 at k.

    Edges up to k come from x1, edges past k from x0 with indices collapsed
    through the k-th degeneracy; triangle labels straddling k pick up the
    component of the first transformation.
    """
    n = x0.n
    sig = sigma_map(n, k)
    h = x.hgroup
    alpha = []
    for i, j in combinations(range(n + 2), 2):
        alpha.append(x1.alpha_at(x, i, j) if j <= k
                     else x0.alpha_at(x, sig[i], j - 1))
    u = []
    for i, j, l in combinations(range(n + 2), 3):
        if l <= k:
            u.append(x1.u_at(x, i, j, l))
        elif j <= k:
            u.append(op(h, _table_at(x, n, w0, i, j), x0.u_at(x, i, j, l - 1)))
        else:
            u.append(x0.u_at(x, sig[i], j - 1, l - 1))
    return PseudofunctorSimplex(n + 1, tuple(alpha), tuple(u))


def h_table(x: CrossedModule, w0: tuple[int, ...], n: int,
            k: int) -> tuple[int, ...]:
    """Components of the connecting transformation at degree k."""
    sig = sigma_map(n, k)
    e = x.hgroup.identity
    out = []
    for i, j in combinations(range(n + 2), 2):
        out.append(e if j <= k else _table_at(x, n, w0, sig[i], j - 1))
    return tuple(out)


def homotopy_chain(slots: _Slots, c: tuple[int, ...],
                   k: int) -> tuple[int, ...]:
    """Degree-k prism image of a chain (filler, connector, degenerate tail)."""
    return ((slots.filler(c, k), slots.connector(c[1], k))
            + chain_reindex(slots, c[2:], slots.maps(slots.dims[c[0]])[1][k]))


# ---------------------------------------------------------------------------


def _check_head(slots: _Slots, x0: int, w0: int, tag: str) -> list[str]:
    """All head-dependent identities for one (object, first morphism)."""
    x = slots.x
    n = slots.dims[x0]
    v = slots.values
    bad: list[str] = []
    c = (x0, w0, slots.target(x0, w0))
    if slots.filler(c, 0) != slots.pull(x0, sigma_map(n, 0)):
        bad.append(f"filler at 0 is not the degenerate start ({tag})")
    for k in range(n + 1):
        mu = v[slots.filler(c, k)]
        target = v[slots.pull(c[2], sigma_map(n, k))]
        probs = pseudofunctor_violations(x, mu)
        probs += nat_violations(
            x, NatTransform(mu, target, v[slots.connector(w0, k)]))
        bad += [f"degree {k}: {p} ({tag})" for p in probs]
    return bad + check_chain(slots, c, tag)


def _first_difference(a: tuple[int, ...], b: tuple[int, ...]) -> str | None:
    """The first slot where two chains of equal length differ, if any."""
    for p, (ia, ib) in enumerate(zip(a, b)):
        if ia != ib:
            i, is_morphism = divmod(p, 2)
            if is_morphism:
                return "connector" if i == 0 else f"morphism {i}"
            return "filler" if i == 0 else f"object {i}"
    return None


def check_chain(slots: _Slots, c: tuple[int, ...], tag: str) -> list[str]:
    """Replay every prism identity literally on one full chain.

    A failure names the identity and the first slot where its two sides
    differ: the filler or connector in slot 0, a later object or morphism
    after that.
    """
    n = slots.dims[c[0]]
    bad: list[str] = []

    def expect(what: str, lhs: tuple, rhs: tuple) -> None:
        if lhs != rhs:
            bad.append(f"{what}: {_first_difference(lhs, rhs)} differs "
                       f"({tag})")

    hs = [homotopy_chain(slots, c, k) for k in range(n + 1)]
    expect("d_0 H_0 is not the identity side",
           chain_face_v(slots, hs[0], 0), c)
    expect(f"d_{n + 1} H_{n} is not the collapsed side",
           chain_face_v(slots, hs[n], n + 1), chain_collapse_h(slots, c))
    for k in range(n + 1):
        for i in range(n + 2):
            if i < k:
                rhs = homotopy_chain(slots, chain_face_v(slots, c, i), k - 1)
            elif i > k + 1:
                rhs = homotopy_chain(slots, chain_face_v(slots, c, i - 1), k)
            else:
                continue
            expect(f"face {i} square at degree {k}",
                   chain_face_v(slots, hs[k], i), rhs)
    for k in range(n):
        expect(f"adjacent prism faces at {k + 1}",
               chain_face_v(slots, hs[k + 1], k + 1),
               chain_face_v(slots, hs[k], k + 1))
    for k in range(n + 1):
        for i in range(n + 2):
            rhs = (homotopy_chain(slots, chain_degen_v(slots, c, i), k + 1)
                   if i <= k else
                   homotopy_chain(slots, chain_degen_v(slots, c, i - 1), k))
            expect(f"degeneracy {i} square at degree {k}",
                   chain_degen_v(slots, hs[k], i), rhs)
    return bad


def _head_suite(slots: _Slots, n: int, obj_ids: list[int],
                w_ids: list[int]) -> list[str]:
    """Exhaustive n-dependent checks: section/retraction, eta, heads, over
    the objects and morphisms interned in ``slots``."""
    x = slots.x
    g, h = x.ggroup, x.hgroup
    v = slots.values
    objects = [v[o] for o in obj_ids]
    bad: list[str] = []

    # (a) the projection retracts the inclusion, on objects and morphisms
    for chain in product(g.elements(), repeat=n):
        s = strict_include(x, chain)
        if strict_project(x, s) != chain:
            bad.append(f"projection misses the chain {chain}")
        for hs in product(h.elements(), repeat=n):
            w = composite_table(x, tuple(chain), tuple(hs))
            nt = transport_simplex(x, s, w)
            probs = nat_violations(x, nt)
            bad += [f"strict morphism {chain}/{hs}: {p}" for p in probs]
            if strict_project_morphism(x, nt) != w:
                bad.append(f"projection misses the morphism {chain}/{hs}")

    # (b) the connecting transformation, objectwise and naturally
    for oi, s in enumerate(objects):
        eta = eta_table(x, s)
        probs = nat_violations(
            x, NatTransform(s, strict_include(x, strict_project(x, s)), eta))
        bad += [f"eta at object {oi}: {p}" for p in probs]
    for oi, s in enumerate(objects):
        eta_s = eta_table(x, s)
        for wi in w_ids:
            w = v[wi]
            nt = NatTransform(s, v[slots.target(obj_ids[oi], wi)], w)
            eta_t = eta_table(x, nt.target)
            push = strict_project_morphism(x, nt)
            lhs = tuple(op(h, a, b) for a, b in zip(eta_t, w))
            rhs = tuple(op(h, a, b) for a, b in zip(push, eta_s))
            if lhs != rhs:
                bad.append(f"eta is not natural at object {oi}, "
                           f"morphism {w}")

    # prism identity index maps (settle every slot beyond the head)
    for name, lhs, rhs in _identity_pairs(n):
        if lhs != rhs:
            bad.append(f"index maps differ for {name}")

    # (c)+(d) heads
    for oi, o in enumerate(obj_ids):
        for wi in w_ids:
            bad += _check_head(slots, o, wi, f"object {oi}, morphism {v[wi]}")
    return bad


def slot_verify_appendix_retraction(x, n, m, sample=200, seed=0):
    """The appendix verification one chain at a time over interned slots:
    the head suite, then the seeded sample (every chain, in product order,
    when the chain space fits in the sample)."""
    h = x.hgroup
    pairs = comb(n + 1, 2)
    slots = _Slots(x)
    obj_ids = [slots.intern(s, n) for s in _enumerate_duskin_level(x, n)]
    w_ids = [slots.intern(w, n)
             for w in product(h.elements(), repeat=pairs)]
    failures = _head_suite(slots, n, obj_ids, w_ids)
    chains_total = len(obj_ids) * len(w_ids) ** m
    rng = random.Random(seed)

    def replay(obj_idx: int, w_idxs: tuple[int, ...]) -> list[str]:
        c = [obj_ids[obj_idx]]
        for i in w_idxs:
            c += (w_ids[i], slots.target(c[-1], w_ids[i]))
        return check_chain(slots, tuple(c),
                           f"object {obj_idx}, morphisms {w_idxs}")

    if chains_total <= sample:
        picks = product(range(len(obj_ids)),
                        product(range(len(w_ids)), repeat=m))
    else:
        picks = ((rng.randrange(len(obj_ids)),
                  tuple(rng.randrange(len(w_ids)) for _ in range(m)))
                 for _ in range(sample))
    for obj_idx, w_idxs in picks:
        failures += replay(obj_idx, w_idxs)

    return RetractionReport(
        label=x.label, n=n, m=m, objects=len(obj_ids),
        morphisms_per_object=len(w_ids), chains_total=chains_total,
        heads_checked=len(obj_ids) * len(w_ids),
        sampled_chains=min(chains_total, sample), failures=failures)


# ---------------------------------------------------------------------------
# the unitary layer, one trial and one matrix at a time
# ---------------------------------------------------------------------------

def _per_matrix(fn):
    """fn of one matrix, mapped over each matrix of a (k, n, n) stack in
    order, as the stacked functions take stacks."""
    def mapped(u, *args, **kwargs):
        if np.ndim(u) == 3:
            return [fn(m, *args, **kwargs) for m in u]
        return fn(u, *args, **kwargs)
    return mapped


def schur_eig_unitary(u):
    """Eigenvalues and Schur vectors of one unitary: numpy's eig, then the
    QR of its eigenvectors."""
    lam, v = np.linalg.eig(np.asarray(u, dtype=complex))
    return lam, np.linalg.qr(v)[0]


def loop_eig_unitaries(us):
    """schur_eig_unitary of each matrix of a (k, n, n) stack, as two
    stacks."""
    lam = np.empty(us.shape[:2], dtype=complex)
    z = np.empty(us.shape, dtype=complex)
    for i, u in enumerate(us):
        lam[i], z[i] = schur_eig_unitary(u)
    return lam, z


def _schur_principal_log(u, margin=0.0):
    lam, z = schur_eig_unitary(u)
    ang = np.angle(lam)
    if margin > 0 and float(np.min(pi - np.abs(ang))) < margin:
        raise ValueError("an eigenvalue lies near the branch cut at -1")
    return as_selfadjoint((z * ang) @ z.conj().T, tol=np.inf)


def _widest_gap_rotation(angles):
    th = np.sort(np.mod(angles, 2 * pi))
    gaps = np.diff(np.append(th, th[0] + 2 * pi))
    j = int(np.argmax(gaps))
    mid = th[j] + gaps[j] / 2
    return float(mid - pi), float(gaps[j] / 2)


@_per_matrix
def fresh_dlhs_delta(u, tol=1e-10, angle_tol=1e-8, seed=0, check_tol=1e-8):
    """dlhs_delta drawing its cross-check midpoints afresh on every call."""
    u = as_unitary(u, tol)
    n = u.shape[0]
    lam, _ = schur_eig_unitary(u)
    delta, half_gap = _widest_gap_rotation(np.angle(lam))
    if half_gap < angle_tol:
        raise ValueError("no branch gap")
    ang = np.angle(lam * np.exp(-1j * delta))
    value = delta / (2 * pi) + float(np.sum(ang)) / (2 * pi * n)
    rng = np.random.default_rng(seed)
    for _ in range(8):
        mid = loop_random_unitary(n, rng)
        try:
            two_leg = (np.trace(_schur_principal_log(mid, angle_tol))
                       + np.trace(_schur_principal_log(mid.conj().T @ u,
                                                       angle_tol)))
        except ValueError:
            continue
        alt = float(two_leg.real) / (2 * pi * n)
        diff = (value - alt) % (1.0 / n)
        if min(diff, 1.0 / n - diff) > check_tol:
            raise RuntimeError("path-choice independence failed")
        return circle_value(value, n)
    raise ValueError("no cross-check midpoint")


def eager_snap(raw, lattice_n, snap_tol=1e-9):
    """The snap of ``circle_value(raw, lattice_n, snap_tol)``, computed as
    circle_value did when it made the value."""
    reduced = raw % (1.0 / lattice_n)
    snap = Fraction(reduced).limit_denominator(1000 * lattice_n)
    if abs(float(snap) - reduced) > snap_tol:
        snap = None
    elif snap == Fraction(1, lattice_n):
        snap = Fraction(0)
    return snap


def loop_su_tau_member(u, tol=1e-9, unitarity_tol=1e-10):
    """Membership in the special-unitary kernel, one matrix at a time."""
    u = as_unitary(u, unitarity_tol)
    n = u.shape[0]
    det = complex(np.linalg.det(u))
    if abs(abs(det) - 1.0) > max(tol, n * unitarity_tol * 10):
        raise ValueError(f"determinant modulus {abs(det):.12f} strays "
                         "from 1; input is not unitary")
    if abs(det - 1.0) > tol:
        return SUMembership(False, det, None, None)
    lam, z = schur_eig_unitary(u)
    ang = np.angle(lam)
    k = int(round(float(np.sum(ang)) / (2 * pi)))
    if k:
        order = np.argsort(ang)
        shift = order[-k:] if k > 0 else order[:-k]
        ang = ang.copy()
        ang[shift] -= 2 * pi * np.sign(k)
    h = as_selfadjoint((z * ang) @ z.conj().T, tol=np.inf)
    h = h - (tau(h).real * np.eye(n))
    log_norm = operator_norm(h)
    if log_norm < pi:
        certificate = (h,)
        recomposed = exp_selfadjoint(h)
    else:
        certificate = (h / 2, h / 2)
        half = exp_selfadjoint(h / 2)
        recomposed = half @ half
    residual = operator_norm(recomposed - u)
    if residual > max(tol, 1e-9):
        raise RuntimeError("membership certificate failed re-multiplication "
                           f"(residual {residual:.3e})")
    if any(abs(tau(hj)) > max(tol, 1e-12) for hj in certificate):
        raise RuntimeError("membership certificate has a traceful exponent")
    return SUMembership(True, det, certificate, residual, log_norm)


@_per_matrix
def loop_el_tau(u, tol=1e-9):
    """Exponential length taking the norm of each certificate factor."""
    rep = loop_su_tau_member(u, tol)
    if not rep.member:
        raise ValueError("not in the special-unitary kernel")
    if len(rep.certificate) == 1:
        norm = operator_norm(rep.certificate[0])
        if norm < pi - tol:
            return ExponentialLength(norm, True)
    return ExponentialLength(sum(operator_norm(hj)
                                 for hj in rep.certificate), False)


def loop_d_tau(u, v, tol=1e-9):
    return loop_el_tau(as_unitary(u).conj().T @ as_unitary(v), tol)


def loop_random_unitary(n, rng):
    """A Haar unitary as scipy.stats.unitary_group.rvs draws it."""
    if n == 1:
        return np.array([[np.exp(2j * pi * rng.uniform())]])
    z = 1 / sqrt(2) * (rng.normal(size=(n, n))
                          + 1j * rng.normal(size=(n, n)))
    q, r = np.linalg.qr(z)
    d = r.diagonal()
    return q * (d / abs(d))


def random_special_unitary(n, rng):
    u = random_unitary(n, rng)
    return u * np.exp(-1j * np.angle(np.linalg.det(u)) / n)


def loop_random_selfadjoint(n, rng, bound=1.0):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (a + a.conj().T) / 2
    norm = operator_norm(h)
    if norm == 0.0:
        return h
    return h * (bound * rng.uniform() / norm)


def loop_ball_element(n, eps, rng):
    h = loop_random_selfadjoint(n, rng, bound=1.0)
    h = h - tau(h).real * np.eye(n)
    norm = operator_norm(h)
    if norm == 0.0:
        return np.eye(n, dtype=complex)
    return exp_selfadjoint(h * (eps * 0.999 * rng.uniform() / norm))


def loop_check_exp_inequalities(max_dim, trials, seed=0, threshold=1e-9):
    rng = np.random.default_rng(seed)
    min_upper = min_lower = np.inf
    violations = 0
    for _ in range(trials):
        dim = int(rng.integers(1, max_dim + 1))
        h1 = loop_random_selfadjoint(dim, rng, bound=1.0)
        h2 = loop_random_selfadjoint(dim, rng, bound=1.0)
        dist = operator_norm(exp_selfadjoint(h1) - exp_selfadjoint(h2))
        hdist = operator_norm(h1 - h2)
        upper = hdist - dist
        lower = dist - hdist * (1 - (operator_norm(h1)
                                     + operator_norm(h2)) / 2)
        min_upper = min(min_upper, upper)
        min_lower = min(min_lower, lower)
        violations += (upper < -threshold) + (lower < -threshold)
    return InequalityReport(trials, max_dim, seed, float(min_upper),
                            float(min_lower), violations, threshold)


def loop_unitary_check(seed, max_dim=6, ineq_trials=10_000, pair_trials=1000,
                       member_trials=1000, sandwich_trials=1000,
                       conj_trials=200):
    """The unitary-check result, trial by trial, each trial's matrices one
    at a time."""
    rng = np.random.default_rng(seed)
    violations = []
    ineq = loop_check_exp_inequalities(max_dim, ineq_trials, seed=seed)
    if not ineq.passed:
        violations.append(f"exponential inequalities: "
                          f"{ineq.violations} slack failures")
    worst_hom = 0.0
    for _ in range(pair_trials):
        n = int(rng.integers(1, max_dim + 1))
        u, v = loop_random_unitary(n, rng), loop_random_unitary(n, rng)
        gap = fresh_dlhs_delta(u @ v).distance_to(
            fresh_dlhs_delta(u).value + fresh_dlhs_delta(v).value)
        worst_hom = max(worst_hom, gap)
    if worst_hom > 1e-8:
        violations.append(f"winding additivity gap {worst_hom:.3e}")
    member_agree = 0
    for k in range(member_trials):
        n = int(rng.integers(1, max_dim + 1))
        u = loop_random_unitary(n, rng)
        if k % 2 == 0:
            u = u * (np.linalg.det(u) ** (-1.0 / n))
        member = loop_su_tau_member(u, tol=1e-8).member
        zero = fresh_dlhs_delta(u).is_zero(1e-8)
        member_agree += int(member == zero)
    if member_agree != member_trials:
        violations.append(f"membership/winding disagreement on "
                          f"{member_trials - member_agree} samples")
    eps = 0.9
    worst_sandwich = 0.0
    for _ in range(sandwich_trials):
        n = int(rng.integers(1, max_dim + 1))
        u, v = loop_ball_element(n, eps, rng), loop_ball_element(n, eps, rng)
        logs = operator_norm(_schur_principal_log(u)
                             - _schur_principal_log(v))
        diff = operator_norm(u - v)
        dist = loop_d_tau(u, v).value
        slacks = (diff - (1 - eps) * logs, dist - diff,
                  np.pi / 2 * diff - dist,
                  np.pi / 2 * logs - np.pi / 2 * diff)
        worst_sandwich = max(worst_sandwich, -min(slacks))
    if worst_sandwich > 1e-9:
        violations.append(f"metric sandwich slack -{worst_sandwich:.3e}")
    worst_conj = 0.0
    for _ in range(conj_trials):
        n = int(rng.integers(1, max_dim + 1))
        u, w = loop_random_unitary(n, rng), loop_random_unitary(n, rng)
        u = u * complex(np.linalg.det(u)) ** (-1.0 / n)
        worst_conj = max(worst_conj, abs(
            loop_el_tau(w @ u @ w.conj().T).value - loop_el_tau(u).value))
    if worst_conj > 1e-9:
        violations.append(f"length conjugation drift {worst_conj:.3e}")
    return {
        "max_dim": max_dim,
        "inequalities": {"trials": ineq.trials,
                         "min_upper_slack": ineq.min_upper_slack,
                         "min_lower_slack": ineq.min_lower_slack,
                         "violations": ineq.violations},
        "winding_additivity": {"trials": pair_trials,
                               "worst_gap": worst_hom},
        "membership": {"trials": member_trials, "agreements": member_agree},
        "metric_sandwich": {"trials": sandwich_trials, "ball_radius": eps,
                            "worst_slack_deficit": worst_sandwich},
        "conjugation_invariance": {"trials": conj_trials,
                                   "worst_drift": worst_conj},
        "violations": violations,
    }


class LoopPath(UnitaryPath):
    """A sampled path that takes each segment's logarithm on its own."""

    @cached_property
    def logs(self):
        logs = []
        for k in range(len(self.ts) - 1):
            a, b = self.mats[k], self.mats[k + 1]
            step = operator_norm(b - a)
            if step >= 1:
                raise ValueError(
                    f"samples at t={self.ts[k]:g} and t={self.ts[k + 1]:g} "
                    f"are {step:.3f} apart (>= 1); the winding is "
                    "untrackable, refine the sampling")
            logs.append(_schur_principal_log(a.conj().T @ b))
        logs = np.array(logs)
        logs.flags.writeable = False
        return logs


def loop_unitary_path(ts, mats, tol=1e-10):
    ts = tuple(float(t) for t in ts)
    mats = tuple(as_unitary(m, tol) for m in mats)
    if len(ts) != len(mats) or len(ts) < 2:
        raise ValueError("need matching ts/mats with at least two samples")
    if ts[0] != 0.0 or ts[-1] != 1.0 or any(
            a >= b for a, b in zip(ts, ts[1:])):
        raise ValueError("times must ascend strictly from 0 to 1")
    if any(m.shape != mats[0].shape for m in mats):
        raise ValueError("all samples must share one dimension")
    if operator_norm(mats[0] - np.eye(mats[0].shape[0])) > max(tol, 1e-9):
        raise ValueError("the path must start at the identity")
    path = LoopPath(ts, mats)
    path.logs
    return path


def path_at(path: UnitaryPath, t: float) -> np.ndarray:
    """The geodesic interpolation of a path at time t."""
    if not path.ts[0] <= t <= path.ts[-1]:
        raise ValueError("time outside the sampled range")
    k = min(bisect_right(path.ts, t) - 1, len(path.ts) - 2)
    s = (t - path.ts[k]) / (path.ts[k + 1] - path.ts[k])
    return path.mats[k] @ exp_selfadjoint(s * path.segment_log(k))


def pointwise_product_path(p1, p2):
    """Sample the pointwise product at the union of the two time grids."""
    if p1.n != p2.n:
        raise ValueError("paths must share one dimension")
    ts = sorted(set(p1.ts) | set(p2.ts))
    return unitary_path(ts, tuple(path_at(p1, t) @ path_at(p2, t) for t in ts))


def loop_random_based_path(n, segments, rng, max_step=0.9):
    mats = [np.eye(n, dtype=complex)]
    for _ in range(segments):
        mats.append(mats[-1] @ exp_selfadjoint(
            loop_random_selfadjoint(n, rng, bound=max_step)))
    return loop_unitary_path(np.linspace(0.0, 1.0, segments + 1), mats)


def loop_refine_path(path, factor=2):
    if factor < 2:
        return path
    ts, mats = [path.ts[0]], [path.mats[0]]
    for k in range(len(path.ts) - 1):
        log = path.segment_log(k)
        for j in range(1, factor):
            s = j / factor
            ts.append(path.ts[k] * (1 - s) + path.ts[k + 1] * s)
            mats.append(path.mats[k] @ exp_selfadjoint(s * log))
        ts.append(path.ts[k + 1])
        mats.append(path.mats[k + 1])
    return LoopPath(tuple(ts), tuple(mats))


def loop_decompose_path(path, tol=1e-9):
    n = path.n
    lift = 0.0
    hs = [0.0]
    for k in range(len(path.ts) - 1):
        lift += float(np.trace(path.segment_log(k)).real)
        hs.append(lift / (2 * pi * n))
    gs = tuple(np.exp(-2j * pi * hk) * mk
               for hk, mk in zip(hs, path.mats))
    det_err = max(abs(complex(np.linalg.det(g)) - 1.0) for g in gs)
    recon = max(operator_norm(np.exp(2j * pi * hk) * gk - mk)
                for hk, gk, mk in zip(hs, gs, path.mats))
    if det_err > tol or recon > tol:
        raise RuntimeError("decomposition residuals exceed tol")
    return PathDecomposition(path.ts, tuple(hs), gs, recon, det_err)


def loop_decompose_random(seed, paths, max_dim=4, min_segments=3,
                          max_segments=8, factor=3, tol=1e-9):
    """The random decompose result, one path and one segment at a time."""
    rng = np.random.default_rng(seed)
    worst_recon = worst_det = worst_stab = 0.0
    for _ in range(paths):
        n = int(rng.integers(1, max_dim + 1))
        path = loop_random_based_path(
            n, int(rng.integers(min_segments, max_segments + 1)), rng)
        dec = loop_decompose_path(path, tol=tol)
        refined = loop_decompose_path(loop_refine_path(path, factor), tol=tol)
        worst_recon = max(worst_recon, dec.max_reconstruction_error)
        worst_det = max(worst_det, dec.max_det_error)
        worst_stab = max(worst_stab, max(
            abs(refined.h[k * factor] - dec.h[k])
            for k in range(len(dec.h))))
    return {"paths": paths, "max_dim": max_dim,
            "worst_reconstruction_error": worst_recon,
            "worst_det_error": worst_det,
            "worst_refinement_stability": worst_stab}


# ---------------------------------------------------------------------------
# groups, crossed modules and 1-cocycles: fixtures and the witness search
# ---------------------------------------------------------------------------

def op(g: FiniteGroup, a: int, b: int) -> int:
    """The product a b in g."""
    return g.mul[a][b]


def exponent(g: FiniteGroup) -> int:
    """The least common multiple of the element orders."""
    return lcm(*(g.element_order(a) for a in g.elements()))


def is_abelian(g: FiniteGroup) -> bool:
    return all(g.mul[a][b] == g.mul[b][a]
               for a in g.elements() for b in g.elements())


def cochain_to_cocycle(shift: AbelianShift, group: FiniteGroup,
                       z: Cochain) -> Cocycle1:
    """The (H -> 1) cocycle whose u-table is the 2-cochain z read through
    the shift's basis of H: the inverse of ``cocycle_to_cochain``."""
    u = tuple(shift.basis.element_of(evaluate(group, z, (g, h)))
              for g in group.elements() for h in group.elements())
    return Cocycle1((0,) * group.order, u)


def relabel_group(g: FiniteGroup, perm: list[int],
                  label: str | None = None) -> FiniteGroup:
    """The same group with element a renamed to perm[a]."""
    n = g.order
    mul = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            mul[perm[a]][perm[b]] = perm[g.mul[a][b]]
    return FiniteGroup(tuple(tuple(r) for r in mul),
                       label if label is not None else g.label)


def xmod_abelian(hgroup: FiniteGroup, label: str = "") -> CrossedModule:
    """(H -> 1) for abelian H: trivial boundary and target."""
    one = trivial_group()
    return CrossedModule(hgroup, one, (0,) * hgroup.order,
                         (tuple(hgroup.elements()),),
                         label or f"({hgroup.label}->1)")


def xmod_identity(g: FiniteGroup, label: str = "") -> CrossedModule:
    """(G -> G, identity boundary, conjugation action)."""
    action = tuple(tuple(g.conj(a, x) for x in g.elements())
                   for a in g.elements())
    return CrossedModule(g, g, tuple(g.elements()), action,
                         label or f"({g.label}->id)")


def are_cohomologous(group: FiniteGroup, x: CrossedModule,
                     a: Cocycle1, b: Cocycle1, strict: bool = False,
                     budget: int = 100_000_000) -> Witness1 | None:
    """A transforming witness from a to b, or None.

    The search is ordered (gamma ascending, then w lexicographically), so the
    returned witness is deterministic.
    """
    count = x.ggroup.order * x.hgroup.order ** (group.order - 1)
    if count > budget:
        raise ResourceLimit("witness search space", count, budget)
    target = b.key()
    for gamma, w in _witness_iter(group, x, strict):
        if transform_cocycle(group, x, a, gamma, w).key() == target:
            return Witness1(gamma, w)
    return None


# ---------------------------------------------------------------------------
# simplicial identities and the exhaustive homotopy search
# ---------------------------------------------------------------------------

def simplicial_violations(s: TruncatedSimplicialSet) -> list[str]:
    """All simplicial-identity failures checkable within the truncation,
    each identity compared on whole tables and reported in (identity,
    level, (i, j), simplex) order."""
    face = {k: [_ints(t) for t in ts] for k, ts in s.face.items()}
    degen = {k: [_ints(t) for t in ts] for k, ts in s.degen.items()}
    bad: list[str] = []

    def report(kind, k, i, j, fails):
        bad.extend(f"{kind} identity fails at level {k}, (i,j)=({i},{j}), "
                   f"simplex {idx}" for idx in np.flatnonzero(fails).tolist())

    for k in range(2, s.N + 1):
        for j in range(1, k + 1):
            for i in range(j):
                report("d_i d_j", k, i, j, face[k - 1][i][face[k][j]]
                       != face[k - 1][j - 1][face[k][i]])
    for k in range(s.N - 1):
        for i in range(k + 1):
            for j in range(i, k + 1):
                report("s_i s_j", k, i, j, degen[k + 1][i][degen[k][j]]
                       != degen[k + 1][j + 1][degen[k][i]])
    # at k = 0 only i = j, j + 1 occur, so the lower maps below exist
    for k in range(s.N):
        for j in range(k + 1):
            for i in range(k + 2):
                got = face[k + 1][i][degen[k][j]]
                if i == j or i == j + 1:
                    report("d_i s_j = id", k, i, j,
                           got != np.arange(s.count(k)))
                elif i < j:
                    report("d_i s_j = s_{j-1} d_i", k, i, j,
                           got != degen[k - 1][j - 1][face[k][i]])
                else:
                    report("d_i s_j = s_j d_{i-1}", k, i, j,
                           got != degen[k - 1][j][face[k][i - 1]])
    return bad


def find_simplicial_homotopy(f: SimplicialMap, g: SimplicialMap,
                             budget: int = 10 ** 7
                             ) -> SimplicialHomotopy | None:
    """Search all prism fillings from f to g; None if none exists.

    The levels are filled in ascending order.  Faces of a level-k cell live at
    level k-1 and are already assigned, so each cell's candidate set is
    computed independently; degeneracy images are forced outright.  The
    search branches only over nondegenerate interior cells.
    """
    if f.source is not g.source and f.source.counts() != g.source.counts():
        raise ValueError("maps must share their source")
    if f.target is not g.target and f.target.counts() != g.target.counts():
        raise ValueError("maps must share their target")
    src, tgt = f.source, f.target
    cyl = prism(src)
    assign: list[list[int | None]] = [
        [None] * cyl.count(k) for k in range(cyl.N + 1)]
    for k in range(src.N + 1):
        for idx in range(src.count(k)):
            assign[k][prism_end(cyl, k, idx, True)] = f.layers[k][idx]
            assign[k][prism_end(cyl, k, idx, False)] = g.layers[k][idx]

    tries = 0

    def fill(k: int) -> bool:
        nonlocal tries
        if k > cyl.N:
            return True
        forced: dict[int, int] = {}
        if k >= 1:
            for i in range(k):
                for low, high in enumerate(cyl.degen[k - 1][i]):
                    if assign[k - 1][low] is None:
                        continue
                    want = tgt.degen[k - 1][i][assign[k - 1][low]]
                    if forced.setdefault(high, want) != want:
                        return False
        free: list[int] = []
        options: list[list[int]] = []
        saved = list(assign[k])
        for pos in range(cyl.count(k)):
            fixed = assign[k][pos]
            want = forced.get(pos)
            if fixed is None and want is not None:
                assign[k][pos] = fixed = want
            elif fixed is not None and want is not None and want != fixed:
                assign[k] = saved
                return False
            if fixed is not None:
                if not _faces_ok(cyl, tgt, assign, k, pos, fixed):
                    assign[k] = saved
                    return False
                continue
            cands = [v for v in range(tgt.count(k))
                     if _faces_ok(cyl, tgt, assign, k, pos, v)]
            if not cands:
                assign[k] = saved
                return False
            free.append(pos)
            options.append(cands)
        total = 1
        for c in options:
            total *= len(c)
            if total > budget:
                raise ResourceLimit(f"homotopy search at level {k}",
                                    total, budget)
        for combo in product(*options):
            tries += 1
            if tries > budget:
                raise ResourceLimit("homotopy search candidates",
                                    tries, budget)
            for pos, v in zip(free, combo):
                assign[k][pos] = v
            if fill(k + 1):
                return True
        assign[k] = saved
        return False

    if not fill(1 if cyl.N >= 1 else 0):
        return None
    layers = [[v for v in level] for level in assign]
    hom = SimplicialHomotopy(f, g, cyl, layers)
    bad = homotopy_violations(hom)
    if bad:
        raise InvariantError("search produced invalid data: " + bad[0])
    return hom


def _faces_ok(cyl, tgt, assign, k: int, pos: int, val: int) -> bool:
    if k == 0:
        return True
    for i in range(k + 1):
        low = assign[k - 1][cyl.face[k][i][pos]]
        if low is not None and tgt.face[k][i][val] != low:
            return False
    return True


# ---------------------------------------------------------------------------
# obstructions moved along G
# ---------------------------------------------------------------------------

def conj_action(ext: CentralXModExtension, group: FiniteGroup, gamma: int,
                c: Cocycle1, o: ObstructionClass | None = None
                ) -> tuple[Cocycle1, ObstructionClass]:
    """Transport a cocycle and its obstruction class along gamma in G.

    The transported cocycle is (gamma alpha gamma^-1, gamma.u); the
    obstruction cocycle transports valuewise by the action of gamma on the
    kernel, classified in the transported module.
    """
    x1 = ext.xmod1()
    w_triv = (x1.hgroup.identity,) * group.order
    c2 = transform_cocycle(group, x1, c, gamma, w_triv)
    if o is None:
        o = theta(ext, group, c)
    ind2 = induced_module(ext, group, c2)
    h3_2 = _h_cached(group, ind2.module, 3)

    def moved_value(*args):
        k_elem = o.induced.from_vector(evaluate(group, o.cocycle, args))
        return ind2.to_vector(ext.action0[gamma][k_elem])

    moved = cochain_from_function(group, ind2.module, 3, moved_value)
    coords = h3_2.classify(moved)
    return c2, ObstructionClass(ind2, h3_2, moved, coords)


@dataclass
class ConjugacySum:
    """H^1 of the quotient, bucketed by induced kernel-module structure."""

    labels: tuple            # distinct module labels (action-matrix tuples)
    classes_by_label: tuple  # tuple of class-index tuples, parallel to labels
    orbits: tuple            # tuples of label indices identified by G


def sum_over_conjugacy(ext: CentralXModExtension, group: FiniteGroup,
                       strict: bool = False,
                       budget: int = 100_000_000) -> ConjugacySum:
    """Bucket H^1 classes of the quotient by their induced module structure.

    Module structures are treated as equal only when their action tables are
    equal; the G-orbit identifications among the labels are reported
    alongside.
    """
    h1 = compute_H1(group, ext.xmod1(), strict=strict, budget=budget)
    labels: list = []
    label_index: dict = {}
    buckets: dict[int, list[int]] = {}
    for i, cls in enumerate(h1.classes):
        ind = induced_module(ext, group, cls.representative)
        key = ind.module.action
        if key not in label_index:
            label_index[key] = len(labels)
            labels.append(key)
            buckets[label_index[key]] = []
        buckets[label_index[key]].append(i)
    # G-orbits on labels: gamma moves the cocycle, hence the module
    parent = list(range(len(labels)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    x1 = ext.xmod1()
    w_triv = (x1.hgroup.identity,) * group.order
    for i, cls in enumerate(h1.classes):
        key0 = label_index[induced_module(
            ext, group, cls.representative).module.action]
        for gamma in ext.ggroup.elements():
            moved = transform_cocycle(group, x1, cls.representative,
                                      gamma, w_triv)
            key1 = label_index.get(
                induced_module(ext, group, moved).module.action)
            if key1 is None:
                continue
            a, b = find(key0), find(key1)
            if a != b:
                parent[max(a, b)] = min(a, b)
    orbit_map: dict[int, list[int]] = {}
    for i in range(len(labels)):
        orbit_map.setdefault(find(i), []).append(i)
    orbits = tuple(tuple(v) for _, v in sorted(orbit_map.items()))
    return ConjugacySum(tuple(labels),
                        tuple(tuple(buckets[i]) for i in range(len(labels))),
                        orbits)


# ---------------------------------------------------------------------------
# one-matrix unitary helpers
# ---------------------------------------------------------------------------

def as_selfadjoint(entries, tol: float = DEFAULT_UNITARITY_TOL) -> np.ndarray:
    """The self-adjoint part of a square matrix, refused when its defect
    exceeds ``tol``; an infinite ``tol`` takes no norm."""
    h = np.asarray(entries, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("expected a square matrix")
    if tol == np.inf:
        return (h + h.conj().T) / 2
    defect = operator_norm(h - h.conj().T)
    if defect > tol:
        raise ValueError(f"matrix is not self-adjoint within {tol:g} "
                         f"(defect {defect:.3e})")
    return (h + h.conj().T) / 2


def random_selfadjoint(n: int, rng: np.random.Generator,
                       bound: float = 1.0) -> np.ndarray:
    """The self-adjoint part of a complex Gaussian matrix, scaled to a
    uniformly drawn fraction of ``bound`` in norm (zero stays zero)."""
    return _selfadjoint_stack([_gaussian_draw(n, rng)], bound)[0]


def ball_element(n: int, eps: float, rng: np.random.Generator) -> np.ndarray:
    """A point of the trace-zero exponential ball of radius eps."""
    return ball_elements(n, eps, [ball_draw(n, rng)])[0]
