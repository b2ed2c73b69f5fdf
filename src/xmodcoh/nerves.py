"""Nerves of finite groups and finite strict 2-groups.

Three constructions land in :class:`~xmodcoh.simplicial.TruncatedSimplicialSet`:

* ``ordinary_nerve`` — composable chains of group elements (the bar model);
* ``duskin_nerve`` — simplices are strictly unital pseudofunctor data
  (edge labels in G, triangle labels in H) subject to the triangle and
  tetrahedron relations, with structure maps given by letting monotone index
  maps act on the labels;
* ``monoidal_diag_nerve`` — the diagonal of the bisimplicial set whose
  (m, n) cells are m-chains of natural transformations between strict
  functors [n] -> (the one-object 2-group), i.e. n-tuples of m-chains in the
  action groupoid, multiplied horizontally with the action twist.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb

from .crossed import CrossedModule
from .errors import InvariantError, ResourceLimit
from .groups import FiniteGroup
from .simplicial import TruncatedSimplicialSet, build_truncated

_DIM_CAP = 10 ** 7


@lru_cache(maxsize=None)
def pair_positions(n: int) -> dict[tuple[int, int], int]:
    """Lexicographic positions of pairs i<j inside 0..n."""
    return {p: i for i, p in enumerate(combinations(range(n + 1), 2))}


@lru_cache(maxsize=None)
def triple_positions(n: int) -> dict[tuple[int, int, int], int]:
    """Lexicographic positions of triples i<j<k inside 0..n."""
    return {t: i for i, t in enumerate(combinations(range(n + 1), 3))}


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
        lhs = g.op(s.alpha_at(x, i, j), s.alpha_at(x, j, k))
        rhs = g.op(x.boundary[s.u_at(x, i, j, k)], s.alpha_at(x, i, k))
        if lhs != rhs:
            bad.append(f"triangle relation fails at ({i},{j},{k})")
    for i, j, k, l in combinations(range(s.n + 1), 4):
        lhs = h.op(x.act(s.alpha_at(x, i, j), s.u_at(x, j, k, l)),
                   s.u_at(x, i, j, l))
        rhs = h.op(s.u_at(x, i, j, k), s.u_at(x, i, k, l))
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
        rhs = g.op(x.boundary[nt.w_at(x, i, j)], nt.source.alpha_at(x, i, j))
        if lhs != rhs:
            bad.append(f"edge identity fails at ({i},{j})")
    for i, j, k in combinations(range(n + 1), 3):
        lhs = h.op(nt.w_at(x, i, j),
                   h.op(x.act(nt.source.alpha_at(x, i, j), nt.w_at(x, j, k)),
                        nt.source.u_at(x, i, j, k)))
        rhs = h.op(nt.target.u_at(x, i, j, k), nt.w_at(x, i, k))
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
    alpha = tuple(g.op(x.boundary[w[pp[(i, j)]]], s.alpha_at(x, i, j))
                  for i, j in combinations(range(n + 1), 2))
    u = []
    for i, j, k in combinations(range(n + 1), 3):
        val = h.op(w[pp[(i, j)]],
                   h.op(x.act(s.alpha_at(x, i, j), w[pp[(j, k)]]),
                        h.op(s.u_at(x, i, j, k), h.inv[w[pp[(i, k)]]])))
        u.append(val)
    target = PseudofunctorSimplex(n, alpha, tuple(u))
    bad = pseudofunctor_violations(x, target)
    if bad:
        raise InvariantError("transport left the simplex space: " + bad[0])
    return NatTransform(s, target, w)


@lru_cache(maxsize=None)
def pullback_positions(n: int, theta: tuple[int, ...],
                       arity: int) -> tuple[int, ...]:
    """Where each slot of a table pulled back along theta is read from.

    ``theta`` is a monotone map [m] -> [n] given by its value tuple and the
    table is indexed by the ``arity``-subsets of 0..n (pairs or triples) in
    lexicographic order.  For each subset of 0..m, in the same order, the
    result holds the position of its image under theta, or -1 where two
    adjacent indices meet there (an identity label, by strict unitality).
    """
    positions = pair_positions(n) if arity == 2 else triple_positions(n)
    return tuple(
        -1 if any(a == b for a, b in zip(image, image[1:]))
        else positions[image]
        for image in combinations(theta, arity))


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


def delta_map(k: int, i: int) -> tuple[int, ...]:
    """The injection [k-1] -> [k] skipping i."""
    return tuple(j for j in range(k + 1) if j != i)


def sigma_map(k: int, i: int) -> tuple[int, ...]:
    """The surjection [k+1] -> [k] repeating i."""
    return tuple(range(i + 1)) + tuple(range(i, k + 1))


def _enumerate_duskin_level(x: CrossedModule, k: int) -> list:
    """All valid k-simplices, lexicographic in (edge chain, u table)."""
    g, h = x.ggroup, x.hgroup
    if k == 0:
        return [PseudofunctorSimplex(0, (), ())]
    pair_pos = pair_positions(k)
    triples = list(combinations(range(k + 1), 3))
    triple_pos = {t: i for i, t in enumerate(triples)}
    # Triangle relations at (i, j-1, j) determine alpha_{ij} from the edge
    # chain and the u table; the remaining triangles and all tetrahedra are
    # then pure constraints.
    check_triples = [t for t in triples if t[2] - t[1] > 1]
    quads = list(combinations(range(k + 1), 4))
    out = []
    for chain in product(g.elements(), repeat=k):
        for utab in product(h.elements(), repeat=len(triples)):
            alpha = [0] * len(pair_pos)
            for i in range(k):
                alpha[pair_pos[(i, i + 1)]] = chain[i]
            for span in range(2, k + 1):
                for i in range(k + 1 - span):
                    j = i + span
                    du = x.boundary[utab[triple_pos[(i, j - 1, j)]]]
                    alpha[pair_pos[(i, j)]] = g.op(
                        g.inv[du],
                        g.op(alpha[pair_pos[(i, j - 1)]], chain[j - 1]))
            ok = True
            for i, j, kk in check_triples:
                a_ij = alpha[pair_pos[(i, j)]]
                a_jk = alpha[pair_pos[(j, kk)]]
                a_ik = alpha[pair_pos[(i, kk)]]
                if g.op(a_ij, a_jk) != g.op(
                        x.boundary[utab[triple_pos[(i, j, kk)]]], a_ik):
                    ok = False
                    break
            if ok:
                for i, j, kk, l in quads:
                    lhs = h.op(x.act(alpha[pair_pos[(i, j)]],
                                     utab[triple_pos[(j, kk, l)]]),
                               utab[triple_pos[(i, j, l)]])
                    rhs = h.op(utab[triple_pos[(i, j, kk)]],
                               utab[triple_pos[(i, kk, l)]])
                    if lhs != rhs:
                        ok = False
                        break
            if ok:
                out.append(PseudofunctorSimplex(k, tuple(alpha), utab))
    return out


def duskin_nerve(x: CrossedModule, n_trunc: int,
                 budget: int = _DIM_CAP) -> TruncatedSimplicialSet:
    """The Duskin nerve of the 2-group of ``x``, truncated at ``n_trunc``.

    Each level is enumerated from free data (the edge chain plus the full
    u table) with the derived edges filled in by the triangle relations, so
    the guard bounds |G|^k * |H|^C(k+1,3) per dimension rather than the full
    label space.
    """
    g, h = x.ggroup, x.hgroup
    for k in range(n_trunc + 1):
        est = g.order ** k * h.order ** comb(k + 1, 3)
        if est > budget:
            raise ResourceLimit(f"duskin level {k} enumeration", est, budget)
    levels = [_enumerate_duskin_level(x, k) for k in range(n_trunc + 1)]
    return build_truncated(
        n_trunc, levels,
        lambda k, i, s: reindex(x, s, delta_map(k, i)),
        lambda k, i, s: reindex(x, s, sigma_map(k, i)),
        label=f"duskin({x.label})" if x.label else "duskin")


# ---------------------------------------------------------------------------
# ordinary nerve
# ---------------------------------------------------------------------------

def ordinary_nerve(group: FiniteGroup, n_trunc: int,
                   budget: int = _DIM_CAP) -> TruncatedSimplicialSet:
    """Chains (g_1, ..., g_k) with bar-style faces and unit insertions."""
    if group.order ** n_trunc > budget:
        raise ResourceLimit(f"nerve level {n_trunc}",
                            group.order ** n_trunc, budget)
    levels = [[tuple(c) for c in product(group.elements(), repeat=k)]
              for k in range(n_trunc + 1)]

    def face(k, i, chain):
        if i == 0:
            return chain[1:]
        if i == k:
            return chain[:-1]
        return (chain[:i - 1] + (group.op(chain[i - 1], chain[i]),)
                + chain[i + 1:])

    def degen(k, i, chain):
        return chain[:i] + (group.identity,) + chain[i:]

    return build_truncated(
        n_trunc, levels, face, degen,
        label=f"nerve({group.label})" if group.label else "nerve")


# ---------------------------------------------------------------------------
# diagonal of the monoidal double nerve
# ---------------------------------------------------------------------------

def _column_merge(x: CrossedModule, c1, c2):
    """Monoidal product of two parallel vertical chains (action twist)."""
    g, h = x.ggroup, x.hgroup
    y1, us1 = c1
    y2, us2 = c2
    run = y1
    out = []
    for u1, u2 in zip(us1, us2):
        out.append(h.op(u1, x.act(run, u2)))
        run = g.op(x.boundary[u1], run)
    return (g.op(y1, y2), tuple(out))


def _v_face(x: CrossedModule, r: int, col):
    y0, us = col
    if r == 0:
        return (x.ggroup.op(x.boundary[us[0]], y0), us[1:])
    if r == len(us):
        return (y0, us[:-1])
    merged = x.hgroup.op(us[r], us[r - 1])
    return (y0, us[:r - 1] + (merged,) + us[r + 1:])


def _v_degen(x: CrossedModule, r: int, col):
    y0, us = col
    return (y0, us[:r] + (x.hgroup.identity,) + us[r:])


def monoidal_diag_nerve(x: CrossedModule, n_trunc: int,
                        budget: int = _DIM_CAP) -> TruncatedSimplicialSet:
    """Diagonal of the double nerve of the monoidal 2-group of ``x``.

    A k-simplex is a k-tuple of columns; a column is (object, k arrow
    labels) in the action groupoid (arrows u: y -> boundary(u) * y).  The
    i-th diagonal face applies the horizontal face (drop or tensor-merge a
    column) followed by the vertical face (drop or compose a level) in every
    remaining column; degeneracies insert a trivial column and an identity
    level.
    """
    g, h = x.ggroup, x.hgroup
    for k in range(n_trunc + 1):
        est = (g.order * h.order ** k) ** k
        if est > budget:
            raise ResourceLimit(f"diagonal level {k}", est, budget)

    def level(k):
        cols = [(y0, tuple(us)) for y0 in g.elements()
                for us in product(h.elements(), repeat=k)]
        return [tuple(c) for c in product(cols, repeat=k)]

    levels = [level(k) for k in range(n_trunc + 1)]

    def face(k, i, cols):
        if i == 0:
            kept = cols[1:]
        elif i == k:
            kept = cols[:-1]
        else:
            kept = (cols[:i - 1] + (_column_merge(x, cols[i - 1], cols[i]),)
                    + cols[i + 1:])
        return tuple(_v_face(x, i, c) for c in kept)

    def degen(k, i, cols):
        trivial = (g.identity, (h.identity,) * k)
        widened = cols[:i] + (trivial,) + cols[i:]
        return tuple(_v_degen(x, i, c) for c in widened)

    return build_truncated(
        n_trunc, levels, face, degen,
        label=f"diag({x.label})" if x.label else "diag")


# ---------------------------------------------------------------------------
# comparison maps
# ---------------------------------------------------------------------------

@dataclass
class SimplicialMap:
    """Level-wise index maps commuting with faces and degeneracies."""

    source: TruncatedSimplicialSet
    target: TruncatedSimplicialSet
    layers: list[list[int]]

    def apply(self, k: int, idx: int) -> int:
        return self.layers[k][idx]


def simplicial_map_violations(f: SimplicialMap) -> list[str]:
    """Exhaustive face/degeneracy compatibility check within the truncation."""
    a, b = f.source, f.target
    bad = []
    if a.N != b.N:
        bad.append("source and target truncations differ")
        return bad
    for k in range(a.N + 1):
        if len(f.layers[k]) != a.count(k):
            bad.append(f"layer {k} has wrong length")
            return bad
    for k in range(1, a.N + 1):
        for i in range(k + 1):
            for idx in range(a.count(k)):
                if f.layers[k - 1][a.face[k][i][idx]] != \
                        b.face[k][i][f.layers[k][idx]]:
                    bad.append(f"face square fails at level {k}, d_{i}, "
                               f"simplex {idx}")
    for k in range(a.N):
        for i in range(k + 1):
            for idx in range(a.count(k)):
                if f.layers[k + 1][a.degen[k][i][idx]] != \
                        b.degen[k][i][f.layers[k][idx]]:
                    bad.append(f"degeneracy square fails at level {k}, "
                               f"s_{i}, simplex {idx}")
    return bad


def isomorphism_violations(f: SimplicialMap) -> list[str]:
    """Simplicial-map check plus level-wise bijectivity."""
    bad = simplicial_map_violations(f)
    if bad:
        return bad
    for k in range(f.source.N + 1):
        if f.source.count(k) != f.target.count(k):
            bad.append(f"level {k} sizes differ")
        elif len(set(f.layers[k])) != f.source.count(k):
            bad.append(f"level {k} map is not injective")
    return bad


def duskin_to_ordinary(x: CrossedModule, dusk: TruncatedSimplicialSet,
                       ordn: TruncatedSimplicialSet) -> SimplicialMap:
    """Project Duskin simplices of (1 -> G) to their edge chains.

    For a trivial H this is the isomorphism identifying the Duskin nerve
    with the ordinary nerve; validity is the caller's check via
    ``isomorphism_violations``.
    """
    layers = []
    for k in range(dusk.N + 1):
        table = []
        for s in dusk.simplices[k]:
            chain = tuple(s.alpha_at(x, i, i + 1) for i in range(k))
            table.append(ordn.index_of(k, chain))
        layers.append(table)
    return SimplicialMap(dusk, ordn, layers)


def diag_to_ordinary(x: CrossedModule, diag: TruncatedSimplicialSet,
                     ordn: TruncatedSimplicialSet) -> SimplicialMap:
    """Project diagonal simplices of (1 -> G) to their object chains."""
    layers = []
    for k in range(diag.N + 1):
        table = []
        for cols in diag.simplices[k]:
            chain = tuple(c[0] for c in cols)
            table.append(ordn.index_of(k, chain))
        layers.append(table)
    return SimplicialMap(diag, ordn, layers)
