"""Classifying maps from 1-cocycles and simplicial homotopies between them.

A normalized 1-cocycle (alpha, u) valued in a crossed module induces a
simplicial map from the nerve of the group to the Duskin nerve: edge labels
are alpha of interval products, triangle labels are u of the adjacent
products.  A coboundary witness with trivial twist turns into explicit
homotopy data on the prism (nerve x Delta^1); witnesses with a nontrivial
twist factor through the conjugation automorphism of the crossed module,
by either of two routes that are checked to agree cell by cell.

Each builder works a level at a time on label rows (the nerve's chains,
the prism's cells (idx, t), the Duskin labels): the labels a level maps to
are gathered from the cocycle tables and found in the target by one
``nerves.duskin_positions`` call.  Layers are lists of Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .crossed import (Cocycle1, CrossedModule, Witness1, cocycle_violations,
                      transform_cocycle)
from .groups import FiniteGroup
from .nerves import (SimplicialMap, duskin_nerve, duskin_positions,
                     ordinary_nerve, simplicial_map_violations)
from .simplicial import TruncatedSimplicialSet, _ints, prism, prism_end


def _layers(x: CrossedModule, target: TruncatedSimplicialSet, labels,
            what: str) -> list[list[int]]:
    """The target index of each level's labels (alpha, u)."""
    return [duskin_positions(x, k, target.rows[k], alpha, u,
                             f"{what} leaves the level-{k} simplex list"
                             ).tolist() for k, (alpha, u) in enumerate(labels)]


def cocycle_to_simplicial_map(group: FiniteGroup, x: CrossedModule,
                              c: Cocycle1, n_trunc: int = 3,
                              source: TruncatedSimplicialSet | None = None,
                              target: TruncatedSimplicialSet | None = None
                              ) -> SimplicialMap:
    """The classifying map nerve(group) -> duskin_nerve(x) of a 1-cocycle.

    A chain (g_1, ..., g_k) goes to the simplex with
    alpha_{ij} = alpha(g_{i+1} ... g_j) and
    u_{ijk} = u(g_{i+1} ... g_j, g_{j+1} ... g_k): the homotopy labels of
    :func:`_theta_simplex` at t = 0, where every vertex is at c's end.
    """
    bad = cocycle_violations(group, x, c)
    if bad:
        raise ValueError("not a normalized cocycle: " + bad[0])
    if source is None:
        source = ordinary_nerve(group, n_trunc)
    if target is None:
        target = duskin_nerve(x, n_trunc)
    ones = (x.hgroup.identity,) * group.order
    f = SimplicialMap(source, target, _layers(x, target, (
        _theta_simplex(group, x, c, c, ones, chains, 0)
        for chains in source.rows), "the classifying map"))
    bad = simplicial_map_violations(f)
    if bad:
        raise RuntimeError("cocycle data is not simplicial: " + bad[0])
    return f


# ---------------------------------------------------------------------------
# homotopies on the prism
# ---------------------------------------------------------------------------

@dataclass
class SimplicialHomotopy:
    """Levelwise data on source x Delta^1 connecting two simplicial maps.

    The time-0 end restricts to ``start``, the time-1 end to ``end``.
    """

    start: SimplicialMap
    end: SimplicialMap
    cylinder: TruncatedSimplicialSet
    layers: list[list[int]]

    def as_map(self) -> SimplicialMap:
        return SimplicialMap(self.cylinder, self.start.target, self.layers)


def homotopy_violations(h: SimplicialHomotopy) -> list[str]:
    """Simplicial-map check on the cylinder plus both end restrictions,
    compared on whole layers and reported per base simplex, time 0 first."""
    if h.start.target is not h.end.target and \
            h.start.target.counts() != h.end.target.counts():
        return ["the two maps have different targets"]
    bad = simplicial_map_violations(h.as_map())
    for k in range(h.start.source.N + 1):
        idx = np.arange(h.start.source.count(k))
        layer = _ints(h.layers[k])
        fails = [layer[prism_end(h.cylinder, k, idx, zero_end)]
                 != _ints(f.layers[k]) for zero_end, f in ((True, h.start),
                                                           (False, h.end))]
        for i in np.flatnonzero(fails[0] | fails[1]).tolist():
            bad += [f"time-{t} end differs at level {k}, simplex {i}"
                    for t in (0, 1) if fails[t][i]]
    return bad


def _theta_simplex(group: FiniteGroup, x: CrossedModule, a: Cocycle1,
                   b: Cocycle1, w, chains: np.ndarray, t
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The homotopy labels (alpha, u) on the cells (chain, t), one row per
    row of ``chains``: vertices below t sit at time 0 (a's end), the rest
    at time 1 (b's end), and a triangle that crosses between its first two
    vertices carries the witness w.  ``t`` is an array or one int."""
    n, k = group.order, chains.shape[1]
    gmul, hmul, act = (_ints(v) for v in (group.mul, x.hgroup.mul, x.action))
    aa, au, ba, bu, w = (_ints(v) for v in (a.alpha, a.u, b.alpha, b.u, w))
    prods = {}  # (i, j): the interval product g_{i+1} ... g_j
    for i in range(k):
        prods[(i, i + 1)] = chains[:, i]
        for j in range(i + 2, k + 1):
            prods[(i, j)] = gmul[prods[(i, j - 1)], chains[:, j - 1]]
    alpha = np.empty((len(chains), len(prods)), dtype=np.int64)
    for c, (i, j) in enumerate(combinations(range(k + 1), 2)):
        p = prods[(i, j)]
        alpha[:, c] = np.where(i >= t, ba[p], aa[p])
    triples = list(combinations(range(k + 1), 3))
    u = np.empty((len(chains), len(triples)), dtype=np.int64)
    for c, (i, j, kk) in enumerate(triples):
        p, q = prods[(i, j)], prods[(j, kk)]
        pq = p * n + q
        u[:, c] = np.where(i >= t, bu[pq], np.where(
            j >= t, hmul[act[aa[p], w[q]], au[pq]], au[pq]))
    return alpha, u


def coboundary_to_homotopy(group: FiniteGroup, x: CrossedModule,
                           a: Cocycle1, b: Cocycle1, wit: Witness1,
                           n_trunc: int = 3,
                           source: TruncatedSimplicialSet | None = None,
                           target: TruncatedSimplicialSet | None = None
                           ) -> SimplicialHomotopy:
    """Homotopy between the classifying maps of two cohomologous cocycles.

    Requires a twist-free witness (gamma = identity); the witness is checked
    against the compositor identity before anything is built, and the
    resulting prism data is verified exhaustively within the truncation.
    """
    if wit.gamma != x.ggroup.identity:
        raise ValueError("witness has a nontrivial twist; factor it through "
                         "the conjugation automorphism first")
    _check_witness(group, x, a, b, wit)
    fa = cocycle_to_simplicial_map(group, x, a, n_trunc, source, target)
    fb = cocycle_to_simplicial_map(group, x, b, n_trunc,
                                   fa.source, fa.target)
    cyl = prism(fa.source)
    labels = (_theta_simplex(group, x, a, b, wit.w,
                             fa.source.rows[k][cells[:, 0]], cells[:, 1])
              for k, cells in enumerate(cyl.rows))
    hom = SimplicialHomotopy(fa, fb, cyl,
                             _layers(x, fa.target, labels, "the homotopy"))
    bad = homotopy_violations(hom)
    if bad:
        raise RuntimeError("homotopy data fails verification: " + bad[0])
    return hom


def _check_witness(group: FiniteGroup, x: CrossedModule, a: Cocycle1,
                   b: Cocycle1, wit: Witness1) -> None:
    """Reject witnesses whose transformation misses b, naming the failure."""
    got = transform_cocycle(group, x, a, wit.gamma, wit.w)
    n = group.order
    for g in group.elements():
        if got.alpha[g] != b.alpha[g]:
            raise ValueError(f"witness fails the edge identity at {g}")
    for g in group.elements():
        for hh in group.elements():
            if got.u[g * n + hh] != b.u[g * n + hh]:
                raise ValueError(
                    "witness fails the compositor associativity identity at "
                    f"({g}, {hh})")


# ---------------------------------------------------------------------------
# twisted witnesses: factor through the conjugation automorphism
# ---------------------------------------------------------------------------

def conjugation_nerve_map(x: CrossedModule, gamma: int,
                          dusk: TruncatedSimplicialSet) -> SimplicialMap:
    """Automorphism of the Duskin nerve induced by conjugation by gamma:
    alpha labels are conjugated and u labels acted on, by two gathers."""
    g = x.ggroup
    conj = _ints([g.conj(gamma, v) for v in g.elements()])
    act = _ints(x.action[gamma])
    labels = []
    for k, rows in enumerate(dusk.rows):
        pairs = comb(k + 1, 2)
        labels.append((conj[rows[:, :pairs]], act[rows[:, pairs:]]))
    return SimplicialMap(dusk, dusk, _layers(x, dusk, labels, "conjugation"))


def compose_maps(outer: SimplicialMap, inner: SimplicialMap) -> SimplicialMap:
    layers = [[outer.layers[k][v] for v in inner.layers[k]]
              for k in range(inner.source.N + 1)]
    return SimplicialMap(inner.source, outer.target, layers)


def outer_witness_homotopy(group: FiniteGroup, x: CrossedModule,
                           a: Cocycle1, b: Cocycle1, wit: Witness1,
                           n_trunc: int = 3
                           ) -> tuple[SimplicialMap, SimplicialHomotopy]:
    """Homotopy data for a twisted witness, via two agreeing factorizations.

    Returns (conj, H) where conj is the nerve automorphism of the twist and
    H runs from conj o (map of a) to the map of b.  Route one rewrites the
    witness as conjugation followed by a twist-free witness from the
    conjugated cocycle; route two applies a twist-free witness first and
    conjugates the resulting homotopy.  Both routes are built and must agree
    on every prism cell.
    """
    g, h = x.ggroup, x.hgroup
    gamma = wit.gamma
    _check_witness(group, x, a, b, wit)
    ones = (h.identity,) * group.order
    conj_a = transform_cocycle(group, x, a, gamma, ones)
    wit_inner = Witness1(g.identity, wit.w)
    route1 = coboundary_to_homotopy(group, x, conj_a, b, wit_inner, n_trunc)
    conj = conjugation_nerve_map(x, gamma, route1.start.target)

    gi = g.inv[gamma]
    w_back = tuple(x.act(gi, v) for v in wit.w)
    mid = transform_cocycle(group, x, a, g.identity, w_back)
    route2_inner = coboundary_to_homotopy(
        group, x, a, mid, Witness1(g.identity, w_back), n_trunc,
        route1.start.source, route1.start.target)
    if compose_maps(conj, route2_inner.as_map()).layers != route1.layers:
        raise RuntimeError(
            "the two factorizations of the twisted witness disagree")
    fa = cocycle_to_simplicial_map(group, x, a, n_trunc,
                                   route1.start.source, route1.start.target)
    start = compose_maps(conj, fa)
    if start.layers != route1.start.layers:
        raise RuntimeError("conjugated start map mismatch")
    return conj, route1
