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

Each level is built as an int64 array of label rows, and each face or
degeneracy table of a level is computed at once by numpy gathers into the
group tables (``mul``, ``inv``) and the crossed module's ``boundary`` and
``action``.  Gathered rows become simplex indices by mixed-radix
arithmetic:

* the ordinary and diagonal levels are full products, so a simplex's index
  is the radix value of its row (``_radix``);
* a Duskin simplex's key is its free data, the edge chain in base |G| and
  then the u table in base |H|.  A level is enumerated in key order, and
  ``duskin_positions``, the one Duskin lookup, finds labels in it by binary
  search on the key and a comparison of the whole alpha row.  The key
  range is |G|^k * |H|^C(k+1,3), refused past int64; candidates are
  decoded ``_BLOCK`` rows at a time.

A level is its label rows alone: a Duskin row is alpha over the pairs, then
u over the triples; an ordinary row is the chain; a diagonal row is its
columns, each the object then its arrow labels.  The appendix retraction
checks batches of Duskin rows the same way.  The comparison maps
to the ordinary nerve are radix values of edge chains or object columns,
and the map checks compare whole tables at once.  Every builder runs its
``nerve_guard`` before any work, and a task that needs several nerves runs
all their guards first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .crossed import CrossedModule
from .errors import ResourceLimit
from .groups import FiniteGroup
from .simplicial import TruncatedSimplicialSet, _ints, build_truncated

_DIM_CAP = 10 ** 7
# candidate rows decoded at once by the Duskin enumerator, which bounds its
# scratch memory whatever the level's key range; the appendix retraction
# checks its heads and chains in blocks of the same size
_BLOCK = 65_536
# keys are int64
_KEY_MAX = 2 ** 63 - 1


@lru_cache(maxsize=None)
def pair_positions(n: int) -> dict[tuple[int, int], int]:
    """Lexicographic positions of pairs i<j inside 0..n."""
    return {p: i for i, p in enumerate(combinations(range(n + 1), 2))}


@lru_cache(maxsize=None)
def triple_positions(n: int) -> dict[tuple[int, int, int], int]:
    """Lexicographic positions of triples i<j<k inside 0..n."""
    return {t: i for i, t in enumerate(combinations(range(n + 1), 3))}


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


def delta_map(k: int, i: int) -> tuple[int, ...]:
    """The injection [k-1] -> [k] skipping i."""
    return tuple(j for j in range(k + 1) if j != i)


def sigma_map(k: int, i: int) -> tuple[int, ...]:
    """The surjection [k+1] -> [k] repeating i."""
    return tuple(range(i + 1)) + tuple(range(i, k + 1))


def _arrays(x: CrossedModule):
    """(G mul, G inv, H mul, boundary, action) as int64 gather tables."""
    return tuple(np.array(t, dtype=np.int64) for t in (
        x.ggroup.mul, x.ggroup.inv, x.hgroup.mul, x.boundary, x.action))


def _radix(rows: np.ndarray, bases) -> np.ndarray:
    """Mixed-radix value of each row, first column most significant."""
    out = np.zeros(len(rows), dtype=np.int64)
    for c, base in enumerate(bases):
        out *= base
        out += rows[:, c]
    return out


def _digits(values: np.ndarray, bases) -> np.ndarray:
    """The digit rows of ``values``: the inverse of ``_radix``."""
    out = np.empty((len(values), len(bases)), dtype=np.int64)
    rest = values
    for c in range(len(bases) - 1, -1, -1):
        rest, out[:, c] = np.divmod(rest, bases[c])
    return out


def _merge(a: np.ndarray, i: int, merged: np.ndarray, axis: int = 1
           ) -> np.ndarray:
    """``a`` with its entries i-1 and i along ``axis`` replaced by
    ``merged``: the middle face of a bar-style chain."""
    return np.insert(np.delete(a, [i - 1, i], axis), i - 1, merged, axis)


def _duskin_bases(x: CrossedModule, k: int) -> list[int]:
    """Radix of a Duskin key: the edge chain in base |G|, then the u table
    in base |H|."""
    return [x.ggroup.order] * k + [x.hgroup.order] * comb(k + 1, 3)


def _duskin_key_range(x: CrossedModule, k: int, budget: int | None = None
                      ) -> int:
    """The number of level-k keys, refused past the budget or int64."""
    size = x.ggroup.order ** k * x.hgroup.order ** comb(k + 1, 3)
    if budget is not None and size > budget:
        raise ResourceLimit(f"duskin level {k} enumeration", size, budget)
    if size > _KEY_MAX:
        raise ResourceLimit(f"duskin level {k} keys", size, _KEY_MAX)
    return size


def duskin_positions(x: CrossedModule, k: int, level_rows: np.ndarray,
                     alpha: np.ndarray, u: np.ndarray, what: str,
                     keys: np.ndarray | None = None) -> np.ndarray:
    """The index in the Duskin level ``level_rows`` of each simplex with
    labels (alpha, u), one per row; ``keys`` are the level's keys if known.

    A binary search on the key finds the candidate, and its whole alpha row
    must match, since the key leaves out the derived edges.  Labels that
    are not in the level raise ``ValueError(what)``.
    """
    pairs = comb(k + 1, 2)
    chain = [pair_positions(k)[(i, i + 1)] for i in range(k)]

    def key_of(alpha, u):
        return _radix(np.hstack([alpha[:, chain], u]), _duskin_bases(x, k))
    if keys is None:
        keys = key_of(level_rows[:, :pairs], level_rows[:, pairs:])
    key = key_of(alpha, u)
    pos = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
    if not (np.array_equal(keys[pos], key)
            and np.array_equal(level_rows[pos, :pairs], alpha)):
        raise ValueError(what)
    return pos


def _duskin_level_rows(x: CrossedModule, k: int):
    """All valid k-simplices as (keys, rows), ascending in key.

    A row holds alpha over the pairs, then u over the triples, each in
    lexicographic order.  Candidates are the key range, decoded in blocks
    of ``_BLOCK`` rows; the triangle relations at (i, j-1, j) fill in the
    derived edges, and the remaining triangles and all tetrahedra mask.
    """
    gmul, ginv, hmul, bnd, act = _arrays(x)
    size = _duskin_key_range(x, k)
    bases = _duskin_bases(x, k)
    pairs = pair_positions(k)
    col = {**pairs, **{t: len(pairs) + p
                       for t, p in triple_positions(k).items()}}
    check_triples = [t for t in combinations(range(k + 1), 3)
                     if t[2] - t[1] > 1]
    quads = list(combinations(range(k + 1), 4))
    keys, rows = [], []
    for lo in range(0, size, _BLOCK):
        key = np.arange(lo, min(lo + _BLOCK, size), dtype=np.int64)
        digits = _digits(key, bases)
        row = np.empty((len(key), len(col)), dtype=np.int64)
        row[:, len(pairs):] = digits[:, k:]

        def at(*simplex):
            return row[:, col[simplex]]
        for i in range(k):
            row[:, col[(i, i + 1)]] = digits[:, i]
        for span in range(2, k + 1):
            for i in range(k + 1 - span):
                j = i + span
                row[:, col[(i, j)]] = gmul[ginv[bnd[at(i, j - 1, j)]],
                                           gmul[at(i, j - 1), at(j - 1, j)]]
        ok = np.ones(len(key), dtype=bool)
        for i, j, l in check_triples:
            ok &= gmul[at(i, j), at(j, l)] == gmul[bnd[at(i, j, l)], at(i, l)]
        for i, j, l, m in quads:
            ok &= (hmul[act[at(i, j), at(j, l, m)], at(i, j, m)]
                   == hmul[at(i, j, l), at(i, l, m)])
        keys.append(key[ok])
        rows.append(row[ok])
    return np.concatenate(keys), np.concatenate(rows)


def nerve_guard(kind: str, source, n_trunc: int,
                budget: int = _DIM_CAP) -> None:
    """Refuse, before any work, the ``kind`` nerve truncated at ``n_trunc``
    when a level exceeds the budget: "ordinary" of a group, "duskin" or
    "diag" of a crossed module.  Each builder runs its guard first."""
    if kind == "ordinary":
        if source.order ** n_trunc > budget:
            raise ResourceLimit(f"nerve level {n_trunc}",
                                source.order ** n_trunc, budget)
    elif kind == "duskin":
        for k in range(n_trunc + 1):
            _duskin_key_range(source, k, budget)
    else:
        for k, est in enumerate(_diag_sizes(source, n_trunc)):
            if est > budget:
                raise ResourceLimit(f"diagonal level {k}", est, budget)


def duskin_nerve(x: CrossedModule, n_trunc: int,
                 budget: int = _DIM_CAP) -> TruncatedSimplicialSet:
    """The Duskin nerve of the 2-group of ``x``, truncated at ``n_trunc``.

    Each level is enumerated from free data (the edge chain plus the full
    u table) with the derived edges filled in by the triangle relations, so
    the guard bounds |G|^k * |H|^C(k+1,3) per dimension rather than the full
    label space.  That count is also the level's key range.

    A structure map pulls the rows back through ``pullback_positions``, with
    an identity column appended so that position -1 reads the identity, and
    finds the pulled rows by ``duskin_positions``.  A row whose key is
    missing, or whose derived edges differ from the stored ones, leaves the
    level and raises ``ValueError``.
    """
    g, h = x.ggroup, x.hgroup
    nerve_guard("duskin", x, n_trunc, budget)
    keys, rows = zip(*(_duskin_level_rows(x, k)
                       for k in range(n_trunc + 1)))
    # alpha and u of each level, each with an identity column appended
    padded = []
    for k, r in enumerate(rows):
        pairs = comb(k + 1, 2)
        padded.append((np.insert(r[:, :pairs], pairs, g.identity, axis=1),
                       np.insert(r[:, pairs:], r.shape[1] - pairs,
                                 h.identity, axis=1)))

    def table(k: int, theta: tuple[int, ...], what: str) -> np.ndarray:
        m = len(theta) - 1
        alpha, u = padded[k]
        return duskin_positions(
            x, m, rows[m],
            alpha[:, np.array(pullback_positions(k, theta, 2), dtype=int)],
            u[:, np.array(pullback_positions(k, theta, 3), dtype=int)],
            what, keys[m])

    face = {k: [table(k, delta_map(k, i),
                      f"face d_{i} leaves the level-{k - 1} simplex list")
                for i in range(k + 1)] for k in range(1, n_trunc + 1)}
    degen = {k: [table(k, sigma_map(k, i),
                       f"degeneracy s_{i} leaves the level-{k + 1} list")
                 for i in range(k + 1)] for k in range(n_trunc)}
    return build_truncated(
        n_trunc, list(rows), face, degen,
        label=f"duskin({x.label})" if x.label else "duskin")


# ---------------------------------------------------------------------------
# ordinary nerve
# ---------------------------------------------------------------------------

def ordinary_nerve(group: FiniteGroup, n_trunc: int,
                   budget: int = _DIM_CAP) -> TruncatedSimplicialSet:
    """Chains (g_1, ..., g_k) with bar-style faces and unit insertions.

    A chain's index is its base-|G| value, first element most significant.
    """
    nerve_guard("ordinary", group, n_trunc, budget)
    n = group.order
    mul = np.array(group.mul, dtype=np.int64)
    rows = [_digits(np.arange(n ** k, dtype=np.int64), [n] * k)
            for k in range(n_trunc + 1)]

    def face(k, i):
        r = rows[k]
        if i == 0:
            return r[:, 1:]
        if i == k:
            return r[:, :-1]
        return _merge(r, i, mul[r[:, i - 1], r[:, i]])

    return build_truncated(
        n_trunc, rows,
        {k: [_radix(face(k, i), [n] * (k - 1)) for i in range(k + 1)]
         for k in range(1, n_trunc + 1)},
        {k: [_radix(np.insert(rows[k], i, group.identity, axis=1),
                    [n] * (k + 1)) for i in range(k + 1)]
         for k in range(n_trunc)},
        label=f"nerve({group.label})" if group.label else "nerve")


# ---------------------------------------------------------------------------
# diagonal of the monoidal double nerve
# ---------------------------------------------------------------------------

def _diag_sizes(x: CrossedModule, n_trunc: int) -> list[int]:
    return [(x.ggroup.order * x.hgroup.order ** k) ** k
            for k in range(n_trunc + 1)]


def monoidal_diag_nerve(x: CrossedModule, n_trunc: int,
                        budget: int = _DIM_CAP) -> TruncatedSimplicialSet:
    """Diagonal of the double nerve of the monoidal 2-group of ``x``.

    A k-simplex is a k-tuple of columns; a column is (object, k arrow
    labels) in the action groupoid (arrows u: y -> boundary(u) * y).  The
    i-th diagonal face applies the horizontal face (drop or tensor-merge a
    column) followed by the vertical face (drop or compose a level) in every
    remaining column; degeneracies insert a trivial column and an identity
    level.

    Level k is the full product of its columns, so a simplex's index is the
    radix value of its row: per column the object in base |G|, then its k
    arrow labels in base |H|.  The tensor merge of two columns runs the
    twist run <- boundary(u) * run down the levels.
    """
    g, h = x.ggroup, x.hgroup
    nerve_guard("diag", x, n_trunc, budget)
    sizes = _diag_sizes(x, n_trunc)
    gmul, _, hmul, bnd, act = _arrays(x)

    def bases(k):
        return ([g.order] + [h.order] * k) * k

    # cells[k][simplex, column] = (object, arrow labels by level)
    cells = [_digits(np.arange(size, dtype=np.int64), bases(k))
             .reshape(size, k, k + 1) for k, size in enumerate(sizes)]

    def index(y, us):
        count, width = us.shape[:2]
        return _radix(np.concatenate([y[:, :, None], us], axis=2)
                      .reshape(count, width * (width + 1)), bases(width))

    def face(k, i):
        y, us = cells[k][:, :, 0], cells[k][:, :, 1:]
        if i == 0:
            y, us = y[:, 1:], us[:, 1:]
        elif i == k:
            y, us = y[:, :-1], us[:, :-1]
        else:
            run = y[:, i - 1]
            merged = np.empty_like(us[:, i])
            for lvl in range(k):
                u1 = us[:, i - 1, lvl]
                merged[:, lvl] = hmul[u1, act[run, us[:, i, lvl]]]
                run = gmul[bnd[u1], run]
            y = _merge(y, i, gmul[y[:, i - 1], y[:, i]])
            us = _merge(us, i, merged)
        if i == 0:
            y, us = gmul[bnd[us[:, :, 0]], y], us[:, :, 1:]
        elif i == k:
            us = us[:, :, :-1]
        else:
            us = _merge(us, i, hmul[us[:, :, i], us[:, :, i - 1]], axis=2)
        return index(y, us)

    def degen(k, i):
        y = np.insert(cells[k][:, :, 0], i, g.identity, axis=1)
        us = np.insert(cells[k][:, :, 1:], i, h.identity, axis=1)
        return index(y, np.insert(us, i, h.identity, axis=2))

    return build_truncated(
        n_trunc, [c.reshape(len(c), -1) for c in cells],
        {k: [face(k, i) for i in range(k + 1)]
         for k in range(1, n_trunc + 1)},
        {k: [degen(k, i) for i in range(k + 1)] for k in range(n_trunc)},
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


def simplicial_map_violations(f: SimplicialMap) -> list[str]:
    """Exhaustive face/degeneracy compatibility check within the truncation,
    reported in (level, map, simplex) order."""
    a, b = f.source, f.target
    bad = []
    if a.N != b.N:
        bad.append("source and target truncations differ")
        return bad
    for k in range(a.N + 1):
        if len(f.layers[k]) != a.count(k):
            bad.append(f"layer {k} has wrong length")
            return bad
    layers = [_ints(t) for t in f.layers]
    for k in range(1, a.N + 1):
        for i in range(k + 1):
            fails = layers[k - 1][_ints(a.face[k][i])] \
                != _ints(b.face[k][i])[layers[k]]
            bad += [f"face square fails at level {k}, d_{i}, simplex {idx}"
                    for idx in np.flatnonzero(fails).tolist()]
    for k in range(a.N):
        for i in range(k + 1):
            fails = layers[k + 1][_ints(a.degen[k][i])] \
                != _ints(b.degen[k][i])[layers[k]]
            bad += [f"degeneracy square fails at level {k}, s_{i}, "
                    f"simplex {idx}" for idx in np.flatnonzero(fails).tolist()]
    return bad


def isomorphism_violations(f: SimplicialMap) -> list[str]:
    """Simplicial-map check plus level-wise bijectivity."""
    bad = simplicial_map_violations(f)
    if bad:
        return bad
    for k in range(f.source.N + 1):
        if f.source.count(k) != f.target.count(k):
            bad.append(f"level {k} sizes differ")
        elif (np.diff(np.sort(_ints(f.layers[k]))) == 0).any():
            bad.append(f"level {k} map is not injective")
    return bad


def duskin_to_ordinary(x: CrossedModule, dusk: TruncatedSimplicialSet,
                       ordn: TruncatedSimplicialSet) -> SimplicialMap:
    """Project Duskin simplices of (1 -> G) to their edge chains.

    ``ordn`` is ``ordinary_nerve(x.ggroup, ·)``, so a chain's index is its
    base-|G| value.  For a trivial H this is the isomorphism identifying the
    Duskin nerve with the ordinary nerve; validity is the caller's check via
    ``isomorphism_violations``.
    """
    layers = []
    for k in range(dusk.N + 1):
        pairs = pair_positions(k)
        chain = dusk.rows[k][:, [pairs[(i, i + 1)] for i in range(k)]]
        layers.append(_radix(chain, [x.ggroup.order] * k).tolist())
    return SimplicialMap(dusk, ordn, layers)


def diag_to_ordinary(x: CrossedModule, diag: TruncatedSimplicialSet,
                     ordn: TruncatedSimplicialSet) -> SimplicialMap:
    """Project diagonal simplices of (1 -> G) to their object chains,
    indexed in ``ordn = ordinary_nerve(x.ggroup, ·)`` by base-|G| value."""
    layers = [_radix(diag.rows[k][:, ::k + 1], [x.ggroup.order] * k).tolist()
              for k in range(diag.N + 1)]
    return SimplicialMap(diag, ordn, layers)
