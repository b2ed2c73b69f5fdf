"""Mechanical verification of the strict-into-lax deformation retraction.

For a finite crossed module, the category of strict functors [n] -> 2-group
includes into the category of pseudofunctors.  The section collapses a
pseudofunctor onto its edge chain; an inductively built transformation
(composing triangle labels along final vertices) retracts the inclusion.
One level up, the first horizontal degeneracy of the double nerve is a
simplicial deformation retract, realized by explicit prism data: a filler
pseudofunctor over [n+1] and a connecting transformation per degree.

Chain-level identities factor: every slot of every prism identity depends
either on the chain head (first object and first morphism) or on one later
slot through index reindexing alone.  The verifier therefore checks heads
exhaustively, checks the index-map equalities that settle all later slots,
and replays full chains literally on a deterministic sample as a
cross-check.  A head is checked by its own validity data (the transport, and
the filler and connector at each degree) and by replaying the one-step chain
it spans through :func:`check_chain`, so every prism identity is written
once.

Everything is checked in batches of label rows.  An object over [n] is a
Duskin label row (alpha over the pairs, then u over the triples, as
``nerves._duskin_level_rows`` builds it), a morphism is a row of H labels
over the pairs, and a chain of m steps is the tuple of its 2m+1 slot
arrays, one row per chain.  Transport targets, fillers, connectors and
pullbacks along index maps are column gathers into the group tables, and
each identity compares its two sides over the whole batch.  For every
failing row the report names the identity, the first slot where its two
sides differ, and the row's simplex, in the order a replay of one chain at
a time would.  The strict section's checks and the heads (every object
with every first morphism) run ``nerves._BLOCK`` rows at a time, and
chains ``nerves._BLOCK`` slot rows at a time, so memory stays bounded
whatever count the guards let through.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, isqrt, log10

import numpy as np

from . import nerves
from .crossed import CrossedModule
from .errors import MAX_DIGITS, InvariantError, ResourceLimit
from .nerves import (_arrays, _digits, _duskin_level_rows, delta_map,
                     pair_positions, pullback_positions, sigma_map,
                     triple_positions)


class _Tables:
    """The crossed module's group tables as int64 gather arrays."""

    def __init__(self, x: CrossedModule):
        self.gmul, self.ginv, self.hmul, self.bnd, self.act = _arrays(x)
        self.hinv = np.array(x.hgroup.inv, dtype=np.int64)
        self.g_id, self.h_id = x.ggroup.identity, x.hgroup.identity


@lru_cache(maxsize=None)
def _dim(width: int) -> int:
    """The n of an object row over [n] with ``width`` labels."""
    n = 0
    while comb(n + 1, 2) + comb(n + 1, 3) < width:
        n += 1
    return n


@lru_cache(maxsize=None)
def _edges(n: int):
    """Label columns over [n]: the edge chain (i, i+1); per triple (i, j, k)
    its pairs (i, j), (j, k), (i, k); per quadruple (i, j, k, l) its triples
    (j, k, l), (i, j, l), (i, j, k), (i, k, l) and its pair (i, j)."""
    pp, tp = pair_positions(n), triple_positions(n)
    chain = [pp[(i, i + 1)] for i in range(n)]
    triples = list(combinations(range(n + 1), 3))
    quads = list(combinations(range(n + 1), 4))
    tri = [[pp[(i, j)] for i, j, _ in triples],
           [pp[(j, k)] for _, j, k in triples],
           [pp[(i, k)] for i, _, k in triples]]
    quad = [[tp[(j, k, l)] for _, j, k, l in quads],
            [tp[(i, j, l)] for i, j, _, l in quads],
            [tp[(i, j, k)] for i, j, k, _ in quads],
            [tp[(i, k, l)] for i, _, k, l in quads],
            [pp[(i, j)] for i, j, _, _ in quads]]
    return (np.array(chain, dtype=np.int64),
            np.array(tri, dtype=np.int64).reshape(3, -1),
            np.array(quad, dtype=np.int64).reshape(5, -1), triples, quads)


def _split(rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, u) of object rows over [n]."""
    pairs = comb(n + 1, 2)
    return rows[:, :pairs], rows[:, pairs:]


# ---------------------------------------------------------------------------
# relations, transport, and the strict section
# ---------------------------------------------------------------------------

def pseudofunctor_checks(t: _Tables, rows: np.ndarray
                         ) -> tuple[np.ndarray, list[str]]:
    """Failures of the triangle and tetrahedron relations, one column per
    relation, with the relations' names."""
    n = _dim(rows.shape[1])
    _, tri, quad, triples, quads = _edges(n)
    a, u = _split(rows, n)
    bad = np.hstack([
        t.gmul[a[:, tri[0]], a[:, tri[1]]]
        != t.gmul[t.bnd[u], a[:, tri[2]]],
        t.hmul[t.act[a[:, quad[4]], u[:, quad[0]]], u[:, quad[1]]]
        != t.hmul[u[:, quad[2]], u[:, quad[3]]]])
    return bad, ([f"triangle relation fails at ({i},{j},{k})"
                  for i, j, k in triples]
                 + [f"tetrahedron relation fails at ({i},{j},{k},{l})"
                    for i, j, k, l in quads])


def nat_checks(t: _Tables, source: np.ndarray, target: np.ndarray,
               w: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Failures of the naturality square of ``w`` from ``source`` to
    ``target`` on edges and on triples, one column per square."""
    n = _dim(source.shape[1])
    _, tri, _, triples, _ = _edges(n)
    sa, su = _split(source, n)
    ta, tu = _split(target, n)
    bad = np.hstack([
        ta != t.gmul[t.bnd[w], sa],
        t.hmul[w[:, tri[0]], t.hmul[t.act[sa[:, tri[0]], w[:, tri[1]]], su]]
        != t.hmul[tu, w[:, tri[2]]]])
    return bad, ([f"edge identity fails at ({i},{j})"
                  for i, j in combinations(range(n + 1), 2)]
                 + [f"naturality fails at ({i},{j},{k})"
                    for i, j, k in triples])


def transport(t: _Tables, rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The targets of the morphisms out of ``rows`` with components ``w``.

    Edges are twisted by the boundary of w and triangle labels conjugated
    through the naturality square.  The head suite checks the targets of
    every object along every morphism to be valid simplices.
    """
    n = _dim(rows.shape[1])
    _, tri, _, _, _ = _edges(n)
    a, u = _split(rows, n)
    out = np.hstack([
        t.gmul[t.bnd[w], a],
        t.hmul[w[:, tri[0]],
               t.hmul[t.act[a[:, tri[0]], w[:, tri[1]]],
                      t.hmul[u, t.hinv[w[:, tri[2]]]]]]])
    return out


def strict_include(t: _Tables, chains: np.ndarray) -> np.ndarray:
    """The pseudofunctors with exact edge products of ``chains`` and
    trivial labels."""
    n = chains.shape[1]
    cols = {}
    for i in range(n):
        run = chains[:, i]
        cols[(i, i + 1)] = run
        for j in range(i + 2, n + 1):
            run = t.gmul[run, chains[:, j - 1]]
            cols[(i, j)] = run
    out = np.full((len(chains), comb(n + 1, 2) + comb(n + 1, 3)), t.h_id,
                  dtype=np.int64)
    for p, i in pair_positions(n).items():
        out[:, i] = cols[p]
    return out


def strict_project(rows: np.ndarray) -> np.ndarray:
    """The edge chains of pseudofunctors (their strict shadows)."""
    return rows[:, _edges(_dim(rows.shape[1]))[0]]


def composite_table(t: _Tables, alphas: np.ndarray, hs: np.ndarray
                    ) -> np.ndarray:
    """Horizontal composites of consecutive components along edge chains."""
    n = alphas.shape[1]
    out = np.empty((len(alphas), comb(n + 1, 2)), dtype=np.int64)
    for i in range(n):
        val, run = hs[:, i], alphas[:, i]
        out[:, pair_positions(n)[(i, i + 1)]] = val
        for j in range(i + 2, n + 1):
            val = t.hmul[val, t.act[run, hs[:, j - 1]]]
            run = t.gmul[run, alphas[:, j - 1]]
            out[:, pair_positions(n)[(i, j)]] = val
    return out


def eta_table(t: _Tables, rows: np.ndarray) -> np.ndarray:
    """Components of the retraction transformation s => include(project(s)).

    The interval value is built by splitting off the last vertex:
    v over [i..j] is v over [i..j-1] times the label at (i, j-1, j).
    """
    n = _dim(rows.shape[1])
    pp, tp = pair_positions(n), triple_positions(n)
    a, u = _split(rows, n)
    out = np.full(a.shape, t.h_id, dtype=np.int64)
    for span in range(2, n + 1):
        for i in range(n + 1 - span):
            j = i + span
            out[:, pp[(i, j)]] = t.hmul[out[:, pp[(i, j - 1)]],
                                        u[:, tp[(i, j - 1, j)]]]
    return out


# ---------------------------------------------------------------------------
# chains of transformations and the prism data
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _pull_plan(n: int, theta: tuple[int, ...]):
    """Columns of an object row and of a morphism row over [n], each
    followed by its identity columns, that give the rows pulled back along
    theta."""
    width = comb(n + 1, 2) + comb(n + 1, 3)
    p2 = pullback_positions(n, theta, 2)
    p3 = pullback_positions(n, theta, 3)
    obj = ([p if p >= 0 else width for p in p2]
           + [comb(n + 1, 2) + p if p >= 0 else width + 1 for p in p3])
    mor = [p if p >= 0 else comb(n + 1, 2) for p in p2]
    return np.array(obj, dtype=np.int64), np.array(mor, dtype=np.int64)


def _stack(slots) -> np.ndarray:
    """Slot arrays of one shape as one array, slot first (``np.stack``,
    without its per-array Python work)."""
    return np.concatenate(slots).reshape((len(slots),) + slots[0].shape)


def _gather(slots, cols: np.ndarray, fill) -> list:
    """The slot arrays read at ``cols`` after the ``fill`` columns are
    appended to each."""
    if not slots:
        return []
    s = _stack(slots)
    pad = np.broadcast_to(np.array(fill, dtype=np.int64),
                          s.shape[:2] + (len(fill),))
    return list(np.concatenate([s, pad], axis=2)[:, :, cols])


def pull_objects(t: _Tables, rows: np.ndarray, theta: tuple[int, ...]
                 ) -> np.ndarray:
    """Object rows pulled back along theta."""
    obj, _ = _pull_plan(_dim(rows.shape[1]), theta)
    return _gather([rows], obj, (t.g_id, t.h_id))[0]


def chain_reindex(t: _Tables, c: tuple, theta: tuple[int, ...]) -> tuple:
    """Pull every slot of a chain back along theta."""
    obj, mor = _pull_plan(_dim(c[0].shape[1]), theta)
    out = [None] * len(c)
    out[0::2] = _gather(c[0::2], obj, (t.g_id, t.h_id))
    out[1::2] = _gather(c[1::2], mor, (t.h_id,))
    return tuple(out)


def chain_face_v(t: _Tables, c: tuple, i: int) -> tuple:
    return chain_reindex(t, c, delta_map(_dim(c[0].shape[1]), i))


def chain_degen_v(t: _Tables, c: tuple, i: int) -> tuple:
    return chain_reindex(t, c, sigma_map(_dim(c[0].shape[1]), i))


def chain_collapse_h(t: _Tables, c: tuple) -> tuple:
    """s0_h d0_h: drop the first transformation, restart with the identity."""
    return (c[2], np.full_like(c[1], t.h_id)) + c[2:]


@lru_cache(maxsize=None)
def _filler_plan(n: int, k: int):
    """Columns of [x0, x1, g_id, h_id] giving the degree-k filler over
    [n+1], and its straddling u columns with the w0 columns they pick up."""
    pairs = comb(n + 1, 2)
    width = pairs + comb(n + 1, 3)
    pp, tp = pair_positions(n), triple_positions(n)
    sig = sigma_map(n, k)

    def alpha0(i, j):
        return 2 * width if i == j else pp[(i, j)]

    def u0(i, j, l):
        return 2 * width + 1 if i == j or j == l else pairs + tp[(i, j, l)]

    cols, straddle, wcols = [], [], []
    for i, j in combinations(range(n + 2), 2):
        cols.append(width + pp[(i, j)] if j <= k
                    else alpha0(sig[i], j - 1))
    for i, j, l in combinations(range(n + 2), 3):
        if l <= k:
            cols.append(width + pairs + tp[(i, j, l)])
        elif j <= k:
            straddle.append(len(cols))
            wcols.append(pp[(i, j)])
            cols.append(u0(i, j, l - 1))
        else:
            cols.append(u0(sig[i], j - 1, l - 1))
    return tuple(np.array(v, dtype=np.int64) for v in (cols, straddle, wcols))


def filler(t: _Tables, x0: np.ndarray, w0: np.ndarray, x1: np.ndarray,
           k: int) -> np.ndarray:
    """The filler pseudofunctors over [n+1] interpolating x0 and x1 at k.

    Edges up to k come from x1, edges past k from x0 with indices collapsed
    through the k-th degeneracy; triangle labels straddling k pick up the
    component of the first transformation.
    """
    cols, straddle, wcols = _filler_plan(_dim(x0.shape[1]), k)
    ids = np.full((len(x0), 2), (t.g_id, t.h_id), dtype=np.int64)
    out = np.hstack([x0, x1, ids])[:, cols]
    out[:, straddle] = t.hmul[w0[:, wcols], out[:, straddle]]
    return out


@lru_cache(maxsize=None)
def _connector_plan(n: int, k: int) -> np.ndarray:
    """Columns of [w0, h_id] giving the degree-k connector over [n+1]."""
    pairs = comb(n + 1, 2)
    sig = sigma_map(n, k)
    return np.array([pairs if j <= k or sig[i] == j - 1
                     else pair_positions(n)[(sig[i], j - 1)]
                     for i, j in combinations(range(n + 2), 2)],
                    dtype=np.int64)


def connector(t: _Tables, w0: np.ndarray, k: int) -> np.ndarray:
    """Components of the connecting transformations at degree k."""
    ids = np.full((len(w0), 1), t.h_id, dtype=np.int64)
    n = (isqrt(8 * w0.shape[1] + 1) - 1) // 2
    return np.hstack([w0, ids])[:, _connector_plan(n, k)]


def homotopy_chain(t: _Tables, c: tuple, k: int) -> tuple:
    """Degree-k prism image of chains (filler, connector, degenerate tail)."""
    return ((filler(t, c[0], c[1], c[2], k), connector(t, c[1], k))
            + chain_reindex(t, c[2:], sigma_map(_dim(c[0].shape[1]), k)))


# ---------------------------------------------------------------------------
# the verification report
# ---------------------------------------------------------------------------

@dataclass
class RetractionReport:
    """Outcome of the exhaustive head checks plus sampled chain replays."""

    label: str
    n: int
    m: int
    objects: int
    morphisms_per_object: int
    chains_total: int
    heads_checked: int
    sampled_chains: int
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures


class _Failures:
    """The checks of one batch, reported row by row in the order they were
    made.  A check is a column of codes, -1 where the row passes, and a
    function from a code to the message template."""

    def __init__(self):
        self.codes: list[np.ndarray] = []
        self.texts: list = []

    def check(self, bad: np.ndarray, texts: list[str]) -> None:
        """One check per column of ``bad``, each with its one template."""
        self.codes.append(np.where(bad, 0, -1))
        self.texts += [lambda _, text=text: text for text in texts]

    def slot(self, first: np.ndarray, what: str) -> None:
        """One chain identity, failing at the slot ``first`` names."""
        self.codes.append(first[:, None])
        self.texts.append(
            lambda p: f"{what}: {_slot_name(p)} differs ({{tag}})")

    def report(self, fields) -> list[str]:
        """The failure messages, with ``fields(row)`` filled in."""
        if not self.codes:
            return []
        codes = np.hstack(self.codes)
        out = []
        for r in np.flatnonzero((codes >= 0).any(axis=1)).tolist():
            f = fields(r)
            out += [self.texts[e](codes[r, e]).format(**f)
                    for e in np.flatnonzero(codes[r] >= 0).tolist()]
        return out


def _slot_name(p: int) -> str:
    i, is_morphism = divmod(p, 2)
    if is_morphism:
        return "connector" if i == 0 else f"morphism {i}"
    return "filler" if i == 0 else f"object {i}"


def _first_difference(a: tuple, b: tuple) -> np.ndarray:
    """Per row, the first slot where two chains of equal length differ, or
    -1."""
    diff = np.empty((len(a), len(a[0])), dtype=bool)
    for parity in (0, 1):
        if a[parity::2]:
            diff[parity::2] = (_stack(a[parity::2])
                               != _stack(b[parity::2])).any(axis=2)
    return np.where(diff.any(axis=0), diff.argmax(axis=0), -1)


def check_chain(t: _Tables, c: tuple, fails: _Failures) -> None:
    """Replay every prism identity literally on a batch of full chains.

    A failure names the identity and the first slot where its two sides
    differ: the filler or connector in slot 0, a later object or morphism
    after that.
    """
    n = _dim(c[0].shape[1])

    def expect(what: str, lhs: tuple, rhs: tuple) -> None:
        fails.slot(_first_difference(lhs, rhs), what)

    hs = [homotopy_chain(t, c, k) for k in range(n + 1)]
    expect("d_0 H_0 is not the identity side", chain_face_v(t, hs[0], 0), c)
    expect(f"d_{n + 1} H_{n} is not the collapsed side",
           chain_face_v(t, hs[n], n + 1), chain_collapse_h(t, c))
    for k in range(n + 1):
        for i in range(n + 2):
            if i < k:
                rhs = homotopy_chain(t, chain_face_v(t, c, i), k - 1)
            elif i > k + 1:
                rhs = homotopy_chain(t, chain_face_v(t, c, i - 1), k)
            else:
                continue
            expect(f"face {i} square at degree {k}",
                   chain_face_v(t, hs[k], i), rhs)
    for k in range(n):
        expect(f"adjacent prism faces at {k + 1}",
               chain_face_v(t, hs[k + 1], k + 1),
               chain_face_v(t, hs[k], k + 1))
    for k in range(n + 1):
        for i in range(n + 2):
            rhs = (homotopy_chain(t, chain_degen_v(t, c, i), k + 1)
                   if i <= k else
                   homotopy_chain(t, chain_degen_v(t, c, i - 1), k))
            expect(f"degeneracy {i} square at degree {k}",
                   chain_degen_v(t, hs[k], i), rhs)


def _identity_count(n: int) -> int:
    """len(_identity_pairs(n)), without building them."""
    return 2 + n + n * (n + 1) + (n + 1) * (n + 2)


def _identity_pairs(n: int):
    """(name, lhs-map, rhs-map) composites that settle all later slots.

    There is one pair per prism identity that :func:`check_chain` replays.
    """
    def after(theta, phi):
        return tuple(theta[v] for v in phi)

    out = []
    out.append(("d0 H0 = id",
                after(sigma_map(n, 0), delta_map(n + 1, 0)),
                tuple(range(n + 1))))
    out.append(("d_{n+1} Hn = collapse",
                after(sigma_map(n, n), delta_map(n + 1, n + 1)),
                tuple(range(n + 1))))
    for k in range(n + 1):
        for i in range(k):
            out.append((f"d_{i} H_{k} = H_{k - 1} d_{i}",
                        after(sigma_map(n, k), delta_map(n + 1, i)),
                        after(delta_map(n, i), sigma_map(n - 1, k - 1))))
    for k in range(n):
        out.append((f"d_{k + 1} H_{k + 1} = d_{k + 1} H_{k}",
                    after(sigma_map(n, k + 1), delta_map(n + 1, k + 1)),
                    after(sigma_map(n, k), delta_map(n + 1, k + 1))))
    for k in range(n):
        for i in range(k + 2, n + 2):
            out.append((f"d_{i} H_{k} = H_{k} d_{i - 1}",
                        after(sigma_map(n, k), delta_map(n + 1, i)),
                        after(delta_map(n, i - 1), sigma_map(n - 1, k))))
    for k in range(n + 1):
        for i in range(k + 1):
            out.append((f"s_{i} H_{k} = H_{k + 1} s_{i}",
                        after(sigma_map(n, k), sigma_map(n + 1, i)),
                        after(sigma_map(n, i), sigma_map(n + 1, k + 1))))
    for k in range(n + 1):
        for i in range(k + 1, n + 2):
            out.append((f"s_{i} H_{k} = H_{k} s_{i - 1}",
                        after(sigma_map(n, k), sigma_map(n + 1, i)),
                        after(sigma_map(n, i - 1), sigma_map(n + 1, k))))
    return out


def _blocks(total: int, size: int):
    """Consecutive index ranges of at most ``size`` rows covering
    ``total``."""
    for lo in range(0, total, size):
        yield np.arange(lo, min(lo + size, total), dtype=np.int64)


def _tuple(row: np.ndarray) -> str:
    return str(tuple(row.tolist()))


def _strict_suite(t: _Tables, n: int, g_order: int, h_order: int
                  ) -> list[str]:
    """(a) the projection retracts the inclusion, on objects and on the
    morphisms between strict objects, one row per (chain, hs) pair."""
    per_chain = h_order ** n
    bad: list[str] = []
    for idx in _blocks(g_order ** n * per_chain, nerves._BLOCK):
        ci, hi = np.divmod(idx, per_chain)
        chains = _digits(ci, [g_order] * n)
        hs = _digits(hi, [h_order] * n)
        s = strict_include(t, chains)
        w = composite_table(t, chains, hs)
        fails = _Failures()
        fails.check(((strict_project(s) != chains).any(axis=1)
                     & (hi == 0))[:, None],
                    ["projection misses the chain {chain}"])
        nat, names = nat_checks(t, s, transport(t, s, w), w)
        fails.check(nat, [f"strict morphism {{chain}}/{{hs}}: {p}"
                          for p in names])
        push = composite_table(t, chains, w[:, _edges(n)[0]])
        fails.check((push != w).any(axis=1)[:, None],
                    ["projection misses the morphism {chain}/{hs}"])
        bad += fails.report(lambda r: {"chain": _tuple(chains[r]),
                                       "hs": _tuple(hs[r])})
    return bad


def _head_suite(t: _Tables, n: int, objects: np.ndarray,
                morphisms: np.ndarray) -> list[str]:
    """Exhaustive n-dependent checks: section/retraction, eta, heads, over
    all ``objects`` and all first ``morphisms``."""
    bad = _strict_suite(t, n, len(t.gmul), len(t.hmul))
    # (b) the connecting transformation, objectwise (on each object's first
    # head) and naturally, and (c)+(d) the heads
    objectwise: list[str] = []
    natural: list[str] = []
    heads: list[str] = []
    for idx in _blocks(len(objects) * len(morphisms), nerves._BLOCK):
        oi, wi = np.divmod(idx, len(morphisms))
        x0, w0 = objects[oi], morphisms[wi]
        x1 = transport(t, x0, w0)
        invalid, names = pseudofunctor_checks(t, x1)
        if invalid.any():
            raise InvariantError("transport left the simplex space: "
                                 + names[np.argwhere(invalid)[0][1]])
        eta0 = eta_table(t, x0)

        def fields(r):
            return {"oi": oi[r], "w": _tuple(w0[r]),
                    "tag": f"object {oi[r]}, morphism {_tuple(w0[r])}"}

        fails = _Failures()
        nat, names = nat_checks(t, x0, strict_include(t, strict_project(x0)),
                                eta0)
        fails.check(nat & (wi == 0)[:, None],
                    [f"eta at object {{oi}}: {p}" for p in names])
        objectwise += fails.report(fields)

        fails = _Failures()
        push = composite_table(t, strict_project(x0), w0[:, _edges(n)[0]])
        fails.check((t.hmul[eta_table(t, x1), w0]
                     != t.hmul[push, eta0]).any(axis=1)[:, None],
                    ["eta is not natural at object {oi}, morphism {w}"])
        natural += fails.report(fields)

        fails = _Failures()
        start = pull_objects(t, x0, sigma_map(n, 0))
        fails.check((filler(t, x0, w0, x1, 0) != start).any(axis=1)[:, None],
                    ["filler at 0 is not the degenerate start ({tag})"])
        for k in range(n + 1):
            mu = filler(t, x0, w0, x1, k)
            target = pull_objects(t, x1, sigma_map(n, k))
            pf, pf_names = pseudofunctor_checks(t, mu)
            nat, nat_names = nat_checks(t, mu, target, connector(t, w0, k))
            fails.check(np.hstack([pf, nat]),
                        [f"degree {k}: {p} ({{tag}})"
                         for p in pf_names + nat_names])
        check_chain(t, (x0, w0, x1), fails)
        heads += fails.report(fields)

    bad += objectwise + natural
    # prism identity index maps (settle every slot beyond the head)
    for name, lhs, rhs in _identity_pairs(n):
        if lhs != rhs:
            bad.append(f"index maps differ for {name}")
    return bad + heads


def _replay(t: _Tables, objects: np.ndarray, morphisms: np.ndarray,
            obj_idx: np.ndarray, w_idx: np.ndarray) -> list[str]:
    """Every prism identity on the chains from ``objects[obj_idx]`` along
    ``morphisms[w_idx]``, one row per chain."""
    c = [objects[obj_idx]]
    for step in w_idx.T:
        c += (morphisms[step], transport(t, c[-1], morphisms[step]))
    fails = _Failures()
    check_chain(t, tuple(c), fails)
    return fails.report(lambda r: {
        "tag": f"object {obj_idx[r]}, morphisms {_tuple(w_idx[r])}"})


def verify_appendix_retraction(x: CrossedModule, n: int, m: int,
                               sample: int = 200, seed: int = 0,
                               budget: int = 10 ** 7) -> RetractionReport:
    """Verify the deformation-retraction data on chains of length m over [n].

    Head-dependent identities are checked exhaustively; identities touching
    later chain slots reduce to index-map equalities, checked once.  A
    seeded sample of full chains is replayed literally as a cross-check
    (exhaustively, when the chain space is no larger than the sample).
    Both the head enumeration and the replay, counted as chains times
    slots per chain times identities per chain, are bounded by ``budget``.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    g, h = x.ggroup, x.hgroup
    pairs, triples = comb(n + 1, 2), comb(n + 1, 3)
    # the head count's digits are bounded before it is formed
    head_digits = int(n * log10(g.order)
                      + (triples + pairs) * log10(h.order)) + 1
    if head_digits > MAX_DIGITS:
        raise ResourceLimit("retraction head count digits", head_digits,
                            MAX_DIGITS)
    est_objects = g.order ** n * h.order ** triples
    est_heads = est_objects * h.order ** pairs
    if est_heads > budget:
        raise ResourceLimit("retraction head enumeration", est_heads, budget)
    # one head replays every identity on simplices of pairs + triples
    # labels; over trivial groups this alone bounds n
    head_size = _identity_count(n) * (pairs + triples)
    if head_size > budget:
        raise ResourceLimit("retraction head size", head_size, budget)
    per_chain = (m + 1) * _identity_count(n)
    # checked alone first, so that m is small enough to count chains
    if per_chain > budget:
        raise ResourceLimit("retraction chain replay", per_chain, budget)
    # the chain count is reported: its digits are bounded before it is formed
    digits = int(log10(est_objects) + pairs * m * log10(h.order)) + 1
    if digits > MAX_DIGITS:
        raise ResourceLimit("retraction chain count digits", digits,
                            MAX_DIGITS)
    est_replay = min(sample, est_objects * h.order ** (pairs * m)) * per_chain
    if est_replay > budget:
        raise ResourceLimit("retraction chain replay", est_replay, budget)

    t = _Tables(x)
    objects = _duskin_level_rows(x, n)[1]
    morphisms = _digits(np.arange(h.order ** pairs, dtype=np.int64),
                        [h.order] * pairs)
    failures = _head_suite(t, n, objects, morphisms)
    n_obj, n_mor = len(objects), len(morphisms)
    chains_total = n_obj * n_mor ** m
    if chains_total <= sample:
        obj_idx, rest = np.divmod(np.arange(chains_total, dtype=np.int64),
                                  n_mor ** m)
        w_idx = _digits(rest, [n_mor] * m)
    else:
        rng = random.Random(seed)
        draws = np.array([[rng.randrange(n_obj)]
                          + [rng.randrange(n_mor) for _ in range(m)]
                          for _ in range(sample)], dtype=np.int64)
        obj_idx, w_idx = draws[:, 0], draws[:, 1:]
    for idx in _blocks(len(obj_idx), max(1, nerves._BLOCK // (2 * m + 1))):
        failures += _replay(t, objects, morphisms, obj_idx[idx], w_idx[idx])

    return RetractionReport(
        label=x.label, n=n, m=m, objects=n_obj,
        morphisms_per_object=n_mor, chains_total=chains_total,
        heads_checked=n_obj * n_mor,
        sampled_chains=min(chains_total, sample), failures=failures)
