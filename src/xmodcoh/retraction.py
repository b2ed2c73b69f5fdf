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
once.  Failures name the identity, the first slot where its two sides
differ, and the simplex.

Replays share their slot-level work.  Within one verification, each
pullback of a simplex or table along an index map, each transport target,
each filler (which depends on the first object, the first morphism and the
degree) and each connector is computed once, and every distinct simplex or
table gets a small int id.  A chain is a tuple of ids, so building one is a
row of dictionary lookups and comparing two sides of an identity compares
ints, slot by slot.  The memo (:class:`_Slots`) is made once per
verification, shared by the head suite and the sampled replay, and dropped
when the verification returns: nothing outlives it, so a replaced
``mu_simplex``, ``h_table`` or pullback helper reaches every slot it
computes, and restoring it leaves nothing stale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from math import comb, log10

from .crossed import CrossedModule
from .errors import MAX_DIGITS, ResourceLimit
from .nerves import (NatTransform, PseudofunctorSimplex, delta_map,
                     nat_violations, pair_positions, pseudofunctor_violations,
                     pull_back, pullback_positions, reindex, sigma_map,
                     transport_simplex, _enumerate_duskin_level)


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
            val = h.op(val, x.act(run, hs[t]))
            run = g.op(run, alphas[t])
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
                vals[(i, j)] = h.op(vals[(i, j - 1)], s.u_at(x, i, j - 1, j))
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
            u.append(h.op(_table_at(x, n, w0, i, j), x0.u_at(x, i, j, l - 1)))
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


def _identity_count(n: int) -> int:
    """len(_identity_pairs(n)), without building them."""
    return 2 + n + n * (n + 1) + (n + 1) * (n + 2)


def _identity_pairs(n: int):
    """(name, lhs-map, rhs-map) composites that settle all later slots.

    There is one pair per prism identity that :func:`check_chain` replays.
    """
    out = []
    out.append(("d0 H0 = id",
                _compose(sigma_map(n, 0), delta_map(n + 1, 0)),
                tuple(range(n + 1))))
    out.append(("d_{n+1} Hn = collapse",
                _compose(sigma_map(n, n), delta_map(n + 1, n + 1)),
                tuple(range(n + 1))))
    for k in range(n + 1):
        for i in range(k):
            out.append((f"d_{i} H_{k} = H_{k - 1} d_{i}",
                        _compose(sigma_map(n, k), delta_map(n + 1, i)),
                        _compose(delta_map(n, i), sigma_map(n - 1, k - 1))))
    for k in range(n):
        out.append((f"d_{k + 1} H_{k + 1} = d_{k + 1} H_{k}",
                    _compose(sigma_map(n, k + 1), delta_map(n + 1, k + 1)),
                    _compose(sigma_map(n, k), delta_map(n + 1, k + 1))))
    for k in range(n):
        for i in range(k + 2, n + 2):
            out.append((f"d_{i} H_{k} = H_{k} d_{i - 1}",
                        _compose(sigma_map(n, k), delta_map(n + 1, i)),
                        _compose(delta_map(n, i - 1), sigma_map(n - 1, k))))
    for k in range(n + 1):
        for i in range(k + 1):
            out.append((f"s_{i} H_{k} = H_{k + 1} s_{i}",
                        _compose(sigma_map(n, k), sigma_map(n + 1, i)),
                        _compose(sigma_map(n, i), sigma_map(n + 1, k + 1))))
    for k in range(n + 1):
        for i in range(k + 1, n + 2):
            out.append((f"s_{i} H_{k} = H_{k} s_{i - 1}",
                        _compose(sigma_map(n, k), sigma_map(n + 1, i)),
                        _compose(sigma_map(n, i - 1), sigma_map(n + 1, k))))
    return out


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
            lhs = tuple(h.op(a, b) for a, b in zip(eta_t, w))
            rhs = tuple(h.op(a, b) for a, b in zip(push, eta_s))
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
