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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb

from .crossed import CrossedModule
from .errors import ResourceLimit
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
    u = (x.hgroup.identity,) * len(list(combinations(range(n + 1), 3)))
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

@dataclass(frozen=True)
class LaxChain:
    """A composable chain of transformations between pseudofunctors on [n]."""

    n: int
    objects: tuple
    ws: tuple

    @property
    def m(self) -> int:
        return len(self.ws)


def make_chain(x: CrossedModule, x0: PseudofunctorSimplex,
               ws: tuple) -> LaxChain:
    objs = [x0]
    for w in ws:
        objs.append(transport_simplex(x, objs[-1], w).target)
    return LaxChain(x0.n, tuple(objs), tuple(ws))


def chain_reindex(x: CrossedModule, c: LaxChain,
                  theta: tuple[int, ...]) -> LaxChain:
    objs = tuple(reindex(x, o, theta) for o in c.objects)
    ws = tuple(pull_table(x, c.n, w, theta) for w in c.ws)
    return LaxChain(len(theta) - 1, objs, ws)


def chain_face_v(x: CrossedModule, c: LaxChain, i: int) -> LaxChain:
    return chain_reindex(x, c, delta_map(c.n, i))


def chain_degen_v(x: CrossedModule, c: LaxChain, i: int) -> LaxChain:
    return chain_reindex(x, c, sigma_map(c.n, i))


def chain_collapse_h(x: CrossedModule, c: LaxChain) -> LaxChain:
    """s0_h d0_h: drop the first transformation, restart with the identity."""
    e = (x.hgroup.identity,) * len(c.ws[0])
    return LaxChain(c.n, (c.objects[1],) + c.objects[1:], (e,) + c.ws[1:])


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


def homotopy_chain(x: CrossedModule, c: LaxChain, k: int) -> LaxChain:
    """Degree-k prism image of a chain (filler, connector, degenerate tail)."""
    sig = sigma_map(c.n, k)
    head = mu_simplex(x, c.objects[0], c.ws[0], c.objects[1], k)
    objs = (head,) + tuple(reindex(x, o, sig) for o in c.objects[1:])
    ws = (h_table(x, c.ws[0], c.n, k),) + tuple(
        pull_table(x, c.n, w, sig) for w in c.ws[1:])
    return LaxChain(c.n + 1, objs, ws)


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


def _identity_pairs(n: int):
    """(name, lhs-map, rhs-map) composites that settle all later slots."""
    out = []
    out.append(("d0 H0 = id",
                _compose(sigma_map(n, 0), delta_map(n + 1, 0)),
                tuple(range(n + 1))))
    out.append(("d_{n+1} Hn = collapse",
                _compose(sigma_map(n, n), delta_map(n + 1, n + 1)),
                tuple(range(n + 1))))
    for k in range(n + 1):
        for i in range(k):
            if k >= 1:
                out.append((f"d_{i} H_{k} = H_{k - 1} d_{i}",
                            _compose(sigma_map(n, k), delta_map(n + 1, i)),
                            _compose(delta_map(n, i), sigma_map(n - 1, k - 1))
                            if n >= 1 else None))
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


def _check_head(x: CrossedModule, x0: PseudofunctorSimplex,
                w0: tuple[int, ...], tag: str) -> list[str]:
    """All head-dependent identities for one (object, first morphism)."""
    n = x0.n
    bad: list[str] = []
    nt = transport_simplex(x, x0, w0)
    x1 = nt.target
    mus = [mu_simplex(x, x0, w0, x1, k) for k in range(n + 1)]
    hts = [h_table(x, w0, n, k) for k in range(n + 1)]

    if mus[0] != reindex(x, x0, sigma_map(n, 0)):
        bad.append(f"filler at 0 is not the degenerate start ({tag})")
    for k in range(n + 1):
        target = reindex(x, x1, sigma_map(n, k))
        probs = pseudofunctor_violations(x, mus[k])
        probs += nat_violations(
            x, NatTransform(mus[k], target, hts[k]))
        bad += [f"degree {k}: {p} ({tag})" for p in probs]
    return bad + check_chain(x, LaxChain(n, (x0, x1), (w0,)), tag)


def _first_difference(a: LaxChain, b: LaxChain) -> str | None:
    """The first slot where two chains of equal length differ, if any."""
    for i, (oa, ob) in enumerate(zip(a.objects, b.objects)):
        if oa != ob:
            return "filler" if i == 0 else f"object {i}"
        if i < a.m and a.ws[i] != b.ws[i]:
            return "connector" if i == 0 else f"morphism {i}"
    return None


def check_chain(x: CrossedModule, c: LaxChain, tag: str) -> list[str]:
    """Replay every prism identity literally on one full chain.

    A failure names the identity and the first slot where its two sides
    differ: the filler or connector in slot 0, a later object or morphism
    after that.
    """
    n = c.n
    bad: list[str] = []

    def expect(what: str, lhs: LaxChain, rhs: LaxChain) -> None:
        slot = _first_difference(lhs, rhs)
        if slot is not None:
            bad.append(f"{what}: {slot} differs ({tag})")

    hs = [homotopy_chain(x, c, k) for k in range(n + 1)]
    expect("d_0 H_0 is not the identity side", chain_face_v(x, hs[0], 0), c)
    expect(f"d_{n + 1} H_{n} is not the collapsed side",
           chain_face_v(x, hs[n], n + 1), chain_collapse_h(x, c))
    for k in range(n + 1):
        for i in range(n + 2):
            if i < k:
                rhs = homotopy_chain(x, chain_face_v(x, c, i), k - 1)
            elif i > k + 1:
                rhs = homotopy_chain(x, chain_face_v(x, c, i - 1), k)
            else:
                continue
            expect(f"face {i} square at degree {k}",
                   chain_face_v(x, hs[k], i), rhs)
    for k in range(n):
        expect(f"adjacent prism faces at {k + 1}",
               chain_face_v(x, hs[k + 1], k + 1), chain_face_v(x, hs[k], k + 1))
    for k in range(n + 1):
        for i in range(n + 2):
            rhs = (homotopy_chain(x, chain_degen_v(x, c, i), k + 1) if i <= k
                   else homotopy_chain(x, chain_degen_v(x, c, i - 1), k))
            expect(f"degeneracy {i} square at degree {k}",
                   chain_degen_v(x, hs[k], i), rhs)
    return bad


@lru_cache(maxsize=32)
def _head_suite(x: CrossedModule, n: int) -> tuple:
    """Exhaustive n-dependent checks: section/retraction, eta, heads."""
    g, h = x.ggroup, x.hgroup
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

    objects = _enumerate_duskin_level(x, n)
    pairs = len(pair_positions(n))

    # (b) the connecting transformation, objectwise and naturally
    for oi, s in enumerate(objects):
        eta = eta_table(x, s)
        probs = nat_violations(
            x, NatTransform(s, strict_include(x, strict_project(x, s)), eta))
        bad += [f"eta at object {oi}: {p}" for p in probs]
    for oi, s in enumerate(objects):
        eta_s = eta_table(x, s)
        for w in product(h.elements(), repeat=pairs):
            nt = transport_simplex(x, s, w)
            eta_t = eta_table(x, nt.target)
            push = strict_project_morphism(x, nt)
            lhs = tuple(h.op(a, b) for a, b in zip(eta_t, w))
            rhs = tuple(h.op(a, b) for a, b in zip(push, eta_s))
            if lhs != rhs:
                bad.append(f"eta is not natural at object {oi}, "
                           f"morphism {w}")

    # prism identity index maps (settle every slot beyond the head)
    for name, lhs, rhs in _identity_pairs(n):
        if rhs is not None and lhs != rhs:
            bad.append(f"index maps differ for {name}")

    # (c)+(d) heads
    heads = 0
    for oi, s in enumerate(objects):
        for w in product(h.elements(), repeat=pairs):
            bad += _check_head(x, s, w, f"object {oi}, morphism {w}")
            heads += 1
    return tuple(bad), len(objects), h.order ** pairs, heads


def verify_appendix_retraction(x: CrossedModule, n: int, m: int,
                               sample: int = 200, seed: int = 0,
                               budget: int = 10 ** 7) -> RetractionReport:
    """Verify the deformation-retraction data on chains of length m over [n].

    Head-dependent identities are checked exhaustively; identities touching
    later chain slots reduce to index-map equalities, checked once.  A
    seeded sample of full chains is replayed literally as a cross-check
    (exhaustively, when the chain space is no larger than the sample).
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    g, h = x.ggroup, x.hgroup
    pairs = len(pair_positions(n))
    est_heads = (g.order ** n * h.order ** comb(n + 1, 3)
                 * h.order ** pairs)
    if est_heads > budget:
        raise ResourceLimit("retraction head enumeration", est_heads, budget)

    failures, n_objects, n_morph, heads = _head_suite(x, n)
    failures = list(failures)

    objects = _enumerate_duskin_level(x, n)
    chains_total = len(objects) * n_morph ** m
    rng = random.Random(seed)
    w_space = list(product(h.elements(), repeat=pairs))

    def chain_at(obj_idx: int, w_idxs: tuple[int, ...]) -> LaxChain:
        return make_chain(x, objects[obj_idx],
                          tuple(w_space[i] for i in w_idxs))

    sampled = 0
    if chains_total <= sample:
        for obj_idx in range(len(objects)):
            for w_idxs in product(range(len(w_space)), repeat=m):
                failures += check_chain(
                    x, chain_at(obj_idx, w_idxs),
                    f"object {obj_idx}, morphisms {w_idxs}")
                sampled += 1
    else:
        for _ in range(sample):
            obj_idx = rng.randrange(len(objects))
            w_idxs = tuple(rng.randrange(len(w_space)) for _ in range(m))
            failures += check_chain(
                x, chain_at(obj_idx, w_idxs),
                f"object {obj_idx}, morphisms {w_idxs}")
            sampled += 1

    return RetractionReport(
        label=x.label, n=n, m=m, objects=n_objects,
        morphisms_per_object=n_morph, chains_total=chains_total,
        heads_checked=heads, sampled_chains=sampled, failures=failures)
