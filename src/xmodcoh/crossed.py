"""Crossed modules and their nonabelian cohomology in low degree.

A crossed module is a homomorphism boundary: H -> G together with a G-action
on H satisfying equivariance (boundary(g.u) = g boundary(u) g^-1) and the
Peiffer identity (boundary(u).v = u v u^-1).

A 1-cocycle of a finite group on a crossed module is a pair (alpha, u) with
alpha: group -> G and u: group^2 -> H satisfying

    alpha_g alpha_h = boundary(u_{g,h}) alpha_{gh}
    alpha_g . u_{h,k}  *  u_{g,hk}  =  u_{g,h} * u_{gh,k}

normalized so alpha_e = 1 and u vanishes when either index is the identity.
Two cocycles are equivalent when a pair (gamma, w) transforms one into the
other; the equivalence classes form the pointed set H^1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cohomology import (Cochain, CohomologyGroup, cochain_from_function,
                         cohomology, evaluate)
from .coefficients import finite_abelian
from .errors import InvariantError, ResourceLimit
from .groups import (AbelianBasis, FiniteGroup, abelian_basis,
                     hom_violations)


def xmod_violations(hgroup: FiniteGroup, ggroup: FiniteGroup,
                    boundary, action) -> list[str]:
    problems: list[str] = []
    if len(boundary) != hgroup.order:
        return ["boundary must map every element of H"]
    if any(not isinstance(x, int) or not 0 <= x < ggroup.order
           for x in boundary):
        return ["boundary values must be elements of G"]
    for a in hgroup.elements():
        for b in hgroup.elements():
            if boundary[hgroup.mul[a][b]] != \
                    ggroup.mul[boundary[a]][boundary[b]]:
                problems.append(f"boundary({a}*{b}) != boundary({a})*boundary({b})")
    if len(action) != ggroup.order or any(len(row) != hgroup.order
                                          for row in action):
        return problems + ["action must be a |G| x |H| table"]
    e = ggroup.identity
    if tuple(action[e]) != tuple(hgroup.elements()):
        problems.append("identity of G must act trivially")
    for g in ggroup.elements():
        if sorted(action[g]) != list(hgroup.elements()):
            problems.append(f"action of {g} is not a bijection of H")
        for a in hgroup.elements():
            for b in hgroup.elements():
                if action[g][hgroup.mul[a][b]] != \
                        hgroup.mul[action[g][a]][action[g][b]]:
                    problems.append(f"action of {g} is not a homomorphism "
                                    f"at ({a}, {b})")
                    break
            else:
                continue
            break
    for g in ggroup.elements():
        for h in ggroup.elements():
            gh = ggroup.mul[g][h]
            for a in hgroup.elements():
                if action[g][action[h][a]] != action[gh][a]:
                    problems.append(f"action is not multiplicative at ({g}, {h})")
                    break
            else:
                continue
            break
    for g in ggroup.elements():
        for a in hgroup.elements():
            if boundary[action[g][a]] != ggroup.conj(g, boundary[a]):
                problems.append(
                    f"equivariance fails: boundary({g}.{a}) != "
                    f"{g} boundary({a}) {g}^-1")
    for a in hgroup.elements():
        for b in hgroup.elements():
            if action[boundary[a]][b] != \
                    hgroup.mul[hgroup.mul[a][b]][hgroup.inv[a]]:
                problems.append(
                    f"Peiffer identity fails at ({a}, {b}): "
                    f"boundary({a}).{b} != {a}{b}{a}^-1")
    return problems


@dataclass(frozen=True)
class CrossedModule:
    """boundary: H -> G with a G-action on H."""

    hgroup: FiniteGroup
    ggroup: FiniteGroup
    boundary: tuple[int, ...]
    action: tuple[tuple[int, ...], ...]
    label: str = ""

    def __post_init__(self):
        problems = xmod_violations(self.hgroup, self.ggroup,
                                   self.boundary, self.action)
        if problems:
            raise ValueError("not a crossed module: " + "; ".join(problems))

    def act(self, g: int, a: int) -> int:
        return self.action[g][a]

    def boundary_image(self) -> frozenset[int]:
        return frozenset(self.boundary)

    def kernel_elements(self) -> tuple[int, ...]:
        e = self.ggroup.identity
        return tuple(a for a in self.hgroup.elements()
                     if self.boundary[a] == e)


def validate_xmod(x: CrossedModule) -> list[str]:
    """Violation report for an already-constructed crossed module (empty = ok)."""
    return xmod_violations(x.hgroup, x.ggroup, x.boundary, x.action)


@dataclass(frozen=True)
class XModMorphism:
    """A pair of homomorphisms commuting with boundaries and actions."""

    source: CrossedModule
    target: CrossedModule
    h_map: tuple[int, ...]
    g_map: tuple[int, ...]

    def __post_init__(self):
        problems = self.violations()
        if problems:
            raise ValueError("not a crossed-module morphism: "
                             + "; ".join(problems))

    def violations(self) -> list[str]:
        s, t = self.source, self.target
        problems = []
        problems += [f"H-map: {p}" for p in
                     hom_violations(s.hgroup, t.hgroup, self.h_map)]
        problems += [f"G-map: {p}" for p in
                     hom_violations(s.ggroup, t.ggroup, self.g_map)]
        if problems:
            return problems
        for a in s.hgroup.elements():
            if self.g_map[s.boundary[a]] != t.boundary[self.h_map[a]]:
                problems.append(f"boundary square fails at {a}")
        for g in s.ggroup.elements():
            for a in s.hgroup.elements():
                if self.h_map[s.act(g, a)] != \
                        t.act(self.g_map[g], self.h_map[a]):
                    problems.append(f"action square fails at ({g}, {a})")
        return problems


# ---------------------------------------------------------------------------
# 1-cocycles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cocycle1:
    """(alpha, u) with the full u-table flattened over group^2."""

    alpha: tuple[int, ...]
    u: tuple[int, ...]

    def key(self) -> tuple:
        return (self.alpha, self.u)

    def u_at(self, order: int, g: int, h: int) -> int:
        return self.u[g * order + h]


def cocycle_violations(group: FiniteGroup, x: CrossedModule,
                       c: Cocycle1) -> list[str]:
    n = group.order
    problems = []
    if len(c.alpha) != n or len(c.u) != n * n:
        return ["cocycle tables have the wrong size"]
    if any(not 0 <= a < x.ggroup.order for a in c.alpha):
        return ["alpha values must be elements of G"]
    if any(not 0 <= v < x.hgroup.order for v in c.u):
        return ["u values must be elements of H"]
    e = group.identity
    if c.alpha[e] != x.ggroup.identity:
        problems.append("alpha at the identity must be 1")
    eh = x.hgroup.identity
    for g in group.elements():
        if c.u[g * n + e] != eh or c.u[e * n + g] != eh:
            problems.append(f"u must vanish on identity pairs (at {g})")
    gg, hh = x.ggroup, x.hgroup
    for g in group.elements():
        for h in group.elements():
            lhs = gg.mul[c.alpha[g]][c.alpha[h]]
            rhs = gg.mul[x.boundary[c.u[g * n + h]]][c.alpha[group.mul[g][h]]]
            if lhs != rhs:
                problems.append(f"alpha relation fails at ({g}, {h})")
    for g in group.elements():
        for h in group.elements():
            for k in group.elements():
                lhs = hh.mul[x.act(c.alpha[g], c.u[h * n + k])][
                    c.u[g * n + group.mul[h][k]]]
                rhs = hh.mul[c.u[g * n + h]][c.u[group.mul[g][h] * n + k]]
                if lhs != rhs:
                    problems.append(f"u relation fails at ({g}, {h}, {k})")
    return problems


def trivial_cocycle(group: FiniteGroup, x: CrossedModule) -> Cocycle1:
    return Cocycle1((x.ggroup.identity,) * group.order,
                    (x.hgroup.identity,) * group.order ** 2)


@dataclass(frozen=True)
class Witness1:
    """(gamma, w) transforming one 1-cocycle into another; w_e = 1."""

    gamma: int
    w: tuple[int, ...]


def transform_cocycle(group: FiniteGroup, x: CrossedModule, c: Cocycle1,
                      gamma: int, w) -> Cocycle1:
    """Apply the coboundary transformation (gamma, w) to (alpha, u)."""
    n = group.order
    gg, hh = x.ggroup, x.hgroup
    if w[group.identity] != hh.identity:
        raise ValueError("witness must have w = 1 at the identity")
    gi = gg.inv[gamma]
    alpha = tuple(
        gg.mul[x.boundary[w[g]]][gg.mul[gamma][gg.mul[c.alpha[g]][gi]]]
        for g in group.elements())
    u = []
    for g in group.elements():
        for h in group.elements():
            inner = hh.mul[x.act(c.alpha[g], x.act(gi, w[h]))][c.u[g * n + h]]
            val = hh.mul[w[g]][hh.mul[x.act(gamma, inner)][
                hh.inv[w[group.mul[g][h]]]]]
            u.append(val)
    return Cocycle1(alpha, tuple(u))


def enumerate_Z1(group: FiniteGroup, x: CrossedModule,
                 budget: int = 100_000_000) -> list[Cocycle1]:
    """All normalized 1-cocycles, lexicographically ordered by (alpha, u).

    Enumerates alpha maps whose failure-to-be-a-homomorphism lands in the
    boundary image, then backtracks over the u-table positions, each ranging
    over a boundary fiber, pruning with the u relation as soon as all of a
    triple's positions are assigned.  The backtracking keeps its own stack,
    so the (|group|-1)^2 positions may outnumber Python's recursion limit.
    """
    n = group.order
    e = group.identity
    gg, hh = x.ggroup, x.hgroup
    nz = [g for g in group.elements() if g != e]
    fibers: dict[int, list[int]] = {}
    for a in hh.elements():
        fibers.setdefault(x.boundary[a], []).append(a)
    max_fiber = max(len(v) for v in fibers.values())
    est = (gg.order ** len(nz)) * (max_fiber ** (len(nz) ** 2))
    if est > budget:
        raise ResourceLimit("1-cocycle enumeration candidates", est, budget)
    # every (g, h, k) triple is scheduled as a tuple before the search
    if len(nz) ** 3 > budget:
        raise ResourceLimit("1-cocycle enumeration relations", len(nz) ** 3,
                            budget)

    positions = [(g, h) for g in nz for h in nz]
    pos_index = {p: i for i, p in enumerate(positions)}
    # schedule each (g,h,k) triple at the latest involved variable position,
    # as g and the u-table slots of the relation
    # alpha(g).u(h,k) * u(g,hk) = u(g,h) * u(gh,k); the tuples share the
    # slot ints of one list instead of holding fresh ones
    slot = list(range(n * n))
    constraints: list[list[tuple[int, ...]]] = [[] for _ in positions]
    for g in nz:
        for h in nz:
            for k in nz:
                gh, hk = group.mul[g][h], group.mul[h][k]
                involved = [(g, h), (h, k)]
                if hk != e:
                    involved.append((g, hk))
                if gh != e:
                    involved.append((gh, k))
                last = max(pos_index[p] for p in involved)
                constraints[last].append(
                    (g, slot[h * n + k], slot[g * n + hk], slot[g * n + h],
                     slot[gh * n + k]))

    slots = [g * n + h for g, h in positions]
    out: list[Cocycle1] = []
    u_table = [hh.identity] * (n * n)
    hmul, act = hh.mul, x.action

    for alpha_nz in itertools.product(gg.elements(), repeat=len(nz)):
        alpha = [gg.identity] * n
        for g, a in zip(nz, alpha_nz):
            alpha[g] = a
        options = []  # the boundary fiber over each position's defect
        for g, h in positions:
            d = gg.mul[gg.mul[alpha[g]][alpha[h]]][
                gg.inv[alpha[group.mul[g][h]]]]
            if d not in fibers:
                break
            options.append(fibers[d])
        if len(options) < len(positions):
            continue

        def holds(g: int, hk: int, g_hk: int, g_h: int, gh_k: int) -> bool:
            return (hmul[act[alpha[g]][u_table[hk]]][u_table[g_hk]]
                    == hmul[u_table[g_h]][u_table[gh_k]])

        # depth first with an explicit stack: tried[i] counts the fiber
        # values tried at position i since position i-1 last moved
        tried = [0] * len(positions)
        i = 0
        while i >= 0:
            if i == len(positions):
                out.append(Cocycle1(tuple(alpha), tuple(u_table)))
                i -= 1
            elif tried[i] == len(options[i]):
                tried[i] = 0
                i -= 1
            else:
                u_table[slots[i]] = options[i][tried[i]]
                tried[i] += 1
                if all(holds(*t) for t in constraints[i]):
                    i += 1
    out.sort(key=Cocycle1.key)
    return out


def is_free_faithful(group: FiniteGroup, x: CrossedModule,
                     c: Cocycle1) -> bool:
    """alpha avoids the boundary image away from the identity."""
    img = x.boundary_image()
    e = group.identity
    return all(c.alpha[g] not in img
               for g in group.elements() if g != e)


def _witness_iter(group: FiniteGroup, x: CrossedModule, strict: bool):
    n = group.order
    e = group.identity
    nz = [g for g in group.elements() if g != e]
    gammas = [x.ggroup.identity] if strict else list(x.ggroup.elements())
    for gamma in gammas:
        for w_nz in itertools.product(x.hgroup.elements(), repeat=len(nz)):
            w = [x.hgroup.identity] * n
            for g, v in zip(nz, w_nz):
                w[g] = v
            yield gamma, tuple(w)


@dataclass(frozen=True)
class H1Class:
    representative: Cocycle1
    size: int
    free_faithful: bool


@dataclass
class H1PointedSet:
    """H^1 of a finite group on a crossed module, as a pointed set.

    Classes are listed with lexicographically least representatives, in
    representative order; ``basepoint`` is the index of the trivial class
    (None in the free-and-faithful variant when the trivial class is cut)."""

    group: FiniteGroup
    xmod: CrossedModule
    classes: tuple[H1Class, ...]
    basepoint: int | None
    _class_of: dict

    def class_of(self, c: Cocycle1) -> int:
        try:
            return self._class_of[c.key()]
        except KeyError:
            raise ValueError("cocycle is not in the enumerated set "
                             "(is it normalized and valid?)") from None

    def size(self) -> int:
        return len(self.classes)


def _pointed_set(group: FiniteGroup, x: CrossedModule,
                 cocycles: list[Cocycle1], strict: bool) -> H1PointedSet:
    """The classes of ``cocycles`` under the coboundary transformations,
    with the class of the trivial cocycle as basepoint (None if it is not
    among them)."""
    index = {c.key(): i for i, c in enumerate(cocycles)}
    assigned = [-1] * len(cocycles)
    classes = []
    for i, c in enumerate(cocycles):
        if assigned[i] >= 0:
            continue
        cls = len(classes)
        members = set()
        for gamma, w in _witness_iter(group, x, strict):
            key = transform_cocycle(group, x, c, gamma, w).key()
            j = index.get(key)
            if j is None:
                raise InvariantError("transform escaped the cocycle set")
            if assigned[j] >= 0 and assigned[j] != cls:
                raise InvariantError("transform orbits are not disjoint")
            assigned[j] = cls
            members.add(j)
        classes.append(H1Class(c, len(members),
                               is_free_faithful(group, x, c)))
    class_of = {c.key(): assigned[i] for i, c in enumerate(cocycles)}
    base = class_of.get(trivial_cocycle(group, x).key())
    return H1PointedSet(group, x, tuple(classes), base, class_of)


def compute_H1(group: FiniteGroup, x: CrossedModule, strict: bool = False,
               budget: int = 100_000_000) -> H1PointedSet:
    return _pointed_set(group, x, enumerate_Z1(group, x, budget), strict)


def compute_H1_ff(group: FiniteGroup, x: CrossedModule, strict: bool = False,
                  budget: int = 100_000_000) -> H1PointedSet:
    """H^1 computed from free-and-faithful cocycles only."""
    cocycles = [c for c in enumerate_Z1(group, x, budget)
                if is_free_faithful(group, x, c)]
    return _pointed_set(group, x, cocycles, strict)


def pushforward(m: XModMorphism, group: FiniteGroup,
                c: Cocycle1) -> Cocycle1:
    """Apply a crossed-module morphism to a 1-cocycle."""
    out = Cocycle1(tuple(m.g_map[a] for a in c.alpha),
                   tuple(m.h_map[v] for v in c.u))
    problems = cocycle_violations(group, m.target, out)
    if problems:
        raise InvariantError("pushforward is not a cocycle: "
                             + "; ".join(problems))
    return out


# ---------------------------------------------------------------------------
# the abelian shift: H^1(G, (H -> 1)) = H^2(G, H)
# ---------------------------------------------------------------------------

@dataclass
class AbelianShift:
    """Bijection data between H^1 on (H -> 1) and abelian H^2 with trivial
    action: ``pairs[i]`` maps class i of ``h1`` to coordinates in ``h2``."""

    h1: H1PointedSet
    h2: CohomologyGroup
    basis: AbelianBasis
    pairs: tuple[tuple[int, tuple[int, ...]], ...]

    def cocycle_to_cochain(self, group: FiniteGroup, c: Cocycle1) -> Cochain:
        n = group.order
        return cochain_from_function(
            group, self.h2.module, 2,
            lambda g, h: self.basis.vector_of(c.u[g * n + h]))

    def cochain_to_cocycle(self, group: FiniteGroup, z: Cochain) -> Cocycle1:
        u = tuple(self.basis.element_of(evaluate(group, z, (g, h)))
                  for g in group.elements() for h in group.elements())
        return Cocycle1((0,) * group.order, u)


def abelian_shift(group: FiniteGroup, x: CrossedModule,
                  strict: bool = False,
                  budget: int = 100_000_000) -> AbelianShift:
    """Match H^1(group, (H->1)) with H^2(group, H) (trivial action).

    Requires the crossed module to have trivial target group (so H is
    abelian).  Verifies the correspondence is a bijection.
    """
    if x.ggroup.order != 1:
        raise ValueError("the shift needs a trivial target group")
    basis = abelian_basis(x.hgroup)
    module = finite_abelian(group, basis.orders)
    h2 = cohomology(group, module, 2)
    h1 = compute_H1(group, x, strict=strict, budget=budget)
    shift = AbelianShift(h1, h2, basis, ())
    seen = {}
    pairs = []
    for i, cls in enumerate(h1.classes):
        coords = h2.classify(shift.cocycle_to_cochain(group,
                                                      cls.representative))
        if coords in seen:
            raise RuntimeError("shift is not injective on classes")
        seen[coords] = i
        pairs.append((i, coords))
    if len(pairs) != h2.order:
        raise RuntimeError(
            f"shift misses classes: {len(pairs)} vs |H^2| = {h2.order}")
    # surjectivity: every coordinate tuple is hit
    for coords in h2.all_classes():
        if tuple(coords) not in seen:
            raise RuntimeError("shift is not surjective on classes")
    shift.pairs = tuple(pairs)
    return shift
