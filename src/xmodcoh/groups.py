"""Finite groups presented by multiplication tables.

Elements of a group of order n are the integers 0..n-1; the table
``mul[a][b]`` gives the product.  The identity and inverses are derived from
the table, so relabelled (permuted) tables are first-class groups too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd

from .errors import InvariantError


def group_violations(mul) -> list[str]:
    """All multiplication-table axioms that fail, as human-readable strings."""
    n = len(mul)
    problems = []
    if n == 0:
        return ["empty table"]
    for i, row in enumerate(mul):
        if len(row) != n:
            return [f"row {i} has length {len(row)}, expected {n}"]
        for j, x in enumerate(row):
            if not isinstance(x, int) or not 0 <= x < n:
                return [f"entry mul[{i}][{j}] = {x!r} is not an element index"]
    identity = None
    for e in range(n):
        if all(mul[e][x] == x and mul[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        problems.append("no two-sided identity element")
    else:
        for a in range(n):
            if identity not in mul[a]:
                problems.append(f"element {a} has no inverse")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    problems.append(
                        f"associativity fails at ({a}, {b}, {c})")
                    if len(problems) > 10:
                        problems.append("... (further violations suppressed)")
                        return problems
    return problems


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its full multiplication table."""

    mul: tuple[tuple[int, ...], ...]
    label: str = ""
    identity: int = field(init=False, compare=False, repr=False)
    inv: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        problems = group_violations(self.mul)
        if problems:
            raise ValueError("not a group table: " + "; ".join(problems))
        n = len(self.mul)
        e = next(i for i in range(n)
                 if all(self.mul[i][x] == x for x in range(n)))
        inv = tuple(self.mul[a].index(e) for a in range(n))
        object.__setattr__(self, "identity", e)
        object.__setattr__(self, "inv", inv)

    @property
    def order(self) -> int:
        return len(self.mul)

    def elements(self) -> range:
        return range(self.order)

    def op(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def prod(self, elems) -> int:
        out = self.identity
        for x in elems:
            out = self.mul[out][x]
        return out

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul[self.mul[g][x]][self.inv[g]]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv[a], -k
        out = self.identity
        while k:
            if k & 1:
                out = self.mul[out][a]
            a = self.mul[a][a]
            k >>= 1
        return out

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.mul[x][a]
            k += 1
        return k

    def exponent(self) -> int:
        out = 1
        for a in self.elements():
            o = self.element_order(a)
            out = out * o // gcd(out, o)
        return out

    def is_abelian(self) -> bool:
        return all(self.mul[a][b] == self.mul[b][a]
                   for a in self.elements() for b in self.elements())


def make_cyclic(n: int, label: str | None = None) -> FiniteGroup:
    if n < 1:
        raise ValueError("order must be positive")
    mul = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return FiniteGroup(mul, label if label is not None else f"C{n}")


def trivial_group() -> FiniteGroup:
    return make_cyclic(1, "1")


def make_product(g: FiniteGroup, h: FiniteGroup,
                 label: str | None = None) -> FiniteGroup:
    """Direct product; element (a, b) is the index a*|h| + b."""
    nh = h.order
    size = g.order * nh
    mul = []
    for x in range(size):
        a, b = divmod(x, nh)
        row = []
        for y in range(size):
            c, d = divmod(y, nh)
            row.append(g.mul[a][c] * nh + h.mul[b][d])
        mul.append(tuple(row))
    if label is None:
        label = f"{g.label or 'G'}x{h.label or 'H'}"
    return FiniteGroup(tuple(mul), label)


def make_symmetric(n: int, label: str | None = None) -> FiniteGroup:
    """Symmetric group on n letters; elements are permutations in lex order.

    The product p*q acts by q first, then p (function composition).
    """
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    mul = tuple(
        tuple(index[tuple(p[q[i]] for i in range(n))] for q in perms)
        for p in perms)
    return FiniteGroup(mul, label if label is not None else f"S{n}")


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


def hom_violations(source: FiniteGroup, target: FiniteGroup,
                   mapping) -> list[str]:
    problems = []
    if len(mapping) != source.order:
        return [f"mapping has length {len(mapping)}, expected {source.order}"]
    for x in mapping:
        if not isinstance(x, int) or not 0 <= x < target.order:
            return [f"mapping value {x!r} is not a target element"]
    for a in source.elements():
        for b in source.elements():
            if mapping[source.mul[a][b]] != target.mul[mapping[a]][mapping[b]]:
                problems.append(f"f({a}*{b}) != f({a})*f({b})")
                if len(problems) > 10:
                    problems.append("... (further violations suppressed)")
                    return problems
    return problems


@dataclass(frozen=True)
class GroupHom:
    """A group homomorphism as an element-wise map."""

    source: FiniteGroup
    target: FiniteGroup
    mapping: tuple[int, ...]

    def __post_init__(self):
        problems = hom_violations(self.source, self.target, self.mapping)
        if problems:
            raise ValueError("not a homomorphism: " + "; ".join(problems))

    def __call__(self, a: int) -> int:
        return self.mapping[a]

    def image(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.mapping)))

    def kernel(self) -> tuple[int, ...]:
        e = self.target.identity
        return tuple(a for a in self.source.elements() if self.mapping[a] == e)

    def is_surjective(self) -> bool:
        return len(set(self.mapping)) == self.target.order

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == self.source.order

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self o inner."""
        if inner.target is not self.source and inner.target != self.source:
            raise ValueError("composition mismatch")
        return GroupHom(inner.source, self.target,
                        tuple(self.mapping[x] for x in inner.mapping))


def identity_hom(g: FiniteGroup) -> GroupHom:
    return GroupHom(g, g, tuple(g.elements()))


def trivial_hom(source: FiniteGroup, target: FiniteGroup) -> GroupHom:
    return GroupHom(source, target, (target.identity,) * source.order)


def conjugation_automorphism(g: FiniteGroup, gamma: int) -> GroupHom:
    return GroupHom(g, g, tuple(g.conj(gamma, x) for x in g.elements()))


def generated_subgroup(g: FiniteGroup, gens) -> tuple[int, ...]:
    """Sorted elements of the subgroup generated by ``gens``."""
    seen = {g.identity}
    frontier = [g.identity]
    gens = list(gens)
    while frontier:
        x = frontier.pop()
        for a in gens:
            y = g.mul[x][a]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return tuple(sorted(seen))


@dataclass(frozen=True)
class AbelianBasis:
    """An internal direct-sum basis of a finite abelian (sub)group.

    ``orders`` is the invariant-factor chain d1 | d2 | ... ; the element with
    exponent vector (v1, ..., vk) is gens[0]^v1 * ... * gens[k-1]^vk.
    """

    elements: tuple[int, ...]
    gens: tuple[int, ...]
    orders: tuple[int, ...]
    to_vector: dict
    from_vector: dict

    def vector_of(self, a: int) -> tuple[int, ...]:
        return self.to_vector[a]

    def element_of(self, vec) -> int:
        return self.from_vector[tuple(v % d for v, d in zip(vec, self.orders))]


def abelian_basis(g: FiniteGroup, elems=None) -> AbelianBasis:
    """Decompose an abelian subgroup into cyclic factors with d1 | d2 | ...

    ``elems`` must be closed under the group operation (defaults to all of g).
    """
    if elems is None:
        elems = tuple(g.elements())
    elems = tuple(sorted(elems))
    elem_set = set(elems)
    for a in elems:
        for b in elems:
            if g.mul[a][b] != g.mul[b][a]:
                raise ValueError(f"subgroup is not abelian at ({a}, {b})")
            if g.mul[a][b] not in elem_set:
                raise ValueError("element set is not closed under the product")
    gens, orders = _abelian_gens(g, elems)
    to_vec: dict[int, tuple[int, ...]] = {}
    from_vec: dict[tuple[int, ...], int] = {}
    for exps in itertools.product(*[range(d) for d in orders]):
        x = g.prod(g.power(a, k) for a, k in zip(gens, exps))
        if x in to_vec:
            raise InvariantError("abelian decomposition failed to be direct")
        to_vec[x] = exps
        from_vec[exps] = x
    if len(to_vec) != len(elems):
        raise InvariantError("abelian decomposition misses elements")
    return AbelianBasis(elems, tuple(gens), tuple(orders), to_vec, from_vec)


def _abelian_gens(g: FiniteGroup, elems):
    if len(elems) == 1:
        return [], []
    a = max(elems, key=g.element_order)
    d = g.element_order(a)
    cyc = set(generated_subgroup(g, [a]))
    # quotient by <a>: canonical representative = least member of the coset
    rep: dict[int, int] = {}
    for x in elems:
        coset = min(g.mul[x][t] for t in cyc)
        rep[x] = coset
    reps = sorted(set(rep.values()))
    idx = {r: i for i, r in enumerate(reps)}
    qmul = tuple(tuple(idx[rep[g.mul[r][s]]] for s in reps) for r in reps)
    quotient = FiniteGroup(qmul, "quotient")
    qgens, qorders = _abelian_gens(quotient, tuple(quotient.elements()))
    gens = []
    for qi, m in zip(qgens, qorders):
        coset_rep = reps[qi]
        lift = next(y for t in cyc
                    if g.element_order(y := g.mul[coset_rep][t]) == m)
        gens.append(lift)
    return gens + [a], list(qorders) + [d]
