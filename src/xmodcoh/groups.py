"""Finite groups presented by multiplication tables.

Elements of a group of order n are the integers 0..n-1; the table
``mul[a][b]`` gives the product.  The identity and inverses are derived from
the table, so relabelled (permuted) tables are first-class groups too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import itemgetter

from .errors import InvariantError


def _span(mul, identity: int, gens) -> set[int]:
    """The elements reached from the identity by right-multiplying by
    ``gens``: the subgroup they generate, for a group table."""
    seen, frontier = {identity}, [identity]
    while frontier:
        x = frontier.pop()
        for a in gens:
            y = mul[x][a]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def greedy_generators(mul, identity: int) -> tuple[int, ...]:
    """The elements, in order, that are not in the span of those kept
    before them: a deterministic generating set."""
    kept, span = [], {identity}
    for a in range(len(mul)):
        if a not in span:
            kept.append(a)
            span = _span(mul, identity, kept)
    return tuple(kept)


def group_violations(mul) -> list[str]:
    """All multiplication-table axioms that fail, as human-readable strings.

    Associativity is Light's test: (xy)g = x(yg) for all x, y is checked
    only for g in a generating set S reached from the identity by right
    multiplication.  The g passing it contain S and are closed under
    right multiplication by S, since (xy)(as) = ((xy)a)s = (x(ya))s =
    x((ya)s) = x(y(as)); so it is exact, at n^2*|S| products instead of
    n^3.  A table with no identity is checked at every g.
    """
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
    tests = range(n) if identity is None \
        else greedy_generators(mul, identity)
    bad = []
    for c in tests:
        col = [row[c] for row in mul]
        first = len(bad)
        for a, row in enumerate(mul):
            lhs = list(map(col.__getitem__, row))  # (ab)c over all b
            rhs = list(map(row.__getitem__, col))  # a(bc) over all b
            if lhs != rhs:
                bad += [(a, b, c) for b in range(n) if lhs[b] != rhs[b]]
                if len(bad) - first > 10:
                    break
    for a, b, c in sorted(bad)[:10]:
        problems.append(f"associativity fails at ({a}, {b}, {c})")
    if len(bad) > 10:
        problems.append("... (further violations suppressed)")
    return problems


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its full multiplication table."""

    mul: tuple[tuple[int, ...], ...]
    label: str = ""
    # False only for a table that is a group by construction
    validate: bool = field(default=True, compare=False, repr=False)
    identity: int = field(init=False, compare=False, repr=False)
    inv: tuple[int, ...] = field(init=False, compare=False, repr=False)
    # set eagerly: a cached_property would materialize the instance dict,
    # which makes every attribute load slower
    generators: tuple[int, ...] = field(init=False, compare=False,
                                        repr=False)

    def __post_init__(self):
        problems = group_violations(self.mul) if self.validate else []
        if problems:
            raise ValueError("not a group table: " + "; ".join(problems))
        n = len(self.mul)
        e = next(i for i in range(n)
                 if all(self.mul[i][x] == x for x in range(n)))
        inv = tuple(self.mul[a].index(e) for a in range(n))
        object.__setattr__(self, "identity", e)
        object.__setattr__(self, "inv", inv)
        object.__setattr__(self, "generators", greedy_generators(self.mul, e))

    @property
    def order(self) -> int:
        return len(self.mul)

    def elements(self) -> range:
        return range(self.order)

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


def make_cyclic(n: int, label: str | None = None) -> FiniteGroup:
    if n < 1:
        raise ValueError("order must be positive")
    row = tuple(range(n))
    mul = tuple(row[a:] + row[:a] for a in range(n))
    return FiniteGroup(mul, label if label is not None else f"C{n}",
                       validate=False)


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
    # (p*q)[i] = p[q[i]]: itemgetter(*q)(p) for n >= 2
    getters = [itemgetter(*q) for q in perms] if n >= 2 else [tuple]
    mul = tuple(tuple([index[g(p)] for g in getters]) for p in perms)
    return FiniteGroup(mul, label if label is not None else f"S{n}")


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


def generated_subgroup(g: FiniteGroup, gens) -> tuple[int, ...]:
    """Sorted elements of the subgroup generated by ``gens``."""
    return tuple(sorted(_span(g.mul, g.identity, list(gens))))


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
