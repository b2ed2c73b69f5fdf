"""Cohomology of a finite group with abelian coefficients (degrees 0..4).

Cochains are full tables on tuples of group elements; cohomology is computed
on the normalized subcomplex (cochains vanishing when any argument is the
identity, which computes the same groups) by one elimination over Z/m
(``modsnf``).  A finite module Z/d1 + ... + Z/dk is carried in (Z/m)^k with
m = dk: the cocycle condition on coordinate i is scaled by m/di, and the
relations di*ei join the coboundaries.  The kernel generators come from the
mod-m Smith form of the outgoing differential and the quotient from a second
Smith form, which also yields generator representatives, classification of
arbitrary cocycles, and coboundary witnesses.

Rational-circle (Q/Z) coefficients reduce to the finite model (1/m)Z/Z at a
working denominator m.  Because every class in H^n(G, Q/Z) is |G|-torsion,
the image of H^n at denominator m in H^n at denominator m*|G| is already the
exact answer for m a multiple of |G| (one saturation step computes the full
kernel of the map to the colimit); the implementation reports that image.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod

import numpy as np

from . import modsnf
from .coefficients import CIRCLE, FINITE, AbelianCoefficients
from .errors import ResourceLimit
from .groups import FiniteGroup


# ---------------------------------------------------------------------------
# cochains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cochain:
    """A map (group)^degree -> coefficients, stored as a flat table.

    The table is indexed in base ``order`` with the first argument most
    significant.  A degree-0 cochain has a single entry.
    """

    degree: int
    values: tuple
    normalized: bool


def tuple_index(order: int, args) -> int:
    idx = 0
    for a in args:
        idx = idx * order + a
    return idx


def index_to_tuple(order: int, degree: int, idx: int) -> tuple[int, ...]:
    out = []
    for _ in range(degree):
        idx, r = divmod(idx, order)
        out.append(r)
    return tuple(reversed(out))


def evaluate(group: FiniteGroup, c: Cochain, args) -> object:
    return c.values[tuple_index(group.order, args)]


@lru_cache(maxsize=64)
def _identity_positions(order: int, degree: int,
                        identity: int) -> tuple[int, ...]:
    """Flat indices of the argument tuples that contain the identity."""
    return tuple(idx for idx in range(order ** degree)
                 if identity in index_to_tuple(order, degree, idx))


def _check_normalized(group: FiniteGroup, module: AbelianCoefficients,
                      degree: int, values) -> bool:
    """Whether a cochain table vanishes wherever an argument is the identity."""
    zero = module.zero()  # stored zeros skip the reduction in is_zero
    return all(values[idx] == zero or module.is_zero(values[idx]) for idx in
               _identity_positions(group.order, degree, group.identity))


def cochain_from_function(group: FiniteGroup, module: AbelianCoefficients,
                          degree: int, fn) -> Cochain:
    order = group.order
    values = tuple(
        module.reduce(fn(*index_to_tuple(order, degree, idx)))
        for idx in range(order ** degree))
    return Cochain(degree, values,
                   _check_normalized(group, module, degree, values))


def zero_cochain(group: FiniteGroup, module: AbelianCoefficients,
                 degree: int) -> Cochain:
    return Cochain(degree, (module.zero(),) * (group.order ** degree), True)


def add_cochains(group: FiniteGroup, module: AbelianCoefficients,
                 a: Cochain, b: Cochain) -> Cochain:
    if a.degree != b.degree:
        raise ValueError("cochain degrees differ")
    values = tuple(module.add(x, y) for x, y in zip(a.values, b.values))
    return Cochain(a.degree, values,
                   _check_normalized(group, module, a.degree, values))


def scale_cochain(group: FiniteGroup, module: AbelianCoefficients,
                  k: int, a: Cochain) -> Cochain:
    values = tuple(module.scale(k, x) for x in a.values)
    return Cochain(a.degree, values,
                   _check_normalized(group, module, a.degree, values))


def sub_cochains(group: FiniteGroup, module: AbelianCoefficients,
                 a: Cochain, b: Cochain) -> Cochain:
    return add_cochains(group, module, a, scale_cochain(group, module, -1, b))


def bar_differential(group: FiniteGroup, module: AbelianCoefficients,
                     c: Cochain) -> Cochain:
    """The inhomogeneous-bar coboundary of ``c``.

    (dc)(g1,...,g_{n+1}) = g1.c(g2,...,g_{n+1})
      + sum_i (-1)^i c(g1,...,g_i g_{i+1},...,g_{n+1})
      + (-1)^{n+1} c(g1,...,g_n)
    """
    n = c.degree
    order = group.order
    out = []
    for idx in range(order ** (n + 1)):
        args = index_to_tuple(order, n + 1, idx)
        acc = module.act(args[0], evaluate(group, c, args[1:]))
        sign = 1
        for i in range(1, n + 1):
            sign = -sign
            merged = args[:i - 1] + (group.mul[args[i - 1]][args[i]],) \
                + args[i + 1:]
            acc = module.add(acc,
                             module.scale(sign, evaluate(group, c, merged)))
        acc = module.add(acc,
                         module.scale(-sign, evaluate(group, c, args[:-1])))
        out.append(acc)
    values = tuple(out)
    return Cochain(n + 1, values,
                   _check_normalized(group, module, n + 1, values))


def is_cocycle(group: FiniteGroup, module: AbelianCoefficients,
               c: Cochain) -> bool:
    return all(module.is_zero(v)
               for v in bar_differential(group, module, c).values)


def normalize_cocycle(group: FiniteGroup, module: AbelianCoefficients,
                      c: Cochain) -> tuple[Cochain, Cochain | None]:
    """A normalized cocycle in the same class, plus the shift used.

    Returns (c', shift) with c' = c - d(shift) normalized; shift is None when
    c is already normalized.  Raises ValueError if no shift exists (the input
    was not a cocycle).
    """
    if c.normalized:
        return c, None
    if c.degree == 0:
        return c, None
    n = c.degree
    order = group.order
    if module.kind == CIRCLE:
        denom = lcm(group.order,
                    *[Fraction(v).denominator for v in c.values])
    else:
        denom = None
    factors, mats = module.lattice_data(denom)
    k = len(factors)
    full = _BarComplex(group, factors, mats, group.elements())
    e = group.identity
    bad_rows = [idx * k + j for idx in range(order ** n)
                if e in index_to_tuple(order, n, idx) for j in range(k)]
    scale = full.row_scale(n)[bad_rows]
    a = full.diff_matrix(n - 1)[bad_rows] * scale[:, None]
    b = np.array([x for v in c.values for x in module.to_vector(v, denom)],
                 dtype=np.int64)[bad_rows] * scale
    sol = modsnf.ModSolver(a, full.m).solve(b)
    if sol is None:
        raise ValueError("cochain admits no normalizing shift; "
                         "is it a cocycle?")
    sol = [int(x) for x in sol]
    shift_vals = tuple(
        module.from_vector(sol[idx * k:(idx + 1) * k], denom)
        for idx in range(order ** (n - 1)))
    shift = Cochain(n - 1, shift_vals,
                    _check_normalized(group, module, n - 1, shift_vals))
    fixed = sub_cochains(group, module, c,
                         bar_differential(group, module, shift))
    if not fixed.normalized:
        raise ValueError("normalizing shift failed to normalize the cocycle")
    return fixed, shift


# ---------------------------------------------------------------------------
# cochain complexes over Z/m
# ---------------------------------------------------------------------------

class _BarComplex:
    """The bar complex on tuples drawn from ``elements``, as integer matrices.

    With the non-identity elements this is the normalized complex, with all
    elements the full one; a merged term whose product is not among the
    elements drops out.  Each position carries ``k`` integer coordinates,
    coordinate i taken mod factors[i] and carried in Z/m for m the largest
    factor.
    """

    def __init__(self, group: FiniteGroup, factors, mats, elements):
        self.group = group
        self.factors = list(factors)
        self.mats = mats
        self.k = len(factors)
        self.m = max(self.factors, default=1)
        self.elements = list(elements)
        self._index = {g: i for i, g in enumerate(self.elements)}
        self._diff_cache: dict[int, np.ndarray] = {}

    def positions(self, n: int) -> int:
        return len(self.elements) ** n

    def dim(self, n: int) -> int:
        return self.positions(n) * self.k

    def moduli(self, n: int) -> list[int]:
        return self.factors * self.positions(n)

    def row_scale(self, n: int) -> np.ndarray:
        """m/d per degree-n coordinate: x = 0 mod d iff (m/d) x = 0 mod m."""
        return np.array([self.m // d for d in self.moduli(n)], dtype=np.int64)

    def relations(self, n: int) -> np.ndarray:
        """Columns d*e_i for the degree-n coordinates with modulus d < m."""
        moduli = self.moduli(n)
        rows = [i for i, d in enumerate(moduli) if d < self.m]
        out = np.zeros((len(moduli), len(rows)), dtype=np.int64)
        out[rows, range(len(rows))] = [moduli[i] for i in rows]
        return out

    def tuple_at(self, n: int, pos: int) -> tuple[int, ...]:
        out = []
        base = len(self.elements)
        for _ in range(n):
            pos, r = divmod(pos, base)
            out.append(self.elements[r])
        return tuple(reversed(out))

    def position_of(self, args) -> int:
        pos = 0
        for a in args:
            pos = pos * len(self.elements) + self._index[a]
        return pos

    def _diff_triples(self, n: int):
        """Yield (row, col, increment) entries of the degree-n differential."""
        group, k = self.group, self.k
        for tpos in range(self.positions(n + 1)):
            args = self.tuple_at(n + 1, tpos)
            r0 = tpos * k
            mat = self.mats[args[0]]
            c0 = self.position_of(args[1:]) * k
            for i in range(k):
                for j in range(k):
                    if mat[i][j]:
                        yield r0 + i, c0 + j, mat[i][j]
            sign = 1
            for i in range(1, n + 1):
                sign = -sign
                gh = group.mul[args[i - 1]][args[i]]
                if gh not in self._index:
                    continue
                merged = args[:i - 1] + (gh,) + args[i + 1:]
                c0 = self.position_of(merged) * k
                for j in range(k):
                    yield r0 + j, c0 + j, sign
            c0 = self.position_of(args[:-1]) * k
            for j in range(k):
                yield r0 + j, c0 + j, -sign

    def diff_matrix(self, n: int):
        """The degree-n differential as an int64 array (cached)."""
        if n in self._diff_cache:
            return self._diff_cache[n]
        out = np.zeros((self.dim(n + 1), self.dim(n)), dtype=np.int64)
        for r, c, v in self._diff_triples(n):
            out[r, c] += v
        self._diff_cache[n] = out
        return out

    def vector(self, module: AbelianCoefficients, c: Cochain,
               denominator: int | None) -> list[int]:
        order = self.group.order
        out: list[int] = []
        for pos in range(self.positions(c.degree)):
            args = self.tuple_at(c.degree, pos)
            out.extend(module.to_vector(c.values[tuple_index(order, args)],
                                        denominator))
        return out

    def cochain(self, module: AbelianCoefficients, degree: int, vec,
                denominator: int | None) -> Cochain:
        order = self.group.order
        k = self.k
        values = [module.zero()] * (order ** degree)
        for pos in range(self.positions(degree)):
            args = self.tuple_at(degree, pos)
            values[tuple_index(order, args)] = module.from_vector(
                [int(x) for x in vec[pos * k:(pos + 1) * k]], denominator)
        return Cochain(degree, tuple(values), True)


class _Quotient:
    """ker/im over Z/m: invariant factors, representatives and membership.

    Generators of the kernel (with their orders) come from the mod-m Smith
    form of the outgoing differential; the incoming image is rewritten in
    those generators and quotiented out.
    """

    def __init__(self, m: int, gens, orders, l_cols):
        self.m = m
        self.gens = gens
        r = gens.shape[1]
        self._solver = modsnf.ModSolver(gens, m)
        rel_cols = []
        for j in range(l_cols.shape[1]):
            y = self._solver.solve(l_cols[:, j])
            if y is None:
                raise RuntimeError("boundary escapes the cocycle kernel")
            rel_cols.append(y)
        rel = np.zeros((r, len(rel_cols) + r), dtype=np.int64)
        for j, y in enumerate(rel_cols):
            rel[:, j] = y
        for i, o in enumerate(orders):
            rel[i, len(rel_cols) + i] = o
        self._form = modsnf.mod_smith(rel, m, want_u=True, want_uinv=True) \
            if r else None
        self.factors_all = list(self._form.diag) if r else []

    @property
    def nontrivial(self) -> list[int]:
        return [i for i, s in enumerate(self.factors_all) if s > 1]

    def factors(self) -> tuple[int, ...]:
        return tuple(self.factors_all[i] for i in self.nontrivial)

    def order(self) -> int:
        out = 1
        for s in self.factors_all:
            out *= s
        return out

    def generator_vector(self, i: int) -> list[int]:
        y = self._form.u_inv[:, i].astype(np.int64)
        return [int(x) for x in (self.gens.astype(np.int64) @ y) % self.m]

    def coordinates(self, vec) -> tuple[int, ...]:
        y = self._solver.solve(np.asarray(vec))
        if y is None:
            raise ValueError("vector is not in the cocycle lattice")
        if not self.factors_all:
            return ()
        w = (self._form.u.astype(np.int64) @ y) % self.m
        return tuple(int(w[i]) % self.factors_all[i] for i in self.nontrivial)


class _Cohomology:
    """H^n of the normalized complex of one finite module, over Z/m.

    Row i of the outgoing differential is scaled by m/d_i, so its kernel mod
    m is the preimage of the cocycles; the incoming image is joined by the
    relation columns d_i e_i, which also join the witness solve.
    """

    def __init__(self, group: FiniteGroup, factors, mats, degree: int):
        self.degree = degree
        self.cx = _BarComplex(group, factors, mats,
                              [g for g in group.elements()
                               if g != group.identity])
        self.m = m = self.cx.m
        n = degree
        self.a_n = self.cx.dim(n)
        self._dn = None
        self._wit_solver = None
        if self.a_n == 0 or m == 1:
            empty = np.zeros((self.a_n, 0), dtype=np.int64)
            self.quot = _Quotient(1, empty, [], empty)
            return
        scale = self.cx.row_scale(n + 1)[:, None]
        self._dn = self.cx.diff_matrix(n) * scale % m
        rel = self.cx.relations(n)
        if n >= 1:
            self._lcols = np.hstack([self.cx.diff_matrix(n - 1) % m, rel])
        else:
            self._lcols = rel
        constraints = np.unique(self._dn, axis=0)
        constraints = constraints[np.any(constraints, axis=1)]
        gens, orders = modsnf.mod_kernel(constraints, m)
        self.quot = _Quotient(m, gens, orders, self._lcols)

    def is_cocycle_vec(self, vec) -> bool:
        if self._dn is None:
            return True
        img = (self._dn @ (np.asarray(vec, dtype=np.int64) % self.m)) % self.m
        return not img.any()

    def witness_vec(self, vec) -> list[int] | None:
        """w with d(w) = vec (mod moduli), or None."""
        if self.degree == 0:
            return None
        if self._dn is None:
            return [0] * self.cx.dim(self.degree - 1)
        if self._wit_solver is None:
            self._wit_solver = modsnf.ModSolver(self._lcols, self.m)
        sol = self._wit_solver.solve(np.asarray(vec, dtype=np.int64) % self.m)
        if sol is None:
            return None
        return [int(x) for x in sol[:self.cx.dim(self.degree - 1)]]


# ---------------------------------------------------------------------------
# public cohomology object
# ---------------------------------------------------------------------------

@dataclass
class CohomologyGroup:
    """H^degree(group, module) with classification machinery.

    ``invariant_factors`` lists the cyclic factors > 1 (ascending chain);
    ``representatives`` holds one normalized cocycle per factor.  For
    rational-circle coefficients ``denominator`` records the working
    denominator m and ``stable`` whether H at m already injects at m*|group|
    (the reported factors are the exact Q/Z answer either way).
    """

    group: FiniteGroup
    module: AbelianCoefficients
    degree: int
    invariant_factors: tuple[int, ...]
    representatives: tuple[Cochain, ...]
    order: int
    denominator: int | None = None
    stable: bool | None = None
    _impl: object = field(default=None, repr=False)

    def classify(self, c: Cochain) -> tuple[int, ...]:
        """Coordinates of [c] over the invariant factors."""
        return self._impl.classify(c)

    def coboundary_witness(self, c: Cochain) -> Cochain | None:
        return self._impl.witness(c)

    def representative_of(self, coords) -> Cochain:
        if len(coords) != len(self.invariant_factors):
            raise ValueError("coordinate length mismatch")
        out = zero_cochain(self.group, self.module, self.degree)
        for k, rep in zip(coords, self.representatives):
            out = add_cochains(self.group, self.module, out,
                               scale_cochain(self.group, self.module, k, rep))
        return out

    def all_classes(self):
        """All coordinate tuples, basepoint first."""
        from itertools import product
        return list(product(*[range(f) for f in self.invariant_factors]))


class _FiniteImpl:
    def __init__(self, group, module, degree):
        factors, mats = module.lattice_data()
        self.group, self.module, self.degree = group, module, degree
        self.eng = _Cohomology(group, factors, mats, degree)

    def _vec(self, c: Cochain):
        c = _ingest(self.group, self.module, self.degree, c)
        vec = self.eng.cx.vector(self.module, c, None)
        if not self.eng.is_cocycle_vec(vec):
            raise ValueError("not a cocycle")
        return vec

    def classify(self, c):
        return self.eng.quot.coordinates(self._vec(c))

    def witness(self, c):
        w = self.eng.witness_vec(self._vec(c))
        if w is None:
            return None
        return self.eng.cx.cochain(self.module, self.degree - 1, w, None)

    def result(self):
        quot = self.eng.quot
        reps = tuple(
            self.eng.cx.cochain(self.module, self.degree,
                                quot.generator_vector(i), None)
            for i in quot.nontrivial)
        return CohomologyGroup(
            self.group, self.module, self.degree,
            quot.factors(), reps, quot.order(), _impl=self)


class _CircleImpl:
    """Q/Z cohomology: the image of H^n at denominator m in H^n at m*|G|.

    The image is the column span of a matrix E in (Z/m1)^r whose column j
    holds the coordinates at m1 of base generator j, coordinate i embedded
    by m1/f_i.  Its Smith form U E V = diag(s) gives the image factors
    m1/s_l, the coordinates (U y)_l / s_l and the generator pullbacks
    V[:, l].
    """

    def __init__(self, group, module, degree, denominator):
        self.group, self.module, self.degree = group, module, degree
        self.m0 = denominator if denominator else group.order
        self.m0 = lcm(self.m0, group.order)
        self.m1 = self.m0 * group.order
        self.base = _Cohomology(group, *module.lattice_data(self.m0), degree)
        self.big = _Cohomology(group, *module.lattice_data(self.m1), degree)
        scale = self.m1 // self.m0
        self.base_reps_vec = [self.base.quot.generator_vector(i)
                              for i in self.base.quot.nontrivial]
        self._embed = np.array([self.m1 // f for f in self.big.quot.factors()],
                               dtype=np.int64)
        img = np.zeros((len(self._embed), len(self.base_reps_vec)),
                       dtype=np.int64)
        for j, v in enumerate(self.base_reps_vec):
            img[:, j] = self.big.quot.coordinates([x * scale for x in v])
        self._form = None
        self._keep: list[int] = []
        if img.size:
            self._form = modsnf.mod_smith(img * self._embed[:, None] % self.m1,
                                          self.m1, want_u=True, want_v=True)
            # descending in divisibility; reversed for the ascending chain
            self._keep = [l for l, s in enumerate(self._form.diag)
                          if s < self.m1][::-1]
        self.factors = tuple(self.m1 // self._form.diag[l]
                             for l in self._keep)
        self.order = prod(self.factors)
        self.stable = (self.order == self.base.quot.order())

    def _vec(self, c: Cochain, denominator: int):
        c = _ingest(self.group, self.module, self.degree, c)
        for v in c.values:
            if denominator % Fraction(v).denominator:
                raise ValueError(
                    f"cocycle needs denominator {Fraction(v).denominator}; "
                    f"rebuild the cohomology with a finer denominator "
                    f"(working denominator is {self.m0})")
        vec = self.base.cx.vector(self.module, c, denominator)
        return vec

    def classify(self, c):
        vec0 = self._vec(c, self.m0)
        if not self.base.is_cocycle_vec(vec0):
            raise ValueError("not a cocycle")
        scale = self.m1 // self.m0
        coords_big = self.big.quot.coordinates([x * scale for x in vec0])
        if self._form is None:
            if any(coords_big):
                raise RuntimeError("class outside the stable image")
            return ()
        y = np.array(coords_big, dtype=np.int64) * self._embed % self.m1
        w = self._form.u.astype(np.int64) @ y % self.m1
        diag = self._form.diag + [self.m1] * (len(w) - len(self._form.diag))
        if any(int(x) % s for x, s in zip(w, diag)):
            raise RuntimeError("class outside the stable image")
        return tuple(int(w[l]) // diag[l] for l in self._keep)

    def witness(self, c):
        vec0 = self._vec(c, self.m0)
        if not self.base.is_cocycle_vec(vec0):
            raise ValueError("not a cocycle")
        scale = self.m1 // self.m0
        w = self.big.witness_vec([x * scale for x in vec0])
        if w is None:
            return None
        return self.big.cx.cochain(self.module, self.degree - 1, w, self.m1)

    def result(self):
        reps = []
        for l in self._keep:
            vec = [0] * self.base.a_n
            for coeff, gvec in zip(self._form.v[:, l], self.base_reps_vec):
                for i, x in enumerate(gvec):
                    vec[i] += int(coeff) * x
            reps.append(self.base.cx.cochain(self.module, self.degree,
                                             vec, self.m0))
        return CohomologyGroup(
            self.group, self.module, self.degree, self.factors,
            tuple(reps), self.order,
            denominator=self.m0, stable=self.stable, _impl=self)


def _ingest(group, module, degree, c: Cochain) -> Cochain:
    if c.degree != degree:
        raise ValueError(f"expected a degree-{degree} cochain, got {c.degree}")
    if len(c.values) != group.order ** degree:
        raise ValueError("cochain table has the wrong size")
    if not c.normalized:
        c, _ = normalize_cocycle(group, module, c)
    return c


def cohomology(group: FiniteGroup, module: AbelianCoefficients, degree: int,
               denominator: int | None = None,
               max_positions: int = 2_000_000) -> CohomologyGroup:
    """H^degree(group, module).  Degrees 0..4 are supported."""
    if module.group != group:
        raise ValueError("module is not over this group")
    if not 0 <= degree <= 4:
        raise ValueError("degree must be between 0 and 4")
    if (group.order - 1) ** (degree + 1) > max_positions:
        raise ResourceLimit("cochain-table positions",
                            (group.order - 1) ** (degree + 1), max_positions)
    if module.kind == FINITE:
        return _FiniteImpl(group, module, degree).result()
    return _CircleImpl(group, module, degree, denominator).result()


def is_coboundary(group: FiniteGroup, module: AbelianCoefficients,
                  c: Cochain, denominator: int | None = None
                  ) -> Cochain | None:
    """A cochain w with d(w) = c, or None if the class is nonzero.

    For rational-circle coefficients the witness is exact for Q/Z: it is
    searched at one saturation step above the values' denominators, which is
    sufficient for coboundaries over Q/Z.
    """
    if c.degree < 1:
        raise ValueError("degree must be at least 1 for coboundary checks")
    if module.kind == CIRCLE and denominator is None:
        denominator = lcm(group.order,
                          *[Fraction(v).denominator for v in c.values])
    h = cohomology(group, module, c.degree, denominator)
    return h.coboundary_witness(c)
