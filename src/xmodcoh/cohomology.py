"""Cohomology of a finite group with abelian coefficients (degrees 0..4).

Cochains are full tables on tuples of group elements (``Cochain.values``).
``_BarComplex`` alone knows the bar differential and which coordinates each
table entry takes.  Over all elements it is the full complex (cached per
module), which applies d, tests cocycles and finds normalizing shifts.  Over
the non-identity elements it is the normalized subcomplex (cochains vanishing
when any argument is the identity, which computes the same groups), on which
one elimination over Z/m (``modsnf``) computes cohomology and classifies.

A finite module Z/d1 + ... + Z/dk is carried in (Z/m)^k with m = dk: the
cocycle condition on coordinate i is scaled by m/di, and the relations di*ei
join the coboundaries.  The cocycles are the kernel of the row-scaled sparse
outgoing differential, taken by ``modsnf.mod_kernel`` one prime power of m
at a time: sparse unit pivots, then a dense Smith form of the small residual
only.  A cocycle is fixed by its coordinates on the columns that no unit
pivot took, so it is rewritten in the kernel generators by a solve on
those coordinates alone.  The quotient by the incoming image comes from a
Smith form of the relations among the kernel generators, which also yields
generator representatives, classification of arbitrary cocycles, and
coboundary witnesses.

Rational-circle (Q/Z) coefficients reduce to the finite model (1/m)Z/Z at a
working denominator m.  Because every class in H^n(G, Q/Z) is |G|-torsion,
the image of H^n at denominator m in H^n at denominator m*|G| is already the
exact answer for m a multiple of |G| (one saturation step computes the full
kernel of the map to the colimit); the implementation reports that image.
A Q/Z cochain is read at the denominator lcm(|G|, value denominators).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod

import numpy as np
from scipy import sparse

from . import modsnf
from .coefficients import CIRCLE, FINITE, AbelianCoefficients
from .errors import InvariantError, ResourceLimit
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
    """The inhomogeneous-bar coboundary of ``c`` (see ``_BarComplex``)."""
    full, vec = _on_full_complex(group, module, c)
    return full.cochain(c.degree + 1, full.apply(c.degree, vec))


def is_cocycle(group: FiniteGroup, module: AbelianCoefficients,
               c: Cochain) -> bool:
    full, vec = _on_full_complex(group, module, c)
    return full.closed(c.degree, vec)


def normalize_cocycle(group: FiniteGroup, module: AbelianCoefficients,
                      c: Cochain) -> tuple[Cochain, Cochain | None]:
    """A normalized cocycle in the same class, plus the shift used.

    Returns (c', shift) with c' = c - d(shift) normalized; shift is None when
    c is already normalized.  Raises ValueError if no shift exists (the input
    was not a cocycle).
    """
    if c.normalized or c.degree == 0:
        return c, None
    n = c.degree
    full, vec = _on_full_complex(group, module, c)
    # positions of the full complex are the table indices
    rows = full.rows(_identity_positions(group.order, n, group.identity))
    scale = full.row_scale(n)[rows]
    a = full.differential(n - 1)[rows].toarray() * scale[:, None]
    sol = modsnf.ModSolver(a, full.m).solve(vec[rows] * scale)
    if sol is None:
        raise ValueError("cochain admits no normalizing shift; "
                         "is it a cocycle?")
    shift = full.cochain(n - 1, sol)
    fixed = full.cochain(n, vec - full.apply(n - 1, sol))
    if not fixed.normalized:
        raise ValueError("normalizing shift failed to normalize the cocycle")
    return fixed, shift


def _circle_denominator(group: FiniteGroup, module: AbelianCoefficients,
                        values) -> int | None:
    """lcm(|G|, value denominators) for Q/Z values; None for finite ones."""
    if module.kind != CIRCLE:
        return None
    return lcm(group.order, *[Fraction(v).denominator for v in values])


@lru_cache(maxsize=16)
def _full_complex(group: FiniteGroup, module: AbelianCoefficients,
                  denominator: int | None) -> _BarComplex:
    return _BarComplex(group, module, denominator, group.elements())


def _on_full_complex(group: FiniteGroup, module: AbelianCoefficients,
                     c: Cochain):
    """The full complex at c's denominator, and c's coordinates on it."""
    full = _full_complex(group, module,
                         _circle_denominator(group, module, c.values))
    return full, full.vector(c)


# ---------------------------------------------------------------------------
# cochain complexes over Z/m
# ---------------------------------------------------------------------------

class _BarComplex:
    """The bar complex on tuples drawn from ``elements``, as sparse matrices.

    With the non-identity elements this is the normalized complex, with all
    elements the full one; a merged term whose product is not among the
    elements drops out.  Coefficients are the finite model of ``module`` at
    ``denominator`` (see ``AbelianCoefficients.lattice_data``).  The
    degree-n differential is

      (dc)(g1,...,g_{n+1}) = g1.c(g2,...,g_{n+1})
        + sum_i (-1)^i c(g1,...,g_i g_{i+1},...,g_{n+1})
        + (-1)^{n+1} c(g1,...,g_n).

    Positions are the argument tuples in lexicographic order; each carries
    ``k`` integer coordinates, coordinate i taken mod factors[i] and carried
    in Z/m for m the largest factor.
    """

    def __init__(self, group: FiniteGroup, module: AbelianCoefficients,
                 denominator: int | None, elements):
        self.group, self.module = group, module
        self.denominator = denominator
        factors, self.mats = module.lattice_data(denominator)
        self.factors = list(factors)
        self.k = len(factors)
        self.m = max(self.factors, default=1)
        self.elements = list(elements)
        self.normalized = group.identity not in self.elements
        self._diff_cache: dict[int, sparse.csr_matrix] = {}
        self._table_cache: dict[int, np.ndarray] = {}

    def positions(self, n: int) -> int:
        return len(self.elements) ** n

    def dim(self, n: int) -> int:
        return self.positions(n) * self.k

    def moduli(self, n: int) -> np.ndarray:
        return np.tile(np.array(self.factors, dtype=np.int64),
                       self.positions(n))

    def row_scale(self, n: int) -> np.ndarray:
        """m/d per degree-n coordinate: x = 0 mod d iff (m/d) x = 0 mod m."""
        return self.m // self.moduli(n)

    def relations(self, n: int) -> np.ndarray:
        """Columns d*e_i for the degree-n coordinates with modulus d < m."""
        moduli = self.moduli(n)
        rows = np.flatnonzero(moduli < self.m)
        out = np.zeros((len(moduli), len(rows)), dtype=np.int64)
        out[rows, np.arange(len(rows))] = moduli[rows]
        return out

    def rows(self, positions) -> np.ndarray:
        """The coordinate rows of the given positions."""
        pos = np.asarray(positions, dtype=np.int64)
        return (pos[:, None] * self.k + np.arange(self.k)).ravel()

    def _digits(self, n: int) -> np.ndarray:
        """Row p: the indices into ``elements`` of the arguments at p."""
        return np.indices((len(self.elements),) * n, dtype=np.int64) \
            .reshape(n, self.positions(n)).T

    def table_index(self, n: int) -> np.ndarray:
        """The full-table index of each degree-n position (cached)."""
        if n not in self._table_cache:
            args = np.array(self.elements, dtype=np.int64)[self._digits(n)]
            self._table_cache[n] = \
                args @ self.group.order ** np.arange(n - 1, -1, -1)
        return self._table_cache[n]

    def _diff_triples(self, n: int):
        """(rows, cols, increments) of the degree-n differential's entries;
        repeated (row, col) pairs add up."""
        k, base = self.k, len(self.elements)
        index = np.full(self.group.order, -1)
        index[self.elements] = np.arange(base)
        digits = self._digits(n + 1)
        args = np.array(self.elements, dtype=np.int64)[digits]
        weights = base ** np.arange(n - 1, -1, -1)  # position of n digits
        rows = np.arange(len(digits)) * k
        out = []
        # g1.c(g2,...,g_{n+1})
        mats = np.array(self.mats, dtype=np.int64)
        mats = mats.reshape(len(mats), k, k)
        col = digits[:, 1:] @ weights * k
        for i in range(k):
            for j in range(k):
                out.append((rows + i, col + j, mats[args[:, 0], i, j]))
        # (-1)^i c(g1,...,g_i g_{i+1},...,g_{n+1}), dropped off the elements
        mul = np.array(self.group.mul, dtype=np.int64)
        for i in range(1, n + 1):
            gh = index[mul[args[:, i - 1], args[:, i]]]
            keep = gh >= 0
            merged = np.hstack([digits[:, :i - 1], gh[:, None],
                                digits[:, i + 1:]])[keep]
            for j in range(k):
                out.append((rows[keep] + j, merged @ weights * k + j,
                            np.full(len(merged), (-1) ** i)))
        # (-1)^{n+1} c(g1,...,g_n)
        col = digits[:, :-1] @ weights * k
        for j in range(k):
            out.append((rows + j, col + j,
                        np.full(len(rows), (-1) ** (n + 1))))
        if not out:
            return [], [], []
        return [np.concatenate(x) for x in zip(*out)]

    def differential(self, n: int) -> sparse.csr_matrix:
        """The degree-n differential, entries reduced mod m (cached)."""
        if n not in self._diff_cache:
            rows, cols, vals = self._diff_triples(n)
            d = sparse.csr_matrix(
                (np.asarray(vals, dtype=np.int64), (rows, cols)),
                shape=(self.dim(n + 1), self.dim(n)))
            d.data %= self.m
            d.eliminate_zeros()
            self._diff_cache[n] = d
        return self._diff_cache[n]

    def apply(self, n: int, vec) -> np.ndarray:
        """d of a degree-n coordinate vector, mod m."""
        # a row has at most k + n + 1 entries, each below m
        modsnf.dtype_for(self.m, self.k + n + 1)
        vec = np.asarray(vec, dtype=np.int64) % self.m
        return self.differential(n) @ vec % self.m

    def closed(self, n: int, vec) -> bool:
        """Whether a degree-n coordinate vector is a cocycle."""
        return not (self.apply(n, vec) % self.moduli(n + 1)).any()

    def vector(self, c: Cochain) -> np.ndarray:
        """The coordinates of a cochain table at this complex's positions."""
        to_vector, denom = self.module.to_vector, self.denominator
        return np.array([x for t in self.table_index(c.degree).tolist()
                         for x in to_vector(c.values[t], denom)],
                        dtype=np.int64)

    def cochain(self, degree: int, vec) -> Cochain:
        """The table holding vec at these positions, zero elsewhere."""
        module, k = self.module, self.k
        vec = [int(x) for x in vec]
        values = [module.zero()] * (self.group.order ** degree)
        for pos, t in enumerate(self.table_index(degree).tolist()):
            values[t] = module.from_vector(vec[pos * k:(pos + 1) * k],
                                           self.denominator)
        values = tuple(values)
        return Cochain(degree, values, self.normalized or _check_normalized(
            self.group, module, degree, values))


class _Quotient:
    """ker/im over Z/m: invariant factors, representatives and membership.

    Generators of the kernel (with their orders, which need not form a
    chain) and its free coordinates come from ``modsnf.mod_kernel`` of the
    outgoing differential.  A kernel vector is fixed by its free
    coordinates, so a vector is rewritten in the generators by a solve on
    those rows alone, then checked on all rows.  The incoming image,
    rewritten this way, is quotiented out, and the Smith form of those
    relations puts the factors in a chain.
    """

    def __init__(self, m: int, gens, orders, free, l_cols):
        self.m = m
        self.gens = gens
        self.free = free
        r = gens.shape[1]
        self._solver = modsnf.ModSolver(gens[free], m)
        n_l = l_cols.shape[1]
        rel = np.zeros((r, n_l + r), dtype=np.int64)
        y = self._solve(l_cols)
        if y is None:
            raise InvariantError("boundary escapes the cocycle kernel")
        rel[:, :n_l] = y
        rel[range(r), range(n_l, n_l + r)] = orders
        self._form = modsnf.mod_smith(rel, m, want_u=True, want_uinv=True) \
            if r else None
        self.factors_all = list(self._form.diag) if r else []

    def _solve(self, b) -> np.ndarray | None:
        """y with gens @ y = b mod m, or None if b is not in their span."""
        b = np.asarray(b, dtype=np.int64) % self.m
        y = self._solver.solve(b[self.free])
        if y is None or ((self.gens @ y - b) % self.m).any():
            return None
        return y

    @property
    def nontrivial(self) -> list[int]:
        return [i for i, s in enumerate(self.factors_all) if s > 1]

    def factors(self) -> tuple[int, ...]:
        return tuple(self.factors_all[i] for i in self.nontrivial)

    def order(self) -> int:
        return prod(self.factors_all)

    def generator_vector(self, i: int) -> list[int]:
        y = self._form.u_inv[:, i].astype(np.int64)
        return [int(x) for x in (self.gens.astype(np.int64) @ y) % self.m]

    def coordinates(self, vec) -> tuple[int, ...]:
        y = self._solve(vec)
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

    def __init__(self, group: FiniteGroup, module: AbelianCoefficients,
                 degree: int, denominator: int | None = None):
        self.degree = degree
        self.cx = _BarComplex(group, module, denominator,
                              [g for g in group.elements()
                               if g != group.identity])
        self.m = m = self.cx.m
        n = degree
        self.a_n = self.cx.dim(n)
        self._lcols = None
        self._wit_solver = None
        if self.a_n == 0 or m == 1:
            empty = np.zeros((self.a_n, 0), dtype=np.int64)
            self.quot = _Quotient(1, empty, [], np.zeros(0, dtype=np.int64),
                                  empty)
            return
        cx = self.cx
        scale = sparse.diags(cx.row_scale(n + 1), dtype=np.int64)
        gens, orders, free = modsnf.mod_kernel(scale @ cx.differential(n), m)
        self._lcols = cx.relations(n)
        if n >= 1:
            self._lcols = np.hstack([cx.differential(n - 1).toarray(),
                                     self._lcols])
        self.quot = _Quotient(m, gens, orders, free, self._lcols)

    def witness(self, vec) -> Cochain | None:
        """A cochain w with d(w) = vec (mod moduli), or None."""
        if self.degree == 0:
            return None
        dim = self.cx.dim(self.degree - 1)
        sol = np.zeros(dim, dtype=np.int64)
        if self._lcols is not None:
            if self._wit_solver is None:
                self._wit_solver = modsnf.ModSolver(self._lcols, self.m)
            sol = self._wit_solver.solve(np.asarray(vec) % self.m)
            if sol is None:
                return None
        return self.cx.cochain(self.degree - 1, sol[:dim])


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
        self.group, self.module, self.degree = group, module, degree
        self.eng = _Cohomology(group, module, degree)

    def _vec(self, c: Cochain):
        c = _ingest(self.group, self.module, self.degree, c)
        vec = self.eng.cx.vector(c)
        if not self.eng.cx.closed(self.degree, vec):
            raise ValueError("not a cocycle")
        return vec

    def classify(self, c):
        return self.eng.quot.coordinates(self._vec(c))

    def witness(self, c):
        return self.eng.witness(self._vec(c))

    def result(self):
        quot = self.eng.quot
        reps = tuple(self.eng.cx.cochain(self.degree, quot.generator_vector(i))
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
        self.m0 = lcm(denominator or 1, group.order)
        self.m1 = self.m0 * group.order
        self.base = _Cohomology(group, module, degree, self.m0)
        self.big = _Cohomology(group, module, degree, self.m1)
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

    def _vec(self, c: Cochain):
        """The cocycle c read at m0 and carried to m1."""
        c = _ingest(self.group, self.module, self.degree, c)
        for v in c.values:
            if self.m0 % Fraction(v).denominator:
                raise ValueError(
                    f"cocycle needs denominator {Fraction(v).denominator}; "
                    f"rebuild the cohomology with a finer denominator "
                    f"(working denominator is {self.m0})")
        vec = self.base.cx.vector(c)
        if not self.base.cx.closed(self.degree, vec):
            raise ValueError("not a cocycle")
        return vec * (self.m1 // self.m0)

    def classify(self, c):
        coords_big = self.big.quot.coordinates(self._vec(c))
        if self._form is None:
            if any(coords_big):
                raise InvariantError("class outside the stable image")
            return ()
        y = np.array(coords_big, dtype=np.int64) * self._embed % self.m1
        w = self._form.u.astype(np.int64) @ y % self.m1
        diag = self._form.diag + [self.m1] * (len(w) - len(self._form.diag))
        if any(int(x) % s for x, s in zip(w, diag)):
            raise InvariantError("class outside the stable image")
        return tuple(int(w[l]) // diag[l] for l in self._keep)

    def witness(self, c):
        return self.big.witness(self._vec(c))

    def result(self):
        gens = np.array(self.base_reps_vec, dtype=np.int64).T
        reps = [self.base.cx.cochain(
                    self.degree, gens @ self._form.v[:, l].astype(np.int64))
                for l in self._keep]
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
    if denominator is None:
        denominator = _circle_denominator(group, module, c.values)
    h = cohomology(group, module, c.degree, denominator)
    return h.coboundary_witness(c)
