"""Cohomology of a finite group with abelian coefficients (degrees 0..4).

A cochain is its coordinate vector (``Cochain.coords``) in the full-table
layout: the argument tuples in base |G| with the first argument most
significant, k integer coordinates per tuple reduced mod the module's
factors, and for Q/Z one numerator per tuple over the cochain's least
denominator.  Only this module knows that layout; other modules use
``cochain_from_coords``, ``cochain_from_function`` and ``evaluate``.
``_BarComplex`` alone knows the bar differential and which table
coordinates its positions take.  Over all elements it is the full complex
(cached per module), which applies d and tests cocycles.  Over the
non-identity elements it is the normalized subcomplex (cochains vanishing
when any argument is the identity, which computes the same groups), on
which one elimination over Z/m (``modsnf``) computes cohomology and
classifies.  ``normalize_cocycle`` moves any other cocycle into it by
degeneracy shifts, a gather and a product with d per slot.

A finite module Z/d1 + ... + Z/dk is carried in (Z/m)^k with m = dk: the
cocycle condition on coordinate i is scaled by m/di, and the relations di*ei
join the coboundaries.  The differentials are int64 index arrays
(``intlinalg.Triples``).  The cocycles are the kernel of the row-scaled
outgoing differential, taken by ``modsnf.mod_kernel`` one prime power q of
m at a time: sparse unit pivots, then a dense Smith form of the small
residual only.  Over Z/q a cocycle is fixed by its entries on the columns
no unit pivot took, so its coefficients in the kernel generators are read
there: a gather, or a product with the residual's column transform.  The
incoming columns, read this way, and the generator orders are the
relations, whose Smith form gives the invariant factors, classifies, and
writes a coboundary as a sum of incoming columns (the witness).
Representatives are lifted back through the pivots.

The kernel needs only the rows whose first argument lies in a generating
set S (``FiniteGroup.generators``): a normalized n-cochain c is a cocycle
exactly when (dc)(s, g2, ..., g_{n+1}) = 0 for all s in S.  For d(dc) = 0
at (s, h, g2, ...) writes (dc)(sh, g2, ...) as s.(dc)(h, g2, ...) plus
terms whose first argument is s (terms with an identity argument vanish,
as d keeps cochains normalized); induction on the length of the first
argument as a positive word in S gives every row, whatever the action.
So the elimination takes |S|*(|G|-1)^n rows instead of (|G|-1)^(n+1)
(K. Brown, Cohomology of Groups, ch. III, for the bar complex).  Each
representative is checked closed on every row, so a set that does not
generate fails.

Rational-circle (Q/Z) coefficients reduce to the finite model (1/m)Z/Z =
Z/m.  Every class in H^n(G; Q/Z) is |G|-torsion, so at a working
denominator m0 that |G| divides the Q/Z answer is the image of
H^n(G; Z/m0) in H^n(G; Z/m1), m1 = m0*s with s = |G|.  The long exact
sequence of 0 -> Z/m0 -> Z/m1 -> Z/s -> 0 (x -> s*x includes (1/m0)Z/Z in
(1/m1)Z/Z) makes the kernel of that map the image of the Bockstein
H^{n-1}(G; Z/s) -> H^n(G; Z/m0), b mod s -> (d b mod m1) / s.  So Q/Z
cohomology is the finite computation at m0 with the Bockstein columns
joining the incoming image.  One complex serves both moduli: its integer
differential reduced mod m0 for the kernel, mod m1 for the Bockstein
columns, each d(b/m1), so a Q/Z witness takes values in (1/m1)Z/Z.  A Q/Z
cochain is read at a multiple of its denominator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod

import numpy as np

from . import intlinalg as il
from . import modsnf
from .coefficients import CIRCLE, AbelianCoefficients
from .errors import InvariantError, ResourceLimit
from .groups import FiniteGroup


# ---------------------------------------------------------------------------
# cochains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cochain:
    """A map (group)^degree -> coefficients, held as its coordinate vector.

    ``coords`` runs over the argument tuples in base |group| order, first
    argument most significant (a degree-0 cochain has one tuple), with the
    tuple's k coordinates reduced mod the factors Z/d1 + ... + Z/dk, or for
    Q/Z its one numerator over ``denominator``, the least one (None for
    finite modules).  ``cochain_from_coords`` and ``cochain_from_function``
    build this canonical form, so equal cochains are equal functions.
    """

    degree: int
    coords: tuple[int, ...]
    denominator: int | None = None


@lru_cache(maxsize=64)
def _table_moduli(factors: tuple[int, ...], positions: int) -> np.ndarray:
    """The modulus of each coordinate of a table of ``positions`` tuples."""
    out = np.tile(np.array(factors, dtype=np.int64), positions)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=64)
def _identity_slots(order: int, degree: int, identity: int) -> np.ndarray:
    """Row j: the argument tuples with the identity in slot j, ordered by
    the other arguments, so that row j gathers s_j c from c's table."""
    # the weight of the arguments after slot j, for j = 0, ..., degree-1
    low = order ** np.arange(degree - 1, -1, -1)[:, None]
    p = np.arange(order ** max(degree - 1, 0))
    out = p // low * low * order + identity * low + p % low
    out.flags.writeable = False
    return out


def _check(group: FiniteGroup, module: AbelianCoefficients, c: Cochain,
           degree: int | None = None) -> None:
    """Refuse a cochain of another degree, size or kind of module."""
    if degree is not None and c.degree != degree:
        raise ValueError(f"expected a degree-{degree} cochain, got {c.degree}")
    width = 1 if module.kind == CIRCLE else len(module.factors)
    if len(c.coords) != group.order ** c.degree * width:
        raise ValueError("cochain table has the wrong size")
    if (module.kind == CIRCLE) != ((c.denominator or 0) > 0):
        raise ValueError("a cochain has a positive denominator exactly when "
                         "its module is Q/Z")


def _unnormalized_rows(group: FiniteGroup, degree: int,
                       tables: np.ndarray) -> np.ndarray:
    """Per row of ``tables`` (degree-n cochain tables), whether it fails to
    vanish somewhere an argument is the identity."""
    slots = _identity_slots(group.order, degree, group.identity)
    rows = tables.reshape(len(tables), group.order ** degree, -1)[:, slots]
    return rows.reshape(len(tables), -1).any(axis=1)


def _is_normalized(group: FiniteGroup, c: Cochain) -> bool:
    """Whether c vanishes wherever an argument is the identity."""
    return not _unnormalized_rows(group, c.degree,
                                  np.asarray(c.coords)[None])[0]


def cochain_from_coords(group: FiniteGroup, module: AbelianCoefficients,
                        degree: int, coords,
                        denominator: int | None = None) -> Cochain:
    """The cochain with full-table coordinates ``coords`` (numerators over
    ``denominator`` for Q/Z), in canonical form."""
    _check(group, module, Cochain(degree, coords, denominator))
    arr = np.asarray(coords, dtype=np.int64)
    if denominator is None:
        arr = arr % _table_moduli(module.factors, group.order ** degree)
        return Cochain(degree, tuple(arr.tolist()))
    arr = arr % denominator
    g = int(np.gcd.reduce(arr, initial=denominator))
    return Cochain(degree, tuple((arr // g).tolist()), denominator // g)


def cochain_from_function(group: FiniteGroup, module: AbelianCoefficients,
                          degree: int, fn) -> Cochain:
    """The cochain taking fn(*args) at each argument tuple: a tuple of
    coordinates, or for Q/Z a fraction."""
    values = [fn(*args) for args in
              itertools.product(group.elements(), repeat=degree)]
    if module.kind != CIRCLE:
        return cochain_from_coords(group, module, degree,
                                   [x for v in values for x in v])
    fracs = [Fraction(v) % 1 for v in values]
    denom = lcm(*[f.denominator for f in fracs])
    return cochain_from_coords(
        group, module, degree,
        [f.numerator * (denom // f.denominator) for f in fracs], denom)


def evaluate(group: FiniteGroup, c: Cochain, args) -> object:
    """c at the argument tuple ``args``: its coordinates, or for Q/Z a
    fraction."""
    idx = 0
    for a in args:
        idx = idx * group.order + a
    if c.denominator is not None:
        return Fraction(c.coords[idx], c.denominator)
    k = len(c.coords) // group.order ** c.degree
    return c.coords[idx * k:(idx + 1) * k]


def add_cochains(group: FiniteGroup, module: AbelianCoefficients,
                 a: Cochain, b: Cochain) -> Cochain:
    if a.degree != b.degree:
        raise ValueError("cochain degrees differ")
    _check(group, module, b)
    da, db = a.denominator or 1, b.denominator or 1
    d = lcm(da, db)
    return cochain_from_coords(
        group, module, a.degree,
        np.multiply(a.coords, d // da) + np.multiply(b.coords, d // db),
        a.denominator and d)


def scale_cochain(group: FiniteGroup, module: AbelianCoefficients,
                  k: int, a: Cochain) -> Cochain:
    return cochain_from_coords(group, module, a.degree,
                               np.multiply(a.coords, k), a.denominator)


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
    """(c', shift): c = c' + d(shift) with c' normalized, shift None when c
    is.  Raises ValueError if c is not a cocycle.

    For j = 0, ..., n-1 in turn, c <- c - (-1)^j d(s_j c), s_j c being c
    with the identity put in slot j.  These degeneracy homotopies retract
    all cochains onto the normalized ones (Eilenberg-Mac Lane; J. P. May,
    Simplicial Objects in Algebraic Topology, 1967).
    """
    n = c.degree
    full, vec = _on_full_complex(group, module, c)
    if not full.closed(n, vec):
        raise ValueError("not a cocycle")
    if _is_normalized(group, c):
        return c, None
    shift = np.zeros(full.dim(n - 1), dtype=np.int64)
    # positions of the full complex are the table's argument tuples
    for j, slot in enumerate(_identity_slots(group.order, n, group.identity)):
        s = (-1) ** j * vec.reshape(-1, full.k)[slot].ravel()
        vec = vec - full.apply(n - 1, s)
        shift += s
    fixed = full.cochain(n, vec)
    if not _is_normalized(group, fixed):
        raise InvariantError("degeneracy shifts left a cocycle unnormalized")
    return fixed, full.cochain(n - 1, shift)


@lru_cache(maxsize=16)
def _full_complex(group: FiniteGroup, module: AbelianCoefficients,
                  denominator: int | None) -> _BarComplex:
    return _BarComplex(group, module, denominator, group.elements())


def _on_full_complex(group: FiniteGroup, module: AbelianCoefficients,
                     c: Cochain):
    """The full complex at lcm(|G|, c's denominator), and c's coordinates
    on it."""
    _check(group, module, c)
    denominator = None if c.denominator is None \
        else lcm(group.order, c.denominator)
    full = _full_complex(group, module, denominator)
    return full, full.vector(c)


# ---------------------------------------------------------------------------
# cochain complexes over Z/m
# ---------------------------------------------------------------------------

class _BarComplex:
    """The bar complex on tuples drawn from ``elements``, its differentials
    sparse ``intlinalg.Triples``.

    With the non-identity elements this is the normalized complex, with all
    elements the full one; a merged term whose product is not among the
    elements drops out.  A finite module is its own model; Q/Z is
    (1/m)Z/Z = Z/m at m = ``denominator``, p/q taken to p * (m/q), and its
    multipliers stay integers, so the complex serves every multiple of m.
    The degree-n differential is

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
        factors, self.mats = module.factors, module.action
        if module.kind == CIRCLE:
            factors = (denominator,)
            self.mats = tuple(((t,),) for t in module.action)
        self.factors = list(factors)
        self.k = len(factors)
        self.m = max(self.factors, default=1)
        self.elements = list(elements)
        self._diff_cache: dict[tuple[int, int], il.Triples] = {}
        self._terms_cache: dict[int, tuple] = {}
        self._table_cache: dict[int, np.ndarray] = {}

    def positions(self, n: int) -> int:
        return len(self.elements) ** n

    def dim(self, n: int) -> int:
        return self.positions(n) * self.k

    def moduli(self, n: int) -> np.ndarray:
        """The modulus of each degree-n coordinate (cached)."""
        return _table_moduli(tuple(self.factors), self.positions(n))

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

    def generator_rows(self, n: int) -> np.ndarray:
        """The degree-n coordinate rows whose first argument is in the
        group's generating set: |S| contiguous blocks, since the first
        argument is the most significant."""
        block = self.dim(n - 1)
        starts = np.array([self.elements.index(s) * block
                           for s in self.group.generators], dtype=np.int64)
        return (starts[:, None] + np.arange(block)).ravel()

    def _digits(self, n: int) -> np.ndarray:
        """Row p: the indices into ``elements`` of the arguments at p."""
        return np.indices((len(self.elements),) * n, dtype=np.int64) \
            .reshape(n, self.positions(n)).T

    def table_rows(self, n: int) -> np.ndarray:
        """The index in ``Cochain.coords`` of each degree-n coordinate
        (cached)."""
        if n not in self._table_cache:
            args = np.array(self.elements, dtype=np.int64)[self._digits(n)]
            pos = args @ self.group.order ** np.arange(n - 1, -1, -1)
            self._table_cache[n] = (pos[:, None] * self.k
                                    + np.arange(self.k)).ravel()
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

    def differential(self, n: int, modulus: int = 0) -> il.Triples:
        """The degree-n differential, its integer entries reduced mod
        ``modulus`` (by default m), cached."""
        key = n, modulus or self.m
        if key not in self._diff_cache:
            self._diff_cache[key] = il.triples(
                *self._diff_triples(n), (self.dim(n + 1), self.dim(n)),
                key[1])
        return self._diff_cache[key]

    def apply(self, n: int, vec) -> np.ndarray:
        """d of a degree-n coordinate vector, mod m."""
        # a row has at most k + n + 1 entries, each below m
        modsnf.dtype_for(self.m, self.k + n + 1)
        if n not in self._terms_cache:
            self._terms_cache[n] = il.row_terms(self.differential(n))
        vec = np.asarray(vec, dtype=np.int64) % self.m
        return il.times_dense(self._terms_cache[n], vec) % self.m

    def closed(self, n: int, vec) -> bool:
        """Whether a degree-n coordinate vector, or every column of a
        matrix of them, is a cocycle."""
        return not (self.apply(n, vec).T % self.moduli(n + 1)).any()

    def vector(self, c: Cochain) -> np.ndarray:
        """The coordinates of c at this complex's positions."""
        return self.gather(c.degree, c.coords, c.denominator)

    def gather(self, degree: int, tables, denominator: int | None
               ) -> np.ndarray:
        """The coordinates at this complex's positions of a degree-n
        cochain table, or of each row of a matrix of them: a gather of
        their table rows.  Q/Z numerators over ``denominator`` are raised
        to this complex's denominator."""
        vec = np.asarray(tables, dtype=np.int64)[..., self.table_rows(degree)]
        if self.denominator is None:
            return vec
        if self.denominator % denominator:
            raise ValueError(
                f"cocycle needs denominator {denominator}; rebuild the "
                f"cohomology with a finer denominator (working denominator "
                f"is {self.denominator})")
        return vec * (self.denominator // denominator)

    def cochain(self, degree: int, vec,
                denominator: int | None = None) -> Cochain:
        """The cochain holding vec at these positions and zero elsewhere,
        a scatter into its table rows; Q/Z numerators are over this
        complex's denominator unless another is given."""
        coords = np.zeros(self.group.order ** degree * self.k, dtype=np.int64)
        coords[self.table_rows(degree)] = vec
        return cochain_from_coords(self.group, self.module, degree, coords,
                                   denominator or self.denominator)


class _Quotient:
    """ker/im over Z/m: invariant factors, representatives, membership and
    the incoming columns that sum to a coboundary.  ``rel`` holds the
    incoming columns read in the kernel generators, then the generator
    orders; its Smith form puts the factors in a chain, and a solve against
    it writes a coboundary as a sum of incoming columns."""

    def __init__(self, kernel: modsnf.ModKernel, incoming: list):
        self.kernel, self.m = kernel, kernel.m
        ys = [kernel.coordinates(block) for block in incoming]
        if any(y is None for y in ys):
            raise InvariantError("boundary escapes the cocycle kernel")
        r = len(kernel.orders)
        self.rel = np.hstack(ys + [np.diag(kernel.orders)]).astype(np.int64)
        self.n_l = self.rel.shape[1] - r
        form = modsnf.mod_smith(self.rel, self.m, want_u=True,
                                want_uinv=True) if r else None
        diag = form.diag if form else []
        keep = [i for i, d in enumerate(diag) if d > 1]
        self.factors, self.order = tuple(diag[i] for i in keep), prod(diag)
        self._u = form.u[keep] if form else np.zeros((0, 0), np.int64)
        # one kernel vector per nontrivial factor, as columns
        self.generators = kernel.lift(form.u_inv[:, keep] if form
                                      else self._u)
        self._rel_solver = None

    def _kernel_coords(self, vecs) -> np.ndarray:
        y = self.kernel.coordinates(vecs)
        if y is None:
            raise ValueError("vector is not in the cocycle lattice")
        return y

    def coordinates(self, vecs) -> list[tuple[int, ...]]:
        """The class coordinates of each column of ``vecs``, from one read
        over all of them."""
        w = self._u @ self._kernel_coords(vecs) % self.m
        w %= np.array(self.factors, dtype=np.int64)[:, None]
        return list(map(tuple, w.T.tolist()))

    def combination(self, vec) -> np.ndarray | None:
        """z with incoming @ z = vec mod m, or None if vec's class is
        nonzero: rel @ z = y for vec's kernel coordinates y.  The solver of
        rel is built on the first call."""
        y = self._kernel_coords(vec[:, None])[:, 0]
        if not len(y):  # no kernel generators: vec is zero
            return np.zeros(self.n_l, dtype=np.int64)
        if self._rel_solver is None:
            self._rel_solver = modsnf.ModSolver(self.rel, self.m)
        z = self._rel_solver.solve(y)
        return None if z is None else z[:self.n_l]


# ---------------------------------------------------------------------------
# public cohomology object
# ---------------------------------------------------------------------------

class CohomologyGroup:
    """H^degree(group, module), computed on construction, with
    classification and coboundary witnesses.

    ``invariant_factors`` lists the cyclic factors > 1 (ascending chain);
    ``representatives`` holds one normalized cocycle per factor.  For Q/Z
    the factors are the exact Q/Z answer, ``denominator`` is the working
    denominator m0 (a multiple of |group|) and ``stable`` says whether
    H^degree(group; Z/m0) already is that answer: whether the Bockstein
    from H^{degree-1}(group; Z/|group|) has zero image.  The group is one
    ``_Quotient`` of the normalized complex (see the module docstring).
    ``classify_tables`` classifies a matrix of cochain tables, a cocycle
    per row, with one closed check and one read of its distinct rows;
    ``classify`` is its one-row case.
    """

    def __init__(self, group: FiniteGroup, module: AbelianCoefficients,
                 degree: int, denominator: int | None = None):
        self.group, self.module, self.degree = group, module, degree
        elements = [g for g in group.elements() if g != group.identity]
        self._s, self.denominator, self.stable = 1, None, None
        if module.kind == CIRCLE:
            self._s = group.order
            self.denominator = lcm(denominator or 1, group.order)
            self.stable = True
        self._cx = cx = _BarComplex(group, module, self.denominator, elements)
        m, n = cx.m, degree
        rows = cx.generator_rows(n + 1)
        d = il.take_rows(cx.differential(n), rows)
        kernel = modsnf.mod_kernel(
            d._replace(vals=d.vals * cx.row_scale(n + 1)[rows][d.rows]), m)
        bock = np.zeros((cx.dim(n), 0), dtype=np.int64)
        if self._s > 1 and n >= 1:
            # the Bockstein columns (d b mod m1) / s: b runs over generators
            # of the cocycles mod s, the kernel of d's generator rows
            m1 = m * self._s
            d = cx.differential(n - 1, m1)
            b = modsnf.mod_kernel(il.take_rows(d, cx.generator_rows(n)),
                                  self._s).basis()
            bock = il.times_dense(il.row_terms(d), b) % m1 // self._s
            self._bock_gens = b
        l_cols = [cx.differential(n - 1)] if n else []
        self._quot = quot = _Quotient(kernel,
                                      l_cols + [cx.relations(n), bock])
        if bock.shape[1]:
            base = np.delete(quot.rel, np.s_[quot.n_l - bock.shape[1]:
                                             quot.n_l], axis=1)
            self.stable = prod(modsnf.mod_smith(base, m).diag) == quot.order
        self.invariant_factors, self.order = quot.factors, quot.order
        if not all(cx.closed(n, col) for col in quot.generators.T):
            raise InvariantError("a representative is not a cocycle on "
                                 "every row")
        self.representatives = tuple(cx.cochain(n, col)
                                     for col in quot.generators.T)

    def _vecs(self, tables, denominator: int | None
              ) -> tuple[np.ndarray, list[Cochain | None]]:
        """The normalized representatives at m of the cochains whose tables
        are the rows of ``tables``, as columns, and per row the shift with
        c = representative + d(shift) (None when c is normalized).  A row
        that is not normalized goes through ``normalize_cocycle``; every
        representative is checked closed."""
        tables = np.asarray(tables, dtype=np.int64)
        group, module, n = self.group, self.module, self.degree
        # the rows share one width, so one row's check covers all
        _check(group, module, Cochain(n, tables[0], denominator), n)
        vecs = self._cx.gather(n, tables, denominator)
        shifts: list[Cochain | None] = [None] * len(tables)
        for i in np.flatnonzero(_unnormalized_rows(group, n, tables)):
            c = cochain_from_coords(group, module, n, tables[i], denominator)
            c, shifts[i] = normalize_cocycle(group, module, c)
            vecs[i] = self._cx.vector(c)
        if not self._cx.closed(n, vecs.T):
            raise ValueError("not a cocycle")
        return vecs.T, shifts

    def classify(self, c: Cochain) -> tuple[int, ...]:
        """Coordinates of [c] over the invariant factors: the one-row case
        of ``classify_tables``."""
        _check(self.group, self.module, c, self.degree)
        return self.classify_tables([c.coords], c.denominator)[0]

    def classify_tables(self, tables, denominator: int | None = None
                        ) -> list[tuple[int, ...]]:
        """The class coordinates of each row of ``tables``, cocycle tables
        in the layout of ``Cochain.coords`` (for Q/Z, numerators over
        ``denominator``), normalized first where needed.  Each distinct
        row is checked closed and in the cocycle lattice, and all of them
        are read at once; equal rows share the coordinates."""
        tables = np.asarray(tables, dtype=np.int64)
        first, inverse = il.distinct(tables)
        coords = self._quot.coordinates(
            self._vecs(tables[first], denominator)[0])
        return [coords[i] for i in inverse.tolist()]

    def coboundary_witness(self, c: Cochain) -> Cochain | None:
        """A cochain w with d(w) = c, or None if c is no coboundary.

        c's normalized representative is a sum of incoming columns whose
        differential part z_d gives w = z_d, plus the normalizing shift.
        For Q/Z it is d(z_d) + sum_b z_b d(b)/s at m0, so w = s*z_d +
        sum_b z_b*b takes values at m1 = m0*s."""
        _check(self.group, self.module, c, self.degree)
        vecs, (shift,) = self._vecs([c.coords], c.denominator)
        vec, n, cx = vecs[:, 0], self.degree, self._cx
        if n == 0:
            return None
        z = self._quot.combination(vec)
        if z is None:
            return None
        n_d, m1 = cx.dim(n - 1), cx.m * self._s
        w = z[:n_d]
        if self._s > 1:  # Q/Z has no relation columns; Bockstein part next
            w = self._s * w + self._bock_gens @ z[n_d:]
        w = cx.cochain(n - 1, w % m1, self.denominator and m1)
        return w if shift is None else \
            add_cochains(self.group, self.module, w, shift)

    def representative_of(self, coords) -> Cochain:
        if len(coords) != len(self.invariant_factors):
            raise ValueError("coordinate length mismatch")
        m, coords = self._cx.m, np.asarray(coords, dtype=np.int64)
        vec = self._quot.generators @ (coords % m)
        return self._cx.cochain(self.degree, vec % m)

    def all_classes(self):
        """All coordinate tuples, basepoint first."""
        return list(itertools.product(*[range(f)
                                        for f in self.invariant_factors]))


MAX_BASIS_BYTES = 2 ** 30


def cohomology(group: FiniteGroup, module: AbelianCoefficients, degree: int,
               denominator: int | None = None,
               max_positions: int = 2_000_000) -> CohomologyGroup:
    """H^degree(group, module).  Degrees 0..4 are supported, except H^0
    with trivial Q/Z coefficients, which is Q/Z itself and is refused.

    Two guards refuse before any work: ``max_positions`` bounds the
    outgoing differential's (|G|-1)^(degree+1) positions, and
    MAX_BASIS_BYTES c^2 int64 entries, c = (|G|-1)^degree * k coordinates:
    the dense arrays over at most c kernel generators, the relations with
    their transforms and the free rows read from the incoming columns.
    """
    if module.group != group:
        raise ValueError("module is not over this group")
    if not 0 <= degree <= 4:
        raise ValueError("degree must be between 0 and 4")
    if degree == 0 and module.kind == CIRCLE and \
            all(t == 1 for t in module.action):
        raise ValueError("H^0 with trivial Q/Z coefficients is Q/Z, which "
                         "is infinite")
    if (group.order - 1) ** (degree + 1) > max_positions:
        raise ResourceLimit("cochain-table positions",
                            (group.order - 1) ** (degree + 1), max_positions)
    k = 1 if module.kind == CIRCLE else len(module.factors)
    basis = ((group.order - 1) ** degree * k) ** 2 * 8
    if basis > MAX_BASIS_BYTES:
        raise ResourceLimit("kernel basis bytes", basis, MAX_BASIS_BYTES)
    return CohomologyGroup(group, module, degree, denominator)
