"""Smith normal form, kernels and solvers over Z/m, numpy-backed.

Z/m is a principal ideal ring, so every matrix over it is equivalent to a
diagonal matrix whose entries form a divisibility chain of divisors of m.
By CRT, Z/m is the product of the local rings Z/q over the prime powers
q = p^k exactly dividing m, and both :func:`mod_smith` and
:func:`mod_kernel` work one local ring at a time.  Over Z/q every entry
that p does not divide is a unit, and an entry of least p-valuation divides
every other entry, so pivoting on one needs no gcd repair and the diagonal
comes out as a chain with no further pass.

:func:`mod_smith` takes dense local forms, with invertible transforms, of
the small matrices that need them (elimination residuals, quotient
relations, solver matrices) and joins them by CRT.  A kernel, the one
large elimination behind group cohomology, takes the rows of a sparse
``intlinalg.Triples`` matrix to unit pivots (:func:`unit_pivots`) and a
dense form of the unit-free residual only; it is kept as those records
(:class:`ModKernel`), never as a dense generator matrix.  The test suite
cross-checks both against the integer Smith form.

Conventions: matrix entries are stored canonically in [0, m).  Reported
diagonal values are canonical divisors of m, with m itself standing for a
zero entry (annihilator Z/m).  Transform matrices are invertible mod m.
Arithmetic that could leave int64 is refused with a ``ResourceLimit``.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod

import numpy as np

from .errors import ResourceLimit
from .intlinalg import (Triples, dense_triples, reduced, row_terms,
                        take_rows, times, times_dense)


def dtype_for(m: int, max_dim: int):
    """Smallest safe integer dtype for sums of max_dim products mod m; past
    int64 the work is refused as a ``ResourceLimit``."""
    need = max_dim * (m - 1) ** 2
    if need < 2 ** 31:
        return np.int32
    if need < 2 ** 62:
        return np.int64
    raise ResourceLimit("int64 sums of products mod m", need, 2 ** 62)


def _local_rings(m: int) -> list[tuple[int, int, int]]:
    """(p, q, e) for each prime power q = p^k exactly dividing m, ascending
    in p, with e the CRT idempotent of Z/m that is 1 mod q and 0 mod m/q."""
    out, rest, p = [], m, 2
    while p * p <= rest:
        if rest % p == 0:
            q = 1
            while rest % p == 0:
                rest //= p
                q *= p
            out.append((p, q))
        p += 1
    if rest > 1:
        out.append((rest, rest))
    return [(p, q, m // q * pow(m // q, -1, q) % m) for p, q in out]


@dataclass
class ModSmithForm:
    diag: list[int]            # canonical divisors of m; m stands for zero
    u: np.ndarray | None       # u @ a @ v = diag(...) mod m
    u_inv: np.ndarray | None
    v: np.ndarray | None
    v_inv: np.ndarray | None


def mod_smith(a, m: int, want_u: bool = False, want_uinv: bool = False,
              want_v: bool = False, want_vinv: bool = False) -> ModSmithForm:
    """The Smith form of ``a`` over Z/m, with the requested transforms.

    Each prime power q of m gets its own :func:`_local_smith`, with
    diagonal d_{i,q}; the joined diagonal is d_i = prod_q d_{i,q}.  Row i
    of each local U is scaled by the unit d_i / d_{i,q} mod q (column i of
    U^-1 by its inverse), so that u @ a @ v has exactly d_i on its
    diagonal, and the local transforms are summed over the CRT idempotents.
    """
    if m < 2:
        raise ValueError("modulus must be at least 2")
    a = np.array(a, dtype=np.int64) % m
    r, c = a.shape
    dtype_for(m, max(r, c, 1))  # the join multiplies entries by e < m
    parts = [(q, e, _local_smith(a % q, p, q, want_u, want_uinv, want_v,
                                 want_vinv))
             for p, q, e in _local_rings(m)]
    diag = [prod(d) for d in zip(*(local[0] for _, _, local in parts))]
    k = len(diag)
    mats: list[np.ndarray | None] = [None] * 4
    for q, e, (d, *local) in parts:
        unit = np.array([x // y % q for x, y in zip(diag, d)], dtype=np.int64)
        u, u_inv = local[:2]
        if u is not None:
            u[:k] = u[:k] * unit[:, None] % q
        if u_inv is not None:
            u_inv[:, :k] = u_inv[:, :k] * np.array(
                [pow(int(x), -1, q) for x in unit], dtype=np.int64) % q
        for slot, x in enumerate(local):
            if x is not None:
                x = x.astype(np.int64) * e % m
                mats[slot] = x if mats[slot] is None else (mats[slot] + x) % m
    return ModSmithForm(diag, *mats)


def _local_smith(a: np.ndarray, p: int, q: int, want_u: bool,
                 want_uinv: bool, want_v: bool, want_vinv: bool):
    """(diag, U, U^-1, V, V^-1) of ``a`` (entries in [0, q)) over Z/q,
    q = p^k.

    Each step pivots on the first entry, row-major, of least p-valuation: a
    unit if there is one, else the least gcd with q.  It divides every
    entry left, so scaling its row makes the pivot p^v exactly and its row
    and column clear without remainder; later pivots have valuation at
    least v, so the diagonal is a chain.
    """
    r, c = a.shape
    dt = dtype_for(q, max(r, c, 1))
    a = a.astype(dt)
    U = np.eye(r, dtype=dt) if want_u else None
    Ui = np.eye(r, dtype=dt) if want_uinv else None
    V = np.eye(c, dtype=dt) if want_v else None
    Vi = np.eye(c, dtype=dt) if want_vinv else None
    diag = []
    for t in range(min(r, c)):
        sub = a[t:, t:]
        i, j = divmod(int(np.argmax(sub % p != 0)), c - t)
        if sub[i, j] % p == 0:
            val = np.gcd(sub, q)
            i, j = divmod(int(np.argmin(val)), c - t)
            if val[i, j] == q:
                break
        i, j = i + t, j + t
        a[[t, i]] = a[[i, t]]
        a[:, [t, j]] = a[:, [j, t]]
        if U is not None:
            U[[t, i]] = U[[i, t]]
        if Ui is not None:
            Ui[:, [t, i]] = Ui[:, [i, t]]
        if V is not None:
            V[:, [t, j]] = V[:, [j, t]]
        if Vi is not None:
            Vi[[t, j]] = Vi[[j, t]]
        g = gcd(int(a[t, t]), q)
        unit = int(a[t, t]) // g
        inv = pow(unit, -1, q)
        a[t] = a[t] * inv % q
        if U is not None:
            U[t] = U[t] * inv % q
        if Ui is not None:
            Ui[:, t] = Ui[:, t] * unit % q
        f = a[t + 1:, t] // g
        if f.any():
            a[t + 1:] = (a[t + 1:] - np.outer(f, a[t])) % q
            if U is not None:
                U[t + 1:] = (U[t + 1:] - np.outer(f, U[t])) % q
            if Ui is not None:
                Ui[:, t] = (Ui[:, t] + Ui[:, t + 1:] @ f) % q
        f = a[t, t + 1:] // g
        if f.any():
            a[t, t + 1:] = 0
            if V is not None:
                V[:, t + 1:] = (V[:, t + 1:] - np.outer(V[:, t], f)) % q
            if Vi is not None:
                Vi[t] = (Vi[t] + f @ Vi[t + 1:]) % q
        diag.append(g)
    return diag + [q] * (min(r, c) - len(diag)), U, Ui, V, Vi


def mod_kernel(a, m: int) -> ModKernel:
    """{x in (Z/m)^c : a x = 0} for a dense or :class:`Triples` ``a``, one
    :class:`_LocalKernel` per prime power of m."""
    if m < 1:
        raise ValueError("modulus must be positive")
    if not isinstance(a, Triples):
        a = dense_triples(a)
    return ModKernel(m, a.shape[1], [_LocalKernel(a, p, q, e)
                                     for p, q, e in _local_rings(m)])


class _LocalKernel:
    """The kernel of ``a`` over Z/q, q = p^k, whose CRT idempotent e is 1
    mod q and 0 mod m/q.  Unit pivots (:func:`unit_pivots`) fix a kernel
    vector x by f = x[free]: each pivot (key, v), in reverse order, sets
    x[key] = -v . x.  With no residual, the generators are the unit
    vectors on ``free``, of order q, and f is its own coefficient vector.
    Otherwise the residual rows' Smith form R V = U^-1 D gives generator i,
    for each d_i > 1, the order d_i and the free entries V e_i * q/d_i
    (``basis``), and f the coefficients (V^-1 f)_i / (q/d_i)."""

    def __init__(self, a: Triples, p: int, q: int, e: int):
        c = a.shape[1]
        dtype_for(q, c)  # back-substitution sums at most c products below q^2
        ptr = np.searchsorted(a.rows, np.arange(a.shape[0] + 1)).tolist()
        col, val = a.cols.tolist(), a.vals.tolist()
        self.pivots, residual = unit_pivots(
            (dict(zip(col[s:t], val[s:t])) for s, t in zip(ptr, ptr[1:])),
            q, p)
        self.q, self.e, self.a = q, e, reduced(a, q)
        free = np.ones(c, dtype=bool)
        free[[k for k, _ in self.pivots]] = False
        self.free = np.flatnonzero(free)
        self.orders, self.basis, self.v_inv = [q] * len(self.free), None, None
        if residual:
            form = mod_smith([[row.get(j, 0) for j in self.free.tolist()]
                              for row in residual], q, want_v=True,
                             want_vinv=True)
            d = np.array(form.diag + [q] * (len(self.free) - len(form.diag)))
            keep, self.steps = d > 1, q // d
            self.orders = d[keep].tolist()
            self.basis = form.v[:, keep] * self.steps[keep] % q
            self.v_inv = form.v_inv

    @cached_property
    def terms(self):
        """The terms of ``a`` for products with dense vectors."""
        return row_terms(self.a)

    def read(self, f) -> np.ndarray:
        """The coefficients of the free entries f, a column each."""
        if self.v_inv is None:
            return f
        t = self.v_inv @ f % self.q
        return (t // self.steps[:, None])[self.steps < self.q]

    def free_part(self, y) -> np.ndarray:
        """The free entries of the kernel vectors with coefficients y."""
        y = y % self.q
        return y if self.basis is None else self.basis @ y % self.q


@dataclass
class ModKernel:
    """The kernel of a matrix with ``cols`` columns over Z/m: the local
    parts' generators in ring order, carried into Z/m by their idempotents
    with their own orders, which need not form a chain.  No dense generator
    matrix is kept: ``coordinates`` reads vectors and ``lift`` builds
    them."""

    m: int
    cols: int
    parts: list[_LocalKernel]

    @property
    def orders(self) -> list[int]:
        return [o for part in self.parts for o in part.orders]

    def coordinates(self, b) -> np.ndarray | None:
        """y with ``lift(y) = b`` for the columns of b (c x B, dense or
        :class:`Triples`), or None if a column is not the lift of what was
        read.  Each ring reads b's free entries mod q.  The lift of what it
        read has the free entries ``free_part``, and b is that lift when
        those are b's own and a b = 0 mod q, an index join for sparse b."""
        dense = not isinstance(b, Triples)
        if dense:
            b = np.asarray(b, dtype=np.int64)
        ys = [np.zeros((0, b.shape[1]), np.int64)]
        for part in self.parts:
            q = part.q
            if dense:
                bq = b % q
                f = bq[part.free]
                off = (times_dense(part.terms, bq) % q).any()
            else:
                bq = reduced(b, q)
                rows = take_rows(bq, part.free)
                f = np.zeros(rows.shape, dtype=np.int64)
                f[rows.rows, rows.cols] = rows.vals
                off = len(times(part.a, bq, q).vals) > 0
            y = part.read(f)
            if ((part.free_part(y) - f) % q).any() or off:
                return None
            ys.append(y * part.e % self.m)
        return np.vstack(ys)

    def lift(self, y) -> np.ndarray:
        """The kernel vectors mod m with coefficients y, a row per
        generator: each ring's free entries, back-substituted through its
        pivots in reverse order."""
        y = np.asarray(y, dtype=np.int64)
        out = np.zeros((self.cols, y.shape[1]), dtype=np.int64)
        start = 0
        for part in self.parts:
            x = np.zeros_like(out)
            x[part.free] = part.free_part(y[start:start + len(part.orders)])
            for key, v in reversed(part.pivots):
                if v:
                    keys = np.fromiter(v.keys(), np.int64, len(v))
                    vals = np.fromiter(v.values(), np.int64, len(v))
                    x[key] = -(vals @ x[keys]) % part.q
            out = (out + x * part.e) % self.m
            start += len(part.orders)
        return out

    def basis(self) -> np.ndarray:
        """Every generator, as the columns of a dense matrix."""
        return self.lift(np.eye(len(self.orders), dtype=np.int64))


def unit_pivots(vectors: Iterable[dict[int, int]], q: int, p: int
                ) -> tuple[list[tuple[int, dict[int, int]]],
                           list[dict[int, int]]]:
    """Sparse elimination on unit entries over the local ring Z/q, q = p^k.

    Each vector is ``{key: entry}``, entries reduced mod q; a unit is an
    entry that p does not divide.  Zero and repeated vectors are dropped.
    Each step takes the shortest vector with a unit, pivots at the unit
    whose key occurs in the fewest other vectors, which keeps fill-in low,
    scales the vector to 1 there and clears that key from every other one.

    Returns ``(pivots, residual)``.  ``pivots`` lists ``(key, v)`` in pivot
    order, ``e_key + v`` the scaled pivot vector, v holding no key pivoted
    before it.  ``residual`` holds the vectors left without a unit, none
    with a pivot key, each taken once up to sign.
    """
    vecs: dict[int, dict[int, int]] = {}
    seen: set[tuple[tuple[int, int], ...]] = set()
    for vec in vectors:
        key = tuple(sorted((k, x % q) for k, x in vec.items() if x % q))
        if key and key not in seen:
            seen.add(key)
            vecs[len(vecs)] = dict(key)
    where = defaultdict(set)  # key -> vectors with an entry there
    units = defaultdict(set)  # length -> vectors with a unit entry
    for j, v in vecs.items():
        for r in v:
            where[r].add(j)
        if any(x % p for x in v.values()):
            units[len(v)].add(j)
    pivots = []
    while any(units.values()):
        j = units[min(n for n, b in units.items() if b)].pop()
        v = vecs.pop(j)
        for key in v:
            where[key].discard(j)
        r = min((key for key, x in v.items() if x % p),
                key=lambda key: len(where[key]))
        inv = pow(v.pop(r), -1, q)
        v = {key: x * inv % q for key, x in v.items()}
        pivots.append((r, v))
        for k in where.pop(r):
            w = vecs[k]
            units[len(w)].discard(k)
            f = w.pop(r)  # w - f (e_r + v) is zero at r
            for key, x in v.items():
                y = w.get(key)
                z = (-f * x if y is None else y - f * x) % q
                if z:
                    if y is None:
                        where[key].add(k)
                    w[key] = z
                elif y is not None:
                    del w[key]
                    where[key].discard(k)
            if not w:
                del vecs[k]
            elif any(x % p for x in w.values()):
                units[len(w)].add(k)
    residual: dict[tuple[tuple[int, int], ...], None] = {}
    for v in vecs.values():
        key = tuple(sorted(v.items()))
        if 2 * key[0][1] > q:
            key = tuple((r, -x % q) for r, x in key)
        residual[key] = None
    return pivots, [dict(key) for key in residual]


class ModSolver:
    """Repeated solves of a x = b mod m for a fixed matrix a."""

    def __init__(self, a, m: int):
        self.m, (self.rows, self.cols) = m, np.shape(a)
        self.form = mod_smith(a, m, want_u=True, want_v=True) \
            if self.cols else None

    def solve(self, b) -> np.ndarray | None:
        """x with a x = b mod m, or None if there is none.

        ``b`` is one right-hand side or a matrix of them in its columns; a
        matrix gets the matrix of solutions, or None if any column has none.
        """
        m = self.m
        b = np.asarray(b, dtype=np.int64) % m
        shape = (self.cols,) + b.shape[1:]
        if self.cols == 0:
            return None if b.any() else np.zeros(shape, dtype=np.int64)
        f = self.form
        w = (f.u @ b) % m
        k = min(self.rows, self.cols)
        # a zero diagonal entry, reported as m, admits only w = 0
        d = np.array(f.diag, dtype=np.int64).reshape(
            (k,) + (1,) * (b.ndim - 1))
        if w[k:].any() or (w[:k] % d).any():
            return None
        z = np.zeros(shape, dtype=np.int64)
        z[:k] = w[:k] // d
        return (f.v @ z) % m
