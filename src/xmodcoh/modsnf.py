"""Smith normal form, kernels and solvers over Z/m, numpy-backed.

Z/m is a principal ideal ring, so every matrix over it is equivalent to a
diagonal matrix whose entries form a divisibility chain of divisors of m.
By CRT, Z/m is the product of the local rings Z/q over the prime powers
q = p^k exactly dividing m, and both :func:`mod_smith` and
:func:`mod_kernel` work one local ring at a time.  Over Z/q every entry
that p does not divide is a unit, and an entry of least p-valuation divides
every other entry, so pivoting on one needs no gcd repair and the diagonal
comes out as a chain with no further pass.

:func:`mod_smith` computes the dense local forms, with invertible
transforms, for the small matrices that need them (elimination residuals,
quotient relations and solver matrices) and joins them by CRT.  Kernels,
the one large elimination behind group cohomology, never take a dense form
of the whole matrix: sparse unit pivots (``intlinalg.unit_pivots``, the
same pivot loop as integral homology) solve most columns exactly; only the
residual rows, which have no unit left, go to :func:`mod_smith`, and the
residual kernel is lifted back through the pivot rows.  The test suite
cross-checks both against the exact integer Smith form.

Conventions: matrix entries are stored canonically in [0, m).  Reported
diagonal values are canonical divisors of m, with m itself standing for a
zero entry (annihilator Z/m).  Transform matrices are invertible mod m.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

import numpy as np
from scipy import sparse

from . import intlinalg as il


def dtype_for(m: int, max_dim: int):
    """Smallest safe integer dtype for eliminations and matmuls mod m."""
    if max_dim * (m - 1) ** 2 < 2 ** 31:
        return np.int32
    if max_dim * (m - 1) ** 2 < 2 ** 62:
        return np.int64
    raise ValueError(f"modulus {m} too large for dimension {max_dim}")


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
    m: int
    rows: int
    cols: int
    diag: list[int]            # canonical divisors of m; m stands for zero
    u: np.ndarray | None       # u @ a @ v = diag(...) mod m
    u_inv: np.ndarray | None
    v: np.ndarray | None


def mod_smith(a, m: int, want_u: bool = False, want_uinv: bool = False,
              want_v: bool = False) -> ModSmithForm:
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
    parts = [(q, e, _local_smith(a % q, p, q, want_u, want_uinv, want_v))
             for p, q, e in _local_rings(m)]
    diag = [prod(d) for d in zip(*(local[0] for _, _, local in parts))]
    k = len(diag)
    mats: list[np.ndarray | None] = [None, None, None]
    for q, e, (d, *local) in parts:
        unit = np.array([x // y % q for x, y in zip(diag, d)], dtype=np.int64)
        u, u_inv, _ = local
        if u is not None:
            u[:k] = u[:k] * unit[:, None] % q
        if u_inv is not None:
            u_inv[:, :k] = u_inv[:, :k] * np.array(
                [pow(int(x), -1, q) for x in unit], dtype=np.int64) % q
        for slot, x in enumerate(local):
            if x is not None:
                x = x.astype(np.int64) * e % m
                mats[slot] = x if mats[slot] is None else (mats[slot] + x) % m
    return ModSmithForm(m, r, c, diag, *mats)


def _local_smith(a: np.ndarray, p: int, q: int, want_u: bool,
                 want_uinv: bool, want_v: bool):
    """(diag, U, U^-1, V) of ``a`` (entries in [0, q)) over Z/q, q = p^k.

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
        diag.append(g)
    return diag + [q] * (min(r, c) - len(diag)), U, Ui, V


def mod_kernel(a, m: int) -> tuple[np.ndarray, list[int], np.ndarray]:
    """Generators (as columns) and orders of {x in (Z/m)^c : a x = 0}, and
    the free columns.

    ``a`` is a dense array or a scipy.sparse matrix.  The kernel is the
    direct sum of its parts over the prime powers q of m: each part comes
    from :func:`_local_kernel` and is carried into Z/m by the CRT
    idempotent that is 1 mod q and 0 mod m/q, keeping its own orders (so
    they need not form a divisibility chain).  A kernel vector is fixed
    mod q by its entries on the columns that no unit pivot took, so
    ``free``, the sorted union of those columns over q, fixes it mod m.
    """
    if m < 2:
        raise ValueError("modulus must be at least 2")
    a = sparse.csr_matrix(a, dtype=np.int64)
    a.sum_duplicates()
    c = a.shape[1]
    if c == 0:
        return (np.zeros((0, 0), dtype=np.int64), [],
                np.zeros(0, dtype=np.int64))
    gens, orders, free = [], [], set()
    for p, q, e in _local_rings(m):
        x, o, f = _local_kernel(a, p, q)
        gens.append(x * e % m)
        orders += o
        free.update(f)
    return np.hstack(gens), orders, np.array(sorted(free), dtype=np.int64)


def _local_kernel(a: sparse.csr_matrix, p: int,
                  q: int) -> tuple[np.ndarray, list[int], list[int]]:
    """The kernel of ``a`` over the local ring Z/q, q = p^k, and its free
    columns.

    Unit pivots on the rows (``intlinalg.unit_pivots``) solve each pivot
    column in terms of later columns.  The residual rows have no unit, so
    their kernel over the free (non-pivot) columns comes from the dense
    :func:`mod_smith`.  The generators are lifted through the pivot rows
    in reverse pivot order, which keeps the orders.
    """
    c = a.shape[1]
    dtype_for(q, c)  # back-substitution sums at most c products below q^2
    ptr, cols, data = a.indptr.tolist(), a.indices.tolist(), a.data.tolist()
    pivots, residual = il.unit_pivots(
        (dict(zip(cols[s:t], data[s:t])) for s, t in zip(ptr, ptr[1:])),
        q, p)
    pivoted = {key for key, _ in pivots}
    free = [j for j in range(c) if j not in pivoted]
    diag, basis = [], np.eye(len(free), dtype=np.int64)
    if residual:
        form = mod_smith(np.array([[row.get(j, 0) for j in free]
                                   for row in residual], dtype=np.int64),
                         q, want_v=True)
        diag, basis = form.diag, form.v.astype(np.int64)
    x = np.zeros((c, len(free)), dtype=np.int64)
    orders = []
    for i in range(len(free)):
        d = diag[i] if i < len(diag) else q
        if d > 1:
            x[free, len(orders)] = basis[:, i] * (q // d) % q
            orders.append(d)
    x = x[:, :len(orders)]
    for key, v in reversed(pivots):
        if v:
            keys = np.fromiter(v.keys(), dtype=np.int64, count=len(v))
            vals = np.fromiter(v.values(), dtype=np.int64, count=len(v))
            x[key] = -(vals @ x[keys]) % q
    return x, orders, free


class ModSolver:
    """Repeated solves of a x = b mod m for a fixed matrix a."""

    def __init__(self, a, m: int):
        self.m = m
        a = np.asarray(a)
        self.rows, self.cols = a.shape
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
        w = (f.u.astype(np.int64) @ b) % m
        k = min(self.rows, self.cols)
        # a zero diagonal entry, reported as m, admits only w = 0
        d = np.array(f.diag, dtype=np.int64).reshape(
            (k,) + (1,) * (b.ndim - 1))
        if w[k:].any() or (w[:k] % d).any():
            return None
        z = np.zeros(shape, dtype=np.int64)
        z[:k] = w[:k] // d
        return (f.v.astype(np.int64) @ z) % m
