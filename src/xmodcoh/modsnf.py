"""Smith normal form and solvers over Z/m, numpy-backed.

Z/m is a principal ideal ring, so every matrix over it is equivalent to a
diagonal matrix whose entries form a divisibility chain of divisors of m.
This module computes that form with invertible transforms, plus kernels and
linear solves, using vectorized row/column eliminations.  It is the one
elimination behind group cohomology for every coefficient module (finite
modules with mixed moduli are carried over their largest modulus); the test
suite cross-checks it against the exact integer Smith form.

Conventions: matrix entries are stored canonically in [0, m).  Reported
diagonal values are canonical divisors of m, with m itself standing for a
zero entry (annihilator Z/m).  Transform matrices are invertible mod m.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np


def dtype_for(m: int, max_dim: int):
    """Smallest safe integer dtype for eliminations and matmuls mod m."""
    if max_dim * (m - 1) ** 2 < 2 ** 31:
        return np.int32
    if max_dim * (m - 1) ** 2 < 2 ** 62:
        return np.int64
    raise ValueError(f"modulus {m} too large for dimension {max_dim}")


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def unit_part(a: int, m: int) -> int:
    """A unit u mod m with a = u * gcd(a, m) mod m."""
    g = gcd(a, m)
    u = (a // g) % m
    if u == 0:
        u = 1  # a = 0: gcd is m, any unit works
    step = m // g
    while gcd(u, m) != 1:
        u = (u + step) % m or m
    return u


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
    if m < 2:
        raise ValueError("modulus must be at least 2")
    a = np.asarray(a)
    r, c = a.shape
    dt = dtype_for(m, max(r, c, 1))
    a = np.array(a, dtype=np.int64) % m
    a = a.astype(dt)
    U = np.eye(r, dtype=dt) if want_u else None
    Ui = np.eye(r, dtype=dt) if want_uinv else None
    V = np.eye(c, dtype=dt) if want_v else None

    def row_combo(i, j, c11, c12, c21, c22):
        # row_i' = c11 row_i + c12 row_j ; row_j' = c21 row_i + c22 row_j
        c11, c12, c21, c22 = (x % m for x in (c11, c12, c21, c22))
        for mat in (a, U):
            if mat is None:
                continue
            ri = (c11 * mat[i] + c12 * mat[j]) % m
            rj = (c21 * mat[i] + c22 * mat[j]) % m
            mat[i], mat[j] = ri, rj
        if Ui is not None:
            det = (c11 * c22 - c12 * c21) % m
            di = pow(int(det), -1, m)
            ci = (di * (c22 * Ui[:, i] - c21 * Ui[:, j])) % m
            cj = (di * (-c12 * Ui[:, i] + c11 * Ui[:, j])) % m
            Ui[:, i], Ui[:, j] = ci, cj

    def col_combo(i, j, c11, c12, c21, c22):
        # col_i' = c11 col_i + c12 col_j ; col_j' = c21 col_i + c22 col_j
        c11, c12, c21, c22 = (x % m for x in (c11, c12, c21, c22))
        for mat in (a, V):
            if mat is None:
                continue
            ci = (c11 * mat[:, i] + c12 * mat[:, j]) % m
            cj = (c21 * mat[:, i] + c22 * mat[:, j]) % m
            mat[:, i], mat[:, j] = ci, cj

    def scale_row(i, unit):
        inv = pow(int(unit), -1, m)
        a[i] = (a[i] * unit) % m
        if U is not None:
            U[i] = (U[i] * unit) % m
        if Ui is not None:
            Ui[:, i] = (Ui[:, i] * inv) % m

    def repair_and_eliminate(t):
        """Make the pivot at (t, t) divide its row and column, then clear."""
        while True:
            g = gcd(int(a[t, t]), m)
            col = a[t + 1:, t]
            bad = np.nonzero(col % g)[0]
            if bad.size:
                i2 = t + 1 + int(bad[0])
                p, q = int(a[t, t]), int(a[i2, t])
                gg, s, tt = _ext_gcd(p, q)
                row_combo(t, i2, s, tt, -(q // gg), p // gg)
                continue
            row = a[t, t + 1:]
            bad = np.nonzero(row % g)[0]
            if bad.size:
                j2 = t + 1 + int(bad[0])
                p, q = int(a[t, t]), int(a[t, j2])
                gg, s, tt = _ext_gcd(p, q)
                col_combo(t, j2, s, tt, -(q // gg), p // gg)
                continue
            break
        g = gcd(int(a[t, t]), m)
        scale_row(t, pow(unit_part(int(a[t, t]), m), -1, m))
        # column below the pivot, all entries divisible by g
        f = a[t + 1:, t] // g
        if f.size and np.any(f):
            a[t + 1:, :] = (a[t + 1:, :] - np.outer(f, a[t, :])) % m
            if U is not None:
                U[t + 1:, :] = (U[t + 1:, :] - np.outer(f, U[t, :])) % m
            if Ui is not None:
                Ui[:, t] = (Ui[:, t] + Ui[:, t + 1:] @ f) % m
        # row right of the pivot
        fc = a[t, t + 1:] // g
        if fc.size and np.any(fc):
            a[:, t + 1:] = (a[:, t + 1:] - np.outer(a[:, t], fc)) % m
            if V is not None:
                V[:, t + 1:] = (V[:, t + 1:] - np.outer(V[:, t], fc)) % m
        return g

    k = min(r, c)
    rank = 0
    for t in range(k):
        sub = a[t:, t:]
        flat = int(np.argmax(sub != 0))
        i, j = divmod(flat, c - t)
        if sub[i, j] == 0:
            break
        if i:
            row_combo(t, t + i, 0, 1, 1, 0)
        if j:
            col_combo(t, t + j, 0, 1, 1, 0)
        repair_and_eliminate(t)
        rank += 1

    def report(i):
        val = int(a[i, i])
        return m if val == 0 else gcd(val, m)

    # enforce the divisibility chain on the diagonal
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            di, dj = report(i), report(i + 1)
            if dj % di == 0:
                continue
            changed = True
            col_combo(i, i + 1, 1, 1, 0, 1)  # col_i += col_{i+1}
            repair_and_eliminate(i)
            # recanonicalize the (i+1) entry disturbed by the elimination
            val = int(a[i + 1, i + 1])
            if val:
                scale_row(i + 1, pow(unit_part(val, m), -1, m))

    diag = [report(i) for i in range(rank)] + [m] * (k - rank)
    return ModSmithForm(m, r, c, diag, U, Ui, V)


def mod_kernel(a, m: int) -> tuple[np.ndarray, list[int]]:
    """Generators (as columns) and orders of {x in (Z/m)^c : a x = 0}."""
    a = np.asarray(a)
    r, c = a.shape
    if c == 0:
        return np.zeros((0, 0), dtype=dtype_for(m, 1)), []
    form = mod_smith(a, m, want_v=True)
    gens = []
    orders = []
    for i in range(c):
        d = form.diag[i] if i < len(form.diag) else m
        if d == 1:
            continue
        gens.append((form.v[:, i] * (m // d)) % m)
        orders.append(d)
    if not gens:
        return np.zeros((c, 0), dtype=form.v.dtype), []
    return np.stack(gens, axis=1), orders


class ModSolver:
    """Repeated solves of a x = b mod m for a fixed matrix a."""

    def __init__(self, a, m: int):
        self.m = m
        a = np.asarray(a)
        self.rows, self.cols = a.shape
        self.form = mod_smith(a, m, want_u=True, want_v=True) \
            if self.cols else None

    def solve(self, b) -> np.ndarray | None:
        m = self.m
        b = np.asarray(b, dtype=np.int64) % m
        if self.cols == 0:
            return (np.zeros(0, dtype=np.int64) if not b.any() else None)
        f = self.form
        w = (f.u.astype(np.int64) @ b) % m
        z = np.zeros(self.cols, dtype=np.int64)
        k = min(self.rows, self.cols)
        for i in range(self.rows):
            if i >= k:
                if w[i]:
                    return None
                continue
            d = f.diag[i]
            if d == m:
                if w[i]:
                    return None
            else:
                if w[i] % d:
                    return None
                z[i] = w[i] // d
        return (f.v.astype(np.int64) @ z) % m
