"""Exact integer linear algebra: Smith normal form, solves, the rank and
torsion of large sparse integer matrices, and the program's sparse
matrices as int64 index arrays.

The Smith form and the solves work over arbitrary-precision Python ints on
matrices given as lists of rows.

A sparse matrix is a triple (rows, cols, values) of int64 arrays with no
repeated position and no zero entry.  :class:`Triples` adds the shape and
keeps its entries sorted by row and then column, so a row is a run of
entries: the cohomology differentials and kernels are these.  The
helpers build them (:func:`triples`, :func:`dense_triples`), reduce them
(:func:`reduced`), take rows (:func:`take_rows`) and multiply by a dense matrix, one term of entries on
distinct rows at a time (:func:`row_terms`, :func:`times_dense`), or by
another sparse one (:func:`times`), all in exact int64 arithmetic that
refuses with a typed ``ResourceLimit`` before an entry could wrap.

:func:`sparse_rank_torsion` takes the triples of a matrix sorted by column
and then row (:func:`canonical`), such as a simplicial boundary, and
eliminates whole blocks of +-1 pivots at once: each round takes the
columns whose first entry is +-1, one per row, which form a unimodular
triangular block, and replaces the matrix by the Schur complement of that
block (Faugere-Lachartre pivot selection).  Only the small residual with
no +-1 entry goes to the dense Smith form.  The one-pivot-at-a-time loop
over Z/p^k lives in ``modsnf``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ResourceLimit


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(a: list[list[int]], v: list[int]) -> list[int]:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


@dataclass
class SmithForm:
    """U @ A @ V == D with U, V unimodular and D diagonal, d1 | d2 | ...

    ``diag`` holds the min(m, n) diagonal entries (trailing zeros included);
    ``rank`` counts the nonzero ones.  The transform matrices are present
    only when requested.
    """

    shape: tuple[int, int]
    diag: list[int]
    rank: int
    row_t: list[list[int]] | None = None  # U  (m x m)
    col_t: list[list[int]] | None = None  # V  (n x n)


class _Reducer:
    """Mutable SNF reduction state with optional transform bookkeeping."""

    def __init__(self, a: list[list[int]], transforms: bool):
        self.a = [list(row) for row in a]
        self.m = len(a)
        self.n = len(a[0]) if a else 0
        self.transforms = transforms
        if transforms:
            self.u = identity_matrix(self.m)
            self.v = identity_matrix(self.n)
        else:
            self.u = self.v = None

    # --- row operations (act on A and U from the left) ---

    def swap_rows(self, i: int, j: int) -> None:
        if i == j:
            return
        a = self.a
        a[i], a[j] = a[j], a[i]
        if self.transforms:
            u = self.u
            u[i], u[j] = u[j], u[i]

    def addmul_row(self, i: int, j: int, q: int) -> None:
        """row_i += q * row_j."""
        if q == 0:
            return
        ai, aj = self.a[i], self.a[j]
        for k in range(self.n):
            if aj[k]:
                ai[k] += q * aj[k]
        if self.transforms:
            ui_, uj = self.u[i], self.u[j]
            for k in range(self.m):
                if uj[k]:
                    ui_[k] += q * uj[k]

    def negate_row(self, i: int) -> None:
        self.a[i] = [-x for x in self.a[i]]
        if self.transforms:
            self.u[i] = [-x for x in self.u[i]]

    # --- column operations (act on A and V from the right) ---

    def swap_cols(self, i: int, j: int) -> None:
        if i == j:
            return
        for row in self.a:
            row[i], row[j] = row[j], row[i]
        if self.transforms:
            for row in self.v:
                row[i], row[j] = row[j], row[i]

    def addmul_col(self, i: int, j: int, q: int) -> None:
        """col_i += q * col_j."""
        if q == 0:
            return
        for row in self.a:
            if row[j]:
                row[i] += q * row[j]
        if self.transforms:
            for row in self.v:
                if row[j]:
                    row[i] += q * row[j]

    # --- main loop ---

    def _find_pivot(self, t: int) -> tuple[int, int] | None:
        best = None
        best_val = None
        a = self.a
        for i in range(t, self.m):
            row = a[i]
            for j in range(t, self.n):
                x = row[j]
                if x:
                    x = -x if x < 0 else x
                    if best_val is None or x < best_val:
                        best_val = x
                        best = (i, j)
                        if x == 1:
                            return best
        return best

    def reduce(self) -> list[int]:
        a = self.a
        t = 0
        limit = min(self.m, self.n)
        while t < limit:
            pos = self._find_pivot(t)
            if pos is None:
                break
            self.swap_rows(t, pos[0])
            self.swap_cols(t, pos[1])
            p = a[t][t]
            dirty = False
            for i in range(t + 1, self.m):
                if a[i][t]:
                    self.addmul_row(i, t, -(a[i][t] // p))
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, self.n):
                if a[t][j]:
                    self.addmul_col(j, t, -(a[t][j] // p))
                    if a[t][j]:
                        dirty = True
            if dirty:
                continue
            # pivot row/column are clear; enforce divisibility of the rest
            # (vacuous for a unit pivot)
            p = a[t][t]
            if p == 1 or p == -1:
                t += 1
                continue
            pulled = False
            for i in range(t + 1, self.m):
                row = a[i]
                if any(x % p for x in row[t + 1:]):
                    self.addmul_row(t, i, 1)
                    pulled = True
                    break
            if pulled:
                continue
            t += 1
        for i in range(limit):
            if a[i][i] < 0:
                self.negate_row(i)
        return [a[i][i] for i in range(limit)]


def smith_normal_form(a: list[list[int]], transforms: bool = False) -> SmithForm:
    """Smith normal form of an integer matrix.

    Returns diag entries satisfying d1 | d2 | ... (nonnegative), and — when
    ``transforms`` is set — unimodular U, V with U @ A @ V == D.
    """
    if a and any(len(row) != len(a[0]) for row in a):
        raise ValueError("matrix rows have unequal lengths")
    red = _Reducer(a, transforms)
    diag = red.reduce()
    rank = sum(1 for d in diag if d)
    form = SmithForm(shape=(red.m, red.n), diag=diag, rank=rank)
    if transforms:
        form.row_t, form.col_t = red.u, red.v
    return form


# Entries stay below this bound, so the sum of two cannot wrap int64, and
# a product that could reach it is refused before it is formed.
HEADROOM = 2 ** 62


def _refuse(what: str, bound: int) -> None:
    if bound >= HEADROOM:
        raise ResourceLimit(f"int64 elimination {what}", bound, HEADROOM)


def canonical(r, c, x, m: int):
    """The triples of an m-row matrix sorted by column and then row,
    entries at one position summed and zeros dropped; refused when an
    entry reaches the headroom."""
    key = c * m + r
    order = np.argsort(key, kind="stable")  # merges sorted runs fast
    key, x = key[order], x[order]
    start = np.flatnonzero(np.diff(key, prepend=-1))
    if len(x):
        longest = int(np.diff(start, append=len(x)).max())
        if longest * max(int(x.max()), -int(x.min())) < 2 ** 63:
            x = np.add.reduceat(x, start)
        else:
            # a sum in int64 could wrap: add these runs as Python integers
            x = [sum(run.tolist()) for run in np.split(x, start[1:])]
            _refuse("entry", max(map(abs, x)))
            x = np.array(x, dtype=np.int64)
    key, x = key[start][x != 0], x[x != 0]
    _refuse("entry", int(np.abs(x).max(initial=0)))
    return key % m, key // m, x


class Triples(NamedTuple):
    """A sparse integer matrix of ``shape``: vals[i] at (rows[i], cols[i]),
    sorted by row and then column, no position twice, no zero."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple[int, int]


def triples(r, c, x, shape, modulus: int = 0) -> Triples:
    """The entries x at (r, c) as :class:`Triples`, those at one position
    summed, reduced mod ``modulus`` when it is set."""
    r, c, x = (np.asarray(t, dtype=np.int64) for t in (r, c, x))
    if modulus:
        x = x % modulus
    c, r, x = canonical(c, r, x, shape[1])
    a = Triples(r, c, x, tuple(shape))
    return reduced(a, modulus) if modulus else a


def reduced(a: Triples, modulus: int) -> Triples:
    """a mod ``modulus``, zeros dropped."""
    x = a.vals % modulus
    keep = x != 0
    return Triples(a.rows[keep], a.cols[keep], x[keep], a.shape)


def dense_triples(a) -> Triples:
    """The nonzero entries of a dense matrix as :class:`Triples`."""
    a = np.asarray(a, dtype=np.int64)
    r, c = np.nonzero(a)
    return Triples(r, c, a[r, c], a.shape)


def _runs(start, cnt):
    """The indices start[i], ..., start[i] + cnt[i] - 1, for each i."""
    return np.repeat(start - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())


def take_rows(a: Triples, rows) -> Triples:
    """Rows ``rows`` of a, in that order."""
    rows = np.asarray(rows, dtype=np.int64)
    ptr = np.searchsorted(a.rows, np.arange(a.shape[0] + 1))
    cnt = ptr[rows + 1] - ptr[rows]
    pick = _runs(ptr[rows], cnt)
    return Triples(np.repeat(np.arange(len(rows)), cnt), a.cols[pick],
                   a.vals[pick], (len(rows), a.shape[1]))


def row_terms(a: Triples):
    """a as the sum of w terms, w its longest row: (cols, vals), each
    w x rows, term j holding the j-th entry of every row (a zero at column
    0 past a row's end).  A term has one entry per row, so each adds one
    gather to a product with a dense matrix (:func:`times_dense`)."""
    count = np.bincount(a.rows, minlength=a.shape[0])
    nth = np.arange(len(a.rows)) - np.repeat(np.cumsum(count) - count, count)
    cols = np.zeros((int(count.max(initial=0)), a.shape[0]), dtype=np.int64)
    vals = np.zeros_like(cols)
    cols[nth, a.rows], vals[nth, a.rows] = a.cols, a.vals
    return cols, vals


def times_dense(terms, v) -> np.ndarray:
    """a @ v for a dense v and a's :func:`row_terms`, exact, one term at a
    time; refused first when an entry could reach the headroom."""
    cols, vals = terms
    v = np.asarray(v, dtype=np.int64)
    out = np.zeros((cols.shape[1],) + v.shape[1:], dtype=np.int64)
    if not v.size:
        return out
    _refuse("product", int(np.abs(vals).max(initial=0))
            * int(np.abs(v).max()) * len(cols))
    shape = (-1,) + (1,) * (v.ndim - 1)
    for c, x in zip(cols, vals):
        out += x.reshape(shape) * v[c]
    return out


def times(a: Triples, b: Triples, modulus: int = 0) -> Triples:
    """a @ b by an index join, reduced mod ``modulus`` when it is set."""
    return triples(*_times(a[:3], b[:3], b.shape[0]),
                   (a.shape[0], b.shape[1]), modulus)


def _times(u, v, k: int):
    """Triples of u @ v, v with k rows, in the order of u's entries and
    with positions repeated.  No entry exceeds max|u| * max|v| times the
    longest row of u, which is checked first."""
    (ur, uc, ux), (vr, vc, vx) = u, v
    if len(ux) and len(vx):
        _refuse("product", int(np.abs(ux).max()) * int(np.abs(vx).max())
                * int(np.bincount(ur).max()))
    order = np.argsort(vr, kind="stable")
    ptr = np.searchsorted(vr[order], np.arange(k + 1))
    cnt = ptr[uc + 1] - ptr[uc]
    pick = order[_runs(ptr[uc], cnt)]
    return np.repeat(ur, cnt), vc[pick], np.repeat(ux, cnt) * vx[pick]


def _minus(a, p, m: int):
    return canonical(*(np.concatenate([s, t]) for s, t in
                       zip(a, (p[0], p[1], -p[2]))), m)


def _transpose(t):
    return t[1], t[0], t[2]


def _solve(b, e, k: int, m: int):
    """B (I + E)^-1 for an m-row B and a nilpotent k x k E: z <- B - z E
    from z = B is exact once it stops changing."""
    z = b
    while True:
        nxt = _minus(b, _times(z, e, k), m)
        if all(map(np.array_equal, nxt, z)):
            return z
        z = nxt


def distinct(keys) -> tuple[np.ndarray, np.ndarray]:
    """What ``np.unique(keys, return_index=True, return_inverse=True)[1:]``
    gives for a 1-d array, or for the rows of a 2-d one, rows of width 0
    included: the first position of each distinct key, in key order, and
    each key's index among them.  One stable sort; ``np.unique`` imports
    ``numpy.ma`` on its first call."""
    keys = np.ascontiguousarray(keys)
    if keys.ndim == 2:
        width = keys.shape[1] * keys.itemsize
        keys = keys.view(np.dtype((np.void, width)))[:, 0] if width \
            else np.zeros(len(keys), dtype=np.int8)
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    new[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _distinct_columns(r, c, x):
    """Canonical triples without empty columns, relabelled, each column
    negated to a positive head (first entry) and kept once; neither step
    changes rank or torsion.  Copies share a hash of their entries and are
    then compared entry by entry; after a hash collision all are kept."""
    new = np.diff(c, prepend=-1) != 0
    c, start = np.cumsum(new) - 1, np.flatnonzero(new)
    x = x * np.sign(x[start])[c]
    size = np.diff(start, append=len(c))
    mix = (r.astype(np.uint64) + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
    h = np.add.reduceat(x.astype(np.uint64) * (mix ^ mix >> np.uint64(29)),
                        start) + size.astype(np.uint64)
    first, inverse = distinct(h)
    rep = first[inverse]
    if not np.array_equal(size[rep], size):
        return r, c, x
    twin = start[rep][c] + np.arange(len(c)) - start[c]
    if not (np.array_equal(r[twin], r) and np.array_equal(x[twin], x)):
        return r, c, x
    kept = np.zeros(len(start), dtype=bool)
    kept[first] = True
    return r[kept[c]], (np.cumsum(kept) - 1)[c[kept[c]]], x[kept[c]]


def _pivot_block(r, c, x):
    """Pivot rows and columns of canonical triples whose columns are all
    nonempty with positive heads: a column headed by 1 is a candidate, and
    the sparsest candidate of each head row is taken.  In ascending row
    order the block A[rows, cols] is lower triangular with 1 on the
    diagonal, so it is unimodular."""
    start = np.flatnonzero(np.diff(c, prepend=-1))
    cand = np.flatnonzero(x[start] == 1)
    lead = r[start]
    cand = cand[np.lexsort((np.diff(start, append=len(c))[cand], lead[cand]))]
    cols = cand[np.diff(lead[cand], prepend=-1) != 0]
    return lead[cols], cols


def _units_first(r, c, x, m: int):
    """The rows holding a +-1 entry moved first, in order; the first of
    them then heads a column at a +-1 entry."""
    unit = np.isin(np.arange(m), r[np.abs(x) == 1])
    pos = np.argsort(np.argsort(~unit, kind="stable"))
    return canonical(pos[r], c, x, m)


def _pivots_first(piv, size: int):
    """New positions of 0..size-1: the pivots first, in pivot order, then
    the rest, ascending."""
    rest = np.ones(size, dtype=bool)
    rest[piv] = False
    pos = np.empty(size, dtype=np.int64)
    pos[np.concatenate([piv, np.flatnonzero(rest)])] = np.arange(size)
    return pos


def _eliminate(r, c, x, m: int, n: int, rows, cols):
    """The Schur complement S = A22 - A21 A11^-1 A12 of the pivot block
    A11 = A[rows, cols] = I + E, solved on the side with fewer right-hand
    sides.  Unimodular row and column operations take A to I + S, so S
    has the torsion of A."""
    k = len(rows)
    rpos, cpos = _pivots_first(rows, m)[r], _pivots_first(cols, n)[c]

    def block(top: bool, left: bool):
        mask = ((rpos < k) == top) & ((cpos < k) == left)
        return rpos[mask] - k * (not top), cpos[mask] - k * (not left), x[mask]

    a11, a12, a21 = block(True, True), block(True, False), block(False, True)
    e = tuple(t[a11[0] != a11[1]] for t in a11)
    # The transposed product is formed grouped by the columns of S, which
    # halves the sort that sums it.
    if m <= n:  # Z = A21 A11^-1 and S = A22 - Z A12
        z = _solve(canonical(*a21, m - k), e, k, m - k)
        pt = _times(_transpose(a12), _transpose(z), k)
    else:  # Z = (A11^-1 A12)^T and S = A22 - A21 Z^T
        z = _solve(canonical(*_transpose(a12), n - k), _transpose(e), k,
                   n - k)
        order = np.argsort(z[0], kind="stable")
        pt = _times(tuple(t[order] for t in z), _transpose(a21), k)
    return _minus(block(False, False), _transpose(pt), m - k)


def sparse_rank_torsion(a) -> tuple[int, tuple[int, ...]]:
    """Rank and torsion of an integer matrix given as its triples sorted by
    column and then row (:func:`canonical`).

    ``torsion`` lists the invariant factors greater than 1, ascending, so
    Z^rows modulo the column span is Z^(rows - rank) plus those cyclic
    groups.  Each round pivots at once on a unimodular block of +-1 entries
    (:func:`_pivot_block`) and goes on with its Schur complement, which has
    the same torsion.  Entries stay in int64 under :data:`HEADROOM`, past
    which a ``ResourceLimit`` is raised.  When no +-1 entry is left, the
    distinct columns of the residual go to :func:`smith_normal_form`.
    """
    r, c, x = a
    rank = 0
    while len(x):
        used = np.zeros(int(r.max()) + 1, dtype=bool)
        used[r] = True
        r, m = (np.cumsum(used) - 1)[r], int(used.sum())
        r, c, x = _distinct_columns(r, c, x)
        rows, cols = _pivot_block(r, c, x)
        if len(rows):
            rank += len(rows)
            r, c, x = _eliminate(r, c, x, m, int(c[-1]) + 1, rows, cols)
        elif (np.abs(x) == 1).any():
            r, c, x = _units_first(r, c, x, m)
        else:
            break
    dense = np.zeros((r.max(initial=-1) + 1, c.max(initial=-1) + 1),
                     dtype=np.int64)
    dense[r, c] = x
    form = smith_normal_form(dense[:, np.sort(distinct(dense.T)[0])].tolist())
    return (rank + form.rank,
            tuple(d for d in form.diag[:form.rank] if d > 1))


def solve_integer(a: list[list[int]], b: list[int],
                  form: SmithForm | None = None) -> list[int] | None:
    """One integer solution x of A x = b, or None if there is none."""
    m = len(a)
    n = len(a[0]) if a else 0
    if len(b) != m:
        raise ValueError("rhs length mismatch")
    if n == 0:
        return [] if all(x == 0 for x in b) else None
    if form is None:
        form = smith_normal_form(a, transforms=True)
    y = mat_vec(form.row_t, b)
    z = [0] * n
    for i in range(min(m, n)):
        d = form.diag[i]
        if d:
            if y[i] % d:
                return None
            z[i] = y[i] // d
        elif y[i]:
            return None
    for i in range(min(m, n), m):
        if y[i]:
            return None
    return mat_vec(form.col_t, z)


def solve_mod(a: list[list[int]], b: list[int], moduli: list[int],
              form: SmithForm | None = None) -> list[int] | None:
    """One solution x of A x = b (mod moduli, entrywise on the rows).

    ``moduli[i]`` is the modulus of row i (0 means an exact equation).
    When many solves against the same A/moduli are needed, pass the cached
    Smith form of the stacked matrix from :func:`stack_mod_matrix`.
    """
    stacked = stack_mod_matrix(a, moduli)
    n = len(a[0]) if a else 0
    sol = solve_integer(stacked, b, form=form)
    if sol is None:
        return None
    return sol[:n]


def stack_mod_matrix(a: list[list[int]], moduli: list[int]) -> list[list[int]]:
    """[A | diag(moduli)] with zero-modulus columns omitted."""
    m = len(a)
    if len(moduli) != m:
        raise ValueError("moduli length mismatch")
    extra = [i for i in range(m) if moduli[i]]
    out = []
    for i in range(m):
        row = list(a[i])
        row.extend(moduli[i] if i == k else 0 for k in extra)
        out.append(row)
    return out
