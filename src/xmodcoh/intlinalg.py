"""Exact integer linear algebra, and the sparse unit-pivot core.

Everything here works over arbitrary-precision Python ints: Smith normal
form with optional unimodular transforms, integer linear solves, and solves
modulo a vector of moduli.  Matrices are lists of rows; vectors are lists of
ints.

:func:`unit_pivots` is the one sparse elimination loop: it pivots on unit
entries of ``{key: entry}`` vectors, over Z (units +-1) or over a local
ring Z/p^k (units the entries p does not divide).  Rank and torsion of a
large sparse integer matrix, such as a simplicial boundary, come from
:func:`sparse_rank_torsion`: unit pivots first, then the dense Smith form
on the small residual that has no unit entry left.  ``modsnf.mod_kernel``
runs the same loop over each prime power of its modulus.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass


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


def unit_pivots(vectors: Iterable[dict[int, int]], q: int = 0, p: int = 0
                ) -> tuple[list[tuple[int, dict[int, int]]],
                           list[dict[int, int]]]:
    """Sparse elimination on unit entries, over Z or over Z/q with q = p^k.

    Each vector is ``{key: entry}``; over Z/q entries are reduced mod q.
    A unit is +-1 over Z (an exact unimodular step) and any entry that p
    does not divide over the local ring Z/p^k.  Zero and repeated vectors
    are dropped first.  Each step takes the shortest vector with a unit,
    pivots at the unit whose key occurs in the fewest other vectors, which
    keeps fill-in low, scales the vector to 1 there and clears that key
    from every other vector.

    Returns ``(pivots, residual)``.  ``pivots`` lists ``(key, v)`` in pivot
    order, where ``e_key + v`` is the scaled pivot vector; v holds no key
    pivoted before it.  ``residual`` holds the vectors left without a unit,
    none with a pivot key, each taken once up to sign.
    """
    if q:
        def is_unit(x):
            return x % p != 0

        def has_unit(v):
            return any(x % p for x in v.values())
    else:
        def is_unit(x):
            return x == 1 or x == -1

        def has_unit(v):
            return 1 in v.values() or -1 in v.values()
    vecs: dict[int, dict[int, int]] = {}
    seen: set[tuple[tuple[int, int], ...]] = set()
    for vec in vectors:
        if q:
            vec = {k: x % q for k, x in vec.items()}
        key = tuple(sorted((k, x) for k, x in vec.items() if x))
        if key and key not in seen:
            seen.add(key)
            vecs[len(vecs)] = dict(key)
    where = defaultdict(set)  # key -> vectors with an entry there
    units = defaultdict(set)  # length -> vectors with a unit entry
    for j, v in vecs.items():
        for r in v:
            where[r].add(j)
        if has_unit(v):
            units[len(v)].add(j)
    pivots = []
    while any(units.values()):
        j = units[min(n for n, b in units.items() if b)].pop()
        v = vecs.pop(j)
        for key in v:
            where[key].discard(j)
        r = min((key for key, x in v.items() if is_unit(x)),
                key=lambda key: len(where[key]))
        inv = pow(v.pop(r), -1, q) if q else v.pop(r)
        v = {key: x * inv % q if q else x * inv for key, x in v.items()}
        pivots.append((r, v))
        for k in where.pop(r):
            w = vecs[k]
            units[len(w)].discard(k)
            f = w.pop(r)  # w - f (e_r + v) is zero at r
            for key, x in v.items():
                y = w.get(key)
                z = -f * x if y is None else y - f * x
                if q:
                    z %= q
                if z:
                    if y is None:
                        where[key].add(k)
                    w[key] = z
                elif y is not None:
                    del w[key]
                    where[key].discard(k)
            if not w:
                del vecs[k]
            elif has_unit(w):
                units[len(w)].add(k)
    residual: dict[tuple[tuple[int, int], ...], None] = {}
    for v in vecs.values():
        key = tuple(sorted(v.items()))
        if key[0][1] < 0 or (q and 2 * key[0][1] > q):
            key = tuple((r, -x % q if q else -x) for r, x in key)
        residual[key] = None
    return pivots, [dict(key) for key in residual]


def sparse_rank_torsion(
        columns: Iterable[dict[int, int]]) -> tuple[int, tuple[int, ...]]:
    """Rank and torsion of the integer matrix with ``{row: entry}`` columns.

    ``torsion`` lists the invariant factors greater than 1, ascending, so
    Z^rows modulo the column span is Z^(rows - rank) plus those cyclic
    groups.  A pivot on a +-1 entry is an exact unimodular step that splits
    off one row and one column, so those pivots are taken in sparse form by
    :func:`unit_pivots`; the columns left without a unit entry go over
    their own rows to :func:`smith_normal_form`.
    """
    pivots, residual = unit_pivots(columns)
    rows = sorted({r for v in residual for r in v})
    pos = {r: i for i, r in enumerate(rows)}
    dense = [[0] * len(residual) for _ in rows]
    for c, v in enumerate(residual):
        for r, x in v.items():
            dense[pos[r]][c] = x
    form = smith_normal_form(dense)
    return (len(pivots) + form.rank,
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
