"""Exact integer linear algebra.

Everything here works over arbitrary-precision Python ints: Smith normal
form with optional unimodular transforms, integer linear solves, and solves
modulo a vector of moduli.  Matrices are lists of rows; vectors are lists of
ints.

Rank and torsion of a large sparse matrix, such as a simplicial boundary,
come from :func:`sparse_rank_torsion`: sparse unit pivots first, then the
dense Smith form on the small residual that has no unit entry left.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch in mat_mul")
    cols = len(b[0]) if b else 0
    out = [[0] * cols for _ in a]
    for i, row in enumerate(a):
        acc = out[i]
        for k, x in enumerate(row):
            if x:
                brow = b[k]
                for j in range(cols):
                    acc[j] += x * brow[j]
    return out


def mat_vec(a: list[list[int]], v: list[int]) -> list[int]:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


@dataclass
class SmithForm:
    """U @ A @ V == D with U, V unimodular and D diagonal, d1 | d2 | ...

    ``diag`` holds the min(m, n) diagonal entries (trailing zeros included);
    ``rank`` counts the nonzero ones.  The transform matrices and their exact
    inverses are present only when requested.
    """

    shape: tuple[int, int]
    diag: list[int]
    rank: int
    row_t: list[list[int]] | None = None      # U  (m x m)
    row_t_inv: list[list[int]] | None = None  # U^-1
    col_t: list[list[int]] | None = None      # V  (n x n)
    col_t_inv: list[list[int]] | None = None  # V^-1


class _Reducer:
    """Mutable SNF reduction state with paired transform bookkeeping."""

    def __init__(self, a: list[list[int]], transforms: bool):
        self.a = [list(row) for row in a]
        self.m = len(a)
        self.n = len(a[0]) if a else 0
        self.transforms = transforms
        if transforms:
            self.u = identity_matrix(self.m)
            self.ui = identity_matrix(self.m)
            self.v = identity_matrix(self.n)
            self.vi = identity_matrix(self.n)
        else:
            self.u = self.ui = self.v = self.vi = None

    # --- row operations (act on A and U from the left; U^-1 on the right) ---

    def swap_rows(self, i: int, j: int) -> None:
        if i == j:
            return
        a = self.a
        a[i], a[j] = a[j], a[i]
        if self.transforms:
            u, ui = self.u, self.ui
            u[i], u[j] = u[j], u[i]
            for row in ui:
                row[i], row[j] = row[j], row[i]

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
            for row in self.ui:  # col_j -= q * col_i
                if row[i]:
                    row[j] -= q * row[i]

    def negate_row(self, i: int) -> None:
        self.a[i] = [-x for x in self.a[i]]
        if self.transforms:
            self.u[i] = [-x for x in self.u[i]]
            for row in self.ui:
                row[i] = -row[i]

    # --- column operations (act on A and V from the right; V^-1 on the left) ---

    def swap_cols(self, i: int, j: int) -> None:
        if i == j:
            return
        for row in self.a:
            row[i], row[j] = row[j], row[i]
        if self.transforms:
            for row in self.v:
                row[i], row[j] = row[j], row[i]
            vi = self.vi
            vi[i], vi[j] = vi[j], vi[i]

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
            vj, vii = self.vi[j], self.vi[i]
            for k in range(self.n):
                if vii[k]:
                    vj[k] -= q * vii[k]

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
    ``transforms`` is set — unimodular U, U^-1, V, V^-1 with U @ A @ V == D.
    """
    if a and any(len(row) != len(a[0]) for row in a):
        raise ValueError("matrix rows have unequal lengths")
    red = _Reducer(a, transforms)
    diag = red.reduce()
    rank = sum(1 for d in diag if d)
    form = SmithForm(shape=(red.m, red.n), diag=diag, rank=rank)
    if transforms:
        form.row_t, form.row_t_inv = red.u, red.ui
        form.col_t, form.col_t_inv = red.v, red.vi
    return form


def invariant_factors(a: list[list[int]]) -> list[int]:
    """Nonzero diagonal entries of the Smith form (d1 | d2 | ...)."""
    return [d for d in smith_normal_form(a).diag if d]


def _has_unit(v: dict[int, int]) -> bool:
    return 1 in v.values() or -1 in v.values()


def sparse_rank_torsion(
        columns: Iterable[dict[int, int]]) -> tuple[int, tuple[int, ...]]:
    """Rank and torsion of the integer matrix with ``{row: entry}`` columns.

    ``torsion`` lists the invariant factors greater than 1, ascending, so
    Z^rows modulo the column span is Z^(rows - rank) plus those cyclic
    groups.  Zero and repeated columns are dropped first.  A pivot on a
    +-1 entry is an exact unimodular step that splits off one row and one
    column, so those pivots are taken in sparse form: the shortest column
    with a unit entry, at the unit whose row occurs in the fewest columns,
    which keeps fill-in low.  The columns left without a unit entry, taken
    once up to sign, go over their own rows to :func:`smith_normal_form`.
    """
    vecs: dict[int, dict[int, int]] = {}
    seen: set[tuple[tuple[int, int], ...]] = set()
    for col in columns:
        key = tuple(sorted((r, x) for r, x in col.items() if x))
        if key and key not in seen:
            seen.add(key)
            vecs[len(vecs)] = dict(key)
    where = defaultdict(set)  # row -> columns with an entry there
    units = defaultdict(set)  # length -> columns with a unit entry
    for j, v in vecs.items():
        for r in v:
            where[r].add(j)
        if _has_unit(v):
            units[len(v)].add(j)
    rank = 0
    while any(units.values()):
        j = units[min(n for n, b in units.items() if b)].pop()
        v = vecs.pop(j)
        for row in v:
            where[row].discard(j)
        r = min((r for r, x in v.items() if x == 1 or x == -1),
                key=lambda r: len(where[r]))
        rank += 1
        unit = v.pop(r)
        for k in where.pop(r):
            w = vecs[k]
            units[len(w)].discard(k)
            q = w.pop(r) * unit  # w - q v is zero in row r: unit * unit == 1
            for row, x in v.items():
                y = w.get(row)
                if y is None:
                    w[row] = -q * x
                    where[row].add(k)
                elif y == q * x:
                    del w[row]
                    where[row].discard(k)
                else:
                    w[row] = y - q * x
            if not w:
                del vecs[k]
            elif _has_unit(w):
                units[len(w)].add(k)
    residual: dict[tuple[tuple[int, int], ...], None] = {}
    for v in vecs.values():
        key = tuple(sorted(v.items()))
        if key[0][1] < 0:
            key = tuple((r, -x) for r, x in key)
        residual[key] = None
    rows = sorted({r for key in residual for r, _ in key})
    pos = {r: i for i, r in enumerate(rows)}
    dense = [[0] * len(residual) for _ in rows]
    for c, key in enumerate(residual):
        for r, x in key:
            dense[pos[r]][c] = x
    form = smith_normal_form(dense)
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
