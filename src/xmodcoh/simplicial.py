"""Truncated simplicial sets and integral homology of their realizations.

A truncated simplicial set stores canonical-ordered simplex lists per level
together with face and degeneracy index tables.  The nerves build those
tables a whole level at a time: each level is an int64 array of label rows,
a structure map is a numpy gather on that array, and the gathered rows turn
back into simplex indices by mixed-radix arithmetic (``nerves``).
``build_truncated`` is the one constructor; it takes the tables as index
arrays and stores them as lists of Python ints.  The ``{simplex: index}``
dictionary of a level is built on its first ``index_of`` call.

Homology is computed from the normalized chain complex (degenerate simplices
quotiented away), which is the right desk-scale shadow of the geometric
realization in low degrees.  Each boundary stays as sparse columns: sparse
unit pivots first, then the dense Smith form on the small residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import intlinalg as il
from .errors import InvariantError


@dataclass
class TruncatedSimplicialSet:
    """Levels 0..N with face/degeneracy tables on simplex indices.

    ``face[k][i]`` maps level-k indices to level-(k-1) indices (1 <= k <= N,
    0 <= i <= k); ``degen[k][i]`` maps level-k indices to level-(k+1) indices
    (0 <= k < N, 0 <= i <= k).  ``simplices[k]`` is the canonical ordering.
    ``rows[k]``, when the set was built from labels, is the int64 array of
    label rows of level k in the same order.
    """

    N: int
    simplices: list
    face: dict
    degen: dict
    label: str = ""
    rows: list = field(default_factory=list, repr=False, compare=False)
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def count(self, k: int) -> int:
        return len(self.simplices[k])

    def counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.simplices)

    def index_of(self, k: int, simplex) -> int:
        index = self._index.get(k)
        if index is None:
            index = self._index[k] = {
                s: i for i, s in enumerate(self.simplices[k])}
        return index[simplex]

    def degenerate_indices(self, k: int) -> set[int]:
        """Indices at level k in the image of some degeneracy."""
        if k == 0:
            return set()
        out: set[int] = set()
        for i in range(k):
            out.update(self.degen[k - 1][i])
        return out


def build_truncated(n_trunc: int, levels: list, face: dict, degen: dict,
                    label: str = "", rows: list | None = None
                    ) -> TruncatedSimplicialSet:
    """Assemble a set from index arrays: ``face[k][i]`` (1 <= k <= n_trunc)
    and ``degen[k][i]`` (0 <= k < n_trunc) hold, for each level-k simplex,
    the index of its image one level down or up."""
    def lists(tables):
        return {k: [np.asarray(t).tolist() for t in tables[k]]
                for k in sorted(tables)}
    return TruncatedSimplicialSet(n_trunc, levels, lists(face), lists(degen),
                                  label, rows or [])


def simplicial_violations(s: TruncatedSimplicialSet) -> list[str]:
    """All simplicial-identity failures checkable within the truncation."""
    bad: list[str] = []

    def report(kind, k, i, j, idx):
        bad.append(f"{kind} identity fails at level {k}, (i,j)=({i},{j}), "
                   f"simplex {idx}")

    for k in range(2, s.N + 1):
        for j in range(1, k + 1):
            for i in range(j):
                fi, fj = s.face[k][i], s.face[k][j]
                fl = s.face[k - 1]
                for idx in range(s.count(k)):
                    if fl[i][fj[idx]] != fl[j - 1][fi[idx]]:
                        report("d_i d_j", k, i, j, idx)
    for k in range(s.N - 1):
        for i in range(k + 1):
            for j in range(i, k + 1):
                si, sj = s.degen[k][i], s.degen[k][j]
                sl = s.degen[k + 1]
                for idx in range(s.count(k)):
                    if sl[i][sj[idx]] != sl[j + 1][si[idx]]:
                        report("s_i s_j", k, i, j, idx)
    for k in range(s.N):
        for j in range(k + 1):
            sj = s.degen[k][j]
            for i in range(k + 2):
                di = s.face[k + 1][i]
                for idx in range(s.count(k)):
                    got = di[sj[idx]]
                    if i == j or i == j + 1:
                        if got != idx:
                            report("d_i s_j = id", k, i, j, idx)
                    elif i < j:
                        if k == 0:
                            continue  # s_{j-1} d_i not in truncation range
                        want = s.degen[k - 1][j - 1][s.face[k][i][idx]]
                        if got != want:
                            report("d_i s_j = s_{j-1} d_i", k, i, j, idx)
                    else:
                        if k == 0:
                            continue
                        want = s.degen[k - 1][j][s.face[k][i - 1][idx]]
                        if got != want:
                            report("d_i s_j = s_j d_{i-1}", k, i, j, idx)
    return bad


def prism(s: TruncatedSimplicialSet) -> TruncatedSimplicialSet:
    """The product s x Delta^1.

    A level-k simplex is (idx, t) where t in 0..k+1 counts the vertices sent
    to the 0 end of the interval (vertices 0..t-1 at time 0, the rest at
    time 1).  ``t = k+1`` is the time-0 end, ``t = 0`` the time-1 end.  The
    cell (idx, t) has index idx * (k+2) + t.
    """
    def cells(k):
        return np.divmod(np.arange(s.count(k) * (k + 2)), k + 2)

    face: dict = {}
    degen: dict = {}
    for k in range(1, s.N + 1):
        idx, t = cells(k)
        face[k] = [np.asarray(s.face[k][i])[idx] * (k + 1)
                   + np.where(i < t, t - 1, t) for i in range(k + 1)]
    for k in range(s.N):
        idx, t = cells(k)
        degen[k] = [np.asarray(s.degen[k][i])[idx] * (k + 3)
                    + np.where(i < t, t + 1, t) for i in range(k + 1)]
    levels = [[(idx, t) for idx in range(s.count(k)) for t in range(k + 2)]
              for k in range(s.N + 1)]
    return build_truncated(s.N, levels, face, degen,
                           label=f"{s.label} x I" if s.label else "prism")


def prism_end(p: TruncatedSimplicialSet, k: int, idx: int,
              zero_end: bool) -> int:
    """Index in the prism of base simplex ``idx`` at one end of the interval."""
    return idx * (k + 2) + (k + 1 if zero_end else 0)


# ---------------------------------------------------------------------------
# homology of the normalized chain complex
# ---------------------------------------------------------------------------

@dataclass
class HomologyGroups:
    """Integral homology through ``maxdeg``.

    ``factors[q]`` lists cyclic factors of H_q: 0 stands for a Z summand,
    n > 1 for Z/n (torsion ascending, free part first).
    """

    maxdeg: int
    factors: tuple[tuple[int, ...], ...]
    ranks: tuple[int, ...]          # boundary-matrix ranks, deg 1..maxdeg+1
    chain_dims: tuple[int, ...]     # normalized chain dimensions 0..maxdeg+1
    label: str = ""

    def group(self, q: int) -> tuple[int, ...]:
        return self.factors[q]


def boundary_matrix(s: TruncatedSimplicialSet, k: int, nd_low: list[int],
                    nd_high: list[int]) -> list[dict[int, int]]:
    """Normalized boundary from level k to level k-1 as sparse columns.

    Column c is ``{p: coefficient}`` for simplex ``nd_high[c]``, where p is
    a position in ``nd_low``; face signs are summed and zeros dropped.
    """
    low_pos = {idx: p for p, idx in enumerate(nd_low)}
    faces = s.face[k]
    out = []
    for idx in nd_high:
        col: dict[int, int] = {}
        sign = 1
        for face in faces:
            p = low_pos.get(face[idx])
            if p is not None:
                col[p] = col.get(p, 0) + sign
            sign = -sign
        out.append({p: x for p, x in col.items() if x})
    return out


def homology(s: TruncatedSimplicialSet, maxdeg: int) -> HomologyGroups:
    """H_0..H_maxdeg of the normalized chains: sparse unit pivots, then the
    dense Smith form on the small residual."""
    if maxdeg < 0:
        raise ValueError("maxdeg must be nonnegative")
    if maxdeg > s.N - 1:
        raise ValueError(
            f"homology through degree {maxdeg} needs simplices in degree "
            f"{maxdeg + 1}; the set is truncated at {s.N}")
    nd = [sorted(set(range(s.count(k))) - s.degenerate_indices(k))
          for k in range(maxdeg + 2)]
    dims = [len(x) for x in nd]
    ranks = []
    torsions = []
    for k in range(1, maxdeg + 2):
        rank, torsion = il.sparse_rank_torsion(
            boundary_matrix(s, k, nd[k - 1], nd[k]))
        ranks.append(rank)
        torsions.append(torsion)
    factors = []
    for q in range(maxdeg + 1):
        rank_q = ranks[q - 1] if q >= 1 else 0
        kernel_dim = dims[q] - rank_q
        free = kernel_dim - ranks[q]
        if free < 0:
            raise InvariantError("boundary ranks are inconsistent")
        factors.append((0,) * free + torsions[q])
    return HomologyGroups(maxdeg, tuple(factors), tuple(ranks), tuple(dims),
                          s.label)
