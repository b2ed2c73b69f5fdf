"""Truncated simplicial sets and integral homology of their realizations.

A truncated simplicial set stores, per level, the int64 array of label
rows together with face and degeneracy index tables.  The label rows are
the level: a simplex is its row index, and what its labels mean is up to
the construction that built them (``nerves``, ``prism``).  The nerves
build their tables a whole level at a time: a structure map is a numpy
gather on the label rows, and the gathered rows turn back into simplex
indices by mixed-radix arithmetic or by key search.  ``build_truncated``
is the one constructor; it takes the tables as index arrays and stores
them as lists of Python ints.

Homology is computed from the normalized chain complex (degenerate simplices
quotiented away), which is the right desk-scale shadow of the geometric
realization in low degrees.  Each boundary is gathered from the face
tables as int64 triples sorted by column, the form whose rank and torsion
the batched elimination of ``intlinalg.sparse_rank_torsion`` takes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import intlinalg as il
from .errors import InvariantError


@dataclass
class TruncatedSimplicialSet:
    """The levels 0..N with face/degeneracy tables on simplex indices.

    ``rows[k]`` is the int64 array of label rows of level k, one row per
    simplex.  ``face[k][i]`` maps level-k indices to level-(k-1) indices
    (1 <= k <= N, 0 <= i <= k); ``degen[k][i]`` maps level-k indices to
    level-(k+1) indices (0 <= k < N, 0 <= i <= k).
    """

    N: int
    rows: list
    face: dict
    degen: dict
    label: str = ""

    def count(self, k: int) -> int:
        return len(self.rows[k])

    def counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.rows)

    def nondegenerate_indices(self, k: int) -> np.ndarray:
        """Indices at level k outside the image of every degeneracy,
        ascending."""
        mask = np.ones(self.count(k), dtype=bool)
        for table in self.degen.get(k - 1, ()):
            mask[table] = False
        return np.flatnonzero(mask)


def _ints(table) -> np.ndarray:
    return np.asarray(table, dtype=np.int64)


def build_truncated(n_trunc: int, rows: list, face: dict, degen: dict,
                    label: str = "") -> TruncatedSimplicialSet:
    """Assemble a set from the label rows of each level and index arrays:
    ``face[k][i]`` (1 <= k <= n_trunc) and ``degen[k][i]`` (0 <= k <
    n_trunc) hold, for each level-k simplex, the index of its image one
    level down or up."""
    def lists(tables):
        return {k: [_ints(t).tolist() for t in tables[k]]
                for k in sorted(tables)}
    return TruncatedSimplicialSet(n_trunc, rows, lists(face), lists(degen),
                                  label)


def prism(s: TruncatedSimplicialSet) -> TruncatedSimplicialSet:
    """The product s x Delta^1.

    A level-k simplex is the row (idx, t) where t in 0..k+1 counts the
    vertices sent to the 0 end of the interval (vertices 0..t-1 at time 0,
    the rest at time 1).  ``t = k+1`` is the time-0 end, ``t = 0`` the
    time-1 end.  The cell (idx, t) has index idx * (k+2) + t.
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
    return build_truncated(
        s.N, [np.stack(cells(k), axis=1) for k in range(s.N + 1)], face, degen,
        label=f"{s.label} x I" if s.label else "prism")


def prism_end(p: TruncatedSimplicialSet, k: int, idx, zero_end: bool):
    """Index in the prism of base simplex ``idx`` at one end of the interval;
    ``idx`` may be an index array."""
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


def boundary_matrix(s: TruncatedSimplicialSet, k: int, nd_low, nd_high):
    """Normalized boundary from level k to level k-1, as int64 triples
    sorted by column and then row (``intlinalg.canonical``).

    Column c is simplex ``nd_high[c]`` and row p simplex ``nd_low[p]``.
    Face d_i adds (-1)^i at the position of its image, gathered through
    ``low_pos`` (-1 marks a degenerate face, which is dropped); signs on
    one row are summed and zeros dropped.
    """
    high = np.asarray(nd_high, dtype=np.int64)
    low_pos = np.full(s.count(k - 1), -1, dtype=np.int64)
    low_pos[np.asarray(nd_low, dtype=np.int64)] = np.arange(len(nd_low))
    rows = np.stack([low_pos[np.asarray(face)[high]] for face in s.face[k]],
                    axis=1)
    cols, faces = np.nonzero(rows >= 0)
    return il.canonical(rows[cols, faces], cols, (-1) ** faces,
                        len(nd_low))


def homology(s: TruncatedSimplicialSet, maxdeg: int) -> HomologyGroups:
    """H_0..H_maxdeg of the normalized chains, from the rank and torsion of
    each sparse boundary matrix."""
    if maxdeg < 0:
        raise ValueError("maxdeg must be nonnegative")
    if maxdeg > s.N - 1:
        raise ValueError(
            f"homology through degree {maxdeg} needs simplices in degree "
            f"{maxdeg + 1}; the set is truncated at {s.N}")
    nd = [s.nondegenerate_indices(k) for k in range(maxdeg + 2)]
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
