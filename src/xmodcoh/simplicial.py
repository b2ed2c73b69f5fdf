"""Truncated simplicial sets and integral homology of their realizations.

A truncated simplicial set stores canonical-ordered simplex lists per level
together with face and degeneracy index tables.  Homology is computed from
the normalized chain complex (degenerate simplices quotiented away), which is
the right desk-scale shadow of the geometric realization in low degrees.
Each boundary stays as sparse columns: sparse unit pivots first, then the
dense Smith form on the small residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import intlinalg as il


@dataclass
class TruncatedSimplicialSet:
    """Levels 0..N with face/degeneracy tables on simplex indices.

    ``face[k][i]`` maps level-k indices to level-(k-1) indices (1 <= k <= N,
    0 <= i <= k); ``degen[k][i]`` maps level-k indices to level-(k+1) indices
    (0 <= k < N, 0 <= i <= k).  ``simplices[k]`` is the canonical ordering.
    """

    N: int
    simplices: list
    face: dict
    degen: dict
    label: str = ""
    _index: list = field(default_factory=list, repr=False)

    def __post_init__(self):
        if not self._index:
            self._index = [
                {s: i for i, s in enumerate(level)}
                for level in self.simplices]

    def count(self, k: int) -> int:
        return len(self.simplices[k])

    def counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.simplices)

    def index_of(self, k: int, simplex) -> int:
        return self._index[k][simplex]

    def face_of(self, k: int, i: int, idx: int) -> int:
        return self.face[k][i][idx]

    def degen_of(self, k: int, i: int, idx: int) -> int:
        return self.degen[k][i][idx]

    def degenerate_indices(self, k: int) -> set[int]:
        """Indices at level k in the image of some degeneracy."""
        if k == 0:
            return set()
        out: set[int] = set()
        for i in range(k):
            out.update(self.degen[k - 1][i])
        return out


def build_truncated(n_trunc: int, levels: list, face_fn, degen_fn,
                    label: str = "") -> TruncatedSimplicialSet:
    """Assemble index tables from simplex-valued face/degeneracy functions."""
    index = [{s: i for i, s in enumerate(level)} for level in levels]
    for k, level in enumerate(levels):
        if len(index[k]) != len(level):
            raise ValueError(f"duplicate simplices at level {k}")
    face: dict = {}
    degen: dict = {}
    for k in range(1, n_trunc + 1):
        face[k] = []
        for i in range(k + 1):
            table = []
            for s in levels[k]:
                t = face_fn(k, i, s)
                if t not in index[k - 1]:
                    raise ValueError(
                        f"face d_{i} leaves the level-{k - 1} simplex list")
                table.append(index[k - 1][t])
            face[k].append(table)
    for k in range(n_trunc):
        degen[k] = []
        for i in range(k + 1):
            table = []
            for s in levels[k]:
                t = degen_fn(k, i, s)
                if t not in index[k + 1]:
                    raise ValueError(
                        f"degeneracy s_{i} leaves the level-{k + 1} list")
                table.append(index[k + 1][t])
            degen[k].append(table)
    return TruncatedSimplicialSet(n_trunc, levels, face, degen, label,
                                  _index=index)


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
    time 1).  ``t = k+1`` is the time-0 end, ``t = 0`` the time-1 end.
    """
    levels = [[(idx, t) for idx in range(s.count(k)) for t in range(k + 2)]
              for k in range(s.N + 1)]

    def face(k, i, cell):
        idx, t = cell
        return (s.face[k][i][idx], t - 1 if i < t else t)

    def degen(k, i, cell):
        idx, t = cell
        return (s.degen[k][i][idx], t + 1 if i < t else t)

    return build_truncated(s.N, levels, face, degen,
                           label=f"{s.label} x I" if s.label else "prism")


def prism_end(p: TruncatedSimplicialSet, k: int, idx: int,
              zero_end: bool) -> int:
    """Index in the prism of base simplex ``idx`` at one end of the interval."""
    t = k + 1 if zero_end else 0
    return p.index_of(k, (idx, t))


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
            raise RuntimeError("boundary ranks are inconsistent")
        factors.append((0,) * free + torsions[q])
    return HomologyGroups(maxdeg, tuple(factors), tuple(ranks), tuple(dims),
                          s.label)
