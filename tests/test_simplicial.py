"""Truncated simplicial sets: identity checking, prisms, and integral
homology of classifying spaces against textbook values."""

import copy

import numpy as np
import pytest
from scipy import sparse
from oracles import (columns_matrix, dict_boundary,
                     loop_simplicial_violations, simplex_index,
                     simplex_objects, simplicial_violations, xmod_identity)

from xmodcoh.bundles import xmod_from_spec
from xmodcoh.crossed import CrossedModule
from xmodcoh.errors import ResourceLimit
from xmodcoh.groups import make_cyclic, make_symmetric, trivial_group
from xmodcoh.nerves import duskin_nerve, monoidal_diag_nerve, ordinary_nerve
from xmodcoh.simplicial import boundary_matrix, homology, prism, prism_end


def test_nerve_identities_and_counts():
    s = ordinary_nerve(make_cyclic(2), 3)
    assert s.counts() == (1, 2, 4, 8)
    assert simplicial_violations(s) == []
    s3 = ordinary_nerve(make_symmetric(3), 2)
    assert s3.counts() == (1, 6, 36)
    assert simplicial_violations(s3) == []


def test_tampered_face_table_is_reported():
    s = ordinary_nerve(make_cyclic(2), 2)
    broken = copy.deepcopy(s)
    broken.face[2][0] = list(reversed(broken.face[2][0]))
    assert simplicial_violations(broken) != []


def test_two_tampered_entries_report_what_the_loop_reports():
    """Whole-table checks keep the per-simplex loop's messages and order:
    a face entry and a degeneracy entry, each moved to another simplex,
    break the face, degeneracy and mixed identities."""
    s = duskin_nerve(xmod_identity(make_cyclic(2)), 3)
    assert simplicial_violations(s) == loop_simplicial_violations(s) == []
    broken = copy.deepcopy(s)
    broken.face[2][1][3] = (broken.face[2][1][3] + 1) % s.count(1)
    broken.degen[1][0][1] = (broken.degen[1][0][1] + 1) % s.count(2)
    bad = simplicial_violations(broken)
    assert bad == loop_simplicial_violations(broken)
    assert {p.split(" identity")[0] for p in bad} == {
        "d_i d_j", "s_i s_j", "d_i s_j = s_j d_{i-1}",
        "d_i s_j = s_{j-1} d_i"}


def test_degenerate_indices():
    s = ordinary_nerve(make_cyclic(2), 2)

    def degenerate(k):
        return set(range(s.count(k))) - set(
            s.nondegenerate_indices(k).tolist())

    assert degenerate(0) == set()
    index = simplex_index(simplex_objects(s, "ordinary"))
    e = make_cyclic(2).identity
    assert degenerate(1) == {index[1][(e,)]}
    # level 2 degenerates: (e, g), (g, e), (e, e) -- all chains with a unit
    assert degenerate(2) == {
        index[2][c] for c in [(0, 0), (0, 1), (1, 0)]}


def test_prism_is_simplicial_and_has_product_counts():
    s = ordinary_nerve(make_cyclic(2), 3)
    p = prism(s)
    assert simplicial_violations(p) == []
    assert p.counts() == tuple(s.count(k) * (k + 2) for k in range(4))


def test_prism_ends_are_simplicial_inclusions():
    s = ordinary_nerve(make_cyclic(2), 3)
    p = prism(s)
    for zero_end in (True, False):
        for k in range(1, s.N + 1):
            for idx in range(s.count(k)):
                cell = prism_end(p, k, idx, zero_end)
                for i in range(k + 1):
                    assert p.face[k][i][cell] == prism_end(
                        p, k - 1, s.face[k][i][idx], zero_end)


def as_csc(triples, shape):
    """scipy's CSC matrix of boundary triples; building it checks every
    index against the shape."""
    r, c, x = triples
    return sparse.csc_matrix((x, (r, c)), shape=shape)


def test_normalized_boundaries_square_to_zero():
    s = ordinary_nerve(make_symmetric(3), 3)
    nd = [s.nondegenerate_indices(k) for k in range(4)]
    d2 = as_csc(boundary_matrix(s, 2, nd[1], nd[2]), (len(nd[1]), len(nd[2])))
    d3 = as_csc(boundary_matrix(s, 3, nd[2], nd[3]), (len(nd[2]), len(nd[3])))
    assert d2.shape == (len(nd[1]), len(nd[2]))
    assert d3.shape == (len(nd[2]), len(nd[3]))
    assert d2.dtype == d3.dtype == np.int64
    assert d2.data.all() and d3.data.all() and d3.nnz
    assert not (d2 @ d3).toarray().any()


def test_homology_of_cyclic_classifying_spaces():
    """H_*(BZ/n) = Z, Z/n, 0, Z/n, ... in degrees 0..3."""
    for n in (2, 3):
        s = ordinary_nerve(make_cyclic(n), 4)
        h = homology(s, 3)
        assert h.factors == ((0,), (n,), (), (n,))
        assert h.chain_dims == tuple((n - 1) ** k for k in range(5))


def test_homology_of_the_point():
    s = ordinary_nerve(trivial_group(), 4)
    h = homology(s, 3)
    assert h.factors == ((0,), (), (), ())


def test_homology_of_the_symmetric_group():
    """H_1(BS3) = Z/2, H_2(BS3) = 0 (trivial Schur multiplier), H_3(BS3) =
    Z/6, from the ordinary nerve and from the Duskin nerve of (1 -> S3)."""
    g = make_symmetric(3)
    one_to_g = CrossedModule(trivial_group(), g, (g.identity,),
                             tuple((0,) for _ in g.elements()), "(1->S3)")
    for s in (ordinary_nerve(g, 4), duskin_nerve(one_to_g, 4)):
        h = homology(s, 3)
        assert h.factors == ((0,), (2,), (), (6,))


def test_homology_rank_bookkeeping():
    s = ordinary_nerve(make_cyclic(2), 4)
    h = homology(s, 3)
    assert h.ranks == (0, 1, 0, 1)
    assert h.group(1) == (2,)


def test_homology_guards():
    s = ordinary_nerve(make_cyclic(2), 2)
    with pytest.raises(ValueError, match="truncated"):
        homology(s, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        homology(s, -1)


def test_nerve_budget_guard():
    with pytest.raises(ResourceLimit):
        ordinary_nerve(make_symmetric(3), 4, budget=100)


def boundary_nerves():
    """Duskin 1->S3, diagonal C3->1 and ordinary S3, each with its top
    level for the boundary checks."""
    return [(duskin_nerve(xmod_from_spec("1->S3", "/xmod"), 3), 3),
            (monoidal_diag_nerve(xmod_from_spec("C3->1", "/xmod"), 3), 3),
            (ordinary_nerve(make_symmetric(3), 3), 3)]


@pytest.mark.parametrize("case", range(3))
def test_sparse_boundaries_match_the_dict_columns(case):
    """Each sparse boundary equals the per-simplex dict-column builder,
    and consecutive boundaries compose to zero."""
    s, top = boundary_nerves()[case]
    nd = [s.nondegenerate_indices(k) for k in range(top + 1)]
    d = [boundary_matrix(s, k, nd[k - 1], nd[k]) for k in range(1, top + 1)]
    for k, (r, c, x) in enumerate(d, 1):
        assert r.dtype == c.dtype == x.dtype == np.int64
        assert (np.diff(c * len(nd[k - 1]) + r) > 0).all() and x.all()
        want = columns_matrix(
            dict_boundary(s, k, nd[k - 1].tolist(), nd[k].tolist()),
            len(nd[k - 1]))
        assert all(map(np.array_equal, (r, c, x), want))
    d = [as_csc(m, (len(nd[k - 1]), len(nd[k]))) for k, m in enumerate(d, 1)]
    assert all(m.nnz for m in d[1:])
    for low, high in zip(d, d[1:]):
        assert (low @ high).nnz == 0
