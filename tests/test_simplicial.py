"""Truncated simplicial sets: identity checking, prisms, and integral
homology of classifying spaces against textbook values."""

import copy

import numpy as np
import pytest

from xmodcoh.crossed import CrossedModule
from xmodcoh.errors import ResourceLimit
from xmodcoh.groups import make_cyclic, make_symmetric, trivial_group
from xmodcoh.nerves import duskin_nerve, ordinary_nerve
from xmodcoh.simplicial import (boundary_matrix, homology, prism, prism_end,
                                simplicial_violations)


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


def test_degenerate_indices():
    s = ordinary_nerve(make_cyclic(2), 2)
    assert s.degenerate_indices(0) == set()
    e = make_cyclic(2).identity
    assert s.degenerate_indices(1) == {s.index_of(1, (e,))}
    # level 2 degenerates: (e, g), (g, e), (e, e) -- all chains with a unit
    assert s.degenerate_indices(2) == {
        s.index_of(2, c) for c in [(0, 0), (0, 1), (1, 0)]}


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


def dense(columns, rows):
    out = np.zeros((rows, len(columns)), dtype=np.int64)
    for c, col in enumerate(columns):
        for p, x in col.items():
            out[p, c] = x
    return out


def test_normalized_boundaries_square_to_zero():
    s = ordinary_nerve(make_symmetric(3), 3)
    nd = [sorted(set(range(s.count(k))) - s.degenerate_indices(k))
          for k in range(4)]
    d2 = boundary_matrix(s, 2, nd[1], nd[2])
    d3 = boundary_matrix(s, 3, nd[2], nd[3])
    assert len(d2) == len(nd[2]) and len(d3) == len(nd[3])
    assert all(x for col in d2 + d3 for x in col.values())
    product = dense(d2, len(nd[1])) @ dense(d3, len(nd[2]))
    assert dense(d3, len(nd[2])).any() and not product.any()


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
