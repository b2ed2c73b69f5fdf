"""Nerve constructions for groups and strict 2-groups: structural counts,
simplicial validity, comparison isomorphisms onto the ordinary nerve, and
homology agreement between the Duskin and monoidal-diagonal models."""

from itertools import combinations

import pytest

from xmodcoh.crossed import CrossedModule, xmod_abelian, xmod_identity
from xmodcoh.errors import ResourceLimit
from xmodcoh.groups import make_cyclic, make_symmetric, trivial_group
from xmodcoh.nerves import (NatTransform, PseudofunctorSimplex, SimplicialMap,
                            _enumerate_duskin_level, delta_map,
                            diag_to_ordinary, duskin_nerve,
                            duskin_to_ordinary, isomorphism_violations,
                            monoidal_diag_nerve, nat_violations,
                            ordinary_nerve, pair_positions,
                            pseudofunctor_violations, reindex, sigma_map,
                            simplicial_map_violations, transport_simplex)
from xmodcoh.retraction import pull_table
from xmodcoh.simplicial import homology, simplicial_violations


def one_to(g):
    """(1 -> G): trivial kernel, so the 2-group is just the group G."""
    return CrossedModule(trivial_group(), g, (g.identity,),
                         tuple((0,) for _ in g.elements()),
                         f"(1->{g.label})")


# ---------------------------------------------------------------------------
# structural counts and validity
# ---------------------------------------------------------------------------

def test_duskin_levels_of_a_second_homotopy_model():
    """For (H -> 1) the k-simplices are simplicial 2-cocycles of the
    k-simplex with values in H: counts 1, 1, m, m^3, m^6."""
    for m in (2, 3):
        s = duskin_nerve(xmod_abelian(make_cyclic(m)), 4)
        assert s.counts() == (1, 1, m, m ** 3, m ** 6)
        assert simplicial_violations(s) == []


def test_duskin_levels_of_a_plain_group():
    s = duskin_nerve(one_to(make_cyclic(2)), 4)
    assert s.counts() == (1, 2, 4, 8, 16)
    assert simplicial_violations(s) == []


def test_diag_and_duskin_are_simplicial_for_mixed_modules():
    for x in (xmod_identity(make_cyclic(2)), xmod_abelian(make_cyclic(3))):
        assert simplicial_violations(duskin_nerve(x, 3)) == []
        assert simplicial_violations(monoidal_diag_nerve(x, 3)) == []


# ---------------------------------------------------------------------------
# comparison with the ordinary nerve
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("group_fn,trunc", [(lambda: make_cyclic(2), 4),
                                            (lambda: make_symmetric(3), 3)])
def test_duskin_nerve_of_a_group_is_the_ordinary_nerve(group_fn, trunc):
    g = group_fn()
    x = one_to(g)
    dusk = duskin_nerve(x, trunc)
    ordn = ordinary_nerve(g, trunc)
    f = duskin_to_ordinary(x, dusk, ordn)
    assert isomorphism_violations(f) == []


def test_diag_nerve_of_a_group_is_the_ordinary_nerve():
    g = make_cyclic(2)
    x = one_to(g)
    diag = monoidal_diag_nerve(x, 3)
    ordn = ordinary_nerve(g, 3)
    f = diag_to_ordinary(x, diag, ordn)
    assert isomorphism_violations(f) == []


def test_map_violations_detect_tampering():
    g = make_cyclic(2)
    x = one_to(g)
    dusk = duskin_nerve(x, 3)
    ordn = ordinary_nerve(g, 3)
    good = duskin_to_ordinary(x, dusk, ordn)
    layers = [list(t) for t in good.layers]
    layers[2][0], layers[2][1] = layers[2][1], layers[2][0]
    bad = SimplicialMap(dusk, ordn, layers)
    assert simplicial_map_violations(bad) != []
    # collapsing onto the identity chains is simplicial but not injective
    collapsed = [[ordn.index_of(k, (g.identity,) * k)] * dusk.count(k)
                 for k in range(dusk.N + 1)]
    assert simplicial_map_violations(
        SimplicialMap(dusk, ordn, collapsed)) == []
    assert any("not injective" in p for p in isomorphism_violations(
        SimplicialMap(dusk, ordn, collapsed)))
    short = ordinary_nerve(g, 2)
    assert simplicial_map_violations(
        SimplicialMap(dusk, short, good.layers)) \
        == ["source and target truncations differ"]


# ---------------------------------------------------------------------------
# homology agreement (unit-scale shadow of the full battery)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x_fn,want", [
    (lambda: xmod_abelian(make_cyclic(2)), ((0,), (), (2,))),
    (lambda: one_to(make_cyclic(2)), ((0,), (2,), ())),
    (lambda: xmod_identity(make_cyclic(2)), ((0,), (), ())),
])
def test_duskin_and_diag_homology_agree_and_match_the_model(x_fn, want):
    x = x_fn()
    hd = homology(duskin_nerve(x, 3), 2)
    hm = homology(monoidal_diag_nerve(x, 3), 2)
    assert hd.factors == want
    assert hm.factors == want


# ---------------------------------------------------------------------------
# pseudofunctor simplices and transformations
# ---------------------------------------------------------------------------

def test_pseudofunctor_violations_catch_broken_labels():
    x = xmod_identity(make_cyclic(2))
    for s in duskin_nerve(x, 3).simplices[3]:
        assert pseudofunctor_violations(x, s) == []
    broken = PseudofunctorSimplex(3, (0,) * 6, (1, 0, 0, 0))
    assert any("triangle" in p
               for p in pseudofunctor_violations(x, broken))
    # breaking only the tetrahedron relation needs boundary-kernel labels
    y = xmod_abelian(make_cyclic(2))
    broken2 = PseudofunctorSimplex(3, (0,) * 6, (1, 0, 0, 0))
    bad = pseudofunctor_violations(y, broken2)
    assert bad and all("tetrahedron" in p for p in bad)


def test_transport_produces_valid_natural_transformations():
    x = xmod_identity(make_cyclic(2))
    base = PseudofunctorSimplex(2, (0, 0, 0), (0,))
    nt = transport_simplex(x, base, (1, 0, 1))
    assert nat_violations(x, nt) == []
    assert pseudofunctor_violations(x, nt.target) == []


def test_nat_violations_catch_bad_tables():
    x = xmod_identity(make_cyclic(2))
    base = PseudofunctorSimplex(2, (0, 0, 0), (0,))
    nt = transport_simplex(x, base, (1, 0, 1))
    assert nat_violations(x, NatTransform(nt.source, nt.target, (1, 0))) \
        == ["w table has the wrong size"]
    tampered = NatTransform(nt.source, nt.target, (1, 1, 1))
    assert nat_violations(x, tampered) != []
    other = PseudofunctorSimplex(1, (0,), ())
    assert nat_violations(x, NatTransform(base, other, (0, 0, 0))) \
        == ["source and target dimensions differ"]


def test_reindex_along_the_identity_is_the_identity():
    x = xmod_identity(make_cyclic(2))
    for s in duskin_nerve(x, 3).simplices[3]:
        assert reindex(x, s, (0, 1, 2, 3)) == s


def _structure_maps(top):
    """(codomain, value tuple) of every face and degeneracy map among
    [0]..[top], and of every composite of two of them."""
    basic = [(k, delta_map(k, i)) for k in range(1, top + 1)
             for i in range(k + 1)]
    basic += [(k, sigma_map(k, i)) for k in range(top) for i in range(k + 1)]
    maps = set(basic)
    for n, theta in basic:
        for b, phi in basic:
            if b == len(theta) - 1:
                maps.add((n, tuple(theta[v] for v in phi)))
    return sorted(maps)


@pytest.mark.parametrize("order,top", [(2, 4), (3, 3)])
def test_reindex_matches_the_slot_by_slot_pullback(order, top):
    # C3->id stops at [3]: its level 4 has 3^14 candidate label tables
    x = xmod_identity(make_cyclic(order))
    e = x.hgroup.identity
    levels = [_enumerate_duskin_level(x, n) for n in range(top + 1)]
    checked = 0
    for n, theta in _structure_maps(4):
        if n > top:
            continue
        m = len(theta) - 1
        pairs = list(combinations(range(m + 1), 2))
        triples = list(combinations(range(m + 1), 3))
        for s in levels[n]:
            alpha = tuple(s.alpha_at(x, theta[i], theta[j]) for i, j in pairs)
            u = tuple(s.u_at(x, theta[i], theta[j], theta[k])
                      for i, j, k in triples)
            assert reindex(x, s, theta) == PseudofunctorSimplex(m, alpha, u)
            checked += 1
        # a table of distinct non-identity labels shows every misplaced read
        pp = pair_positions(n)
        w = tuple(range(1, len(pp) + 1))
        want = tuple(e if theta[i] == theta[j] else w[pp[(theta[i], theta[j])]]
                     for i, j in pairs)
        assert pull_table(x, n, w, theta) == want
    assert checked > 1000


# ---------------------------------------------------------------------------
# resource guards
# ---------------------------------------------------------------------------

def test_nerve_budget_guards():
    with pytest.raises(ResourceLimit):
        duskin_nerve(one_to(make_symmetric(3)), 4, budget=100)
    with pytest.raises(ResourceLimit):
        monoidal_diag_nerve(xmod_identity(make_cyclic(2)), 3, budget=100)
