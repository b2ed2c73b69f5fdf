"""Classifying maps of 1-cocycles and simplicial homotopies: cohomologous
cocycles yield verified prism data, non-cohomologous ones admit no homotopy
within the truncation, twisted witnesses factor through conjugation by two
agreeing routes."""

import pytest
from oracles import (are_cohomologous, find_simplicial_homotopy,
                     loop_conjugation_layers, loop_cocycle_layers,
                     loop_homotopy_layers, loop_homotopy_violations,
                     simplex_index, simplex_objects, xmod_abelian,
                     xmod_identity)

from xmodcoh.crossed import (Cocycle1, Witness1, compute_H1, enumerate_Z1,
                             transform_cocycle, trivial_cocycle)
from xmodcoh.errors import ResourceLimit
from xmodcoh.groups import make_cyclic, make_product, make_symmetric
from xmodcoh.homotopies import (SimplicialHomotopy,
                                cocycle_to_simplicial_map,
                                coboundary_to_homotopy, compose_maps,
                                conjugation_nerve_map, homotopy_violations,
                                outer_witness_homotopy)
from xmodcoh.nerves import (duskin_nerve, isomorphism_violations,
                            ordinary_nerve, simplicial_map_violations)
from xmodcoh.simplicial import prism, prism_end


def test_classifying_maps_are_simplicial():
    group = make_cyclic(2)
    x = xmod_abelian(make_cyclic(2))
    dusk = duskin_nerve(x, 3)
    ordn = ordinary_nerve(group, 3)
    for c in enumerate_Z1(group, x):
        f = cocycle_to_simplicial_map(group, x, c, 3, ordn, dusk)
        assert simplicial_map_violations(f) == []
    with pytest.raises(ValueError, match="not a normalized cocycle"):
        cocycle_to_simplicial_map(group, x, Cocycle1((0, 0), (1, 0, 0, 0)), 3)


def test_cohomologous_cocycles_give_verified_homotopies():
    """Over Z/3 every mod-2 cocycle is a coboundary; each witness converts
    to prism data that passes the exhaustive check."""
    group = make_cyclic(3)
    x = xmod_abelian(make_cyclic(2))
    cocycles = enumerate_Z1(group, x)
    h1 = compute_H1(group, x)
    assert h1.size() == 1
    a = trivial_cocycle(group, x)
    for b in cocycles:
        wit = are_cohomologous(group, x, a, b)
        assert wit is not None and wit.gamma == x.ggroup.identity
        hom = coboundary_to_homotopy(group, x, a, b, wit, 3)
        assert homotopy_violations(hom) == []
        assert hom.start.layers == cocycle_to_simplicial_map(
            group, x, a, 3, hom.start.source, hom.start.target).layers
        assert hom.end.layers == cocycle_to_simplicial_map(
            group, x, b, 3, hom.start.source, hom.start.target).layers


def test_bad_witnesses_are_rejected():
    group = make_cyclic(3)
    x = xmod_abelian(make_cyclic(2))
    cocycles = enumerate_Z1(group, x)
    a = trivial_cocycle(group, x)
    b = next(c for c in cocycles if c.key() != a.key())
    with pytest.raises(ValueError, match="witness fails"):
        coboundary_to_homotopy(group, x, a, b,
                               Witness1(0, (0,) * group.order), 3)
    # a twisted witness must be factored first
    group2 = make_cyclic(2)
    y = xmod_identity(make_cyclic(2))
    t = trivial_cocycle(group2, y)
    moved = transform_cocycle(group2, y, t, 1, (0, 0))
    with pytest.raises(ValueError, match="twist"):
        coboundary_to_homotopy(group2, y, t, moved, Witness1(1, (0, 0)), 3)


def test_distinct_classes_admit_no_homotopy_at_truncation_three():
    group = make_cyclic(2)
    x = xmod_abelian(make_cyclic(2))
    dusk = duskin_nerve(x, 3)
    ordn = ordinary_nerve(group, 3)
    h1 = compute_H1(group, x)
    assert h1.size() == 2
    maps = [cocycle_to_simplicial_map(group, x, cls.representative, 3,
                                      ordn, dusk)
            for cls in h1.classes]
    assert find_simplicial_homotopy(maps[0], maps[1]) is None
    assert find_simplicial_homotopy(maps[1], maps[0]) is None
    same = find_simplicial_homotopy(maps[0], maps[0])
    assert same is not None
    assert homotopy_violations(same) == []


def test_two_tampered_cells_report_what_the_loop_reports():
    """The end checks compare whole layers but report per base simplex,
    time 0 before time 1: here simplex 0 fails at time 1 before simplex 1
    fails at time 0."""
    group = make_cyclic(3)
    x = xmod_abelian(make_cyclic(2))
    a = trivial_cocycle(group, x)
    b = enumerate_Z1(group, x)[-1]
    hom = coboundary_to_homotopy(group, x, a, b,
                                 are_cohomologous(group, x, a, b), 3)
    assert loop_homotopy_violations(hom) == []
    layers = [list(t) for t in hom.layers]
    for idx, zero_end in ((0, False), (1, True)):
        cell = prism_end(hom.cylinder, 2, idx, zero_end)
        layers[2][cell] = (layers[2][cell] + 1) % hom.start.target.count(2)
    bad = SimplicialHomotopy(hom.start, hom.end, hom.cylinder, layers)
    got = homotopy_violations(bad)
    assert got == loop_homotopy_violations(bad)
    ends = [p for p in got if "end differs" in p]
    assert ends == ["time-1 end differs at level 2, simplex 0",
                    "time-0 end differs at level 2, simplex 1"]


def test_homotopy_search_guards():
    group = make_cyclic(2)
    x = xmod_abelian(make_cyclic(2))
    dusk = duskin_nerve(x, 3)
    ordn = ordinary_nerve(group, 3)
    c = trivial_cocycle(group, x)
    f = cocycle_to_simplicial_map(group, x, c, 3, ordn, dusk)
    c3 = make_cyclic(3)
    other_src = cocycle_to_simplicial_map(c3, x, trivial_cocycle(c3, x), 3)
    with pytest.raises(ValueError, match="share their source"):
        find_simplicial_homotopy(f, other_src)
    with pytest.raises(ResourceLimit):
        find_simplicial_homotopy(f, f, budget=0)


def test_conjugation_induces_a_nerve_automorphism():
    x = xmod_identity(make_symmetric(3))
    dusk = duskin_nerve(x, 2)
    for gamma in x.ggroup.elements():
        conj = conjugation_nerve_map(x, gamma, dusk)
        assert isomorphism_violations(conj) == []


def test_twisted_witness_factors_through_conjugation():
    group = make_cyclic(2)
    x = xmod_identity(make_cyclic(2))
    a = trivial_cocycle(group, x)
    for w in ((0, 0), (0, 1)):
        wit = Witness1(1, w)
        b = transform_cocycle(group, x, a, wit.gamma, wit.w)
        conj, hom = outer_witness_homotopy(group, x, a, b, wit, 3)
        assert isomorphism_violations(conj) == []
        assert homotopy_violations(hom) == []
        fa = cocycle_to_simplicial_map(group, x, a, 3, hom.start.source,
                                       hom.start.target)
        assert compose_maps(conj, fa).layers == hom.start.layers
        assert hom.end.layers == cocycle_to_simplicial_map(
            group, x, b, 3, hom.start.source, hom.start.target).layers


# ---------------------------------------------------------------------------
# the row builders against the per-simplex oracle
# ---------------------------------------------------------------------------

def c2_on_c2():
    return xmod_abelian(make_cyclic(2))


def s3_id():
    return xmod_identity(make_symmetric(3))


@pytest.mark.parametrize("group_fn,x_fn,n_trunc", [
    pytest.param(lambda: make_cyclic(2), c2_on_c2, 3, id="C2 on C2->1"),
    pytest.param(lambda: make_cyclic(3), c2_on_c2, 3, id="C3 on C2->1"),
    pytest.param(lambda: make_product(make_cyclic(2), make_cyclic(2)),
                 c2_on_c2, 4, id="C2xC2 on C2->1"),
    pytest.param(lambda: make_cyclic(2), s3_id, 3, id="C2 on S3->id"),
])
def test_maps_and_homotopies_match_the_loop_oracle(group_fn, x_fn, n_trunc):
    """Every cocycle's classifying map, and the prism homotopy of every
    twist-free witness ``are_cohomologous`` finds between two cocycles.
    Over S3->id the witnesses act nontrivially on the triangle labels."""
    group, x = group_fn(), x_fn()
    source, target = ordinary_nerve(group, n_trunc), duskin_nerve(x, n_trunc)
    chains = simplex_objects(source, "ordinary")
    cells = simplex_objects(prism(source), "prism")
    index = simplex_index(simplex_objects(target, "duskin"))
    cocycles = enumerate_Z1(group, x)
    for c in cocycles:
        f = cocycle_to_simplicial_map(group, x, c, n_trunc, source, target)
        assert f.layers == loop_cocycle_layers(group, c, chains, index)
    homotopies = 0
    for a in cocycles:
        for b in cocycles:
            wit = are_cohomologous(group, x, a, b)
            if wit is None or wit.gamma != x.ggroup.identity:
                continue
            hom = coboundary_to_homotopy(group, x, a, b, wit, n_trunc,
                                         source, target)
            assert hom.layers == loop_homotopy_layers(
                group, x, a, b, wit.w, chains, cells, index)
            homotopies += 1
    assert homotopies >= len(cocycles)


def test_conjugation_matches_the_loop_oracle():
    x = s3_id()
    dusk = duskin_nerve(x, 3)
    assert dusk.counts() == (1, 6, 216, 46656)
    levels = simplex_objects(dusk, "duskin")
    index = simplex_index(levels)
    for gamma in x.ggroup.elements():
        assert conjugation_nerve_map(x, gamma, dusk).layers == \
            loop_conjugation_layers(x, gamma, levels, index)


def test_twisted_witnesses_match_the_loop_oracle():
    group = make_cyclic(2)
    x = xmod_identity(make_cyclic(2))
    a = trivial_cocycle(group, x)
    ones = (x.hgroup.identity,) * group.order
    for w in ((0, 0), (0, 1)):
        wit = Witness1(1, w)
        b = transform_cocycle(group, x, a, wit.gamma, wit.w)
        conj, hom = outer_witness_homotopy(group, x, a, b, wit, 3)
        levels = simplex_objects(hom.start.target, "duskin")
        index = simplex_index(levels)
        assert conj.layers == loop_conjugation_layers(x, wit.gamma, levels,
                                                      index)
        conj_a = transform_cocycle(group, x, a, wit.gamma, ones)
        assert hom.layers == loop_homotopy_layers(
            group, x, conj_a, b, w,
            simplex_objects(hom.start.source, "ordinary"),
            simplex_objects(hom.cylinder, "prism"), index)
