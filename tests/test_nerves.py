"""Nerve constructions for groups and strict 2-groups: structural counts,
simplicial validity, comparison isomorphisms onto the ordinary nerve, and
homology agreement between the Duskin and monoidal-diagonal models.

The nerves build their tables with array gathers; the per-simplex
construction they replaced (a face or degeneracy function per simplex and a
dictionary lookup) is kept here as the oracle they must match."""

import importlib
import pkgutil
from itertools import combinations, product

import oracles
import pytest
from oracles import (NatTransform, PseudofunctorSimplex,
                     _enumerate_duskin_level, nat_violations,
                     pseudofunctor_violations, pull_table, reindex,
                     simplex_index, simplex_objects, simplicial_violations,
                     transport_simplex, xmod_abelian, xmod_identity)

import xmodcoh
from xmodcoh import cli, nerves
from xmodcoh.crossed import CrossedModule
from xmodcoh.errors import ResourceLimit
from xmodcoh.groups import make_cyclic, make_symmetric, trivial_group
from xmodcoh.nerves import (SimplicialMap, delta_map, diag_to_ordinary,
                            duskin_nerve, duskin_to_ordinary,
                            isomorphism_violations, monoidal_diag_nerve,
                            ordinary_nerve, pair_positions, sigma_map,
                            simplicial_map_violations)
from xmodcoh.simplicial import homology, prism


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


def oracle_map_violations(f):
    """The per-simplex loop form of ``isomorphism_violations``."""
    a, b = f.source, f.target
    bad = []
    for k in range(1, a.N + 1):
        for i in range(k + 1):
            for idx in range(a.count(k)):
                if f.layers[k - 1][a.face[k][i][idx]] != \
                        b.face[k][i][f.layers[k][idx]]:
                    bad.append(f"face square fails at level {k}, d_{i}, "
                               f"simplex {idx}")
    for k in range(a.N):
        for i in range(k + 1):
            for idx in range(a.count(k)):
                if f.layers[k + 1][a.degen[k][i][idx]] != \
                        b.degen[k][i][f.layers[k][idx]]:
                    bad.append(f"degeneracy square fails at level {k}, "
                               f"s_{i}, simplex {idx}")
    if bad:
        return bad
    for k in range(a.N + 1):
        if len(set(f.layers[k])) != a.count(k):
            bad.append(f"level {k} map is not injective")
    return bad


def test_map_violations_detect_tampering():
    g = make_cyclic(2)
    x = one_to(g)
    dusk = duskin_nerve(x, 3)
    ordn = ordinary_nerve(g, 3)
    good = duskin_to_ordinary(x, dusk, ordn)
    chains = simplex_index(simplex_objects(ordn, "ordinary"))
    assert good.layers == [[chains[k][tuple(s.alpha_at(x, i, i + 1)
                                            for i in range(k))]
                            for s in level] for k, level in
                           enumerate(simplex_objects(dusk, "duskin"))]
    layers = [list(t) for t in good.layers]
    layers[2][0], layers[2][1] = layers[2][1], layers[2][0]
    bad = SimplicialMap(dusk, ordn, layers)
    assert simplicial_map_violations(bad) != []
    assert isomorphism_violations(bad) == oracle_map_violations(bad)
    moved = [list(t) for t in good.layers]
    moved[3][5] = moved[3][6]
    moved[1][1] = 0
    bad = SimplicialMap(dusk, ordn, moved)
    assert len(isomorphism_violations(bad)) > 2
    assert isomorphism_violations(bad) == oracle_map_violations(bad)
    # collapsing onto the identity chains is simplicial but not injective
    collapsed = [[chains[k][(g.identity,) * k]] * dusk.count(k)
                 for k in range(dusk.N + 1)]
    assert simplicial_map_violations(
        SimplicialMap(dusk, ordn, collapsed)) == []
    assert any("not injective" in p for p in isomorphism_violations(
        SimplicialMap(dusk, ordn, collapsed)))
    assert isomorphism_violations(SimplicialMap(dusk, ordn, collapsed)) \
        == oracle_map_violations(SimplicialMap(dusk, ordn, collapsed))
    short = ordinary_nerve(g, 2)
    assert simplicial_map_violations(
        SimplicialMap(dusk, short, good.layers)) \
        == ["source and target truncations differ"]


def test_a_map_with_equal_images_apart_is_not_injective():
    """x -> 2x on C4 induces a simplicial self-map of the nerve that sends
    the chains (1) and (3) to one simplex, with the chain (2) between them
    in index order: not injective on levels 1 and up."""
    g = make_cyclic(4)
    ordn = ordinary_nerve(g, 3)
    levels = simplex_objects(ordn, "ordinary")
    chains = simplex_index(levels)
    double = SimplicialMap(ordn, ordn, [
        [chains[k][tuple(2 * a % 4 for a in chain)] for chain in level]
        for k, level in enumerate(levels)])
    assert simplicial_map_violations(double) == []
    assert double.layers[1] == [0, 2, 0, 2]
    assert isomorphism_violations(double) == [
        f"level {k} map is not injective" for k in (1, 2, 3)]
    assert isomorphism_violations(double) == oracle_map_violations(double)


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
    for s in simplex_objects(duskin_nerve(x, 3), "duskin")[3]:
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
    for s in simplex_objects(duskin_nerve(x, 3), "duskin")[3]:
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


# ---------------------------------------------------------------------------
# the array builder against the per-simplex oracle
# ---------------------------------------------------------------------------

def oracle_tables(n_trunc, levels, face_fn, degen_fn):
    """Face and degeneracy tables from simplex-valued structure maps, looked
    up one simplex at a time in a dictionary per level."""
    index = [{s: i for i, s in enumerate(level)} for level in levels]
    assert [len(i) for i in index] == [len(level) for level in levels]
    face = {k: [[index[k - 1][face_fn(k, i, s)] for s in levels[k]]
                for i in range(k + 1)] for k in range(1, n_trunc + 1)}
    degen = {k: [[index[k + 1][degen_fn(k, i, s)] for s in levels[k]]
                 for i in range(k + 1)] for k in range(n_trunc)}
    return face, degen


def oracle_duskin_level(x, k):
    """The valid k-simplices, one candidate (edge chain, u table) at a time
    in lexicographic order, with the derived edges filled in by the triangle
    relations at (i, j-1, j)."""
    g, h = x.ggroup, x.hgroup
    pp = pair_positions(k)
    triples = list(combinations(range(k + 1), 3))
    tp = {t: i for i, t in enumerate(triples)}
    out = []
    for chain in product(g.elements(), repeat=k):
        for u in product(h.elements(), repeat=len(triples)):
            alpha = [0] * len(pp)
            for i in range(k):
                alpha[pp[(i, i + 1)]] = chain[i]
            for span in range(2, k + 1):
                for i in range(k + 1 - span):
                    j = i + span
                    du = x.boundary[u[tp[(i, j - 1, j)]]]
                    alpha[pp[(i, j)]] = g.op(
                        g.inv[du], g.op(alpha[pp[(i, j - 1)]], chain[j - 1]))
            s = PseudofunctorSimplex(k, tuple(alpha), u)
            if not pseudofunctor_violations(x, s):
                out.append(s)
    return out


def oracle_duskin(x, n):
    levels = [oracle_duskin_level(x, k) for k in range(n + 1)]
    return (levels,) + oracle_tables(
        n, levels, lambda k, i, s: reindex(x, s, delta_map(k, i)),
        lambda k, i, s: reindex(x, s, sigma_map(k, i)))


def oracle_ordinary(group, n):
    levels = [list(product(group.elements(), repeat=k)) for k in range(n + 1)]

    def face(k, i, chain):
        if i == 0:
            return chain[1:]
        if i == k:
            return chain[:-1]
        return (chain[:i - 1] + (group.op(chain[i - 1], chain[i]),)
                + chain[i + 1:])

    def degen(k, i, chain):
        return chain[:i] + (group.identity,) + chain[i:]

    return (levels,) + oracle_tables(n, levels, face, degen)


def oracle_diag(x, n):
    g, h = x.ggroup, x.hgroup

    def merge(c1, c2):
        (y1, us1), (y2, us2) = c1, c2
        run, out = y1, []
        for u1, u2 in zip(us1, us2):
            out.append(h.op(u1, x.act(run, u2)))
            run = g.op(x.boundary[u1], run)
        return (g.op(y1, y2), tuple(out))

    def v_face(r, col):
        y0, us = col
        if r == 0:
            return (g.op(x.boundary[us[0]], y0), us[1:])
        if r == len(us):
            return (y0, us[:-1])
        return (y0, us[:r - 1] + (h.op(us[r], us[r - 1]),) + us[r + 1:])

    def face(k, i, cols):
        if i == 0:
            kept = cols[1:]
        elif i == k:
            kept = cols[:-1]
        else:
            kept = cols[:i - 1] + (merge(cols[i - 1], cols[i]),) + cols[i + 1:]
        return tuple(v_face(i, c) for c in kept)

    def degen(k, i, cols):
        widened = cols[:i] + ((g.identity, (h.identity,) * k),) + cols[i:]
        return tuple((y0, us[:i] + (h.identity,) + us[i:])
                     for y0, us in widened)

    levels = []
    for k in range(n + 1):
        cols = [(y0, us) for y0 in g.elements()
                for us in product(h.elements(), repeat=k)]
        levels.append(list(product(cols, repeat=k)))
    return (levels,) + oracle_tables(n, levels, face, degen)


def oracle_prism(s):
    levels = [[(idx, t) for idx in range(s.count(k)) for t in range(k + 2)]
              for k in range(s.N + 1)]
    return (levels,) + oracle_tables(
        s.N, levels,
        lambda k, i, c: (s.face[k][i][c[0]], c[1] - 1 if i < c[1] else c[1]),
        lambda k, i, c: (s.degen[k][i][c[0]], c[1] + 1 if i < c[1] else c[1]))


def assert_same_set(s, kind, oracle):
    levels, face, degen = oracle
    assert simplex_objects(s, kind) == levels
    assert s.face == face
    assert s.degen == degen
    assert all(type(v) is int for k in s.face for t in s.face[k] for v in t)


def c2_inverting_c3():
    """C3 -> C2 with trivial boundary, C2 acting by inversion."""
    h, g = make_cyclic(3), make_cyclic(2)
    return CrossedModule(h, g, (h.identity,) * 3,
                         (tuple(h.elements()), tuple(h.inv)), "C3-inv")


@pytest.mark.parametrize("x_fn,n", [
    pytest.param(lambda: one_to(make_symmetric(4)), 3, id="1->S4"),
    pytest.param(lambda: one_to(make_symmetric(3)), 4, id="1->S3"),
    pytest.param(lambda: xmod_abelian(make_cyclic(3)), 4, id="C3->1"),
    pytest.param(lambda: xmod_identity(make_cyclic(2)), 3, id="C2->id"),
    pytest.param(lambda: xmod_identity(make_cyclic(3)), 3, id="C3->id"),
    pytest.param(lambda: xmod_identity(make_symmetric(3)), 2, id="S3->id"),
    pytest.param(c2_inverting_c3, 3, id="C3-inv"),
])
def test_duskin_tables_match_the_oracle(x_fn, n):
    x = x_fn()
    assert_same_set(duskin_nerve(x, n), "duskin", oracle_duskin(x, n))


@pytest.mark.parametrize("x_fn,n", [
    pytest.param(lambda: xmod_abelian(make_cyclic(3)), 3, id="C3->1"),
    pytest.param(lambda: xmod_identity(make_cyclic(2)), 3, id="C2->id"),
    pytest.param(lambda: one_to(make_symmetric(3)), 3, id="1->S3"),
    pytest.param(lambda: xmod_identity(make_symmetric(3)), 2, id="S3->id"),
    pytest.param(c2_inverting_c3, 2, id="C3-inv"),
])
def test_diag_tables_match_the_oracle(x_fn, n):
    x = x_fn()
    assert_same_set(monoidal_diag_nerve(x, n), "diag", oracle_diag(x, n))


@pytest.mark.parametrize("group_fn,n", [
    pytest.param(lambda: make_symmetric(3), 4, id="S3"),
    pytest.param(lambda: make_cyclic(4), 3, id="C4"),
])
def test_ordinary_tables_match_the_oracle(group_fn, n):
    group = group_fn()
    assert_same_set(ordinary_nerve(group, n), "ordinary",
                    oracle_ordinary(group, n))


@pytest.mark.parametrize("base_fn", [
    pytest.param(lambda: ordinary_nerve(make_cyclic(3), 3), id="nerve-C3"),
    pytest.param(lambda: duskin_nerve(xmod_identity(make_cyclic(2)), 3),
                 id="duskin-C2->id"),
])
def test_prism_tables_match_the_oracle(base_fn):
    base = base_fn()
    assert_same_set(prism(base), "prism", oracle_prism(base))


def test_small_enumeration_blocks_give_the_same_nerve(monkeypatch):
    monkeypatch.setattr(nerves, "_BLOCK", 7)
    for x, n in [(xmod_identity(make_symmetric(3)), 2),
                 (c2_inverting_c3(), 3), (xmod_abelian(make_cyclic(3)), 3)]:
        assert_same_set(duskin_nerve(x, n), "duskin", oracle_duskin(x, n))


def test_a_face_missing_from_its_level_is_refused(monkeypatch):
    x = one_to(make_symmetric(3))
    true_rows = nerves._duskin_level_rows

    def drop_last(x, k):
        keys, rows = true_rows(x, k)
        return (keys[:-1], rows[:-1]) if k == 2 else (keys, rows)

    def bend_derived_edge(x, k):
        keys, rows = true_rows(x, k)
        if k == 2:
            rows = rows.copy()
            rows[-1, 1] = (rows[-1, 1] + 1) % x.ggroup.order  # alpha_02
        return keys, rows

    monkeypatch.setattr(nerves, "_duskin_level_rows", drop_last)
    with pytest.raises(ValueError, match="face d_. leaves the level-2"):
        duskin_nerve(x, 3)
    monkeypatch.setattr(nerves, "_duskin_level_rows", bend_derived_edge)
    with pytest.raises(ValueError, match="leaves the level"):
        duskin_nerve(x, 3)


def test_a_key_range_past_int64_is_refused_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("enumeration started before the key guard")

    monkeypatch.setattr(nerves, "_duskin_level_rows", no_work)
    # 6^5 * 6^C(6,3) = 6^25 keys at level 5, under the budget
    report = cli.run({"schema": 1, "task": "nerve", "kind": "duskin",
                      "xmod": "S3->id", "trunc": 5, "budget": 10 ** 30})
    assert report["status"] == "resource-error"
    assert report["result"] == {"bound": "duskin level 5 keys",
                                "needed": 6 ** 25, "allowed": 2 ** 63 - 1}
    # the enumerator keeps the guard for callers with their own budgets
    monkeypatch.undo()
    with pytest.raises(ResourceLimit, match="duskin level 5 keys"):
        nerves._duskin_level_rows(xmod_identity(make_symmetric(3)), 5)


def test_nerve_and_homology_bundles_build_no_simplex_objects(monkeypatch):
    """The nerve and homology tasks, and the nerve itself, read and build
    only the label rows and the tables; the rows hold what the simplex
    objects did.  No program module has a simplex object class left, and
    the oracle's may not be called."""
    def no_objects(*args):
        raise AssertionError("a simplex object was built")

    for info in pkgutil.iter_modules(xmodcoh.__path__):
        module = importlib.import_module(f"xmodcoh.{info.name}")
        assert not hasattr(module, "PseudofunctorSimplex"), info.name
    monkeypatch.setattr(oracles, "PseudofunctorSimplex", no_objects)
    report = cli.run({"schema": 1, "task": "nerve", "kind": "duskin",
                      "xmod": "1->S4", "trunc": 3,
                      "check_ordinary_iso": True})
    assert report["status"] == "ok"
    assert report["result"]["counts"] == [1, 24, 576, 13824]
    assert report["result"]["ordinary_iso"] is True
    report = cli.run({"schema": 1, "task": "homology", "kind": "duskin",
                      "xmod": "1->S3", "maxdeg": 3})
    assert report["status"] == "ok"
    assert [g["factors"] for g in report["result"]["groups"]] == [
        [0], [2], [], [6]]
    s = duskin_nerve(one_to(make_symmetric(3)), 3)
    monkeypatch.undo()
    assert s.counts() == (1, 6, 36, 216)
    assert simplex_objects(s, "duskin")[2] == _enumerate_duskin_level(
        one_to(make_symmetric(3)), 2)
