"""Crossed modules and H^1 as a pointed set: axiom checks, brute-force
enumeration oracles, quotient structure, the abelian shift."""

import itertools
import random
import time

import pytest
from oracles import (are_cohomologous, cochain_to_cocycle, is_abelian,
                     xmod_abelian, xmod_identity)

from xmodcoh import bundles, cli
from xmodcoh.bundles import BundleError, group_from_spec, xmod_from_spec
from xmodcoh.crossed import (Cocycle1, CrossedModule, XModMorphism,
                             abelian_shift, cocycle_violations, compute_H1,
                             compute_H1_ff, enumerate_Z1, is_free_faithful,
                             pushforward, transform_cocycle, trivial_cocycle,
                             validate_xmod, xmod_violations)
from xmodcoh.errors import ResourceLimit
from xmodcoh.groups import (make_cyclic, make_product, make_symmetric,
                            trivial_group)


def inclusion_c2_in_c4():
    """(Z/2 -> Z/4) doubling inclusion, trivial action."""
    c2, c4 = make_cyclic(2), make_cyclic(4)
    return CrossedModule(c2, c4, (0, 2),
                         tuple(tuple(c2.elements()) for _ in range(4)),
                         "(C2->C4)")


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------

def test_standard_constructions_are_valid():
    assert validate_xmod(xmod_abelian(make_cyclic(4))) == []
    assert validate_xmod(xmod_identity(make_symmetric(3))) == []
    assert validate_xmod(inclusion_c2_in_c4()) == []
    # abelian kernel with a nontrivial action: Z/3 with Z/2 inverting
    c3, c2 = make_cyclic(3), make_cyclic(2)
    tw = CrossedModule(c3, c2, (0, 0, 0), ((0, 1, 2), (0, 2, 1)))
    assert validate_xmod(tw) == []


def test_peiffer_identity_is_checked():
    s3, one = make_symmetric(3), trivial_group()
    problems = xmod_violations(s3, one, (0,) * 6, (tuple(s3.elements()),))
    assert problems and all("Peiffer" in p for p in problems)
    with pytest.raises(ValueError, match="Peiffer"):
        CrossedModule(s3, one, (0,) * 6, (tuple(s3.elements()),))


def _tables(x):
    return x.hgroup.mul, x.ggroup.mul, x.boundary, x.action


@pytest.mark.parametrize("name", ["1", "C2", "C4", "C2xC2", "S3"])
def test_shorthands_build_the_fixture_tables(name):
    """<G>->1, 1-><G> and <G>->id give the tables of A -> 1, of the
    trivial group into G, and of the identity of G with conjugation.  S3
    is not abelian, so S3->1 fails the Peiffer identity on both routes."""
    g = group_from_spec(name, "/g")
    assert _tables(xmod_from_spec(f"{name}->id", "/xmod")) \
        == _tables(xmod_identity(g))
    assert _tables(xmod_from_spec(f"1->{name}", "/xmod")) == _tables(
        CrossedModule(trivial_group(), g, (g.identity,),
                      ((0,),) * g.order))
    if is_abelian(g):
        assert _tables(xmod_from_spec(f"{name}->1", "/xmod")) \
            == _tables(xmod_abelian(g))
        return
    with pytest.raises(BundleError, match="Peiffer"):
        xmod_from_spec(f"{name}->1", "/xmod")
    with pytest.raises(ValueError, match="Peiffer"):
        xmod_abelian(g)


def test_validate_reports_peiffer_without_building_the_module(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("validate constructed the crossed module")

    monkeypatch.setattr(bundles, "CrossedModule", refuse)
    report = cli.run({"schema": 1, "task": "validate", "xmod": "S3->1"})
    assert report["status"] == "violation"
    assert report["result"]["valid"] is False
    problems = report["result"]["violations"]
    assert problems and all("Peiffer" in p for p in problems)
    with pytest.raises(AssertionError, match="constructed"):
        xmod_from_spec("S3->1", "/xmod")


def test_equivariance_is_checked():
    # A3 inside S3 with the *trivial* action: Peiffer holds (A3 abelian)
    # but conjugation moves the boundary values around.
    s3 = make_symmetric(3)
    rot = next(a for a in s3.elements() if s3.element_order(a) == 3)
    c3 = make_cyclic(3)
    boundary = (s3.identity, rot, s3.mul[rot][rot])
    action = (tuple(c3.elements()),) * 6
    problems = xmod_violations(c3, s3, boundary, action)
    assert problems and all("equivariance" in p for p in problems)


def test_malformed_tables_are_rejected():
    c2, c4 = make_cyclic(2), make_cyclic(4)
    assert xmod_violations(c2, c4, (0,), ()) \
        == ["boundary must map every element of H"]
    assert xmod_violations(c2, c4, (0, 7), ()) \
        == ["boundary values must be elements of G"]
    assert "action must be a |G| x |H| table" in \
        xmod_violations(c2, c4, (0, 2), ((0, 1),))
    # a non-homomorphic action row
    bad = xmod_violations(c2, c4, (0, 2),
                          ((0, 1), (1, 0), (0, 1), (1, 0)))
    assert any("not a homomorphism" in p or "act trivially" in p
               for p in bad)


def test_kernel_and_image_helpers():
    x = inclusion_c2_in_c4()
    assert x.boundary_image() == frozenset({0, 2})
    assert x.kernel_elements() == (0,)
    assert xmod_abelian(make_cyclic(3)).kernel_elements() == (0, 1, 2)


# ---------------------------------------------------------------------------
# cocycle tables
# ---------------------------------------------------------------------------

def test_trivial_cocycle_is_valid_and_tampering_is_caught():
    group = make_cyclic(2)
    x = xmod_identity(make_cyclic(2))
    c = trivial_cocycle(group, x)
    assert cocycle_violations(group, x, c) == []
    bad_alpha = Cocycle1((1, 0), c.u)
    assert any("identity" in p
               for p in cocycle_violations(group, x, bad_alpha))
    bad_u = Cocycle1(c.alpha, (0, 1, 0, 0))
    assert cocycle_violations(group, x, bad_u) != []
    wrong_size = Cocycle1((0,), c.u)
    assert cocycle_violations(group, x, wrong_size) \
        == ["cocycle tables have the wrong size"]


def brute_force_Z1(group, x):
    """All normalized 1-cocycles by raw filtering of full tables."""
    n, e = group.order, group.identity
    nz = [g for g in group.elements() if g != e]
    found = []
    for alpha_nz in itertools.product(x.ggroup.elements(), repeat=len(nz)):
        alpha = [x.ggroup.identity] * n
        for g, v in zip(nz, alpha_nz):
            alpha[g] = v
        for u_nz in itertools.product(x.hgroup.elements(),
                                      repeat=len(nz) ** 2):
            u = [x.hgroup.identity] * (n * n)
            for (g, h), v in zip(itertools.product(nz, nz), u_nz):
                u[g * n + h] = v
            c = Cocycle1(tuple(alpha), tuple(u))
            if not cocycle_violations(group, x, c):
                found.append(c)
    found.sort(key=Cocycle1.key)
    return found


@pytest.mark.parametrize("group_name", ["C2", "C3", "V4"])
@pytest.mark.parametrize("xmod_name", ["C2->1", "C2->id", "C2->C4"])
def test_enumeration_matches_brute_force(group_name, xmod_name):
    groups = {"C2": make_cyclic(2), "C3": make_cyclic(3),
              "V4": make_product(make_cyclic(2), make_cyclic(2))}
    xmods = {"C2->1": xmod_abelian(make_cyclic(2)),
             "C2->id": xmod_identity(make_cyclic(2)),
             "C2->C4": inclusion_c2_in_c4()}
    group, x = groups[group_name], xmods[xmod_name]
    if group.order == 4 and x.ggroup.order == 4:
        pytest.skip("brute force too large")
    fast = enumerate_Z1(group, x)
    slow = brute_force_Z1(group, x)
    assert [c.key() for c in fast] == [c.key() for c in slow]


def test_enumeration_budget_guard():
    group = make_product(make_cyclic(2), make_cyclic(2))
    x = xmod_identity(make_symmetric(3))
    with pytest.raises(ResourceLimit):
        enumerate_Z1(group, x, budget=10)


def test_relation_scheduling_is_bounded_before_any_work():
    # over 1 -> 1 there is one candidate, but (|G|-1)^3 relations would be
    # scheduled as tuples: 719^3 for C720
    start = time.perf_counter()
    report = cli.run({"schema": 1, "task": "h1", "group": "C720",
                      "xmod": "1->1"})
    assert time.perf_counter() - start < 0.1
    assert report["status"] == "resource-error"
    assert report["result"] == {"bound": "1-cocycle enumeration relations",
                                "needed": 719 ** 3, "allowed": 10 ** 8}
    report = cli.run({"schema": 1, "task": "h1", "group": "C60",
                      "xmod": "1->1"})
    assert report["status"] == "ok"
    assert report["result"]["classes"] == 1
    with pytest.raises(ResourceLimit, match="enumeration relations"):
        enumerate_Z1(make_cyclic(5), xmod_abelian(trivial_group()),
                     budget=63)
    assert len(enumerate_Z1(make_cyclic(5), xmod_abelian(trivial_group()),
                            budget=64)) == 1


# ---------------------------------------------------------------------------
# the quotient
# ---------------------------------------------------------------------------

def test_transforms_preserve_validity_and_class():
    group = make_cyclic(2)
    x = xmod_identity(make_cyclic(2))
    h1 = compute_H1(group, x)
    rng = random.Random(7)
    for cls in h1.classes:
        i = h1.class_of(cls.representative)
        for _ in range(6):
            gamma = rng.choice(list(x.ggroup.elements()))
            w = [x.hgroup.identity] * group.order
            for g in group.elements():
                if g != group.identity:
                    w[g] = rng.choice(list(x.hgroup.elements()))
            moved = transform_cocycle(group, x, cls.representative,
                                      gamma, tuple(w))
            assert cocycle_violations(group, x, moved) == []
            assert h1.class_of(moved) == i


def test_witness_must_fix_the_identity():
    group = make_cyclic(2)
    x = xmod_abelian(make_cyclic(2))
    c = trivial_cocycle(group, x)
    with pytest.raises(ValueError, match="identity"):
        transform_cocycle(group, x, c, 0, (1, 0))


def test_are_cohomologous_agrees_with_the_quotient():
    group = make_cyclic(2)
    x = xmod_identity(make_cyclic(2))
    cocycles = enumerate_Z1(group, x)
    h1 = compute_H1(group, x)
    for a in cocycles:
        for b in cocycles:
            wit = are_cohomologous(group, x, a, b)
            same = h1.class_of(a) == h1.class_of(b)
            assert (wit is not None) == same
            if wit is not None:
                moved = transform_cocycle(group, x, a, wit.gamma, wit.w)
                assert moved.key() == b.key()


def test_witness_search_budget_guard():
    group = make_cyclic(3)
    x = xmod_identity(make_symmetric(3))
    c = trivial_cocycle(group, x)
    with pytest.raises(ResourceLimit):
        are_cohomologous(group, x, c, c, budget=5)


def test_class_sizes_partition_the_cocycle_set():
    for group in (make_cyclic(2), make_cyclic(3)):
        for x in (xmod_abelian(make_cyclic(2)),
                  xmod_identity(make_cyclic(2)),
                  inclusion_c2_in_c4()):
            cocycles = enumerate_Z1(group, x)
            h1 = compute_H1(group, x)
            assert sum(cls.size for cls in h1.classes) == len(cocycles)
            assert h1.basepoint is not None
            base = h1.classes[h1.basepoint]
            assert base.representative.key() \
                == trivial_cocycle(group, x).key()


def test_strict_quotient_refines_the_full_one():
    group = make_cyclic(2)
    x = inclusion_c2_in_c4()
    full = compute_H1(group, x)
    strict = compute_H1(group, x, strict=True)
    assert strict.size() >= full.size()
    # every strict class sits inside a single full class
    for cls in strict.classes:
        full.class_of(cls.representative)


def test_foreign_cocycle_is_rejected_by_class_of():
    group = make_cyclic(2)
    h1 = compute_H1(group, xmod_abelian(make_cyclic(2)))
    unnormalized = Cocycle1((0, 0), (1, 0, 0, 0))
    with pytest.raises(ValueError, match="not in the enumerated set"):
        h1.class_of(unnormalized)


# ---------------------------------------------------------------------------
# free-and-faithful variant
# ---------------------------------------------------------------------------

def test_free_faithful_classes_are_the_ff_slice_of_the_full_quotient():
    group = make_cyclic(2)
    x = inclusion_c2_in_c4()
    full = compute_H1(group, x)
    ff = compute_H1_ff(group, x)
    assert ff.basepoint is None
    assert all(cls.free_faithful for cls in ff.classes)
    want = [cls.representative.key() for cls in full.classes
            if cls.free_faithful]
    assert [cls.representative.key() for cls in ff.classes] == want
    # membership is a class invariant: spot-check each full class
    for cls in full.classes:
        for gamma in x.ggroup.elements():
            moved = transform_cocycle(group, x, cls.representative, gamma,
                                      (0,) * group.order)
            assert is_free_faithful(group, x, moved) == cls.free_faithful


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

def test_pushforward_along_a_morphism():
    c2, c4 = make_cyclic(2), make_cyclic(4)
    src, tgt = xmod_abelian(c2), xmod_abelian(c4)
    m = XModMorphism(src, tgt, (0, 2), (0,))
    group = make_cyclic(2)
    for c in enumerate_Z1(group, src):
        out = pushforward(m, group, c)
        assert cocycle_violations(group, tgt, out) == []
        assert out.u == tuple(2 * v for v in c.u)


def test_morphism_axioms_are_checked():
    c2, c4 = make_cyclic(2), make_cyclic(4)
    with pytest.raises(ValueError, match="H-map"):
        XModMorphism(xmod_abelian(c2), xmod_abelian(c4), (0, 1), (0,))
    # identity on H against the doubling map on G breaks the square
    with pytest.raises(ValueError, match="boundary square"):
        XModMorphism(inclusion_c2_in_c4(), inclusion_c2_in_c4(),
                     (0, 1), (0, 2, 0, 2))


# ---------------------------------------------------------------------------
# the abelian shift
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gname", ["C2", "C3", "V4"])
@pytest.mark.parametrize("m", [2, 4])
def test_abelian_shift_is_a_bijection(gname, m):
    groups = {"C2": make_cyclic(2), "C3": make_cyclic(3),
              "V4": make_product(make_cyclic(2), make_cyclic(2))}
    group = groups[gname]
    x = xmod_abelian(make_cyclic(m))
    shift = abelian_shift(group, x)
    assert shift.h1.size() == shift.h2.order
    assert len(shift.pairs) == shift.h2.order
    assert len({coords for _, coords in shift.pairs}) == shift.h2.order
    # basepoint pairs with the zero class
    base = shift.h1.basepoint
    coords = dict(shift.pairs)[base]
    assert all(v == 0 for v in coords)
    # and the inverse map lands each H^2 class in the paired H^1 class
    inverse = {coords: i for i, coords in shift.pairs}
    for coords in shift.h2.all_classes():
        rep = shift.h2.representative_of(coords)
        back = cochain_to_cocycle(shift, group, rep)
        assert shift.h1.class_of(back) == inverse[tuple(coords)]


def test_abelian_shift_requires_a_trivial_target():
    with pytest.raises(ValueError, match="trivial target"):
        abelian_shift(make_cyclic(2), xmod_identity(make_cyclic(2)))
