"""Group cohomology with abelian coefficients: formula oracles, exhaustive
enumeration cross-checks, dual finite/circle engines, witnesses."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmodcoh.cohomology import (Cochain, _Cohomology, add_cochains,
                                bar_differential, cochain_from_function,
                                cohomology, evaluate, is_coboundary,
                                is_cocycle, normalize_cocycle, sub_cochains,
                                zero_cochain)
from xmodcoh.coefficients import finite_abelian, rational_circle
from xmodcoh.errors import ResourceLimit
from xmodcoh.groups import make_cyclic, make_product, make_symmetric, \
    relabel_group


# ---------------------------------------------------------------------------
# formula oracles
# ---------------------------------------------------------------------------

def test_cyclic_groups_with_cyclic_coefficients_match_the_period_formula():
    """H^0 = Z/m; H^k(Z/n, Z/m) = Z/gcd(n, m) for k >= 1 (trivial action)."""
    cases = [(n, m, k) for n in (2, 3, 4) for m in (2, 3, 4)
             for k in range(0, 5)]
    cases += [(6, m, k) for m in (2, 3) for k in range(0, 3)]
    cases += [(1, m, k) for m in (2, 3) for k in range(0, 3)]
    for n, m, k in cases:
        group = make_cyclic(n)
        module = finite_abelian(group, (m,))
        want = (m,) if k == 0 else ((gcd(n, m),) if gcd(n, m) > 1 else ())
        got = cohomology(group, module, k).invariant_factors
        assert got == want, (n, m, k, got, want)


def test_cyclic_groups_with_circle_coefficients():
    """H^1(Z/n, Q/Z) = Z/n, H^2 = 0, H^3 = Z/n."""
    for n in (2, 3, 4):
        group = make_cyclic(n)
        qz = rational_circle(group)
        assert cohomology(group, qz, 1).invariant_factors == (n,)
        assert cohomology(group, qz, 2).invariant_factors == ()
        assert cohomology(group, qz, 3).invariant_factors == (n,)


def test_circle_factors_of_mixed_orders_ascend():
    """Over C2 x C4: H^1(., Q/Z) = Hom(C2 x C4, Q/Z) = Z/2 + Z/4 and H^2 is
    the Schur multiplier Z/2; representatives classify to unit
    coordinates."""
    group = make_product(make_cyclic(2), make_cyclic(4))
    qz = rational_circle(group)
    for degree, want in ((1, (2, 4)), (2, (2,))):
        h = cohomology(group, qz, degree)
        assert h.invariant_factors == want
        for i, rep in enumerate(h.representatives):
            assert h.classify(rep) == tuple(int(j == i)
                                            for j in range(len(want)))


def test_klein_four_group_mod_two_betti_numbers():
    """H^k((Z/2)^r, Z/2) has dimension C(k+r-1, r-1) (polynomial algebra on
    r generators, Poincare series 1/(1-t)^r): k+1 for r = 2 and 1, 3, 6,
    10, 15 for r = 3.  H^4((Z/2)^3, Z/2), a 16,807 x 2,401 differential, is
    the largest elimination in the suite."""
    c2 = make_cyclic(2)
    v4 = make_product(c2, c2)
    for group, dims in ((v4, (1, 2, 3, 4)),
                        (make_product(v4, c2), (1, 3, 6, 10, 15))):
        module = finite_abelian(group, (2,))
        for k, dim in enumerate(dims):
            factors = cohomology(group, module, k).invariant_factors
            assert factors == (2,) * dim


def test_symmetric_group_low_degrees():
    """H^1(S3, Z/6) = Z/2 by abelianization; H^1(S3, Q/Z) = Hom(S3, Q/Z) =
    Z/2; H^2(S3, Q/Z) = Hom(Schur multiplier, Q/Z) = 0 since the Schur
    multiplier of S3 is trivial; H^3(S3, Q/Z) = H^4(S3, Z) = Z/6, computed
    at the composite denominators 6 and 36, and its representative
    classifies to the unit coordinate."""
    s3 = make_symmetric(3)
    assert cohomology(s3, finite_abelian(s3, (6,)), 1).invariant_factors \
        == (2,)
    assert cohomology(s3, rational_circle(s3), 1).invariant_factors == (2,)
    assert cohomology(s3, rational_circle(s3), 2).invariant_factors == ()
    h3 = cohomology(s3, rational_circle(s3), 3)
    assert h3.invariant_factors == (6,)
    assert h3.denominator == 6
    assert [h3.classify(rep) for rep in h3.representatives] == [(1,)]


def test_twisted_inversion_action_oracle():
    """Nontrivial actions, hand-computed: Z/2 on Z/3 by inversion kills
    everything (coprime orders); Z/2 on Z/4 by inversion gives H^1 = H^2 =
    Z/2 (Z^1 = Z/4, B^1 = 2Z/4; H^2 = fixed points / zero norm)."""
    c2 = make_cyclic(2)
    tw3 = finite_abelian(c2, (3,), action=(((1,),), ((-1,),)))
    assert cohomology(c2, tw3, 1).invariant_factors == ()
    assert cohomology(c2, tw3, 2).invariant_factors == ()
    tw4 = finite_abelian(c2, (4,), action=(((1,),), ((-1,),)))
    assert cohomology(c2, tw4, 1).invariant_factors == (2,)
    assert cohomology(c2, tw4, 2).invariant_factors == (2,)
    # engine credibility contrast: trivial action does see classes
    c3 = make_cyclic(3)
    assert cohomology(c3, finite_abelian(c3, (3,)), 1).invariant_factors \
        == (3,)


def test_mixed_moduli_match_the_direct_sum_of_the_summands():
    """Z/2 + Z/4 with trivial action: H^n is H^n(Z/2) + H^n(Z/4), and its
    representatives classify back to the unit coordinates."""
    c2 = make_cyclic(2)
    for group in (c2, make_cyclic(4), make_product(c2, c2),
                  make_symmetric(3)):
        mixed = finite_abelian(group, (2, 4))
        for degree in range(0, 4):
            h = cohomology(group, mixed, degree)
            want = sorted(
                cohomology(group, finite_abelian(group, (2,)),
                           degree).invariant_factors
                + cohomology(group, finite_abelian(group, (4,)),
                             degree).invariant_factors)
            assert list(h.invariant_factors) == want, (group.order, degree)
            for i, rep in enumerate(h.representatives):
                unit = tuple(int(j == i) for j in range(len(want)))
                assert h.classify(rep) == unit


def test_mixed_moduli_with_a_twisted_summand():
    """C2 fixing Z/2 and inverting Z/4: every H^n is Z/2 + Z/2 (for the
    inverted Z/4, fixed points and norm kernel are 2Z/4 and Z/4 against
    norm image 0 and (1-g)Z/4 = 2Z/4).  Representatives classify to unit
    coordinates; coboundaries of unnormalized cochains classify to zero and
    have witnesses."""
    c2 = make_cyclic(2)
    module = finite_abelian(c2, (2, 4), action=(((1, 0), (0, 1)),
                                                ((1, 0), (0, -1))))
    rng = random.Random(47)
    for degree in range(0, 4):
        h = cohomology(c2, module, degree)
        assert h.invariant_factors == (2, 2)
        assert h.classify(h.representative_of((1, 0))) == (1, 0)
        assert h.classify(h.representative_of((0, 1))) == (0, 1)
        if degree == 0:
            continue
        for _ in range(5):
            c = Cochain(degree - 1,
                        tuple((rng.randrange(2), rng.randrange(4))
                              for _ in range(2 ** (degree - 1))), False)
            dc = bar_differential(c2, module, c)
            assert h.classify(dc) == (0, 0)
            fixed, shift = normalize_cocycle(c2, module, dc)
            assert fixed.normalized
            if shift is not None:
                assert add_cochains(c2, module, fixed, bar_differential(
                    c2, module, shift)).values == dc.values
            wit = h.coboundary_witness(dc)
            assert wit is not None
            assert bar_differential(c2, module, wit).values == fixed.values


def test_circle_inversion_action():
    """Q/Z with inversion over Z/2: H^1 = 0, H^2 = Z/2."""
    c2 = make_cyclic(2)
    tw = rational_circle(c2, multipliers=(1, -1))
    assert cohomology(c2, tw, 1).invariant_factors == ()
    assert cohomology(c2, tw, 2).invariant_factors == (2,)


# ---------------------------------------------------------------------------
# the differential against an entry-by-entry oracle
# ---------------------------------------------------------------------------

def reference_differential(group, module, c):
    """The inhomogeneous-bar coboundary, entry by entry on the table:

    (dc)(g1,...,g_{n+1}) = g1.c(g2,...,g_{n+1})
      + sum_i (-1)^i c(g1,...,g_i g_{i+1},...,g_{n+1})
      + (-1)^{n+1} c(g1,...,g_n)
    """
    n, order = c.degree, group.order

    def at(args):
        idx = 0
        for a in args:
            idx = idx * order + a
        return c.values[idx]

    out = []
    for args in itertools.product(range(order), repeat=n + 1):
        acc = module.act(args[0], at(args[1:]))
        sign = 1
        for i in range(1, n + 1):
            sign = -sign
            merged = args[:i - 1] + (group.mul[args[i - 1]][args[i]],) \
                + args[i + 1:]
            acc = module.add(acc, module.scale(sign, at(merged)))
        acc = module.add(acc, module.scale(-sign, at(args[:-1])))
        out.append(acc)
    return tuple(out)


def random_cochain(rng, group, module, degree, normalized):
    """Seeded random table; Q/Z values on mixed denominators, some not
    dividing |G|."""
    def value(*args):
        if normalized and group.identity in args:
            return module.zero()
        if module.factors:
            return tuple(rng.randrange(d) for d in module.factors)
        q = rng.choice((1, 2, 3, 4, 5, 6, 12))
        return Fraction(rng.randrange(q), q)
    return cochain_from_function(group, module, degree, value)


def test_differential_matches_the_entry_by_entry_oracle():
    """bar_differential and is_cocycle agree with the reference formula on
    random cochains (normalized and not) and on reference coboundaries, in
    degrees 0..3, over trivial, twisted, mixed-moduli and Q/Z modules."""
    c2, c3 = make_cyclic(2), make_cyclic(3)
    s3, v4 = make_symmetric(3), make_product(c2, c2)
    modules = [finite_abelian(g, (2,)) for g in (c2, c3, s3, v4)]
    modules.append(finite_abelian(c2, (2, 4), action=(((1, 0), (0, 1)),
                                                      ((1, 0), (0, -1)))))
    modules.append(rational_circle(c2, multipliers=(1, -1)))
    rng = random.Random(53)
    cocycles = 0
    for module in modules:
        group = module.group
        for degree in range(0, 4):
            for normalized in (False, True):
                for _ in range(3):
                    c = random_cochain(rng, group, module, degree,
                                       normalized)
                    want = reference_differential(group, module, c)
                    dc = bar_differential(group, module, c)
                    assert dc.degree == degree + 1
                    assert dc.values == want
                    closed = all(module.is_zero(v) for v in want)
                    assert is_cocycle(group, module, c) == closed
                    cocycles += closed
                    assert is_cocycle(group, module,
                                      Cochain(degree + 1, want, False))
    # both answers of is_cocycle occur on the random cochains
    assert 0 < cocycles < 144


# ---------------------------------------------------------------------------
# exhaustive enumeration cross-checks
# ---------------------------------------------------------------------------

def brute_force_cohomology(group, m, degree):
    """Classes of Z^degree(group, Z/m)/B by full enumeration (trivial
    action); returns (group order, multiset of class orders)."""
    module = finite_abelian(group, (m,))
    n = group.order
    positions = n ** degree

    def all_cochains(deg):
        for combo in itertools.product(range(m), repeat=n ** deg):
            yield Cochain(deg, tuple((v,) for v in combo), False)

    cocycles = [c for c in all_cochains(degree)
                if is_cocycle(group, module, c)]
    coboundaries = {bar_differential(group, module, c).values
                    for c in all_cochains(degree - 1)}
    classes = {}
    for c in cocycles:
        marked = False
        for rep in classes:
            if sub_cochains(group, module, c,
                            Cochain(degree, rep, False)).values \
                    in coboundaries:
                classes[rep] += 1
                marked = True
                break
        if not marked:
            classes[c.values] = 1
    assert positions == n ** degree
    return len(classes)


@pytest.mark.parametrize("n,m,degree,want", [
    (2, 2, 2, 2),   # H^2(Z/2, Z/2) = Z/2
    (2, 2, 1, 2),   # H^1(Z/2, Z/2) = Z/2
    (3, 3, 2, 3),   # H^2(Z/3, Z/3) = Z/3
    (2, 4, 2, 2),   # H^2(Z/2, Z/4) = Z/2
])
def test_exhaustive_class_counts_match_engine(n, m, degree, want):
    group = make_cyclic(n)
    module = finite_abelian(group, (m,))
    assert brute_force_cohomology(group, m, degree) == want
    assert cohomology(group, module, degree).order == want


# ---------------------------------------------------------------------------
# dual engines and invariances
# ---------------------------------------------------------------------------

def test_circle_answer_is_independent_of_the_working_denominator():
    """The reported Q/Z factors must not depend on the starting grid, and
    the Klein-four circle groups match the degree-shifted integral values
    (2,2), (2,), (2,2,2)."""
    v4 = make_product(make_cyclic(2), make_cyclic(2))
    for group, want in ((make_cyclic(2), [(2,), (), (2,)]),
                        (make_cyclic(4), [(4,), (), (4,)]),
                        (v4, [(2, 2), (2,), (2, 2, 2)])):
        qz = rational_circle(group)
        for degree in (1, 2, 3):
            a = cohomology(group, qz, degree, denominator=group.order)
            b = cohomology(group, qz, degree, denominator=2 * group.order)
            assert a.invariant_factors == want[degree - 1]
            assert b.invariant_factors == want[degree - 1]


def test_finite_classes_push_into_the_circle_as_the_textbook_says():
    """Reducing Z/n values a to a/n in Q/Z: on H^1 of a cyclic group the
    induced map is injective (homomorphisms persist); on H^2 every class
    dies (cyclic extensions by Z/n split after pushing into Q/Z)."""
    for n in (2, 4):
        group = make_cyclic(n)
        fin = finite_abelian(group, (n,))
        qz = rational_circle(group)
        for degree, injective in ((1, True), (2, False)):
            hf = cohomology(group, fin, degree)
            hq = cohomology(group, qz, degree, denominator=n)
            images = []
            for coords in hf.all_classes():
                rep = hf.representative_of(coords)
                push = Cochain(degree,
                               tuple(Fraction(int(v[0]), n) % 1
                                     for v in rep.values),
                               rep.normalized)
                assert is_cocycle(group, qz, push)
                images.append(hq.classify(push))
            if injective:
                assert len(set(images)) == len(images) == hf.order
            else:
                assert all(all(x == 0 for x in img) for img in images)


def test_relabeling_invariance():
    rng = random.Random(41)
    for g, degrees in ((make_product(make_cyclic(2), make_cyclic(2)),
                        (1, 2, 3)),
                       (make_product(make_cyclic(2), make_cyclic(4)),
                        (1, 2))):
        perm = list(g.elements())
        rng.shuffle(perm)
        h = relabel_group(g, perm)
        for degree in degrees:
            a = cohomology(g, finite_abelian(g, (2,)),
                           degree).invariant_factors
            b = cohomology(h, finite_abelian(h, (2,)),
                           degree).invariant_factors
            assert a == b


# ---------------------------------------------------------------------------
# classification machinery
# ---------------------------------------------------------------------------

def test_classify_representative_roundtrip():
    group = make_product(make_cyclic(2), make_cyclic(2))
    module = finite_abelian(group, (2,))
    h2 = cohomology(group, module, 2)
    for coords in h2.all_classes():
        rep = h2.representative_of(coords)
        assert is_cocycle(group, module, rep)
        assert h2.classify(rep) == coords


def test_witness_recovers_coboundaries():
    group = make_cyclic(4)
    module = finite_abelian(group, (4,))
    h2 = cohomology(group, module, 2)
    rng = random.Random(43)
    for _ in range(10):
        f = cochain_from_function(
            group, module, 1,
            lambda g: (rng.randrange(4),) if g != group.identity else (0,))
        df = bar_differential(group, module, f)
        assert h2.classify(df) == (0,) * len(h2.invariant_factors)
        wit = h2.coboundary_witness(df)
        assert wit is not None
        assert bar_differential(group, module, wit).values == df.values
    # a nonzero class has no witness
    rep = h2.representative_of((1,))
    assert h2.coboundary_witness(rep) is None
    assert not is_coboundary(group, module, rep)


def test_classify_rejects_non_cocycles():
    group = make_cyclic(2)
    module = finite_abelian(group, (2,))
    h2 = cohomology(group, module, 2)
    bad = Cochain(2, ((0,), (0,), (0,), (1,)), False)
    bad = add_cochains(group, module, bad,
                       Cochain(2, ((0,), (1,), (0,), (0,)), False))
    if is_cocycle(group, module, bad):
        pytest.skip("perturbation landed on a cocycle")
    with pytest.raises(ValueError):
        h2.classify(bad)


def test_quotient_solves_on_free_coordinates_and_checks_every_row():
    """A cocycle is fixed by its coordinates on the columns no unit pivot
    took.  A vector that agrees with a cocycle there but not at one pivot
    coordinate is no cocycle, and the quotient must refuse it."""
    v4 = make_product(make_cyclic(2), make_cyclic(2))
    s3 = make_symmetric(3)
    for group, moduli, degree in ((v4, (2,), 2), (s3, (6,), 2),
                                  (s3, (2, 4), 1)):
        quot = _Cohomology(group, finite_abelian(group, moduli),
                           degree).quot
        free = set(quot.free.tolist())
        pivot = next(j for j in range(quot.gens.shape[0]) if j not in free)
        for i in range(quot.gens.shape[1]):
            vec = quot.gens[:, i].copy()
            quot.coordinates(vec)
            vec[pivot] = (vec[pivot] + 1) % quot.m
            with pytest.raises(ValueError, match="cocycle lattice"):
                quot.coordinates(vec)


def test_circle_witness_exactness():
    group = make_cyclic(3)
    qz = rational_circle(group)
    h3 = cohomology(group, qz, 3)
    assert h3.invariant_factors == (3,)
    rep = h3.representative_of((1,))
    assert is_cocycle(group, qz, rep)
    assert h3.classify(rep) == (1,)
    doubled = add_cochains(group, qz, rep, rep)
    tripled = add_cochains(group, qz, doubled, rep)
    assert h3.classify(doubled) == (2,)
    assert h3.classify(tripled) == (0,)
    wit = h3.coboundary_witness(tripled)
    assert wit is not None
    assert bar_differential(group, qz, wit).values == tripled.values


# ---------------------------------------------------------------------------
# structural properties (hypothesis)
# ---------------------------------------------------------------------------

@st.composite
def small_cochain(draw):
    n = draw(st.sampled_from([2, 3]))
    m = draw(st.sampled_from([2, 4]))
    degree = draw(st.sampled_from([1, 2]))
    values = draw(st.lists(st.integers(0, m - 1),
                           min_size=n ** degree, max_size=n ** degree))
    return n, m, degree, tuple((v,) for v in values)


@settings(max_examples=60, deadline=None)
@given(small_cochain())
def test_differential_squares_to_zero(data):
    n, m, degree, values = data
    group = make_cyclic(n)
    module = finite_abelian(group, (m,))
    c = Cochain(degree, values, False)
    dc = bar_differential(group, module, c)
    ddc = bar_differential(group, module, dc)
    assert all(module.is_zero(v) for v in ddc.values)


@settings(max_examples=40, deadline=None)
@given(small_cochain())
def test_coboundaries_classify_to_zero(data):
    n, m, degree, values = data
    group = make_cyclic(n)
    module = finite_abelian(group, (m,))
    dc = bar_differential(group, module, Cochain(degree, values, False))
    h = cohomology(group, module, degree + 1)
    assert h.classify(dc) == (0,) * len(h.invariant_factors)


def test_evaluate_and_zero_cochain():
    group = make_cyclic(3)
    module = finite_abelian(group, (5,))
    z = zero_cochain(group, module, 2)
    assert evaluate(group, z, (1, 2)) == (0,)
    f = cochain_from_function(group, module, 2,
                              lambda a, b: ((a * b) % 5,))
    assert evaluate(group, f, (2, 2)) == (4,)


def test_budget_guard_fires():
    group = make_symmetric(4)
    module = finite_abelian(group, (2,))
    with pytest.raises(ResourceLimit):
        cohomology(group, module, 4, max_positions=1000)


def test_degree_bounds():
    group = make_cyclic(2)
    module = finite_abelian(group, (2,))
    with pytest.raises(ValueError):
        cohomology(group, module, -1)


def test_fraction_values_reduce_on_circle():
    group = make_cyclic(2)
    qz = rational_circle(group)
    c = cochain_from_function(group, qz, 1,
                              lambda g: Fraction(3, 2) if g else Fraction(0))
    assert evaluate(group, c, (1,)) == Fraction(1, 2)
