"""Finite groups as multiplication tables."""

import itertools
import random

import pytest
from oracles import exponent, is_abelian, relabel_group

from xmodcoh.groups import (FiniteGroup, abelian_basis, generated_subgroup,
                            group_violations, hom_violations, make_cyclic,
                            make_product, make_symmetric, trivial_group)


def test_constructors_orders_and_abelianness():
    assert trivial_group().order == 1
    for n in (1, 2, 3, 5, 8):
        g = make_cyclic(n)
        assert g.order == n and is_abelian(g)
        assert exponent(g) == n
    s3 = make_symmetric(3)
    assert s3.order == 6 and not is_abelian(s3)
    assert make_symmetric(4).order == 24
    v4 = make_product(make_cyclic(2), make_cyclic(2))
    assert v4.order == 4 and is_abelian(v4) and exponent(v4) == 2


def test_group_axioms_of_all_constructors():
    for g in (trivial_group(), make_cyclic(6), make_symmetric(3),
              make_product(make_cyclic(2), make_cyclic(4))):
        assert group_violations(g.mul) == []


def test_group_violations_catches_broken_tables():
    # repeated entry breaks the latin-square structure
    assert group_violations(((0, 1), (1, 1))) != []
    # out-of-range entry
    assert group_violations(((0, 1), (1, 5))) != []
    # a relabeled Z/2 whose identity is element 1 is still a group
    assert group_violations(((1, 0), (0, 1))) == []


def brute_force_associativity(mul):
    n = len(mul)
    return {(a, b, c) for a in range(n) for b in range(n) for c in range(n)
            if mul[mul[a][b]][c] != mul[a][mul[b][c]]}


def test_lights_test_sees_one_swapped_pair_of_entries():
    """Swapping two entries of a non-identity row keeps the identity and
    the latin square, and breaks associativity: checking it only against
    the greedy generators still reports it, each reported triple is a real
    failure, and unbroken tables pass."""
    rng = random.Random(5)
    groups = (make_cyclic(6), make_symmetric(3), make_cyclic(8),
              make_product(make_cyclic(2), make_cyclic(4)),
              relabel_group(make_symmetric(3), [3, 5, 0, 1, 4, 2]))
    for g in groups:
        assert group_violations(g.mul) == []
        others = [x for x in g.elements() if x != g.identity]
        for _ in range(12):
            a = rng.choice(others)
            b, c = rng.sample(others, 2)
            mul = [list(row) for row in g.mul]
            mul[a][b], mul[a][c] = mul[a][c], mul[a][b]
            wrong = brute_force_associativity(mul)
            assert wrong
            problems = group_violations(mul)
            assert problems and all(p.startswith("associativity fails")
                                    or p.startswith("...") for p in problems)
            for p in problems[:10]:
                assert tuple(map(int, p[p.index("(") + 1:-1].split(", "))) \
                    in wrong


def test_tables_without_identity_are_checked_at_every_element():
    problems = group_violations(((1, 0), (0, 0)))
    assert problems[0] == "no two-sided identity element"
    wrong = brute_force_associativity(((1, 0), (0, 0)))
    assert problems[1:] == [f"associativity fails at {t}"
                            for t in sorted(wrong)]


def test_symmetric_tables_match_composition_loops():
    for n in range(1, 6):
        perms = list(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        assert make_symmetric(n).mul == tuple(
            tuple(index[tuple(p[q[i]] for i in range(n))] for q in perms)
            for p in perms)


def test_greedy_generators_generate_in_element_order():
    for g, want in ((make_cyclic(6), (1,)), (make_symmetric(3), (1, 2)),
                    (make_product(make_cyclic(4), make_cyclic(4)), (1, 4)),
                    (trivial_group(), ())):
        assert g.generators == want
        assert generated_subgroup(g, g.generators) == tuple(g.elements())


def test_inverse_and_power_and_element_order():
    g = make_cyclic(12)
    for a in g.elements():
        assert g.mul[a][g.inv[a]] == g.identity
        assert g.power(a, g.element_order(a)) == g.identity
        assert 12 % g.element_order(a) == 0
    s3 = make_symmetric(3)
    for a in s3.elements():
        assert s3.mul[a][s3.inv[a]] == s3.identity


def test_conjugation_automorphism_is_a_hom():
    s3 = make_symmetric(3)
    for gamma in s3.elements():
        mapping = tuple(s3.conj(gamma, x) for x in s3.elements())
        assert hom_violations(s3, s3, mapping) == []
        assert sorted(mapping) == list(s3.elements())


def test_hom_violations_flags_non_homomorphism():
    c4 = make_cyclic(4)
    c2 = make_cyclic(2)
    assert hom_violations(c4, c2, (0, 1, 0, 1)) == []  # reduction mod 2
    assert hom_violations(c4, c2, (0, 1, 1, 0)) != []
    assert hom_violations(c4, c2, (1, 0, 1, 0)) != []  # identity not fixed
    assert hom_violations(c4, c2, (0, 0, 0, 0)) == []  # trivial
    assert hom_violations(c4, c4, (0, 1, 2, 3)) == []  # identity


def test_generated_subgroup():
    c12 = make_cyclic(12)
    assert generated_subgroup(c12, [4]) == (0, 4, 8)
    assert generated_subgroup(c12, [3, 4]) == tuple(range(12))
    s3 = make_symmetric(3)
    assert len(generated_subgroup(s3, [a for a in s3.elements()
                                       if s3.element_order(a) == 3][:1])) == 3


def test_abelian_basis_invariant_factors():
    c6 = make_product(make_cyclic(2), make_cyclic(3))
    basis = abelian_basis(c6)
    assert tuple(basis.orders) == (6,)
    c2c4 = make_product(make_cyclic(2), make_cyclic(4))
    assert tuple(abelian_basis(c2c4).orders) == (2, 4)
    # subgroup decomposition: {0, 2} inside Z/4
    c4 = make_cyclic(4)
    sub = abelian_basis(c4, (0, 2))
    assert tuple(sub.orders) == (2,)
    assert sub.element_of(sub.vector_of(2)) == 2


def test_abelian_basis_roundtrip_all_elements():
    g = make_product(make_cyclic(2), make_cyclic(6))
    basis = abelian_basis(g)
    for a in g.elements():
        assert basis.element_of(basis.vector_of(a)) == a


def test_relabel_group_preserves_structure():
    rng = random.Random(3)
    g = make_cyclic(8)
    perm = list(g.elements())
    rng.shuffle(perm)
    h = relabel_group(g, perm)
    assert group_violations(h.mul) == []
    for a in g.elements():
        for b in g.elements():
            assert h.mul[perm[a]][perm[b]] == perm[g.mul[a][b]]


def test_nonabelian_basis_rejected():
    with pytest.raises(ValueError):
        abelian_basis(make_symmetric(3))


def test_finite_group_requires_table():
    with pytest.raises(ValueError):
        FiniteGroup(((0, 1), (1, 1)))
