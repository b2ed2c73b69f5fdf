"""Group cohomology with abelian coefficients: formula oracles, exhaustive
enumeration cross-checks, circle coefficients against integral cohomology,
witnesses."""

import itertools
import json
import random
from fractions import Fraction
from math import gcd, lcm, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import columns_matrix, relabel_group, smith_stable
from scipy import sparse

from xmodcoh import cli, intlinalg, modsnf, obstruction
from xmodcoh import cohomology as cohomology_module
from xmodcoh.cohomology import (Cochain, _BarComplex, _Quotient,
                                add_cochains, bar_differential,
                                cochain_from_coords, cochain_from_function,
                                cohomology, evaluate, is_cocycle,
                                normalize_cocycle, scale_cochain,
                                sub_cochains)
from xmodcoh.coefficients import finite_abelian, rational_circle
from xmodcoh.errors import InvariantError, ResourceLimit
from xmodcoh.groups import make_cyclic, make_product, make_symmetric

PRESETS = Path(__file__).resolve().parents[1] / "presets"


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
            c = cochain_from_coords(
                c2, module, degree - 1,
                [x for _ in range(2 ** (degree - 1))
                 for x in (rng.randrange(2), rng.randrange(4))])
            dc = bar_differential(c2, module, c)
            assert h.classify(dc) == (0, 0)
            fixed, shift = normalize_cocycle(c2, module, dc)
            assert all(evaluate(c2, fixed, args) == (0, 0) for args in
                       itertools.product(range(2), repeat=degree)
                       if c2.identity in args)
            if shift is not None:
                assert add_cochains(c2, module, fixed, bar_differential(
                    c2, module, shift)) == dc
            wit = h.coboundary_witness(dc)
            assert wit is not None
            assert bar_differential(c2, module, wit) == dc


def test_circle_inversion_action():
    """Q/Z with inversion over Z/2: H^1 = 0, H^2 = Z/2."""
    c2 = make_cyclic(2)
    tw = rational_circle(c2, multipliers=(1, -1))
    assert cohomology(c2, tw, 1).invariant_factors == ()
    assert cohomology(c2, tw, 2).invariant_factors == (2,)


def test_circle_h0_is_finite_only_under_a_nontrivial_action():
    """Under the sign action H^0(G; Q/Z) = {x : -x = x} = Z/2; under the
    trivial action it is Q/Z itself and is refused."""
    for n in (2, 4):
        group = make_cyclic(n)
        signs = tuple((-1) ** i for i in range(n))
        h = cohomology(group, rational_circle(group, signs), 0)
        assert h.invariant_factors == (2,)
        with pytest.raises(ValueError, match="infinite"):
            cohomology(group, rational_circle(group), 0)


# ---------------------------------------------------------------------------
# the differential against an entry-by-entry oracle
# ---------------------------------------------------------------------------

class Arithmetic:
    """Element arithmetic of a coefficient module, for the oracles:
    coordinate tuples reduced mod the factors, or fractions mod 1."""

    def __init__(self, module):
        self.factors, self.action = module.factors, module.action

    def zero(self):
        return (0,) * len(self.factors) if self.factors else Fraction(0)

    def add(self, a, b):
        if self.factors:
            return tuple((x + y) % d for x, y, d in zip(a, b, self.factors))
        return (a + b) % 1

    def scale(self, k, a):
        if self.factors:
            return tuple(k * x % d for x, d in zip(a, self.factors))
        return k * a % 1

    def act(self, g, a):
        if self.factors:
            mat = self.action[g]
            return tuple(sum(t * x for t, x in zip(row, a)) % d
                         for row, d in zip(mat, self.factors))
        return self.action[g] * a % 1


def reference_differential(group, module, c):
    """The inhomogeneous-bar coboundary, entry by entry on the table read
    once through ``evaluate``, in the oracle's element arithmetic:

    (dc)(g1,...,g_{n+1}) = g1.c(g2,...,g_{n+1})
      + sum_i (-1)^i c(g1,...,g_i g_{i+1},...,g_{n+1})
      + (-1)^{n+1} c(g1,...,g_n)

    Returns the values by argument tuple.
    """
    n, order, ar = c.degree, group.order, Arithmetic(module)
    at = {args: evaluate(group, c, args)
          for args in itertools.product(range(order), repeat=n)}
    out = {}
    for args in itertools.product(range(order), repeat=n + 1):
        acc = ar.act(args[0], at[args[1:]])
        sign = 1
        for i in range(1, n + 1):
            sign = -sign
            merged = args[:i - 1] + (group.mul[args[i - 1]][args[i]],) \
                + args[i + 1:]
            acc = ar.add(acc, ar.scale(sign, at[merged]))
        acc = ar.add(acc, ar.scale(-sign, at[args[:-1]]))
        out[args] = acc
    return out


def random_cochain(rng, group, module, degree, normalized):
    """Seeded random table; Q/Z values on mixed denominators, some not
    dividing |G|."""
    def value(*args):
        if normalized and group.identity in args:
            return Arithmetic(module).zero()
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
                    table = reference_differential(group, module, c)
                    want = cochain_from_function(
                        group, module, degree + 1, lambda *a: table[a])
                    dc = bar_differential(group, module, c)
                    assert dc.degree == degree + 1
                    assert dc == want
                    closed = all(v == Arithmetic(module).zero()
                                 for v in table.values())
                    assert is_cocycle(group, module, c) == closed
                    cocycles += closed
                    assert is_cocycle(group, module, want)
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
            yield cochain_from_coords(group, module, deg, combo)

    cocycles = [c for c in all_cochains(degree)
                if is_cocycle(group, module, c)]
    coboundaries = {bar_differential(group, module, c)
                    for c in all_cochains(degree - 1)}
    classes = {}
    for c in cocycles:
        marked = False
        for rep in classes:
            if sub_cochains(group, module, c, rep) in coboundaries:
                classes[rep] += 1
                marked = True
                break
        if not marked:
            classes[c] = 1
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


def integral_torsion(group, multipliers, n):
    """The torsion of the cokernel of the integer normalized bar
    differential d_n, which is H^{n+1}(group; Z) with Z acted on by the
    multipliers.

    d_n is read off the normalized complex of Z/M for a large odd M, with
    entries lifted to the symmetric range and repeated entries summed."""
    big = 1_000_003
    module = finite_abelian(group, (big,),
                            tuple(((e,),) for e in multipliers))
    cx = _BarComplex(group, module, None,
                     [g for g in group.elements() if g != group.identity])
    rows, cols, vals = cx._diff_triples(n)
    d = sparse.csc_matrix((vals, (rows, cols)),
                          shape=(cx.dim(n + 1), cx.dim(n)))
    d.sum_duplicates()
    columns = []
    for j in range(d.shape[1]):
        lo, hi = d.indptr[j], d.indptr[j + 1]
        col = {int(r): (int(x) + big // 2) % big - big // 2
               for r, x in zip(d.indices[lo:hi], d.data[lo:hi])}
        columns.append({r: x for r, x in col.items() if x})
    return intlinalg.sparse_rank_torsion(columns_matrix(columns))[1]


def test_circle_cohomology_is_integral_cohomology_one_degree_up():
    """H^n(G; Q/Z_e) = H^{n+1}(G; Z_e) for n >= 1, computed independently
    as the torsion of an integer cokernel.  ``stable`` says whether
    H^n(G; Z/m0) at the working denominator m0 already has that order."""
    c6 = make_cyclic(6)
    c2, c3 = make_cyclic(2), make_cyclic(3)
    cases = [(c6, (1,) * 6), (c6, tuple((-1) ** i for i in range(6))),
             (make_product(c2, c2), (1,) * 4),
             (make_product(c2, make_cyclic(4)), (1,) * 8),
             (make_symmetric(3), (1,) * 6),
             (make_product(c3, c3), (1,) * 9)]
    unstable = set()
    for group, mult in cases:
        for n in (1, 2, 3):
            h = cohomology(group, rational_circle(group, mult), n)
            assert h.invariant_factors == integral_torsion(group, mult, n), \
                (group.label, mult, n)
            m0 = finite_abelian(group, (h.denominator,),
                                tuple(((e,),) for e in mult))
            assert h.stable == (cohomology(group, m0, n).order == h.order)
            if not h.stable:
                unstable.add((group.label, n))
    assert {("C2xC2", 3), ("C3xC3", 3)} <= unstable


def test_stable_by_counting_equals_a_second_elimination():
    """``stable`` compares the order of H^n(G; Z/m0), counted as
    |Z^n| |Z^{n-1}| / m0^dim C^{n-1} from the two kernels, with the Q/Z
    answer.  A Smith form of the relations without the Bockstein columns
    (``oracles.smith_stable``) gives the same flag over trivial and
    sign-twisted Q/Z in degrees 1..4, at m0 = |G| and at m0 = 2|G|."""
    c2, c4, s3 = make_cyclic(2), make_cyclic(4), make_symmetric(3)
    # the even permutations of S3 are those with g^3 = e
    s3_sign = tuple(1 if s3.mul[s3.mul[g][g]][g] == s3.identity else -1
                    for g in s3.elements())
    signs = [(c2, (1, -1)), (make_cyclic(3), None), (c4, (1, -1) * 2),
             (make_cyclic(7), None), (s3, s3_sign),
             (make_product(c2, c2), (1, 1, -1, -1)),
             (make_product(c2, c4), (1,) * 4 + (-1,) * 4)]
    cases = flags = 0
    for group, sign in signs:
        for mult in filter(None, [(1,) * group.order, sign]):
            for n in (1, 2, 3, 4):
                if (group.order - 1) ** (n + 1) > 8_000:
                    continue
                for denominator in (None, 2 * group.order):
                    h = cohomology(group, rational_circle(group, mult), n,
                                   denominator)
                    assert h.stable == smith_stable(h), \
                        (group.label, mult, n, denominator)
                    cases += 1
                    flags += h.stable
    assert cases >= 80 and 0 < flags < cases


def test_a_z1_summand_is_the_zero_group():
    """The identity must act as the identity matrix mod each factor, and
    mod 1 every entry does.  So a Z/1 summand is accepted and changes
    nothing: over C2, C4 and S3 in degrees 0..3, H^n(G; Z/1 + Z/2) has the
    factors of H^n(G; Z/2), and H^n(G; Z/1) = 0."""
    for group in (make_cyclic(2), make_cyclic(4), make_symmetric(3)):
        for n in range(4):
            h = cohomology(group, finite_abelian(group, (1, 2)), n)
            assert h.invariant_factors == cohomology(
                group, finite_abelian(group, (2,)), n).invariant_factors
            for coords in h.all_classes():
                assert h.classify(h.representative_of(coords)) == coords
            assert cohomology(group, finite_abelian(group, (1,)), n
                              ).order == 1


def test_circle_cohomology_takes_one_kernel_of_the_outgoing_differential(
        monkeypatch):
    """Q/Z cohomology eliminates the generator-first rows of the outgoing
    differential once, at the working denominator, |S|*e^n of its e^(n+1)
    rows; the only other kernel is of the incoming differential's
    generator-first rows mod |G|, for the Bockstein columns."""
    calls = []
    real = modsnf.mod_kernel

    def spy(a, m):
        calls.append((a.shape, m))
        return real(a, m)

    monkeypatch.setattr(modsnf, "mod_kernel", spy)
    v4 = make_product(make_cyclic(2), make_cyclic(2))
    for group, n in ((make_cyclic(4), 3), (v4, 2), (make_symmetric(3), 3)):
        calls.clear()
        h = cohomology(group, rational_circle(group), n)
        e, gens = group.order - 1, len(group.generators)
        assert calls == [((gens * e ** n, e ** n), h.denominator),
                         ((gens * e ** (n - 1), e ** (n - 1)), group.order)]


def kernel_order(a, m):
    return prod(modsnf.mod_kernel(a, m).orders)


def full_row_factors(group, module, n):
    """The kernel orders of the normalized outgoing differential on every
    row and on the generator-first rows, and the invariant factors of
    H^n from the full-row kernels (of the Bockstein's incoming differential
    too, for Q/Z)."""
    circle = module.kind == "rational-circle"
    s = group.order if circle else 1
    elements = [g for g in group.elements() if g != group.identity]
    cx = _BarComplex(group, module, s if circle else None, elements)
    m = cx.m
    rows = cx.generator_rows(n + 1)
    d = cx.differential(n)
    d = d._replace(vals=d.vals * cx.row_scale(n + 1)[d.rows])
    orders = kernel_order(d, m), kernel_order(intlinalg.take_rows(d, rows), m)
    l_cols = [cx.differential(n - 1), cx.relations(n)]
    if circle:
        dw = cx.differential(n - 1, s * s)
        b = modsnf.mod_kernel(dw, s).basis()
        assert kernel_order(dw, s) == \
            kernel_order(intlinalg.take_rows(dw, cx.generator_rows(n)), s)
        l_cols.append(intlinalg.times_dense(intlinalg.row_terms(dw), b)
                      % (s * s) // s)
    return orders, _Quotient(modsnf.mod_kernel(d, m), l_cols).factors


# the free columns of every mod_kernel call three goldens make, with the
# shape and modulus of the generator-row matrix: class coordinates are
# read on these columns, so a changed pivot order shows here first
KERNEL_FREE_COLUMNS = {
    "h3-c4-qz": [((27, 27), 4, [0, 1, 2, 5, 6, 7, 8]),
                 ((9, 9), 4, [2, 4, 7])],
    "bockstein-c2c2": [((54, 27), 2, [1, 2, 6, 7, 9, 10, 11, 15, 17]),
                       ((18, 9), 2, [2, 3, 4, 6])],
    "h2-c2-z2": [((1, 1), 2, [0])],
}


@pytest.mark.parametrize("name", sorted(KERNEL_FREE_COLUMNS))
def test_the_kernel_basis_of_three_goldens_is_pinned(monkeypatch, name):
    calls = []
    real = modsnf.mod_kernel

    def spy(a, m):
        out = real(a, m)
        calls.append((a.shape, m, sorted({j for part in out.parts
                                          for j in part.free.tolist()})))
        return out

    monkeypatch.setattr(modsnf, "mod_kernel", spy)
    obstruction._h_cached.cache_clear()
    bundle = json.loads((PRESETS / f"{name}.bundle.json").read_text())
    assert cli.run(bundle)["status"] == "ok"
    assert calls == KERNEL_FREE_COLUMNS[name]


def test_generator_rows_cut_out_the_full_cocycle_kernel():
    """A normalized cochain is a cocycle iff d of it vanishes on the rows
    whose first argument is a generator: over relabelled groups with
    trivial, twisted and Q/Z coefficients, the generator-row kernel has
    the order of the full-row kernel, and cohomology() gives the invariant
    factors of the full-row computation."""
    rng = random.Random(11)
    v4 = make_product(make_cyclic(2), make_cyclic(2))
    c2c4 = make_product(make_cyclic(2), make_cyclic(4))
    s3 = make_symmetric(3)
    sign = [1 if parity == 0 else -1 for parity in
            (sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2
             for p in itertools.permutations(range(3)))]
    cases = []
    # the full-row kernels of C2 x C4 in degree 4, of S3 in degree 4 at
    # the two-prime denominator 6 of Q/Z, and of mixed moduli past order 4
    # take seconds each, so the cases stop short of them
    for group, top, trivial in ((make_cyclic(4), 4, (2, 4)),
                                (v4, 4, (2, 4)), (c2c4, 3, (4,)),
                                (s3, 4, (9,))):
        perm = list(group.elements())
        rng.shuffle(perm)
        g = relabel_group(group, perm)
        modules = [(finite_abelian(g, trivial), top),
                   (rational_circle(g), top if g.order == 4 else 3)]
        if group is s3:
            signs = [0] * 6
            for a, x in enumerate(sign):
                signs[perm[a]] = x
            modules += [(finite_abelian(g, (9,), [((x,),) for x in signs]),
                         4), (rational_circle(g, multipliers=signs), 3)]
        cases += [(g, module, n) for module, last in modules
                  for n in range(1, last + 1)]
    for group, module, n in cases:
        (full, first), factors = full_row_factors(group, module, n)
        assert full == first, (group.label, module.label, n)
        assert cohomology(group, module, n).invariant_factors == factors, \
            (group.label, module.label, n)


def test_a_representative_that_is_not_closed_is_an_internal_error():
    """With a generator dropped, the generator-row kernel is too large, and
    the check of each representative on every row refuses it."""
    for group, module, n in ((make_cyclic(4), (2,), 2),
                             (make_symmetric(3), None, 3)):
        object.__setattr__(group, "generators", group.generators[:-1])
        module = rational_circle(group) if module is None \
            else finite_abelian(group, module)
        with pytest.raises(InvariantError, match="not a cocycle"):
            cohomology(group, module, n)


def test_the_dense_kernel_basis_is_bounded_before_any_work(monkeypatch):
    """H^4(C2^4; Z/2) passes the positions guard but its kernel basis
    would take (15^4)^2 int64 entries: it is refused before a differential
    is built, and its bundle is a resource-error."""
    v4 = make_product(make_cyclic(2), make_cyclic(2))
    c2_4 = make_product(v4, v4)
    monkeypatch.setattr(_BarComplex, "differential", None)
    with pytest.raises(ResourceLimit) as info:
        cohomology(c2_4, finite_abelian(c2_4, (2,)), 4)
    assert info.value.bound == "kernel basis bytes"
    assert info.value.needed == 15 ** 8 * 8
    monkeypatch.undo()
    report = cli.run({"schema": 1, "task": "h-n", "group": "C2xC2xC2xC2",
                      "module": "Z2-trivial", "n": 4})
    assert report["status"] == "resource-error"
    assert report["result"]["bound"] == "kernel basis bytes"
    assert report["provenance"]["wall_time_ms"] < 1000
    # the largest accepted case: 15^3 coordinates over C4 x C4
    c4c4 = make_product(make_cyclic(4), make_cyclic(4))
    qz = rational_circle(c4c4)
    monkeypatch.setattr(cohomology_module, "CohomologyGroup",
                        lambda *args: "admitted")
    assert cohomology(c4c4, qz, 3) == "admitted"
    with pytest.raises(ResourceLimit):
        cohomology(c4c4, finite_abelian(c4c4, (2, 2, 2, 4)), 3)


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
                push = cochain_from_function(
                    group, qz, degree,
                    lambda *a: Fraction(evaluate(group, rep, a)[0], n))
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
        assert bar_differential(group, module, wit) == df
    # a nonzero class has no witness
    rep = h2.representative_of((1,))
    assert h2.coboundary_witness(rep) is None
    assert cohomology(group, module, rep.degree).coboundary_witness(rep) \
        is None


def test_degree_zero_witnesses_are_refused_before_any_work(monkeypatch):
    """H^0 has no coboundaries to witness: the zero cochain, which
    classifies to zero, and a nonzero one are refused alike, and so is a
    cochain of the wrong degree, before it is read."""
    group = make_cyclic(2)
    module = finite_abelian(group, (2,))
    h0 = cohomology(group, module, 0)
    zero = cochain_from_coords(group, module, 0, [0])
    assert h0.classify(zero) == (0,) * len(h0.invariant_factors)
    monkeypatch.setattr(h0, "_vecs", None)
    for c in (zero, cochain_from_coords(group, module, 0, [1]),
              cochain_from_coords(group, module, 1, [0, 1])):
        with pytest.raises(ValueError, match="degree must be at least 1"):
            h0.coboundary_witness(c)


def test_classify_rejects_non_cocycles():
    group = make_cyclic(2)
    module = finite_abelian(group, (2,))
    h2 = cohomology(group, module, 2)
    bad = cochain_from_coords(group, module, 2, (0, 0, 0, 1))
    bad = add_cochains(group, module, bad,
                       cochain_from_coords(group, module, 2, (0, 1, 0, 0)))
    if is_cocycle(group, module, bad):
        pytest.skip("perturbation landed on a cocycle")
    with pytest.raises(ValueError):
        h2.classify(bad)


def test_a_non_cocycle_is_refused_however_it_is_built():
    """1 at (e, e) and (g, g) over C2 with Z/2 is no cocycle.  Its entries
    off the identity alone are the normalized cocycle of the nonzero class,
    so a classifier that trusted a caller's word that the table was
    normalized would answer (1,).  Normalization is read off the
    coordinates, so every way of building this cochain is refused."""
    c2 = make_cyclic(2)
    module = finite_abelian(c2, (2,))
    h2 = cohomology(c2, module, 2)
    e = c2.identity
    built = [
        Cochain(2, (1, 0, 0, 1)),
        cochain_from_coords(c2, module, 2, (1, 0, 0, 1)),
        cochain_from_coords(c2, module, 2, (3, 2, -2, 5)),
        cochain_from_function(c2, module, 2, lambda a, b: (int(a == b),)),
        add_cochains(c2, module, h2.representatives[0],
                     cochain_from_function(
                         c2, module, 2,
                         lambda a, b: (int(a == b == e),))),
    ]
    for c in built:
        assert c == built[0]
        assert not is_cocycle(c2, module, c)
        with pytest.raises(ValueError):
            normalize_cocycle(c2, module, c)
        with pytest.raises(ValueError):
            h2.classify(c)
        with pytest.raises(ValueError):
            h2.coboundary_witness(c)


def test_circle_cochains_are_canonical_at_their_least_denominator():
    """One Q/Z function built at denominator 4 with even numerators, at 8
    with unreduced numerators, and at 2 is one cochain: equal, with one
    hash, at denominator 2.  The kernel-obstruction cache of classified
    cocycles keys on it."""
    c2 = make_cyclic(2)
    qz = rational_circle(c2)
    rep = cohomology(c2, qz, 3).representatives[0]
    assert rep.denominator == 2
    at4 = cochain_from_coords(c2, qz, 3, [2 * x for x in rep.coords], 4)
    at8 = cochain_from_coords(c2, qz, 3, [4 * x + 8 for x in rep.coords], 8)
    by_values = cochain_from_function(
        c2, qz, 3, lambda *a: Fraction(2 * evaluate(c2, rep, a)) / 2 + 5)
    for c in (at4, at8, by_values):
        assert c == rep and hash(c) == hash(rep)
        assert c.denominator == 2
    zero = cochain_from_coords(c2, qz, 3, [6] * 8, 6)
    assert zero == cochain_from_coords(c2, qz, 3, [0] * 8, 1)
    assert zero.denominator == 1
    obstruction._classify_circle_cocycle.cache_clear()
    first = obstruction._classify_circle_cocycle(c2, 4, at4)
    assert obstruction._classify_circle_cocycle(c2, 4, rep) is first
    info = obstruction._classify_circle_cocycle.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert first[1] == (1,)


def test_sums_and_multiples_agree_with_the_module_arithmetic():
    """add_cochains, sub_cochains and scale_cochain agree entrywise with
    Fraction arithmetic across different Q/Z denominators, and with the
    oracle's arithmetic over Z/2 + Z/4; a Q/Z result sits at the lcm of
    its value denominators."""
    c3 = make_cyclic(3)
    qz = rational_circle(c3, multipliers=(1, 1, 1))
    mixed = finite_abelian(c3, (2, 4))
    rng = random.Random(59)
    for module in (qz, mixed):
        for degree in (0, 1, 2):
            for _ in range(8):
                a = random_cochain(rng, c3, module, degree, False)
                b = random_cochain(rng, c3, module, degree, False)
                k = rng.randrange(-7, 8)
                total = add_cochains(c3, module, a, b)
                diff = sub_cochains(c3, module, a, b)
                multiple = scale_cochain(c3, module, k, a)
                for args in itertools.product(range(3), repeat=degree):
                    x, y = evaluate(c3, a, args), evaluate(c3, b, args)
                    if module is qz:
                        assert evaluate(c3, total, args) == (x + y) % 1
                        assert evaluate(c3, diff, args) == (x - y) % 1
                        assert evaluate(c3, multiple, args) == (k * x) % 1
                    else:
                        ar = Arithmetic(module)
                        assert evaluate(c3, total, args) == ar.add(x, y)
                        assert evaluate(c3, diff, args) == \
                            ar.add(x, ar.scale(-1, y))
                        assert evaluate(c3, multiple, args) == \
                            ar.scale(k, x)
                if module is qz:
                    for c in (total, diff, multiple):
                        assert c.denominator == lcm(*[
                            evaluate(c3, c, args).denominator for args in
                            itertools.product(range(3), repeat=degree)])


def test_quotient_solves_on_free_coordinates_and_checks_every_row():
    """A cocycle is fixed by its coordinates on the columns no unit pivot
    took.  A vector that agrees with a cocycle there but not at one pivot
    coordinate is no cocycle, and the quotient must refuse it."""
    v4 = make_product(make_cyclic(2), make_cyclic(2))
    s3 = make_symmetric(3)
    for group, moduli, degree in ((v4, (2,), 2), (s3, (6,), 2),
                                  (s3, (2, 4), 1)):
        quot = cohomology(group, finite_abelian(group, moduli),
                          degree)._quot
        free = {j for part in quot.kernel.parts for j in part.free.tolist()}
        gens = quot.kernel.basis()
        pivot = next(j for j in range(gens.shape[0]) if j not in free)
        for i in range(gens.shape[1]):
            vec = gens[:, i:i + 1].copy()
            quot.coordinates(vec)
            vec[pivot] = (vec[pivot] + 1) % quot.m
            with pytest.raises(ValueError, match="cocycle lattice"):
                quot.coordinates(vec)


def read_cases():
    """(group, module, degree, invariant factors, whether every local ring
    reads kernel coordinates by a gather).  Where a ring of a prime power
    leaves a residual, the generators are not the unit vectors on its
    free columns, and the read takes the residual's column transform.
    S3 with Q/Z works at 6 = 2 * 3: each ring reads by a gather, and the
    two reads are joined by CRT."""
    c2, c4, c7 = make_cyclic(2), make_cyclic(4), make_cyclic(7)
    v4, s3, c2c4 = make_product(c2, c2), make_symmetric(3), \
        make_product(c2, c4)
    return [(c4, finite_abelian(c4, (2,)), 4, (2,), True),
            (c7, rational_circle(c7), 3, (7,), True),
            (s3, finite_abelian(s3, (9,)), 4, (3,), True),
            (v4, rational_circle(v4), 3, (2, 2, 2), False),
            (c4, finite_abelian(c4, (8,)), 3, (4,), False),
            (c2c4, finite_abelian(c2c4, (2, 4)), 2, (2, 2, 2, 2, 2, 4),
             False),
            (s3, rational_circle(s3), 3, (6,), True)]


@pytest.mark.parametrize("case", range(7))
def test_classes_read_through_a_residual_add_up(case):
    """Sums of representatives plus random coboundaries classify to the
    sums of their coordinates, a zero sum has a witness and a nonzero one
    none, on kernels read by a gather and on kernels read through a
    residual's column transform."""
    group, module, n, factors, gather = read_cases()[case]
    h = cohomology(group, module, n)
    assert h.invariant_factors == factors
    assert all(p.v_inv is None for p in h._quot.kernel.parts) == gather
    rng = random.Random(83 + case)

    def value(*args):
        if module.factors:
            return tuple(rng.randrange(d) for d in module.factors)
        return Fraction(rng.randrange(h.denominator), h.denominator)

    for _ in range(4):
        a, b = [tuple(rng.randrange(f) for f in factors) for _ in "ab"]
        total = tuple((x + y) % f for x, y, f in zip(a, b, factors))
        if rng.random() < 0.3:
            b = tuple(-x % f for x, f in zip(a, factors))
            total = (0,) * len(factors)
        c = add_cochains(group, module, h.representative_of(a),
                         h.representative_of(b))
        c = add_cochains(group, module, c, bar_differential(
            group, module, cochain_from_function(group, module, n - 1,
                                                 value)))
        assert h.classify(c) == total
        w = h.coboundary_witness(c)
        assert (w is None) == any(total)
        assert w is None or bar_differential(group, module, w) == c


TRANSFORMS = {(False, False): "u", (False, True): "u_inv",
              (True, False): "v", (True, True): "v_inv"}


def spy_on_eliminations(monkeypatch):
    """(eliminated, joined): every ``_local_smith`` input with its q, and
    every transform a Smith form joins, with the form."""
    eliminated, joined = [], []
    local_smith, join = modsnf._local_smith, modsnf.ModSmithForm._joined

    def local_spy(a, p, q):
        eliminated.append((a.copy(), q))
        return local_smith(a, p, q)

    def join_spy(form, cols, inverse):
        joined.append((form, TRANSFORMS[cols, inverse]))
        return join(form, cols, inverse)

    monkeypatch.setattr(modsnf, "_local_smith", local_spy)
    monkeypatch.setattr(modsnf.ModSmithForm, "_joined", join_spy)
    return eliminated, joined


def test_one_elimination_of_the_relations_serves_every_question(monkeypatch):
    """H^n eliminates its relation matrix once per local ring, and reads
    everything off that one form: building H^n joins U^-1 only, the first
    classify joins U once, the first witness V once, and no later call
    eliminates anything.  For Q/Z, ``stable`` takes no Smith form of the
    relations without the Bockstein columns.  At a prime modulus each
    cocycle's kernel coordinates are a gather of its free entries."""
    eliminated, joined = spy_on_eliminations(monkeypatch)
    c3, c5, c6, c7 = (make_cyclic(k) for k in (3, 5, 6, 7))
    v4 = make_product(make_cyclic(2), make_cyclic(2))
    s3 = make_symmetric(3)
    cases = ((c3, finite_abelian(c3, (3,)), 3),
             (v4, finite_abelian(v4, (2,)), 3),
             (s3, finite_abelian(s3, (3,)), 2),
             (v4, finite_abelian(v4, (12,)), 2),
             (c5, rational_circle(c5), 2),
             (c7, rational_circle(c7), 3),
             (c6, rational_circle(c6), 2),
             (v4, rational_circle(v4), 3))
    for group, module, n in cases:
        eliminated.clear()
        joined.clear()
        h = cohomology(group, module, n)
        quot = h._quot
        form = quot._solver.form
        rings = [q for _, q, _ in modsnf._local_rings(quot.m)]
        if quot.m in (2, 3, 5, 7):
            assert all(p.v_inv is None for p in quot.kernel.parts)

        def of_rel():
            return [name for f, name in joined if f is form]

        assert of_rel() == ["u_inv"]
        built = len(eliminated)
        for coords in h.all_classes()[:5]:
            assert h.classify(h.representative_of(coords)) == coords
        assert of_rel() == ["u_inv", "u"]
        zero = h.representative_of((0,) * len(h.invariant_factors))
        for _ in range(2):
            assert h.coboundary_witness(zero) is not None
        assert of_rel() == ["u_inv", "u", "v"]
        assert len(eliminated) == built
        assert [q for a, q in eliminated if np.array_equal(
            a, quot.rel % q)] == rings
        if module.kind == "rational-circle":
            nb = h._bock_gens.shape[1]
            assert nb > 0
            base = np.delete(quot.rel, np.s_[quot.n_l - nb:quot.n_l], axis=1)
            assert not any(np.array_equal(a, base % q) for a, q in eliminated)


def test_class_coordinates_over_two_local_rings_keep_their_basis():
    """Over Z/12 each local ring's coefficients enter Z/12 through its CRT
    idempotent.  Then H^2(C2 x C2; Z/12) keeps the basis it had when its
    kernel coordinates came from a dense solve: these three cocycles,
    once its representatives, classify to the unit vectors."""
    v4 = make_product(make_cyclic(2), make_cyclic(2))
    module = finite_abelian(v4, (12,))
    h = cohomology(v4, module, 2)
    tables = [(0, 0, 0, 0, 0, 5, 11, 6, 0, 5, 6, 1, 0, 0, 7, 7),
              (0, 0, 0, 0, 0, 5, 0, 5, 0, 0, 1, 1, 0, 5, 1, 6),
              (0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1)]
    assert h.classify_tables(tables) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


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
    assert bar_differential(group, qz, wit) == tripled


def twisted_v4_module():
    """Z/2 + Z/4 over C2 x C2, the first factor inverting Z/4."""
    v4 = make_product(make_cyclic(2), make_cyclic(2))
    action = [((1, 0), (0, -1 if g // 2 else 1)) for g in v4.elements()]
    return finite_abelian(v4, (2, 4), action=action)


def test_witnesses_of_unnormalized_coboundaries_return_the_cochain():
    """For c = d(s) with s unnormalized, coboundary_witness, on a group
    built at denominator 60 and on one built at c's own denominator, gives
    w with d(w) = c itself, not its normalized representative, over
    trivial, twisted and Q/Z modules in degrees 1..3; a representative of a
    nonzero class, shifted by d(s), has none."""
    c2, c3 = make_cyclic(2), make_cyclic(3)
    modules = [finite_abelian(c3, (3,)),
               finite_abelian(make_product(c2, c2), (2,)),
               finite_abelian(c2, (2, 4), action=(((1, 0), (0, 1)),
                                                  ((1, 0), (0, -1)))),
               twisted_v4_module(),
               rational_circle(c2), rational_circle(c3),
               rational_circle(c2, multipliers=(1, -1))]
    rng = random.Random(61)
    unnormalized = 0
    for module in modules:
        group = module.group
        for degree in (1, 2, 3):
            h = cohomology(group, module, degree, denominator=60)
            for _ in range(3):
                s = random_cochain(rng, group, module, degree - 1, False)
                c = bar_differential(group, module, s)
                unnormalized += normalize_cocycle(group, module, c)[1] \
                    is not None
                own = cohomology(group, module, degree, c.denominator)
                for w in (h.coboundary_witness(c), own.coboundary_witness(c)):
                    assert w is not None
                    assert bar_differential(group, module, w) == c
                for rep in h.representatives:
                    shifted = add_cochains(group, module, rep, c)
                    assert h.coboundary_witness(shifted) is None
                    assert cohomology(group, module, degree,
                                      shifted.denominator
                                      ).coboundary_witness(shifted) is None
    assert unnormalized >= 20


def test_witnesses_solve_in_the_relations_of_the_quotient(monkeypatch):
    """A witness is read off the quotient's relation matrix: witnesses of
    normalized coboundaries take no Smith form, every solve is against
    the relations' solver, and its form joins U and V once per group."""
    c3 = make_cyclic(3)
    c3xc3 = make_product(c3, c3)
    twisted = twisted_v4_module()
    groups = [cohomology(c3xc3, rational_circle(c3xc3), 3, denominator=27),
              cohomology(twisted.group, twisted, 2),
              cohomology(twisted.group, twisted, 3)]
    eliminated, joined = spy_on_eliminations(monkeypatch)
    solved = []
    solve = modsnf.ModSolver.solve

    def solve_spy(solver, b):
        solved.append(solver)
        return solve(solver, b)

    monkeypatch.setattr(modsnf.ModSolver, "solve", solve_spy)
    rng = random.Random(67)
    for h in groups:
        group, module, n = h.group, h.module, h.degree
        joined.clear()
        solved.clear()
        for _ in range(3):
            s = cochain_from_function(
                group, module, n - 1,
                lambda *a: tuple(rng.randrange(d) * (group.identity not in a)
                                 for d in module.factors) if module.factors
                else Fraction(rng.randrange(27) * (group.identity not in a),
                              27))
            c = bar_differential(group, module, s)
            assert normalize_cocycle(group, module, c)[1] is None
            w = h.coboundary_witness(c)
            assert bar_differential(group, module, w) == c
        assert eliminated == []
        assert solved == [h._quot._solver] * 3
        assert (solved[0].rows, solved[0].cols) == h._quot.rel.shape
        assert sorted(name for f, name in joined
                      if f is solved[0].form) == ["u", "v"]
        assert all(f is solved[0].form for f, _ in joined)


def identity_row_shift(group, module, c):
    """Oracle: a w with d(w) = c on every argument tuple that contains the
    identity, from a dense solve over the full complex's identity rows
    (each coordinate row scaled by m/d), or None if there is none."""
    full, vec = cohomology_module._on_full_complex(group, module, c)
    n = c.degree
    digits = np.indices((group.order,) * n).reshape(n, -1)
    pos = np.flatnonzero((digits == group.identity).any(axis=0))
    rows = (pos[:, None] * full.k + np.arange(full.k)).ravel()
    scale = full.row_scale(n)[rows]
    d = intlinalg.take_rows(full.differential(n - 1), rows)
    a = sparse.csr_matrix((d.vals, (d.rows, d.cols)), shape=d.shape) \
        .toarray() * scale[:, None]
    sol = modsnf.ModSolver(a, full.m).solve(vec[rows] * scale)
    return None if sol is None else full.cochain(n - 1, sol)


def normalization_modules():
    """Trivial, twisted, mixed-moduli and Q/Z modules, with the
    denominator their cohomology is read at."""
    c2, c3, c4, s3 = (make_cyclic(2), make_cyclic(3), make_cyclic(4),
                      make_symmetric(3))
    # the even permutations of S3 are those with g^3 = e
    sign = [1 if s3.mul[s3.mul[g][g]][g] == s3.identity else -1
            for g in s3.elements()]
    return [(finite_abelian(c3, (3,)), None),
            (finite_abelian(make_product(c2, c2), (2,)), None),
            (finite_abelian(s3, (9,), action=[((t,),) for t in sign]), None),
            (finite_abelian(c4, (4,), action=[((1 - 2 * (g % 2),),)
                                               for g in c4.elements()]), None),
            (finite_abelian(c2, (2, 4), action=(((1, 0), (0, 1)),
                                                ((1, 0), (0, -1)))), None),
            (twisted_v4_module(), None),
            (rational_circle(c3), 60),
            (rational_circle(s3, multipliers=sign), 60)]


def test_degeneracy_shifts_normalize_like_the_identity_row_solve():
    """A representative plus d(s), s unnormalized, in degrees 2..4: the
    identity-row oracle and normalize_cocycle agree that a normalizing
    shift exists, the result vanishes on identity arguments, fixed +
    d(shift) = c, and the class is unchanged."""
    rng = random.Random(71)
    unnormalized = 0
    for module, denominator in normalization_modules():
        group = module.group
        for degree in (2, 3, 4):
            if group.order ** degree > 300:
                continue
            h = cohomology(group, module, degree, denominator=denominator)
            for _ in range(2):
                coords = tuple(rng.randrange(f) for f in h.invariant_factors)
                s = random_cochain(rng, group, module, degree - 1, False)
                c = add_cochains(group, module, h.representative_of(coords),
                                 bar_differential(group, module, s))
                fixed, shift = normalize_cocycle(group, module, c)
                oracle = identity_row_shift(group, module, c)
                assert oracle is not None
                if shift is None:
                    assert cohomology_module._is_normalized(group, c)
                    continue
                unnormalized += 1
                assert cohomology_module._is_normalized(group, fixed)
                assert all(not any(np.ravel(evaluate(group, fixed, args)))
                           for args in itertools.product(group.elements(),
                                                         repeat=degree)
                           if group.identity in args)
                assert add_cochains(group, module, fixed, bar_differential(
                    group, module, shift)) == c
                assert cohomology_module._is_normalized(group, sub_cochains(
                    group, module, c, bar_differential(group, module,
                                                       oracle)))
                assert h.classify(c) == h.classify(fixed) == coords
    assert unnormalized >= 30


def test_normalization_takes_no_smith_form(monkeypatch):
    """Degeneracy shifts are gathers and sparse products only: no Smith
    form and no solver is built, whatever the module."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise AssertionError("normalize_cocycle took a Smith form")

    monkeypatch.setattr(modsnf, "mod_smith", spy)
    monkeypatch.setattr(modsnf, "ModSolver", spy)
    rng = random.Random(73)
    for module, _ in normalization_modules():
        group = module.group
        s = random_cochain(rng, group, module, 2, False)
        c = bar_differential(group, module, s)
        fixed, shift = normalize_cocycle(group, module, c)
        assert shift is not None and cohomology_module._is_normalized(
            group, fixed)
    assert calls == []


def test_normalizing_a_non_cocycle_is_refused():
    """A cochain that is not closed raises ValueError before any shift,
    whether or not it is normalized."""
    rng = random.Random(79)
    refused = 0
    for module, _ in normalization_modules():
        group = module.group
        for normalized in (False, True):
            c = random_cochain(rng, group, module, 2, normalized)
            if is_cocycle(group, module, c):
                continue
            refused += 1
            with pytest.raises(ValueError, match="not a cocycle"):
                normalize_cocycle(group, module, c)
    assert refused >= 12


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
    return n, m, degree, values


@settings(max_examples=60, deadline=None)
@given(small_cochain())
def test_differential_squares_to_zero(data):
    n, m, degree, values = data
    group = make_cyclic(n)
    module = finite_abelian(group, (m,))
    c = cochain_from_coords(group, module, degree, values)
    dc = bar_differential(group, module, c)
    ddc = bar_differential(group, module, dc)
    assert ddc == cochain_from_coords(group, module, degree + 2,
                                      [0] * n ** (degree + 2))


@settings(max_examples=40, deadline=None)
@given(small_cochain())
def test_coboundaries_classify_to_zero(data):
    n, m, degree, values = data
    group = make_cyclic(n)
    module = finite_abelian(group, (m,))
    dc = bar_differential(group, module,
                          cochain_from_coords(group, module, degree, values))
    h = cohomology(group, module, degree + 1)
    assert h.classify(dc) == (0,) * len(h.invariant_factors)


def test_evaluate_and_zero_cochain():
    group = make_cyclic(3)
    module = finite_abelian(group, (5,))
    z = cochain_from_coords(group, module, 2, [0] * 9)
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


def test_classify_tables_reads_each_distinct_table_once(monkeypatch):
    """Rows drawn with repeats from sums of representatives and random
    coboundaries, some unnormalized: ``classify_tables`` gives what
    row-by-row ``classify`` gives, and the quotient reads one column per
    distinct row."""
    read = []
    real = _Quotient.coordinates

    def spy(self, vecs):
        read.append(vecs.shape[1])
        return real(self, vecs)

    monkeypatch.setattr(_Quotient, "coordinates", spy)
    rng = random.Random(37)
    v4 = make_product(make_cyclic(2), make_cyclic(2))
    c4 = make_cyclic(4)
    for group, module, n in ((v4, finite_abelian(v4, (2,)), 2),
                             (v4, finite_abelian(v4, (2, 4)), 2),
                             (c4, rational_circle(c4), 3)):
        h = cohomology(group, module, n)
        den = h.denominator

        def value(*args):
            if module.factors:
                return tuple(rng.randrange(d) for d in module.factors)
            return Fraction(rng.randrange(den), den)

        pool = []
        for coords in h.all_classes()[:6]:
            c = add_cochains(group, module, h.representative_of(coords),
                             bar_differential(group, module,
                                              cochain_from_function(
                                                  group, module, n - 1,
                                                  value)))
            pool.append(np.multiply(c.coords, den // c.denominator)
                        if den else np.array(c.coords))
        tables = np.array([rng.choice(pool) for _ in range(24)])
        distinct = len({tuple(row) for row in tables.tolist()})
        assert distinct < len(tables)
        want = [h.classify(cochain_from_coords(group, module, n, row,
                                               den or None))
                for row in tables]
        read.clear()
        assert h.classify_tables(tables, den or None) == want
        assert read == [distinct]
