"""Modular Smith form cross-checked against sympy's integer Smith form and
brute force."""

import itertools
import random
from math import gcd, prod

import numpy as np
import pytest
import sympy
from scipy import sparse
from sympy.matrices.normalforms import smith_normal_form

from xmodcoh.intlinalg import Triples
from xmodcoh.modsnf import ModSolver, mod_kernel, mod_smith


def random_mod_matrix(rng, rows, cols, m):
    return np.array([[rng.randrange(m) for _ in range(cols)]
                     for _ in range(rows)], dtype=np.int64).reshape(rows, cols)


def test_mod_smith_diag_divides_modulus_and_chains():
    rng = random.Random(5)
    for m in (2, 3, 4, 6, 8):
        for _ in range(20):
            a = random_mod_matrix(rng, rng.randint(1, 5), rng.randint(1, 5),
                                  m)
            form = mod_smith(a, m)
            d = form.diag
            assert all(m % x == 0 for x in d)
            assert all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1))


def test_mod_smith_transforms_reconstruct():
    rng = random.Random(7)
    for m in (2, 4, 6, 9):
        for _ in range(20):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            a = random_mod_matrix(rng, rows, cols, m)
            form = mod_smith(a, m, want_u=True, want_uinv=True, want_v=True)
            d = (form.u @ a @ form.v) % m
            want = np.zeros((rows, cols), dtype=np.int64)
            for i, x in enumerate(form.diag):
                want[i, i] = x % m
            assert np.array_equal(d, want)
            assert np.array_equal((form.u @ form.u_inv) % m,
                                  np.eye(rows, dtype=np.int64) % m)
            # V is invertible mod m: its determinant is a unit
            det_v = int(sympy.Matrix(form.v.tolist()).det())
            assert gcd(det_v % m, m) == 1


def test_mod_smith_agrees_with_integer_route():
    """Dual route: the Z/m diagonal of A (padded with the zero sentinel m)
    matches sympy's integer invariant factors of [A | m*I], since both
    present the cokernel (Z/m)^rows / im(A)."""
    rng = random.Random(9)
    for m in (2, 3, 4, 6, 8, 12):
        for _ in range(20):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            a = random_mod_matrix(rng, rows, cols, m)
            augmented = [[int(a[i, j]) for j in range(cols)] +
                         [m if k == i else 0 for k in range(rows)]
                         for i in range(rows)]
            snf = smith_normal_form(sympy.Matrix(augmented))
            ints = [abs(int(snf[i, i])) for i in range(rows) if snf[i, i]]
            got = list(mod_smith(a, m).diag)
            got += [m] * (rows - len(got))
            # drop unit factors on both sides; they carry no cokernel
            assert sorted(d for d in ints if d > 1) == \
                sorted(d for d in got if d > 1)


def check_smith_form(a, m):
    """u a v = diag exactly, u u^-1 = I, v invertible, the diagonal a chain
    of divisors of m, and its factors those of the integer Smith form of
    [a | m I], which presents the same cokernel (Z/m)^rows / im(a)."""
    rows, cols = a.shape
    form = mod_smith(a, m, want_u=True, want_uinv=True, want_v=True)
    d = form.diag
    want = np.zeros((rows, cols), dtype=np.int64)
    want[range(len(d)), range(len(d))] = np.array(d, dtype=np.int64) % m
    assert np.array_equal(form.u @ a @ form.v % m, want), (m, a, d)
    assert np.array_equal(form.u @ form.u_inv % m,
                          np.eye(rows, dtype=np.int64))
    assert gcd(int(sympy.Matrix(form.v.tolist()).det()) % m, m) == 1
    assert all(m % x == 0 for x in d)
    assert all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1))
    augmented = np.hstack([a, m * np.eye(rows, dtype=np.int64)])
    got = [x for x in d + [m] * (rows - len(d)) if x > 1]
    assert got == [x for x in integer_invariant_factors(augmented) if x > 1]
    return form


def test_mod_smith_joins_local_forms_of_different_ranks():
    """Composite m: the matrix is a random product of rank at most k_q mod
    each prime power q, with distinct k_q, so the local diagonals end at
    different places and the join must rescale them into one chain."""
    rng = random.Random(23)
    parts = {12: (4, 3), 30: (2, 3, 5), 36: (4, 9), 72: (8, 9)}
    differing = cases = 0
    for m, qs in parts.items():
        for _ in range(12):
            rows, cols = rng.randint(3, 6), rng.randint(3, 6)
            ranks = rng.sample(range(min(rows, cols) + 1), len(qs))
            a = np.zeros((rows, cols), dtype=np.int64)
            for q, k in zip(qs, ranks):
                p = next(d for d in range(2, q + 1) if q % d == 0)
                local = random_mod_matrix(rng, rows, k, q) @ \
                    random_mod_matrix(rng, k, cols, q)
                if rng.random() < 0.5:
                    local *= p  # no unit mod q left
                e = m // q * pow(m // q, -1, q)
                a = (a + local % q * e) % m
            d = check_smith_form(a, m).diag
            cases += 1
            differing += len({sum(x % q == 0 for x in d) for q in qs}) > 1
    assert differing >= cases // 2


def test_mod_smith_pivots_on_least_valuation_over_prime_powers():
    """Over Z/p^k the first nonzero entry need not divide the others; the
    pivot is the first entry of least p-valuation."""
    fixed = [([[2, 1], [1, 0]], 4), ([[3, 1], [1, 0]], 9),
             ([[4, 2], [2, 0]], 8), ([[0, 9, 3], [3, 1, 0]], 27)]
    for a, m in fixed:
        check_smith_form(np.array(a, dtype=np.int64), m)
    rng = random.Random(29)
    for m, p in ((4, 2), (8, 2), (9, 3), (27, 3)):
        for _ in range(20):
            a = random_mod_matrix(rng, rng.randint(1, 5), rng.randint(1, 5),
                                  m)
            a[0, 0] = p * rng.randrange(m // p)
            check_smith_form(a, m)


def test_mod_kernel_matches_bruteforce_solution_count():
    rng = random.Random(11)
    for m in (2, 3, 4, 6):
        for _ in range(12):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            a = random_mod_matrix(rng, rows, cols, m)
            kernel = mod_kernel(a, m)
            gens, orders = kernel.basis(), kernel.orders
            brute = sum(
                1 for x in itertools.product(range(m), repeat=cols)
                if not (a @ np.array(x) % m).any())
            size = 1
            for o in orders:
                size *= o
            assert size == brute
            for j in range(gens.shape[1] if gens.size else 0):
                assert not (a @ gens[:, j] % m).any()


def sparse_mod_matrix(rng, rows, cols, m, kind):
    """A sparse integer matrix, entries not reduced mod m.  ``kind`` is
    "unit" (every nonzero entry a unit mod m), "unit-free" (every entry
    divisible by the least prime p of m, so no unit mod p^k), "repeated"
    (rows copied from earlier rows) or "mixed"."""
    p = next(d for d in range(2, m + 1) if m % d == 0)
    units = [u for u in range(1, m) if gcd(u, m) == 1]
    a = np.zeros((rows, cols), dtype=np.int64)
    for i in range(rows):
        if kind == "repeated" and i and rng.random() < 0.5:
            a[i] = a[rng.randrange(i)]
            continue
        for j in rng.sample(range(cols), rng.randint(0, min(cols, 3))):
            if kind == "unit":
                x = rng.choice(units)
            elif kind == "unit-free":
                x = p * rng.randrange(1, 2 * m)
            else:
                x = rng.randrange(1, m)
            a[i, j] = x * rng.choice((1, -1)) + m * rng.randint(-1, 1)
    return a


def csr_triples(a):
    """a as ``Triples``, read off scipy's canonical CSR form."""
    s = sparse.csr_matrix(a)
    return Triples(np.repeat(np.arange(s.shape[0]), np.diff(s.indptr)),
                   s.indices.astype(np.int64), s.data, s.shape)


def integer_invariant_factors(a):
    """Nonzero invariant factors of an integer matrix, from sympy."""
    rows, cols = a.shape
    if not rows or not cols or not a.any():
        return []
    snf = smith_normal_form(sympy.Matrix(a.tolist()))
    return [abs(int(snf[i, i])) for i in range(min(rows, cols))
            if snf[i, i]]


def test_mod_kernel_is_the_whole_kernel_with_independent_generators():
    """a @ gens = 0 mod m, and |span(gens)| = prod(orders) = |ker a|: the
    kernel of a over Z/m is (Z/m)^(c - rank) + sum Z/gcd(d_i, m) for the
    integer invariant factors d_i of a, and the span's order is m^c over
    the cokernel order of the integer matrix [gens | m I].  Composite m
    covers the recombination of the prime-power parts.  The free columns
    fix a kernel vector: the kernel's image on them is as large as the
    kernel."""
    rng = random.Random(17)
    kinds = ("unit", "unit-free", "repeated", "mixed")
    for m in (2, 4, 8, 9, 27, 6, 12, 30, 36):
        cases = [(0, 3, "mixed"), (3, 1, "mixed")]
        cases += [(rng.randint(1, 8), rng.randint(1, 6), kind)
                  for kind in kinds for _ in range(4)]
        for rows, cols, kind in cases:
            a = sparse_mod_matrix(rng, rows, cols, m, kind)
            arg = csr_triples(a) if rng.random() < 0.5 else a
            kernel = mod_kernel(arg, m)
            gens, orders = kernel.basis(), kernel.orders
            free = np.unique(np.concatenate(
                [part.free for part in kernel.parts] + [np.zeros(0, int)]))
            assert gens.shape == (cols, len(orders))
            assert not (a @ gens % m).any(), (m, a)
            assert all(1 < o and m % o == 0 for o in orders)
            assert not (gens * np.array(orders, dtype=np.int64) % m).any()
            factors = integer_invariant_factors(a)
            kernel = m ** (cols - len(factors))
            for d in factors:
                kernel *= gcd(d, m)
            span = m ** cols
            for d in integer_invariant_factors(
                    np.hstack([gens, m * np.eye(cols, dtype=np.int64)])):
                span //= d
            assert span == prod(orders) == kernel, (m, a, orders)
            # the kernel maps onto its free coordinates without loss
            assert free.tolist() == sorted(set(free.tolist()))
            image = m ** len(free)
            for d in integer_invariant_factors(np.hstack(
                    [gens[free], m * np.eye(len(free), dtype=np.int64)])):
                image //= d
            assert image == kernel, (m, a, free)


def test_kernel_coordinates_read_exactly_the_kernel_and_lift_back():
    """Over every vector of (Z/m)^c, the kernel's read refuses exactly the
    vectors off the kernel, and lifting what it reads gives the vector
    back.  Unit-free entries leave residual rows, so a vector can satisfy
    every pivot row and still be refused by the residual alone."""
    rng = random.Random(23)
    residual_only = 0
    for m in (2, 4, 6, 8, 9):
        for kind in ("unit", "unit-free", "mixed"):
            for _ in range(6):
                rows, cols = rng.randint(1, 4), rng.randint(1, 3)
                a = sparse_mod_matrix(rng, rows, cols, m, kind)
                kernel = mod_kernel(a, m)
                x = np.array(list(itertools.product(range(m), repeat=cols)),
                             dtype=np.int64).T.reshape(cols, -1)
                inside = ~(a @ x % m).any(axis=0)
                for j in range(x.shape[1]):
                    y = kernel.coordinates(x[:, j:j + 1])
                    assert (y is not None) == inside[j], (m, a, x[:, j])
                    if y is not None:
                        assert np.array_equal(kernel.lift(y)[:, 0], x[:, j])
                    elif all((x[key, j] + sum(t * x[k, j]
                                              for k, t in v.items())) % p.q
                             == 0 for p in kernel.parts
                             for key, v in p.pivots):
                        residual_only += 1
                y = kernel.coordinates(x[:, inside])
                assert np.array_equal(kernel.lift(y), x[:, inside])
    assert residual_only > 0


def test_mod_solver_agrees_with_bruteforce():
    rng = random.Random(13)
    for m in (2, 3, 4, 6):
        for _ in range(12):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            a = random_mod_matrix(rng, rows, cols, m)
            solver = ModSolver(a, m)
            for _ in range(6):
                b = np.array([rng.randrange(m) for _ in range(rows)])
                x = solver.solve(b)
                solvable = any(
                    not ((a @ np.array(v) - b) % m).any()
                    for v in itertools.product(range(m), repeat=cols))
                if x is None:
                    assert not solvable
                else:
                    assert not ((a @ x - b) % m).any()


def test_mod_solver_solves_a_matrix_of_right_hand_sides_column_by_column():
    """A matrix of right-hand sides gets exactly the column-by-column
    solutions, or None as soon as one column has none."""
    rng = random.Random(19)
    for m in (2, 4, 6, 9, 12):
        for _ in range(20):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            a = random_mod_matrix(rng, rows, cols, m)
            solver = ModSolver(a, m)
            solvable = a @ random_mod_matrix(rng, cols, rng.randint(0, 4), m)
            b = np.hstack([solvable, random_mod_matrix(rng, rows, 1, m)])
            for rhs in (solvable, b):
                each = [solver.solve(rhs[:, j]) for j in range(rhs.shape[1])]
                got = solver.solve(rhs)
                if any(x is None for x in each):
                    assert got is None
                    continue
                want = np.zeros((cols, rhs.shape[1]), dtype=np.int64)
                for j, x in enumerate(each):
                    want[:, j] = x
                assert np.array_equal(got, want)


def test_bad_modulus_rejected():
    for m in (0, 1, -3):
        with pytest.raises(ValueError):
            mod_smith(np.zeros((1, 1), dtype=np.int64), m)
