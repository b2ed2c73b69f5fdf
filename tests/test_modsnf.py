"""Modular Smith form cross-checked against sympy's integer Smith form and
brute force."""

import itertools
import random
from math import gcd

import numpy as np
import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from xmodcoh.modsnf import ModSolver, mod_kernel, mod_smith, unit_part


def random_mod_matrix(rng, rows, cols, m):
    return np.array([[rng.randrange(m) for _ in range(cols)]
                     for _ in range(rows)], dtype=np.int64)


def test_unit_part_is_a_unit_with_the_right_product():
    for m in (2, 3, 4, 6, 8, 9, 12):
        for a in range(m):
            u = unit_part(a, m)
            assert gcd(u, m) == 1
            assert (u * gcd(a, m)) % m == a % m


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


def test_mod_kernel_matches_bruteforce_solution_count():
    rng = random.Random(11)
    for m in (2, 3, 4, 6):
        for _ in range(12):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            a = random_mod_matrix(rng, rows, cols, m)
            gens, orders = mod_kernel(a, m)
            brute = sum(
                1 for x in itertools.product(range(m), repeat=cols)
                if not (a @ np.array(x) % m).any())
            size = 1
            for o in orders:
                size *= o
            assert size == brute
            for j in range(gens.shape[1] if gens.size else 0):
                assert not (a @ gens[:, j] % m).any()


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


def test_bad_modulus_rejected():
    for m in (0, 1, -3):
        with pytest.raises(ValueError):
            mod_smith(np.zeros((1, 1), dtype=np.int64), m)
