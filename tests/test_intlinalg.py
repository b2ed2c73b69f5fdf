"""Exact integer linear algebra against independent oracles."""

import random

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from xmodcoh.intlinalg import (invariant_factors, mat_mul, mat_vec,
                               smith_normal_form as snf, solve_integer,
                               solve_mod, sparse_rank_torsion)


def random_matrix(rng, rows, cols, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(cols)]
            for _ in range(rows)]


def sympy_factors(a):
    if not a or not a[0]:
        return []
    m = smith_normal_form(sympy.Matrix(a))
    out = [abs(m[i, i]) for i in range(min(m.rows, m.cols))]
    return [int(d) for d in out if d != 0]


def test_invariant_factors_match_sympy_on_random_matrices():
    rng = random.Random(11)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, rows, cols)
        assert invariant_factors(a) == sympy_factors(a)


def random_sparse_columns(rng, rows, cols):
    """Boundary-like ``{row: entry}`` columns: mostly +-1 with some +-2/+-3,
    plus zero columns, repeated columns and sign-flipped repeats."""
    out = []
    for _ in range(cols):
        roll = rng.random()
        if out and roll < 0.15:
            out.append(dict(rng.choice(out)))
        elif out and roll < 0.3:
            out.append({r: -x for r, x in rng.choice(out).items()})
        elif roll < 0.4:
            out.append({})
        else:
            picked = rng.sample(range(rows), min(rows, rng.randint(1, 3)))
            out.append({r: rng.choice([1, -1, 1, -1, 1, -1, 2, -2, 3, -3])
                        for r in picked})
    return out


def test_sparse_rank_torsion_matches_sympy():
    rng = random.Random(31)
    shapes = [(0, 0), (0, 4), (4, 0), (1, 1), (9, 3), (3, 12)]
    shapes += [(rng.randint(1, 8), rng.randint(1, 12)) for _ in range(80)]
    for rows, cols in shapes:
        columns = random_sparse_columns(rng, rows, cols)
        dense = [[col.get(r, 0) for col in columns] for r in range(rows)]
        want = sympy_factors(dense)
        got = sparse_rank_torsion(columns)
        assert got == (len(want), tuple(d for d in want if d > 1)), dense


def test_sparse_rank_torsion_keeps_columns_equal_up_to_entry_signs():
    """Columns (3, 3) and (3, -3) agree in absolute value but span a lattice
    of index 18 (factors 3, 6); only an overall sign makes columns equal."""
    columns = [{0: 3, 1: 3}, {0: 3, 1: -3}]
    assert sympy_factors([[3, 3], [3, -3]]) == [3, 6]
    assert sparse_rank_torsion(columns) == (2, (3, 6))
    assert sparse_rank_torsion(columns + [{0: -3, 1: 3}]) == (2, (3, 6))


def test_invariant_factors_divisibility_chain():
    rng = random.Random(13)
    for _ in range(40):
        a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        d = invariant_factors(a)
        assert all(x > 0 for x in d)
        assert all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1))


def test_smith_transforms_reconstruct_diagonal():
    rng = random.Random(17)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, rows, cols)
        form = snf(a, transforms=True)
        d = mat_mul(mat_mul(form.row_t, a), form.col_t)
        for i in range(rows):
            for j in range(cols):
                want = form.diag[i] if i == j and i < len(form.diag) else 0
                assert d[i][j] == want
        # both transforms are unimodular
        assert abs(sympy.Matrix(form.row_t).det()) == 1
        assert abs(sympy.Matrix(form.col_t).det()) == 1


def test_solve_integer_roundtrip_and_insolvable():
    rng = random.Random(23)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = random_matrix(rng, rows, cols)
        x = [rng.randint(-4, 4) for _ in range(cols)]
        b = mat_vec(a, x)
        y = solve_integer(a, b)
        assert y is not None and mat_vec(a, y) == b
    # 2x = 1 has no integer solution
    assert solve_integer([[2]], [1]) is None


def test_solve_mod_agrees_with_bruteforce():
    rng = random.Random(29)
    for _ in range(30):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        moduli = [rng.choice([2, 3, 4]) for _ in range(rows)]
        a = random_matrix(rng, rows, cols, bound=4)
        b = [rng.randint(0, m - 1) for m in moduli]
        found = solve_mod(a, b, moduli)
        brute = None
        space = [range(-6, 7)] * cols
        import itertools
        for x in itertools.product(*space):
            if all(sum(a[i][j] * x[j] for j in range(cols)) % moduli[i]
                   == b[i] % moduli[i] for i in range(rows)):
                brute = list(x)
                break
        if brute is None:
            assert found is None
        else:
            assert found is not None
            assert all(
                sum(a[i][j] * found[j] for j in range(cols)) % moduli[i]
                == b[i] % moduli[i] for i in range(rows))


def test_empty_and_degenerate_shapes():
    assert invariant_factors([]) == []
    assert invariant_factors([[0, 0], [0, 0]]) == []
    assert invariant_factors([[5]]) == [5]
    with pytest.raises(ValueError):
        snf([[1, 2], [3]])
