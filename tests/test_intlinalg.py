"""Exact integer linear algebra against independent oracles."""

import random

import numpy as np
import pytest
import sympy
from oracles import columns_matrix, loop_rank_torsion
from sympy.matrices.normalforms import smith_normal_form

from xmodcoh import intlinalg
from xmodcoh.errors import ResourceLimit
from xmodcoh.intlinalg import (mat_vec, smith_normal_form as snf,
                               solve_integer, solve_mod, sparse_rank_torsion)


def random_matrix(rng, rows, cols, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(cols)]
            for _ in range(rows)]


def invariant_factors(a):
    """Nonzero diagonal entries of our Smith form (d1 | d2 | ...)."""
    return [d for d in snf(a).diag if d]


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


def random_sparse_columns(rng, rows, cols, heads_two=False):
    """Boundary-like ``{row: entry}`` columns: mostly +-1 with some +-2/+-3,
    plus zero columns, repeated columns and sign-flipped repeats.  With
    ``heads_two`` every column's first entry is 2, so that the only units
    lie below the column heads."""
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
        if heads_two and out[-1]:
            out[-1] = {**out[-1], min(out[-1]): 2}
    return out


def test_sparse_rank_torsion_matches_sympy():
    """Wide, tall and square matrices, also with every column headed by a
    2, against sympy and against the one-pivot-at-a-time loop."""
    rng = random.Random(31)
    shapes = [(0, 0), (0, 4), (4, 0), (1, 1), (9, 3), (3, 12)]
    shapes += [(rng.randint(1, 8), rng.randint(1, 12)) for _ in range(80)]
    shapes += [(n, n) for n in range(2, 9)] + [(12, 4), (4, 14)]
    for rows, cols in shapes:
        for heads_two in (False, True):
            columns = random_sparse_columns(rng, rows, cols, heads_two)
            dense = [[col.get(r, 0) for col in columns] for r in range(rows)]
            want = sympy_factors(dense)
            got = sparse_rank_torsion(columns_matrix(columns, rows))
            assert got == (len(want), tuple(d for d in want if d > 1)), dense
            assert got == loop_rank_torsion(columns), dense


def test_sparse_rank_torsion_keeps_columns_equal_up_to_entry_signs():
    """Columns (3, 3) and (3, -3) agree in absolute value but span a lattice
    of index 18 (factors 3, 6); only an overall sign makes columns equal."""
    columns = [{0: 3, 1: 3}, {0: 3, 1: -3}]
    assert sympy_factors([[3, 3], [3, -3]]) == [3, 6]
    assert sparse_rank_torsion(columns_matrix(columns)) == (2, (3, 6))
    assert sparse_rank_torsion(
        columns_matrix(columns + [{0: -3, 1: 3}])) == (2, (3, 6))


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
        d = sympy.Matrix(form.row_t) * sympy.Matrix(a) * \
            sympy.Matrix(form.col_t)
        for i in range(rows):
            for j in range(cols):
                want = form.diag[i] if i == j and i < len(form.diag) else 0
                assert d[i, j] == want
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


def test_distinct_keys_and_rows_are_np_uniques():
    """distinct gives np.unique's first positions and inverse: on 1-d keys,
    and on the rows of a 2-d array as the byte strings np.unique sorts.
    Rows of width 0 are all one row."""
    rng = np.random.default_rng(3)
    for shape in [(0,), (1,), (60,), (0, 3), (1, 3), (60, 2), (60, 5)]:
        a = rng.integers(-2, 3, size=shape).astype(np.int64)
        keys = a if a.ndim == 1 else a.view(
            np.dtype((np.void, 8 * shape[1])))[:, 0]
        _, first, inverse = np.unique(keys, return_index=True,
                                      return_inverse=True)
        got = intlinalg.distinct(a)
        assert [x.tolist() for x in got] == [first.tolist(),
                                             inverse.tolist()], shape
        assert np.array_equal(a[got[0]][got[1]], a)
    for rows in (0, 1, 5):
        first, inverse = intlinalg.distinct(np.zeros((rows, 0), np.int64))
        assert first.tolist() == [0] * (rows > 0)
        assert inverse.tolist() == [0] * rows


def test_heads_without_units_still_pivot_on_the_units_below(monkeypatch):
    """Every column head is 2, and the units lie below: a round moves the
    rows holding units first rather than stopping."""
    moves = []
    real = intlinalg._units_first
    monkeypatch.setattr(intlinalg, "_units_first",
                        lambda *a: moves.append(a) or real(*a))
    columns = [{0: 2, 1: 1}, {0: 2, 2: -1}, {1: 2, 2: 1}]
    dense = [[col.get(r, 0) for col in columns] for r in range(3)]
    want = sympy_factors(dense)
    assert sparse_rank_torsion(columns_matrix(columns)) == (
        len(want), tuple(d for d in want if d > 1)) == (3, (2,))
    assert moves


def test_the_residual_has_no_unit_entry(monkeypatch):
    """What reaches the dense Smith form has no +-1 entry, and no column
    twice."""
    seen = []
    real = intlinalg.smith_normal_form

    def spy(a, *args, **kwargs):
        seen.append(a)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(intlinalg, "smith_normal_form", spy)
    rng = random.Random(41)
    for _ in range(60):
        rows, cols = rng.randint(1, 8), rng.randint(1, 12)
        columns = random_sparse_columns(rng, rows, cols, rng.random() < 0.3)
        sparse_rank_torsion(columns_matrix(columns, rows))
    assert len(seen) == 60
    assert any(any(row) for a in seen for row in a)
    for a in seen:
        assert all(abs(x) != 1 for row in a for x in row)
        assert len(set(zip(*a))) == (len(a[0]) if a else 0)


def test_entries_past_the_int64_headroom_are_refused(monkeypatch):
    """A product that could pass the headroom is refused with a typed
    error, before it is formed."""
    columns = [{0: 1, 1: 3}, {0: 3, 1: 5}]
    assert sparse_rank_torsion(columns_matrix(columns)) == (2, (4,))
    monkeypatch.setattr(intlinalg, "HEADROOM", 9)
    with pytest.raises(ResourceLimit, match="int64 elimination product"):
        sparse_rank_torsion(columns_matrix(columns))
    monkeypatch.setattr(intlinalg, "HEADROOM", 3)
    with pytest.raises(ResourceLimit, match="int64 elimination entry"):
        sparse_rank_torsion(columns_matrix(columns))
