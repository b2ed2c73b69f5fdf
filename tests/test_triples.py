"""The sparse-matrix primitives of ``intlinalg`` against scipy.sparse, which
the tests keep as an independent oracle: seeded random triples with
repeated positions, entries that vanish mod m, empty rows and columns,
0 x n and n x 0 shapes, and entries near the int64 headroom."""

import random

import numpy as np
import pytest
from scipy import sparse

from xmodcoh.errors import ResourceLimit
from xmodcoh.intlinalg import (HEADROOM, Triples, canonical, dense_triples,
                               row_terms, take_rows, times, times_dense,
                               triples)


def random_entries(rng, shape, big=False):
    """(rows, cols, values) with positions drawn from a few rows and
    columns, so that most repeat and some rows and columns stay empty;
    ``big`` draws values near the headroom, opposite signs included."""
    rows, cols = shape
    n = rng.randint(0, 3 * rows * cols) if rows and cols else 0
    pick_r = rng.sample(range(rows), rng.randint(1, rows)) if rows else []
    pick_c = rng.sample(range(cols), rng.randint(1, cols)) if cols else []
    r = [rng.choice(pick_r) for _ in range(n)]
    c = [rng.choice(pick_c) for _ in range(n)]
    if big:
        x = [rng.choice((1, -1)) * (HEADROOM // 4 - rng.randrange(4))
             for _ in range(n)]
    else:
        x = [rng.choice((-1, 1)) * rng.randrange(0, 13) for _ in range(n)]
    return (np.array(r, dtype=np.int64), np.array(c, dtype=np.int64),
            np.array(x, dtype=np.int64))


SHAPES = [(0, 3), (3, 0), (0, 0), (1, 1), (4, 7), (7, 4), (9, 9)]


def oracle_csr(entries, shape, modulus=0):
    """scipy's canonical CSR matrix of the entries, summed, reduced mod
    ``modulus`` when it is set, zeros dropped."""
    r, c, x = entries
    m = sparse.csr_matrix((x, (r, c)), shape=shape, dtype=np.int64)
    m.sum_duplicates()
    if modulus:
        m.data %= modulus
    m.eliminate_zeros()
    return m


def as_triples(m):
    """scipy CSR matrix -> the arrays Triples must hold."""
    m = sparse.csr_matrix(m)
    m.sum_duplicates()
    m.eliminate_zeros()
    return (np.repeat(np.arange(m.shape[0]), np.diff(m.indptr)),
            m.indices, m.data)


def assert_same(t, m):
    assert isinstance(t, Triples) and t.shape == m.shape
    assert all(a.dtype == np.int64 for a in t[:3])
    for got, want in zip(t[:3], as_triples(m)):
        assert np.array_equal(got, want)


def cases(seed, count=12):
    rng = random.Random(seed)
    for shape in SHAPES:
        for _ in range(count):
            yield rng, shape


@pytest.mark.parametrize("modulus", [0, 2, 4, 9, 12])
def test_triples_sum_reduce_and_sort_as_scipy_does(modulus):
    for rng, shape in cases(modulus + 1):
        entries = random_entries(rng, shape)
        assert_same(triples(*entries, shape, modulus),
                    oracle_csr(entries, shape, modulus))


def test_repeated_positions_are_summed_and_cancel_to_nothing():
    """The zero that remains of 5 - 5, and of 6 + 3 mod 9, is dropped; a
    position given three times holds the sum."""
    r, c = np.array([1, 1, 0, 1, 1, 1]), np.array([2, 2, 0, 0, 0, 0])
    x = np.array([5, -5, 6, 1, 1, 1])
    t = triples(r, c, x, (2, 3))
    assert (t.rows.tolist(), t.cols.tolist(), t.vals.tolist()) == \
        ([0, 1], [0, 0], [6, 3])
    t = triples(np.array([0, 0]), np.array([1, 1]), np.array([6, 3]),
                (1, 2), 9)
    assert len(t.vals) == 0 and t.shape == (1, 2)


def test_column_sorted_canonical_triples_match_scipys_csc():
    for rng, shape in cases(3):
        entries = random_entries(rng, shape)
        m = sparse.csc_matrix((entries[2], entries[:2]), shape=shape,
                              dtype=np.int64)
        m.sum_duplicates()
        m.eliminate_zeros()
        r, c, x = canonical(*entries, shape[0])
        assert np.array_equal(r, m.indices)
        assert np.array_equal(c, np.repeat(np.arange(shape[1]),
                                           np.diff(m.indptr)))
        assert np.array_equal(x, m.data)


def test_dense_triples_read_a_dense_matrix_row_by_row():
    for rng, shape in cases(5):
        m = oracle_csr(random_entries(rng, shape), shape)
        assert_same(dense_triples(m.toarray()), m)


def test_take_rows_picks_rows_in_the_order_asked():
    for rng, shape in cases(7):
        m = oracle_csr(random_entries(rng, shape), shape)
        t = triples(*as_triples(m), shape)
        for rows in ([], list(range(shape[0])),
                     [rng.randrange(shape[0]) for _ in range(5)]
                     if shape[0] else []):
            rows = np.array(rows, dtype=np.int64)
            assert_same(take_rows(t, rows), m[rows])


def test_dense_products_match_scipy_on_vectors_and_matrices():
    for rng, shape in cases(11):
        m = oracle_csr(random_entries(rng, shape), shape)
        t = triples(*as_triples(m), shape)
        terms = row_terms(t)
        for width in (None, 0, 1, 5):
            size = (shape[1],) if width is None else (shape[1], width)
            v = np.array([rng.randrange(-50, 50)
                          for _ in range(int(np.prod(size)))],
                         dtype=np.int64).reshape(size)
            got = times_dense(terms, v)
            assert got.dtype == np.int64 and got.shape == (m @ v).shape
            assert np.array_equal(got, m @ v)


@pytest.mark.parametrize("modulus", [0, 4, 6])
def test_sparse_products_match_scipy(modulus):
    for rng, shape in cases(13 + modulus):
        inner = rng.randint(0, 6)
        a = oracle_csr(random_entries(rng, (shape[0], inner)),
                       (shape[0], inner))
        b = oracle_csr(random_entries(rng, (inner, shape[1])),
                       (inner, shape[1]))
        got = times(triples(*as_triples(a), a.shape),
                    triples(*as_triples(b), b.shape), modulus)
        want = a @ b
        if modulus:
            want.data %= modulus
        assert_same(got, want)


def test_entries_near_the_headroom_are_exact_or_refused():
    """Sums of entries near 2^62 / 4 are exact while they stay below the
    headroom and refused with a typed ResourceLimit once one reaches it;
    products are refused before they are formed."""
    rng = random.Random(29)
    refused = exact = 0
    for shape in SHAPES:
        for _ in range(12):
            r, c, x = random_entries(rng, shape, big=True)
            want = {}
            for key in zip(r.tolist(), c.tolist(), x.tolist()):
                want[key[:2]] = want.get(key[:2], 0) + key[2]
            if any(abs(v) >= HEADROOM for v in want.values()):
                with pytest.raises(ResourceLimit):
                    triples(r, c, x, shape)
                refused += 1
                continue
            t = triples(r, c, x, shape)
            got = dict(zip(zip(t.rows.tolist(), t.cols.tolist()),
                           t.vals.tolist()))
            assert got == {k: v for k, v in want.items() if v}
            exact += 1
    assert refused and exact
    # four entries at one position whose int64 sum wraps to -4
    with pytest.raises(ResourceLimit):
        triples([0] * 4, [0] * 4, [HEADROOM - 1] * 4, (1, 1))
    with pytest.raises(ResourceLimit):
        triples([0] * 3, [1] * 3, [-HEADROOM] * 3, (1, 2))
    edge = triples([0] * 4, [0] * 4, [HEADROOM - 1, HEADROOM - 1,
                                      1 - HEADROOM, 1 - HEADROOM], (1, 1))
    assert edge.vals.tolist() == []
    big = triples([0], [0], [HEADROOM // 4], (1, 1))
    with pytest.raises(ResourceLimit):
        times_dense(row_terms(big), np.array([8]))
    assert times_dense(row_terms(big), np.array([3])).tolist() == \
        [3 * (HEADROOM // 4)]
    with pytest.raises(ResourceLimit):
        times(big, triples([0], [0], [4], (1, 1)))
