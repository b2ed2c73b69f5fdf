"""The Smith form over Z/m records its pivots and replays each transform
when it is first read; the replay is checked against the transforms
updated at every pivot."""

import random

import numpy as np
from oracles import eager_mod_smith

from xmodcoh.modsnf import mod_smith


def test_replayed_transforms_equal_the_eager_ones_bitwise():
    """u, u^-1, v and v^-1, each replayed from the recorded pivots when
    first read, equal in dtype and every entry the transforms updated at
    every pivot (``oracles.eager_mod_smith``), over moduli with one to
    four local rings.  Shapes include no rows, no columns, wide and tall;
    some matrices are a multiple of a prime of m, so that pivots of higher
    valuation occur."""
    rng = random.Random(31)
    wide = tall = 0
    for m in (2, 4, 6, 9, 12, 36, 60, 210, 1024):
        shapes = [(0, 0), (0, 3), (4, 0), (1, 5), (5, 1)]
        shapes += [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(62)]
        for rows, cols in shapes:
            a = np.array([[rng.randrange(m) for _ in range(cols)]
                          for _ in range(rows)], dtype=np.int64
                         ).reshape(rows, cols)
            a[rng.random() < 0.3] = 0
            if rng.random() < 0.3:
                a *= min(p for p in range(2, m + 1) if m % p == 0)
            form = mod_smith(a, m)
            diag, *transforms = eager_mod_smith(a, m)
            assert form.diag == diag
            for got, want in zip((form.u, form.u_inv, form.v, form.v_inv),
                                 transforms):
                assert got.dtype == want.dtype == np.int64
                assert np.array_equal(got, want), (m, a)
            wide += rows < cols
            tall += rows > cols
    assert wide > 100 and tall > 100
