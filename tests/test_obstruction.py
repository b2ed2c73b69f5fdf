"""Obstruction theory for central crossed-module extensions: the boundary
map theta against an independent cochain-lifting (Bockstein) oracle, lift
independence, the batched lift sweep against a per-entry omega, exactness
of the six-term tail, and the numeric scalar-defect classifier for unitary
families."""

import itertools

import numpy as np
import pytest
from oracles import conj_action, sum_over_conjugacy

from xmodcoh import obstruction
from xmodcoh.cohomology import (CohomologyGroup, bar_differential,
                                cochain_from_coords, cochain_from_function,
                                cohomology, is_cocycle)
from xmodcoh.coefficients import finite_abelian, rational_circle
from xmodcoh.crossed import (Cocycle1, abelian_shift, compute_H1,
                             transform_cocycle, trivial_cocycle)
from xmodcoh.errors import InvariantError, ResourceLimit
from xmodcoh.groups import (FiniteGroup, make_cyclic, make_product,
                            make_symmetric, trivial_group)
from xmodcoh.obstruction import (CentralXModExtension, canonical_lift,
                                 induced_module, matrix_kernel_obstruction,
                                 obstruction_cocycle, theta,
                                 theta_lift_sweep, verify_exactness)


def central_ext(inv=False):
    """Z/2 -> Z/4 -> Z/2 with base group 1, or Z/2 acting by inversion on
    the cover (and so trivially on both the kernel and the quotient)."""
    c4, c2 = make_cyclic(4), make_cyclic(2)
    if inv:
        g = c2
        action0 = ((0, 1, 2, 3), (0, 3, 2, 1))
        action1 = ((0, 1), (0, 1))
    else:
        g = trivial_group()
        action0 = (tuple(c4.elements()),)
        action1 = (tuple(c2.elements()),)
    return CentralXModExtension(
        g, c4, c2, (0, 1, 0, 1), (0,) * 4, (0,) * 2, action0, action1,
        label="C2-C4-C2" + ("-inv" if inv else ""))


BASE_GROUPS = {
    "C2": make_cyclic(2),
    "C4": make_cyclic(4),
    "V4": make_product(make_cyclic(2), make_cyclic(2)),
}


# ---------------------------------------------------------------------------
# extension axioms
# ---------------------------------------------------------------------------

def test_extension_constructions_are_valid():
    for inv in (False, True):
        ext = central_ext(inv)
        assert ext.violations() == []
        assert ext.kernel_elements() == (0, 2)
        assert ext.fibers() == {0: [0, 2], 1: [1, 3]}
        ext.morphism()  # must construct without raising


def test_extension_axioms_are_checked():
    c4, c2, one = make_cyclic(4), make_cyclic(2), trivial_group()
    triv4 = (tuple(c4.elements()),)
    triv2 = (tuple(c2.elements()),)
    with pytest.raises(ValueError, match="surjective"):
        CentralXModExtension(one, c4, c2, (0, 0, 0, 0), (0,) * 4, (0,) * 2,
                             triv4, triv2)
    with pytest.raises(ValueError, match="phi0"):
        CentralXModExtension(one, c4, c2, (0, 1, 1, 0), (0,) * 4, (0,) * 2,
                             triv4, triv2)
    # an identity cover over S3: the kernel of the zero map is all of S3,
    # which is neither central nor killed by the boundary
    s3 = make_symmetric(3)
    conj = tuple(tuple(s3.conj(a, x) for x in s3.elements())
                 for a in s3.elements())
    with pytest.raises(ValueError, match="not central"):
        CentralXModExtension(s3, s3, one, (0,) * 6,
                             tuple(s3.elements()), (0,), conj, ((0,),) * 6)


# ---------------------------------------------------------------------------
# theta against the cochain-lifting oracle
# ---------------------------------------------------------------------------

def bockstein_oracle_coords(ext, group, c, h3):
    """Independent route to theta: lift the u-table pointwise to {0, 1}
    inside Z/4, take the (possibly twisted) coboundary with plain mod-4
    arithmetic, check it lands in 2Z/4, halve, classify mod 2."""
    n = group.order
    act = ext.action0

    def lifted(g, h):
        v = c.u[g * n + h]
        assert ext.phi0[v % 2] == v
        return v  # {0,1} already sits inside Z/4 over phi0 = mod 2

    values = []
    for g in group.elements():
        for h in group.elements():
            for k in group.elements():
                gh, hk = group.mul[g][h], group.mul[h][k]
                d = (act[c.alpha[g]][lifted(h, k)] + lifted(g, hk)
                     - lifted(gh, k) - lifted(g, h)) % 4
                assert d in (0, 2), "coboundary of the lift must be 2-torsion"
                values.append(d // 2)
    return h3.classify(cochain_from_coords(group, h3.module, 3, values))


@pytest.mark.parametrize("gname", ["C2", "C4", "V4"])
@pytest.mark.parametrize("inv", [False, True])
def test_theta_matches_the_bockstein_oracle(gname, inv):
    group = BASE_GROUPS[gname]
    ext = central_ext(inv)
    h1 = compute_H1(group, ext.xmod1())
    h3 = cohomology(group, finite_abelian(group, (2,)), 3)
    for cls in h1.classes:
        ob = theta(ext, group, cls.representative, check_second_lift=True,
                   rng_seed=11)
        got = h3.classify(ob.cocycle)
        want = bockstein_oracle_coords(ext, group, cls.representative, h3)
        assert got == want


def test_theta_class_data_is_consistent():
    group = make_cyclic(2)
    ext = central_ext()
    h1 = compute_H1(group, ext.xmod1())
    for cls in h1.classes:
        ob = theta(ext, group, cls.representative)
        assert is_cocycle(group, ob.induced.module, ob.cocycle)
        assert ob.coordinates == ob.h3.classify(ob.cocycle)
        if ob.is_zero:
            lam = ob.witness()
            assert lam is not None
            diff = bar_differential(group, ob.induced.module, lam)
            assert diff == ob.cocycle
        else:
            assert ob.witness() is None


def test_induced_module_basis_roundtrip():
    group = make_cyclic(2)
    ext = central_ext()
    ind = induced_module(ext, group, trivial_cocycle(group, ext.xmod1()))
    assert ind.module.factors == (2,)
    assert ind.to_vector(0) == (0,)
    assert ind.to_vector(2) == (1,)
    assert ind.from_vector((1,)) == 2
    with pytest.raises(ValueError, match="base cocycle invalid"):
        induced_module(ext, group, Cocycle1((1, 0), (0, 0, 0, 0)))


def test_theta_is_independent_of_the_lift():
    ext = central_ext()
    for gname in ("C2", "C4"):
        group = BASE_GROUPS[gname]
        h1 = compute_H1(group, ext.xmod1())
        for cls in h1.classes:
            sweep = theta_lift_sweep(ext, group, cls.representative)
            ob = theta(ext, group, cls.representative)
            assert sweep == [ob.coordinates]


def test_lift_sweep_budget_guard():
    ext = central_ext()
    group = BASE_GROUPS["V4"]
    c = trivial_cocycle(group, ext.xmod1())
    with pytest.raises(ResourceLimit):
        theta_lift_sweep(ext, group, c, budget=10)


def test_lift_validation():
    ext = central_ext()
    group = make_cyclic(2)
    c = trivial_cocycle(group, ext.xmod1())
    good = canonical_lift(ext, group, c)
    assert good == (0, 0, 0, 0)
    with pytest.raises(ValueError, match="wrong size"):
        theta(ext, group, c, lift=(0,))
    with pytest.raises(ValueError, match="does not cover"):
        theta(ext, group, c, lift=(0, 0, 0, 1))
    with pytest.raises(ValueError, match="normalized"):
        theta(ext, group, c, lift=(2, 0, 0, 0))
    # a non-canonical but valid lift gives the same class
    ob = theta(ext, group, c, lift=(0, 0, 0, 2))
    assert ob.coordinates == theta(ext, group, c).coordinates


# ---------------------------------------------------------------------------
# the batched lift sweep against the per-entry omega
# ---------------------------------------------------------------------------

def omega_oracle(ext, group, c, lift, induced):
    """omega(g,h,k) = alpha_g.v(h,k) v(g,hk) v(gh,k)^-1 v(g,h)^-1, entry by
    entry, as a degree-3 cochain over the induced kernel module."""
    n = group.order
    h0 = ext.h0group
    kset = set(ext.kernel_elements())

    def omega(g, h, k):
        w = h0.mul[ext.action0[c.alpha[g]][lift[h * n + k]]][
            lift[g * n + group.mul[h][k]]]
        w = h0.mul[w][h0.inv[lift[group.mul[g][h] * n + k]]]
        w = h0.mul[w][h0.inv[lift[g * n + h]]]
        assert w in kset, f"omega leaves the kernel at ({g}, {h}, {k})"
        return induced.to_vector(w)

    return cochain_from_function(group, induced.module, 3, omega)


def quaternion_ext():
    """Q8 -> V4 = Inn(Q8), acting by conjugation, over V4 -> V4: the kernel
    {1, -1} is central, and the cover is not abelian, so the order of the
    factors of omega matters."""
    units = "1ijk"
    table = {"11": "+1", "1i": "+i", "1j": "+j", "1k": "+k",
             "i1": "+i", "ii": "-1", "ij": "+k", "ik": "-j",
             "j1": "+j", "ji": "-k", "jj": "-1", "jk": "+i",
             "k1": "+k", "ki": "+j", "kj": "-i", "kk": "-1"}

    def times(a, b):  # element 2u + s is (-1)^s times unit u
        sign, unit = table[units[a // 2] + units[b // 2]]
        return 2 * units.index(unit) + (a + b + (sign == "-")) % 2

    q8 = FiniteGroup(tuple(tuple(times(a, b) for b in range(8))
                           for a in range(8)))
    v4 = BASE_GROUPS["V4"]
    phi0 = tuple((0, 2, 1, 3)[a // 2] for a in range(8))
    rep = [phi0.index(g) for g in v4.elements()]
    conj = tuple(tuple(q8.conj(rep[g], a) for a in q8.elements())
                 for g in v4.elements())
    return CentralXModExtension(
        v4, q8, v4, phi0, phi0, tuple(v4.elements()), conj,
        (tuple(v4.elements()),) * 4, label="Q8-V4")


SWEEP_EXTENSIONS = {"C2-C4-C2": lambda: central_ext(),
                    "C2-C4-C2-inv": lambda: central_ext(inv=True),
                    "Q8-V4": quaternion_ext}


def sweep_cocycles(ext, group):
    """The H^1 class representatives; over Q8 also the trivial cocycle
    moved by w = (1, a, b, 1), whose u-values lie over the noncommuting
    fibers {+-i}, {+-j} and {+-k}, so that omega depends on the order of
    its factors."""
    x1 = ext.xmod1()
    out = [cls.representative for cls in compute_H1(group, x1).classes]
    if ext.label == "Q8-V4":
        out.append(transform_cocycle(group, x1, trivial_cocycle(group, x1),
                                     0, (0, 2, 1, 0)[:group.order]))
    return out


def recorded_sweep(ext, group, c, chunk):
    """The sweep's classes in chunks of ``chunk`` lifts, and the omega
    tables and classes it passed through ``classify_tables``, stacked,
    with the chunk sizes."""
    real = CohomologyGroup.classify_tables
    chunks = []

    def recorded(self, tables, denominator=None):
        out = real(self, tables, denominator)
        chunks.append((np.array(tables), out))
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(obstruction, "LIFT_CHUNK", chunk)
        m.setattr(CohomologyGroup, "classify_tables", recorded)
        sweep = theta_lift_sweep(ext, group, c)
    return (sweep, np.vstack([t for t, _ in chunks]),
            [x for _, out in chunks for x in out], [len(t) for t, _ in chunks])


@pytest.mark.parametrize("name", sorted(SWEEP_EXTENSIONS))
def test_batched_sweep_matches_the_per_entry_oracle(name):
    """Every lift's batched omega equals the per-entry one, in product
    order, and is classified as ``classify`` classifies the per-entry
    omega.  Chunks of 7 lifts, which split each cocycle's lifts across
    chunks, give the same tables and classes."""
    ext = SWEEP_EXTENSIONS[name]()
    for group in BASE_GROUPS.values():
        for c in sweep_cocycles(ext, group):
            induced = induced_module(ext, group, c)
            h3 = obstruction._h_cached(group, induced.module, 3)
            positions, fibers = obstruction._lift_fibers(ext, group, c)
            lifts = list(itertools.product(*fibers))
            sweep, tables, classes, sizes = recorded_sweep(
                ext, group, c, obstruction.LIFT_CHUNK)
            assert sizes == [len(lifts)]
            for i, (choice, row) in enumerate(zip(lifts, tables)):
                lift = obstruction._lift_table(ext, group, positions, choice)
                omega = omega_oracle(ext, group, c, lift, induced)
                assert tuple(row.tolist()) == omega.coords
                assert classes[i] == h3.classify(omega)
                if i == 0:
                    assert obstruction_cocycle(ext, group, c, lift,
                                               induced) == omega
            assert sweep == sorted(set(classes))
            assert sweep == [theta(ext, group, c).coordinates]
            split = recorded_sweep(ext, group, c, 7)
            assert split[0] == sweep
            assert (split[1] == tables).all() and split[2] == classes
            assert split[3] == [min(7, len(lifts) - i)
                                for i in range(0, len(lifts), 7)]


def corrupt_builder(monkeypatch, corrupt):
    """Wrap the sweep's omega builder: ``corrupt(lifts, tables)`` may change
    the lifts before the gathers, or the tables after them."""
    real = obstruction._omega_builder

    def wrapped(*args):
        build = real(*args)

        def corrupted(lifts):
            lifts = lifts.copy()
            corrupt(lifts, None)
            tables = build(lifts)
            corrupt(None, tables)
            return tables

        return corrupted

    monkeypatch.setattr(obstruction, "_omega_builder", wrapped)


def test_the_sweep_fails_on_a_corrupted_lift(monkeypatch):
    """Corruptions of one lift in the middle of a chunk are caught: a
    cocycle of another class is a second class, a single changed value is
    no cocycle, and a value outside the kernel escapes.  The sweep is clean
    again once the corruption is undone."""
    ext = central_ext()
    group = BASE_GROUPS["V4"]
    c = compute_H1(group, ext.xmod1()).classes[0].representative
    induced = induced_module(ext, group, c)
    h3 = obstruction._h_cached(group, induced.module, 3)
    assert theta_lift_sweep(ext, group, c) == [(0,) * 4]
    other = h3.representative_of((0, 1, 0, 0)).coords
    mid = 256  # of the 512 lifts in the one chunk
    n = group.order

    def add_class(lifts, tables):
        if tables is not None:
            tables[mid] = (tables[mid] + other) % 2

    def one_value(lifts, tables):
        if tables is not None:
            at = (1 * n + 2) * n + 3  # omega(1, 2, 3)
            tables[mid, at] ^= 1

    def off_kernel(lifts, tables):
        if lifts is not None:  # 1 in C4 is outside the kernel {0, 2}
            lifts[mid, 1 * n + 1] = ext.h0group.mul[lifts[mid, n + 1]][1]

    with monkeypatch.context() as m:
        corrupt_builder(m, add_class)
        assert theta_lift_sweep(ext, group, c) == [(0,) * 4, (0, 1, 0, 0)]
    with monkeypatch.context() as m:
        corrupt_builder(m, one_value)
        with pytest.raises(ValueError, match="not a cocycle"):
            theta_lift_sweep(ext, group, c)
    with monkeypatch.context() as m:
        corrupt_builder(m, off_kernel)
        with pytest.raises(InvariantError, match="escapes the kernel"):
            theta_lift_sweep(ext, group, c)
    assert theta_lift_sweep(ext, group, c) == [(0,) * 4]


# ---------------------------------------------------------------------------
# exactness
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gname", ["C2", "C4", "V4"])
@pytest.mark.parametrize("inv", [False, True])
def test_obstruction_sequence_is_exact(gname, inv):
    group = BASE_GROUPS[gname]
    rep = verify_exactness(central_ext(inv), group)
    assert rep.exact
    assert rep.middle_counterexamples == ()
    assert rep.cover_counterexamples == ()
    assert set(rep.image_classes) == set(rep.zero_classes)
    assert set(rep.h2_image_classes) == set(rep.basepoint_preimage)


def test_exactness_report_matches_the_abelian_shift_sizes():
    group = BASE_GROUPS["V4"]
    rep = verify_exactness(central_ext(), group)
    shift = abelian_shift(group, central_ext().xmod1())
    assert rep.h1_quotient.size() == shift.h2.order
    assert rep.h2_order == cohomology(
        group, finite_abelian(group, (2,)), 2).order


# ---------------------------------------------------------------------------
# conjugation transport
# ---------------------------------------------------------------------------

def test_conjugation_preserves_obstruction_coordinates():
    ext = central_ext(inv=True)
    group = make_cyclic(2)
    h1 = compute_H1(group, ext.xmod1())
    for cls in h1.classes:
        ob = theta(ext, group, cls.representative)
        for gamma in ext.ggroup.elements():
            moved, ob2 = conj_action(ext, group, gamma,
                                     cls.representative, ob)
            assert h1.class_of(moved) == h1.class_of(cls.representative)
            assert ob2.coordinates == ob.coordinates


def test_conjugacy_sum_buckets_every_class_once():
    ext = central_ext(inv=True)
    group = make_cyclic(2)
    h1 = compute_H1(group, ext.xmod1())
    summary = sum_over_conjugacy(ext, group)
    seen = [i for bucket in summary.classes_by_label for i in bucket]
    assert sorted(seen) == list(range(h1.size()))
    # inversion is trivial on the kernel, so one module structure
    assert len(summary.labels) == 1
    assert summary.orbits == ((0,),)


# ---------------------------------------------------------------------------
# scalar-defect classifier for unitary families
# ---------------------------------------------------------------------------

def pauli_family():
    """The XZ projective family over Z/2 x Z/2 (index a*2 + b -> Z^a X^b)."""
    z = np.diag([1.0 + 0j, -1.0])
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    group = make_product(make_cyclic(2), make_cyclic(2))
    mats = [np.linalg.matrix_power(z, a) @ np.linalg.matrix_power(x, b)
            for a in range(2) for b in range(2)]
    return group, mats


def test_pauli_family_has_zero_class_with_witness():
    group, mats = pauli_family()
    rep = matrix_kernel_obstruction(group, mats)
    assert rep.dimension == 2
    assert rep.denominator == 8
    assert rep.is_zero
    assert rep.invariant_factors == (2, 2, 2)  # H^3(V4, Q/Z)
    assert rep.witness is not None
    assert rep.max_scalar_residual < 1e-12
    assert rep.max_snap_residual < 1e-12
    # matrix associativity forces the defect table to be an exact cocycle,
    # so the obstruction coboundary vanishes identically
    qz = rational_circle(group)
    assert rep.omega == cochain_from_coords(group, qz, 3,
                                            [0] * group.order ** 3, 1)
    assert any(p != 0 for p in rep.defect_phases)
    assert is_cocycle(group, qz, rep.omega)
    assert bar_differential(group, qz, rep.witness) == rep.omega


def test_honest_representation_has_no_defects():
    s3 = make_symmetric(3)
    mats = []
    for a in s3.elements():
        m = np.zeros((6, 6))
        for b in s3.elements():
            m[s3.mul[a][b], b] = 1.0
        mats.append(m)
    rep = matrix_kernel_obstruction(s3, mats)
    assert rep.is_zero
    assert rep.defect_phases == (0.0,) * 36
    assert rep.omega == cochain_from_coords(s3, rational_circle(s3), 3,
                                            [0] * s3.order ** 3, 1)


def test_scalar_perturbations_do_not_move_the_class():
    group, mats = pauli_family()
    base = matrix_kernel_obstruction(group, mats)
    rng = np.random.default_rng(5)
    for _ in range(5):
        phases = np.exp(2j * np.pi * rng.random(group.order))
        moved = [p * m for p, m in zip(phases, mats)]
        rep = matrix_kernel_obstruction(group, moved)
        assert rep.coordinates == base.coordinates
        assert rep.invariant_factors == base.invariant_factors
        assert rep.omega == base.omega


def test_identity_scalar_normalization_is_accepted():
    group, mats = pauli_family()
    mats = [m.copy() for m in mats]
    mats[group.identity] = 1j * mats[group.identity]
    rep = matrix_kernel_obstruction(group, mats)
    assert rep.is_zero


def test_snap_denominator_override():
    group, mats = pauli_family()
    rep = matrix_kernel_obstruction(group, mats, snap_denominator=4)
    assert rep.denominator == 4
    assert rep.is_zero


def test_matrix_family_validation():
    group, mats = pauli_family()
    with pytest.raises(ValueError, match="one matrix per group element"):
        matrix_kernel_obstruction(group, mats[:3])
    bad = [m.copy() for m in mats]
    bad[1] = np.array([[1, 1], [0, 1]], dtype=complex)
    with pytest.raises(ValueError, match="not unitary"):
        matrix_kernel_obstruction(group, bad)
    notscalar = [m.copy() for m in mats]
    notscalar[group.identity] = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(ValueError, match="identity matrix must be scalar"):
        matrix_kernel_obstruction(group, notscalar)
    c2 = make_cyclic(2)
    w = np.exp(2j * np.pi / 3)
    with pytest.raises(ValueError, match="deviate from scalars"):
        matrix_kernel_obstruction(
            c2, [np.eye(2, dtype=complex), np.diag([1.0 + 0j, w])])
