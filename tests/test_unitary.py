"""Numeric unitary layer: winding of based geodesic paths, descent of the
trace-determinant to the circle, special-unitary membership certificates,
exponential length with its bi-invariant metric, the two-sided exponential
estimate, and the R x SU decomposition of sampled paths."""

from fractions import Fraction
from math import pi

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from scipy.stats import unitary_group

import oracles
from xmodcoh import cli, unitary
from oracles import (as_selfadjoint, ball_element, path_at,
                     pointwise_product_path, random_selfadjoint,
                     random_special_unitary)
from xmodcoh.unitary import (as_unitary, check_exp_inequalities, circle_value,
                             d_tau, decompose_path, dlhs_delta, dlhs_path,
                             el_tau, exp_selfadjoint, operator_norm,
                             principal_log, random_based_path,
                             random_unitary, refine_path, su_tau_member, tau,
                             unitary_path)


def diag_loop(windings, segments=16):
    """The path t -> diag(e^{2 pi i w_j t}), sampled uniformly."""
    ts = np.linspace(0.0, 1.0, segments + 1)
    mats = [np.diag([np.exp(2j * pi * w * t) for w in windings])
            for t in ts]
    return unitary_path(ts, mats)


# ---------------------------------------------------------------------------
# matrix helpers and input gates
# ---------------------------------------------------------------------------

def test_norm_and_trace_basics():
    assert operator_norm([[0, 2], [0, 0]]) == pytest.approx(2.0)
    assert tau(np.eye(3)) == pytest.approx(1.0)
    assert tau(np.diag([1, -1])) == pytest.approx(0.0)


def test_operator_norm_is_numpys_spectral_norm_bit_for_bit():
    rng = np.random.default_rng(41)
    inputs = [np.array([[3]]), np.array([[2.5]]), np.array([[1 - 2j]]),
              np.array([[True, False], [True, True]])]
    for n in range(1, 7):
        for _ in range(20):
            inputs += [rng.normal(size=(n, n))
                       + 1j * rng.normal(size=(n, n)),
                       rng.normal(size=(n, n)),
                       rng.integers(-9, 10, size=(n, n)),
                       random_unitary(n, rng) - np.eye(n)]
    inputs.append([[0, 2], [0, 0]])
    for a in inputs:
        assert operator_norm(a) == float(np.linalg.norm(a, 2))


def test_unitary_and_selfadjoint_gates():
    with pytest.raises(ValueError, match="square matrix"):
        as_unitary(np.ones((2, 3)))
    with pytest.raises(ValueError, match="not unitary within"):
        as_unitary(1.01 * np.eye(2))
    with pytest.raises(ValueError, match="not self-adjoint within"):
        as_selfadjoint([[0, 1], [0, 0]])
    rng = np.random.default_rng(0)
    h = random_selfadjoint(3, rng)
    assert operator_norm(as_selfadjoint(h) - h) <= 1e-12
    u = exp_selfadjoint(h)
    assert operator_norm(as_unitary(u) - u) == 0.0


def test_principal_log_inverts_the_exponential():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3, 4):
        h = random_selfadjoint(n, rng, bound=3.0)
        assert operator_norm(principal_log(exp_selfadjoint(h)) - h) <= 1e-9
        u = random_unitary(n, rng)
        assert operator_norm(exp_selfadjoint(principal_log(u)) - u) <= 1e-12
    with pytest.raises(ValueError, match="branch cut"):
        principal_log(-np.eye(2), margin=0.1)


def test_path_validation_guards():
    eye = np.eye(2)
    with pytest.raises(ValueError, match="matching ts/mats"):
        unitary_path([0.0, 1.0], [eye])
    with pytest.raises(ValueError, match="ascend strictly from 0 to 1"):
        unitary_path([0.0, 0.5], [eye, eye])
    with pytest.raises(ValueError, match="start at the identity"):
        unitary_path([0.0, 1.0], [np.diag([1, -1]), eye])
    with pytest.raises(ValueError, match="share one dimension"):
        unitary_path([0.0, 0.5, 1.0], [eye, np.eye(3), eye])
    # the first faulty sample is refused, also among samples of two sizes
    off = np.diag([1.0, 1.5])
    with pytest.raises(ValueError, match=r"not unitary .*defect 1\.250e\+00"):
        unitary_path([0.0, 0.5, 1.0], [eye, off, 2 * eye])
    with pytest.raises(ValueError, match="not unitary"):
        unitary_path([0.0, 1.0], [off, np.ones((3, 2))])
    with pytest.raises(ValueError, match="square matrix"):
        unitary_path([0.0, 1.0], [np.ones((3, 2)), off])
    with pytest.raises(ValueError, match="refine the sampling"):
        unitary_path([0.0, 1.0], [eye, -eye])
    path = diag_loop([1])
    with pytest.raises(ValueError, match="outside the sampled range"):
        path_at(path, 1.5)
    with pytest.raises(ValueError, match="share one dimension"):
        pointwise_product_path(path, diag_loop([1, 0]))


# ---------------------------------------------------------------------------
# winding of based paths
# ---------------------------------------------------------------------------

def test_winding_anchors_on_diagonal_loops():
    for windings, want in [((1,), 1.0), ((1, 0), 0.5), ((1, -1), 0.0),
                           ((2, 1), 1.5)]:
        got = dlhs_path(diag_loop(windings))
        assert got.method == "segment-exact"
        assert got.error_estimate == 0.0
        assert got.value == pytest.approx(want, abs=1e-12)


def test_winding_is_invariant_under_geodesic_refinement():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4):
        path = random_based_path(n, 6, rng)
        base = dlhs_path(path).value
        for factor in (2, 3):
            fine = dlhs_path(refine_path(path, factor)).value
            assert fine == pytest.approx(base, abs=1e-10)


def test_winding_adds_for_commuting_loops():
    product = pointwise_product_path(diag_loop([1, 0]), diag_loop([0, 1]))
    assert dlhs_path(product).value == pytest.approx(1.0, abs=1e-9)


def test_quadrature_option_agrees_on_a_uniform_loop():
    got = dlhs_path(diag_loop([1], segments=8), quad_panels=16)
    assert got.method == "simpson"
    assert got.value == pytest.approx(1.0, abs=1e-9)
    assert got.error_estimate <= 1e-9
    with pytest.raises(ValueError, match="at least one quadrature panel"):
        dlhs_path(diag_loop([1]), quad_panels=0)


def test_simpson_equals_scipys_bit_for_bit():
    rng = np.random.default_rng(11)
    for panels in range(1, 65):
        uniform = np.linspace(0.0, 1.0, 2 * panels + 1)
        ragged = np.cumsum(rng.uniform(0.01, 1.0, 2 * panels + 1))
        for xs in (uniform, ragged):
            scale = 10.0 ** rng.integers(-8, 9, size=xs.size)
            ys = rng.normal(size=xs.size) * scale
            want = float(scipy.integrate.simpson(ys, x=xs))
            assert unitary._simpson(ys, xs).hex() == want.hex(), panels


# ---------------------------------------------------------------------------
# descent to the circle
# ---------------------------------------------------------------------------

def test_circle_values_reduce_and_snap():
    cv = circle_value(0.125, 4)
    assert cv.snap == Fraction(1, 8)
    assert cv.distance_to(0.125) == 0.0
    assert circle_value(0.25 - 1e-13, 4).is_zero()
    assert circle_value(1.0 / 3.0, 3).is_zero()


def test_lazy_snaps_equal_the_eager_snap():
    grid = [k / 2000 for k in range(-40, 2041, 7)]
    grid += [1 / n - 1e-13 for n in range(1, 9)]            # folds to 0
    grid += [k / 24 + 3e-9 for k in range(25)]              # outside tol
    grid += [2 ** 0.5 * k for k in range(1, 20)]
    kinds = set()
    for n in range(1, 9):
        for raw in grid:
            for tol in (1e-9, 1e-6):
                cv = circle_value(raw, n, tol)
                assert "snap" not in vars(cv)
                want = oracles.eager_snap(raw, n, tol)
                assert cv.snap == want, (raw, n, tol)
                assert cv.snap is cv.snap
                kinds.add("none" if want is None else
                          "zero" if want == 0 and raw % (1 / n) else
                          "fraction")
    assert kinds == {"none", "zero", "fraction"}


def test_delta_descends_the_determinant():
    # the class modulo (1/n)Z is determined by arg det u alone
    rng = np.random.default_rng(3)
    for trial in range(25):
        n = int(rng.integers(1, 5))
        u = random_unitary(n, rng)
        target = float(np.angle(np.linalg.det(u))) / (2 * pi * n)
        assert dlhs_delta(u).distance_to(target) <= 1e-9


def test_delta_anchors_and_branch_guard():
    assert dlhs_delta(np.eye(3)).is_zero()
    assert dlhs_delta(np.exp(2j * pi / 3) * np.eye(3)).is_zero()
    eighth = dlhs_delta(np.diag([1j, 1]))
    assert eighth.snap == Fraction(1, 8)
    assert not eighth.is_zero()
    with pytest.raises(ValueError, match="no branch gap wider"):
        dlhs_delta(np.diag([1, 1j, -1, -1j]), angle_tol=1.6)


def test_delta_is_a_homomorphism_modulo_the_lattice():
    rng = np.random.default_rng(4)
    for trial in range(30):
        n = int(rng.integers(1, 5))
        u, v = random_unitary(n, rng), random_unitary(n, rng)
        total = dlhs_delta(u).value + dlhs_delta(v).value
        assert dlhs_delta(u @ v).distance_to(total) <= 1e-8


# ---------------------------------------------------------------------------
# the special-unitary kernel and exponential length
# ---------------------------------------------------------------------------

def test_membership_certificates_recompose():
    rep = su_tau_member(np.diag([1j, -1j]))
    assert rep.member and len(rep.certificate) == 1
    assert operator_norm(rep.certificate[0]) == pytest.approx(pi / 2)

    rng = np.random.default_rng(5)
    for trial in range(15):
        n = int(rng.integers(2, 5))
        u = random_special_unitary(n, rng)
        rep = su_tau_member(u)
        assert rep.member and rep.residual <= 1e-9
        recomposed = np.eye(n, dtype=complex)
        for h in rep.certificate:
            assert abs(tau(h)) <= 1e-12
            recomposed = recomposed @ exp_selfadjoint(h)
        assert operator_norm(recomposed - u) <= 1e-9


def test_membership_is_the_vanishing_of_delta():
    rng = np.random.default_rng(6)
    for trial in range(30):
        n = int(rng.integers(1, 5))
        u = random_special_unitary(n, rng) if trial % 2 else \
            random_unitary(n, rng)
        rep = su_tau_member(u)
        assert rep.member == dlhs_delta(u).is_zero()
        assert rep.member == (abs(rep.det_value - 1.0) <= 1e-9)
    miss = su_tau_member(np.diag([1j, 1]))
    assert not miss.member and miss.certificate is None


def test_exponential_length_anchors():
    exact = el_tau(np.diag([np.exp(2j), np.exp(-2j)]))
    assert exact.exact and exact.value == pytest.approx(2.0, abs=1e-12)
    bound = el_tau(np.exp(2j * pi / 3) * np.eye(3))
    assert not bound.exact
    assert bound.value == pytest.approx(4 * pi / 3, abs=1e-9)
    with pytest.raises(ValueError, match="special-unitary kernel"):
        el_tau(np.diag([1j, 1]))


def test_exponential_length_is_conjugation_invariant():
    rng = np.random.default_rng(7)
    for trial in range(15):
        n = int(rng.integers(2, 5))
        u = random_special_unitary(n, rng)
        v = random_unitary(n, rng)
        conjugated = el_tau(v @ u @ v.conj().T)
        assert abs(conjugated.value - el_tau(u).value) <= 1e-9


def test_metric_properties_inside_the_unit_ball():
    rng = np.random.default_rng(8)
    for trial in range(15):
        n = int(rng.integers(2, 5))
        u, v = ball_element(n, 1.0, rng), ball_element(n, 1.0, rng)
        w = random_unitary(n, rng)
        assert d_tau(u, u).value <= 1e-12
        assert abs(d_tau(u, v).value - d_tau(v, u).value) <= 1e-9
        assert abs(d_tau(u @ w, v @ w).value - d_tau(u, v).value) <= 1e-9


def test_metric_sandwich_in_the_unit_ball():
    # ||u - v|| <= d(u, v) <= (pi/2) ||u - v|| on the radius-1 ball
    rng = np.random.default_rng(9)
    for trial in range(60):
        n = int(rng.integers(2, 5))
        u, v = ball_element(n, 1.0, rng), ball_element(n, 1.0, rng)
        gap = operator_norm(u - v)
        dist = d_tau(u, v).value
        assert dist - gap >= -1e-9
        assert (pi / 2) * gap - dist >= -1e-9


def test_two_sided_exponential_estimate():
    rep = check_exp_inequalities(4, 400, seed=3)
    assert rep.passed and rep.violations == 0
    assert rep.min_upper_slack >= -1e-9
    assert rep.min_lower_slack >= -1e-9
    assert (rep.trials, rep.max_dim, rep.seed) == (400, 4, 3)
    with pytest.raises(ValueError, match="at least one trial"):
        check_exp_inequalities(4, 0)


# ---------------------------------------------------------------------------
# the R x SU decomposition
# ---------------------------------------------------------------------------

def test_decomposition_anchors():
    dec = decompose_path(diag_loop([1]))
    assert dec.h[0] == 0.0
    assert dec.h[-1] == pytest.approx(1.0, abs=1e-12)
    assert all(abs(g[0, 0] - 1.0) <= 1e-12 for g in dec.g)

    dec = decompose_path(diag_loop([1, 0]))
    assert dec.h[-1] == pytest.approx(0.5, abs=1e-12)
    assert operator_norm(dec.g[-1] + np.eye(2)) <= 1e-9


def test_each_segment_log_is_computed_once_per_path(monkeypatch):
    """As the decompose task runs them: building, decomposing and refining
    a path, and decomposing the refinement, take each segment's logarithm
    once for the path and once for each refined segment, in one stacked
    call per path."""
    real = unitary._segment_logs
    calls, stacked = [], []

    def counted(ts, mats):
        stacked.append(len(ts) - 1)
        calls.extend(zip(ts, ts[1:]))
        return real(ts, mats)

    monkeypatch.setattr(unitary, "_segment_logs", counted)
    rng = np.random.default_rng(12)
    for segments, factor in ((3, 2), (5, 3)):
        calls.clear()
        stacked.clear()
        path = random_based_path(3, segments, rng)
        dec = decompose_path(path)
        fine = refine_path(path, factor)
        decompose_path(fine)
        dlhs_path(path)
        dlhs_path(fine)
        assert sorted(calls) == sorted(
            list(zip(path.ts, path.ts[1:])) + list(zip(fine.ts, fine.ts[1:])))
        assert len(calls) == segments * (1 + factor)
        assert stacked == [segments, segments * factor]
        assert dec.h == decompose_path(path).h
    with pytest.raises(ValueError, match="read-only"):
        path.segment_log(0)[0, 0] = 1.0


def test_decomposition_reconstructs_and_respects_refinement():
    rng = np.random.default_rng(10)
    for trial in range(25):
        n = int(rng.integers(1, 5))
        path = random_based_path(n, int(rng.integers(3, 6)), rng)
        dec = decompose_path(path)
        assert dec.max_reconstruction_error <= 1e-9
        assert dec.max_det_error <= 1e-9
        assert dec.h[0] == 0.0
        for hk, gk, mk in zip(dec.h, dec.g, path.mats):
            assert abs(complex(np.linalg.det(gk)) - 1.0) <= 1e-9
            assert operator_norm(np.exp(2j * pi * hk) * gk - mk) <= 1e-9

        fine = decompose_path(refine_path(path, 2))
        assert np.allclose(fine.h[::2], dec.h, atol=1e-8)
        assert operator_norm(fine.g[-1] - dec.g[-1]) <= 1e-8


# ---------------------------------------------------------------------------
# stacked numerics against the per-matrix oracles
# ---------------------------------------------------------------------------

def _battery(seed, max_dim):
    return {"schema": 1, "task": "unitary-check", "seed": seed,
            "max_dim": max_dim, "ineq_trials": 40, "pair_trials": 12,
            "member_trials": 12, "sandwich_trials": 12, "conj_trials": 8}


def _random_paths(seed, max_dim):
    return {"schema": 1, "task": "decompose", "seed": seed,
            "random": {"paths": 12, "max_dim": max_dim}}


def _with_oracles(monkeypatch):
    """Route the unitary-check and decompose tasks through the per-trial
    and per-matrix loops."""
    monkeypatch.setattr(unitary, "_eig_unitaries", oracles.loop_eig_unitaries)
    monkeypatch.setattr(unitary, "el_tau", oracles.loop_el_tau)
    for name in ("check_exp_inequalities", "random_based_path",
                 "refine_path", "decompose_path"):
        monkeypatch.setattr(cli, name, getattr(oracles, f"loop_{name}"))
    monkeypatch.setattr(cli, "el_tau", oracles.loop_el_tau)
    monkeypatch.setattr(cli, "dlhs_delta", oracles.fresh_dlhs_delta)


@pytest.mark.parametrize("block", [7, unitary._BLOCK])
def test_inequality_reports_equal_the_per_trial_loop(monkeypatch, block):
    monkeypatch.setattr(unitary, "_BLOCK", block)
    for max_dim in range(1, 7):
        for seed in (0, 1, 5):
            got = check_exp_inequalities(max_dim, 30, seed=seed)
            assert got == oracles.loop_check_exp_inequalities(
                max_dim, 30, seed=seed)


def test_task_results_equal_the_per_matrix_oracles(monkeypatch):
    monkeypatch.setattr(unitary, "_BLOCK", 7)
    bundles = [make(seed, max_dim) for seed in (1, 2, 6)
               for max_dim in range(1, 7)
               for make in (_battery, _random_paths)]
    stacked = [cli.run(b)["result"] for b in bundles]
    with monkeypatch.context() as patch:
        _with_oracles(patch)
        looped = [cli.run(b)["result"] for b in bundles]
    assert stacked == looped


def test_paths_equal_the_per_matrix_oracles():
    for n in range(1, 7):
        for seed in range(4):
            path = random_based_path(n, 3 + seed, np.random.default_rng(seed))
            loop = oracles.loop_random_based_path(
                n, 3 + seed, np.random.default_rng(seed))
            assert path.ts == loop.ts
            assert all(np.array_equal(a, b)
                       for a, b in zip(path.mats, loop.mats))
            for factor in (2, 3):
                fine = refine_path(path, factor)
                fine_loop = oracles.loop_refine_path(path, factor)
                assert fine.ts == fine_loop.ts
                assert all(np.array_equal(a, b)
                           for a, b in zip(fine.mats, fine_loop.mats))
            dec, ref = decompose_path(path), oracles.loop_decompose_path(path)
            assert (dec.h, dec.max_reconstruction_error, dec.max_det_error) \
                == (ref.h, ref.max_reconstruction_error, ref.max_det_error)
            assert all(np.array_equal(a, b) for a, b in zip(dec.g, ref.g))
            u = random_special_unitary(n, np.random.default_rng(seed))
            assert el_tau(u) == oracles.loop_el_tau(u)


def test_midpoints_are_fresh_seeded_draws():
    for n in range(1, 7):
        for seed in (0, 3):
            rng = np.random.default_rng(seed)
            for draw in range(3):
                fresh = random_unitary(n, rng)
                mid, first = unitary._midpoint(n, seed, 1e-8, draw)
                assert np.array_equal(mid, fresh) and not mid.flags.writeable
                assert first == np.trace(principal_log(fresh, margin=1e-8))
    with pytest.raises(TypeError):
        dlhs_delta(np.eye(2), seed=None)


def test_a_wrong_first_leg_still_fails_the_cross_check(monkeypatch):
    real = unitary._midpoint

    def shifted(*key):
        mid, first = real(*key)
        return mid, first + 0.5

    monkeypatch.setattr(unitary, "_midpoint", shifted)
    rng = np.random.default_rng(13)
    for n in (1, 3):
        with pytest.raises(RuntimeError,
                           match="path-choice independence failed"):
            dlhs_delta(random_unitary(n, rng))


def test_random_unitary_draws_as_scipys_unitary_group():
    for seed in range(100):
        for n in range(2, 9):
            ours = np.random.default_rng(seed)
            theirs = np.random.default_rng(seed)
            want = unitary_group.rvs(n, random_state=theirs)
            assert np.array_equal(random_unitary(n, ours), want), (seed, n)
            assert ours.uniform() == theirs.uniform()


def real_orthogonals(rng, n):
    """Real unitaries of size n: +-1, the cyclic shift, kron(1_k, swap) and
    an orthogonal draw."""
    mats = [np.eye(n), -np.eye(n), np.roll(np.eye(n), 1, axis=0),
            np.linalg.qr(rng.standard_normal((n, n)))[0]]
    if n % 2 == 0:
        mats.append(np.kron(np.eye(n // 2), [[0, 1], [1, 0]]))
    return np.array(mats)


def adversarial_unitaries(rng, n):
    """Seeded unitaries of size n whose Schur forms are hard to get
    unitary or triangular: Haar draws, a reflection W diag(1, ..., 1, -1) W^*
    with its n - 1 repeats, the real_orthogonals, clusters of eigenvalues
    split by 1e-6 ... 1e-15, and, last, two with eigenvalues at
    e^{+-i pi (1 - 1e-13)}, next to the branch cut."""
    def conj(w, angles):
        return (w * np.exp(1j * np.asarray(angles))) @ w.conj().T

    w = random_unitary(n, rng)
    mats = [random_unitary(n, rng) for _ in range(3)]
    mats.append(conj(w, [0.0] * (n - 1) + [pi]))
    mats.extend(real_orthogonals(rng, n))
    base = rng.uniform(-pi, pi, n)
    for split in (1e-6, 1e-9, 1e-12, 1e-15):
        angles = np.full(n, base[0])
        angles[1::2] += split
        mats.append(conj(w, angles))
        mats.append(conj(w, base + split * np.arange(n)))
    mats.append(conj(w, np.full(n, pi * (1 - 1e-13))))
    mats.append(conj(w, np.where(np.arange(n) % 2, pi, -pi) * (1 - 1e-13)))
    return np.array(mats, dtype=complex)


def assert_schur_contract(us):
    """_eig_unitaries of a stack gives scipy's Schur eigenvalues of each
    matrix bit for bit, and unitary Schur vectors that triangularize it."""
    lam, q = unitary._eig_unitaries(us)
    us = np.asarray(us)
    k, n = us.shape[:2]
    assert lam.shape == (k, n) and q.shape == (k, n, n)
    assert lam.dtype == q.dtype == np.complex128
    for u, row, z in zip(us, lam, q):
        t = scipy.linalg.schur(u.astype(complex), output="complex")[0]
        assert np.array_equal(row, np.diag(t))
        assert operator_norm(z.conj().T @ z - np.eye(n)) <= 1e-13
        assert np.abs(np.tril(z.conj().T @ u @ z, -1)).max(
            initial=0.0) <= 1e-13


def test_schur_forms_meet_the_contract_on_unitary_stacks():
    rng = np.random.default_rng(17)
    for n in range(1, 13):
        us = adversarial_unitaries(rng, n)
        real = real_orthogonals(rng, n)
        for view in (us, us[:0], us[:1], us[::2], us.swapaxes(-1, -2),
                     real, real.swapaxes(-1, -2)[::2]):
            assert_schur_contract(view)
        back = exp_selfadjoint(principal_log(us))
        assert unitary.operator_norms(back - us).max() <= 1e-13
        with pytest.raises(ValueError, match="branch cut"):
            principal_log(us[-2], margin=1e-8)


def test_schur_refuses_infs_and_nans_before_any_call(monkeypatch):
    calls = []
    monkeypatch.setattr(np.linalg, "eig", lambda *args: calls.append(args))
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan)):
        us = np.stack([np.eye(3, dtype=complex)] * 4)
        us[2, 1, 2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            unitary._eig_unitaries(us)
    assert calls == []


# ---------------------------------------------------------------------------
# stacked trial families against the per-trial battery
# ---------------------------------------------------------------------------

def test_task_results_equal_the_per_trial_loops(monkeypatch):
    for seed in range(1, 9):
        for max_dim in range(1, 7):
            battery = _battery(seed, max_dim)
            paths = _random_paths(seed, max_dim)
            want = (oracles.loop_unitary_check(
                        seed, max_dim, **{key: battery[key] for key in battery
                                          if key.endswith("_trials")}),
                    oracles.loop_decompose_random(seed, 12, max_dim))
            for block in (7, 256):
                monkeypatch.setattr(unitary, "_BLOCK", block)
                got = (cli.run(battery)["result"], cli.run(paths)["result"])
                assert got == want, (seed, max_dim, block)


def test_a_tiny_cell_budget_changes_no_report(monkeypatch):
    bundles = [make(seed, 6) for seed in (1, 4) for make in (_battery,
                                                              _random_paths)]
    bundles.append(dict(_battery(2, 40), ineq_trials=6, pair_trials=3,
                        member_trials=3, sandwich_trials=3, conj_trials=3))
    want = [cli.run(b)["result"] for b in bundles]
    real = unitary._run_block
    sizes = []

    def sized(block, run):
        sizes.append(sum(n * n for _, n, _ in block))
        return real(block, run)

    monkeypatch.setattr(unitary, "_run_block", sized)
    for cells in (1, 40):
        monkeypatch.setattr(unitary, "_CELLS", cells)
        sizes.clear()
        assert [cli.run(b)["result"] for b in bundles] == want
        assert sizes and max(sizes) < cells + 40 ** 2
        step = -(-cells // 9)
        assert unitary._chunks(10, 9) == [slice(i, i + step)
                                          for i in range(0, 10, step)]


def test_stacked_invariants_equal_one_matrix_at_a_time():
    rng = np.random.default_rng(21)
    for n in range(1, 7):
        us = np.stack([random_unitary(n, rng) for _ in range(9)])
        special = us / np.linalg.det(us)[:, None, None] ** (1 / n)
        assert dlhs_delta(us) == [dlhs_delta(u) for u in us]
        assert dlhs_delta(us) == [oracles.fresh_dlhs_delta(u) for u in us]
        for got, u in zip(su_tau_member(special), special):
            want = oracles.loop_su_tau_member(u)
            assert (got.member, got.det_value, got.residual) == \
                (want.member, want.det_value, want.residual)
            assert all(np.array_equal(a, b) for a, b in
                       zip(got.certificate, want.certificate))
        assert el_tau(special) == [oracles.loop_el_tau(u) for u in special]
        assert d_tau(special, special[::-1]) == [
            oracles.loop_d_tau(u, v) for u, v in zip(special,
                                                     special[::-1])]
        assert np.array_equal(principal_log(us), np.stack(
            [oracles._schur_principal_log(u) for u in us]))


def test_battery_draws_follow_the_per_trial_order():
    for n in range(1, 7):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            draws = [unitary.ball_draw(n, rng) for _ in range(5)]
            ref = np.random.default_rng(seed)
            balls = unitary.ball_elements(n, 0.9, draws)
            for got in balls:
                assert np.array_equal(got, oracles.loop_ball_element(
                    n, 0.9, ref))
            assert rng.uniform() == ref.uniform()
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            haar = unitary.haar_unitaries(
                n, [unitary.haar_draw(n, rng) for _ in range(5)])
            assert all(np.array_equal(u, oracles.loop_random_unitary(n, ref))
                       for u in haar)
            assert rng.uniform() == ref.uniform()
    # a scalar self-adjoint part has no traceless part, so no second uniform
    zero = np.zeros((3, 3))
    scalar = (np.eye(3), zero, 0.5)
    assert unitary._traceless_is_zero(3, scalar)
    balls = unitary.ball_elements(3, 0.9, [(scalar, None)])
    assert np.array_equal(balls[0], np.eye(3))
    assert not unitary._traceless_is_zero(3, (np.eye(3) + 1e-300, zero, 0.5))


def test_trial_values_come_back_in_trial_order(monkeypatch):
    monkeypatch.setattr(unitary, "_BLOCK", 7)

    def values(n, ks, draws):
        u = unitary.haar_unitaries(n, draws)
        return [(k, d.value) for k, d in zip(ks, dlhs_delta(u))]

    got = [value for block in unitary.run_trials(
        40, 5, np.random.default_rng(3), unitary.haar_draw, values)
        for value in block]
    rng = np.random.default_rng(3)
    want = []
    for k in range(40):
        n = int(rng.integers(1, 6))
        u = oracles.loop_random_unitary(n, rng)
        want.append((k, oracles.fresh_dlhs_delta(u).value))
    assert got == want


def test_stacked_gates_refuse_the_first_faulty_matrix():
    rng = np.random.default_rng(22)
    good = np.stack([random_special_unitary(3, rng) for _ in range(5)])
    us = good.copy()
    us[2] *= 1.5
    us[4] *= 2.0
    for check in (dlhs_delta, su_tau_member, el_tau,
                  lambda u: d_tau(u, good), lambda u: d_tau(good, u)):
        with pytest.raises(ValueError, match=r"not unitary .*defect 1\.250"):
            check(us)
    with pytest.raises(ValueError, match="square matrix"):
        dlhs_delta(np.ones((2, 3, 4)))
    with pytest.raises(ValueError, match="share one shape"):
        d_tau(good, good[:2])


def test_the_first_failing_trial_raises_as_it_did_alone(monkeypatch):
    """Cross-check midpoints off by a dimension-dependent amount for n = 2
    and n = 3: stacked by dimension, the group of 2 x 2 trials runs first,
    but the first failing trial in trial order is a 3 x 3 one."""
    real = unitary._midpoint

    def shifted(n, *key):
        mid, first = real(n, *key)
        return mid, first + {2: 0.5, 3: 0.25}.get(n, 0.0)

    monkeypatch.setattr(unitary, "_midpoint", shifted)
    bundle = dict(_battery(5, 3), pair_trials=30)
    rng = np.random.default_rng(5)
    assert int(rng.integers(1, 4)) == 3
    reports = []
    for block in (1, 256):
        monkeypatch.setattr(unitary, "_BLOCK", block)
        reports.append(cli.run(bundle))
    assert reports[0]["status"] == reports[1]["status"] == "violation"
    assert reports[0]["result"] == reports[1]["result"]
    assert reports[1]["result"]["message"] == (
        "path-choice independence failed: default and randomized paths "
        f"disagree by {0.25 / (2 * pi * 3):.3e}")


def test_path_faults_keep_their_first_fault():
    eye = np.eye(2)
    mats = [eye, eye, -eye, -eye, 2 * eye]
    with pytest.raises(ValueError, match=r"not unitary .*defect 3\.000e\+00"):
        unitary_path([0.0, 0.25, 0.5, 0.75, 1.0], mats)
    mats = [eye, eye, -eye, -eye, eye]
    with pytest.raises(ValueError, match=r"t=0\.25 and t=0\.5 are 2\.000"):
        unitary_path([0.0, 0.25, 0.5, 0.75, 1.0], mats)
