"""Numeric layer on M_n(C): the trace-determinant of based unitary paths,
its descent to the circle modulo (1/n)Z, the special-unitary kernel with
factorization certificates, exponential length with its metric, and the
R x SU decomposition of sampled paths.

Norms are operator norms (largest singular value); tau is the normalized
matrix trace.  Matrix logarithms are spectral: the unitary is diagonalized
through a Schur decomposition and the branch cut sits either at -1
(principal) or across the widest gap in the spectrum, with the rotation
recorded and corrected exactly.

Trials and path samples are held as (k, n, n) stacks, one per dimension, so
that one numpy call runs the same LAPACK routine on every matrix of a stack.
Haar unitaries are drawn by Mezzadri's QR construction (Notices AMS 54, 2007).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import pi, sqrt
from operator import index

import numpy as np
from scipy.linalg.lapack import zgees

DEFAULT_UNITARITY_TOL = 1e-10
DEFAULT_EQ_TOL = 1e-9


# ---------------------------------------------------------------------------
# basic matrix helpers
# ---------------------------------------------------------------------------

def operator_norms(a) -> np.ndarray:
    """The largest singular value of each matrix of a stack (a 0-d array
    for one matrix), as ``np.linalg.norm(a, 2)`` computes it for a matrix
    (integer input is cast to float first), without its axis handling."""
    a = np.asarray(a)
    if a.dtype.kind not in "fc":
        a = a.astype(float)
    return np.linalg.svd(a, compute_uv=False)[..., 0]


def operator_norm(a) -> float:
    """The largest singular value of one matrix."""
    return float(operator_norms(a))


def tau(a) -> complex:
    """Normalized matrix trace."""
    a = np.asarray(a)
    return complex(np.trace(a)) / a.shape[0]


def as_unitary(entries, tol: float = DEFAULT_UNITARITY_TOL) -> np.ndarray:
    u = np.asarray(entries, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("expected a square matrix")
    _check_unitary(u, tol)
    return u


def _check_unitary(u: np.ndarray, tol: float) -> None:
    """Refuse the first matrix of a stack (or the one matrix) whose defect
    ||u^* u - 1|| exceeds tol."""
    defects = operator_norms(u.conj().swapaxes(-1, -2) @ u
                             - np.eye(u.shape[-1]))
    bad = defects > tol
    if bad.any():
        raise ValueError(f"matrix is not unitary within {tol:g} "
                         f"(defect {defects[bad].flat[0]:.3e})")


def as_selfadjoint(entries, tol: float = DEFAULT_UNITARITY_TOL) -> np.ndarray:
    """The self-adjoint part of a square matrix, refused when its defect
    exceeds ``tol``; an infinite ``tol`` takes no norm."""
    h = np.asarray(entries, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("expected a square matrix")
    if tol == np.inf:
        return (h + h.conj().T) / 2
    defect = operator_norm(h - h.conj().T)
    if defect > tol:
        raise ValueError(f"matrix is not self-adjoint within {tol:g} "
                         f"(defect {defect:.3e})")
    return (h + h.conj().T) / 2


def exp_selfadjoint(h) -> np.ndarray:
    """e^{ih} for self-adjoint h (or each matrix of a stack), exactly
    unitary up to rounding."""
    w, v = np.linalg.eigh(np.asarray(h, dtype=complex))
    return (v * np.exp(1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _no_sort(x):
    return None


@lru_cache(maxsize=64)
def _gees_lwork(n: int) -> int:
    """zgees's optimal workspace for n x n input (a function of n only)."""
    work = zgees(_no_sort, np.zeros((n, n), dtype=complex), lwork=-1)[-2]
    return int(work[0].real)


def _eig_unitary(u: np.ndarray):
    """Eigenvalues and a unitary diagonalizer (Schur of a normal matrix):
    LAPACK zgees called as ``scipy.linalg.schur(u, output="complex")``
    calls it for complex128 input, without the wrapper's overhead."""
    a = np.asarray_chkfinite(u, dtype=complex)
    t, _, _, z, _, info = zgees(_no_sort, a, lwork=_gees_lwork(a.shape[0]))
    if info != 0:
        raise np.linalg.LinAlgError(
            f"Schur form not found (zgees info {info})")
    return t.diagonal().copy(), z


def principal_log(u: np.ndarray, margin: float = 0.0) -> np.ndarray:
    """Self-adjoint h with u = e^{ih} and spectrum of h in (-pi, pi].

    With margin > 0, refuses inputs whose spectrum comes within that angle
    of the branch cut at -1.
    """
    lam, z = _eig_unitary(u)
    ang = np.angle(lam)
    if margin > 0 and float(np.min(pi - np.abs(ang))) < margin:
        raise ValueError(f"an eigenvalue lies within {margin:g} of the "
                         "branch cut at -1")
    return as_selfadjoint((z * ang) @ z.conj().T, tol=np.inf)


def _widest_gap_rotation(angles: np.ndarray) -> tuple[float, float]:
    """Rotation delta placing the widest spectral gap across the cut.

    Returns (delta, half_gap): the spectrum of e^{-i delta} u stays at
    angular distance >= half_gap from -1.
    """
    th = np.sort(np.mod(angles, 2 * pi))
    gaps = np.diff(np.append(th, th[0] + 2 * pi))
    j = int(np.argmax(gaps))
    mid = th[j] + gaps[j] / 2
    return float(mid - pi), float(gaps[j] / 2)


# ---------------------------------------------------------------------------
# sampled paths with geodesic interpolation
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class UnitaryPath:
    """Based path in U(n), sampled at ascending times, geodesic in between.

    Each segment's logarithm is computed once per path, on first use, and
    kept read-only.
    """

    ts: tuple
    mats: tuple
    _logs: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n(self) -> int:
        return self.mats[0].shape[0]

    def segment_log(self, k: int) -> np.ndarray:
        log = self._logs.get(k)
        if log is None:
            log = self._logs[k] = _segment_log(self.mats[k], self.mats[k + 1],
                                               self.ts[k], self.ts[k + 1])
            log.flags.writeable = False
        return log

    def at(self, t: float) -> np.ndarray:
        """Evaluate the geodesic interpolation at time t."""
        if not self.ts[0] <= t <= self.ts[-1]:
            raise ValueError("time outside the sampled range")
        k = min(bisect_right(self.ts, t) - 1, len(self.ts) - 2)
        s = (t - self.ts[k]) / (self.ts[k + 1] - self.ts[k])
        return self.mats[k] @ exp_selfadjoint(s * self.segment_log(k))


def _segment_log(a: np.ndarray, b: np.ndarray,
                 t0: float, t1: float) -> np.ndarray:
    step = operator_norm(b - a)
    if step >= 1:
        raise ValueError(
            f"samples at t={t0:g} and t={t1:g} are {step:.3f} apart "
            "(>= 1); the winding is untrackable, refine the sampling")
    return principal_log(a.conj().T @ b)


def unitary_path(ts, mats, tol: float = DEFAULT_UNITARITY_TOL) -> UnitaryPath:
    """Validate and build a based sampled path on [0, 1]."""
    ts = tuple(float(t) for t in ts)
    mats = tuple(np.asarray(m, dtype=complex) for m in mats)
    shape = mats[0].shape if mats else ()
    if (len(shape) == 2 and shape[0] == shape[1]
            and all(m.shape == shape for m in mats)):
        _check_unitary(np.stack(mats), tol)
    else:
        # samples of mixed or non-square shapes are refused below, or here
        # when an earlier sample is not square or not unitary
        for m in mats:
            as_unitary(m, tol)
    if len(ts) != len(mats) or len(ts) < 2:
        raise ValueError("need matching ts/mats with at least two samples")
    if ts[0] != 0.0 or ts[-1] != 1.0 or any(
            a >= b for a, b in zip(ts, ts[1:])):
        raise ValueError("times must ascend strictly from 0 to 1")
    if any(m.shape != mats[0].shape for m in mats):
        raise ValueError("all samples must share one dimension")
    if operator_norm(mats[0] - np.eye(mats[0].shape[0])) > max(tol, 1e-9):
        raise ValueError("the path must start at the identity")
    path = UnitaryPath(ts, mats)
    for k in range(len(ts) - 1):
        path.segment_log(k)
    return path


def refine_path(path: UnitaryPath, factor: int = 2) -> UnitaryPath:
    """Insert factor-1 geodesic midpoints into every segment."""
    if factor < 2:
        return path
    segments = len(path.ts) - 1
    s = np.arange(1, factor) / factor
    logs = np.stack([path.segment_log(k) for k in range(segments)])
    mids = np.stack(path.mats[:-1])[:, None] @ exp_selfadjoint(
        s[:, None, None] * logs[:, None])
    ts, mats = [path.ts[0]], [path.mats[0]]
    for k in range(segments):
        for j in range(1, factor):
            sj = j / factor
            ts.append(path.ts[k] * (1 - sj) + path.ts[k + 1] * sj)
            mats.append(mids[k, j - 1])
        ts.append(path.ts[k + 1])
        mats.append(path.mats[k + 1])
    return UnitaryPath(tuple(ts), tuple(mats))


def pointwise_product_path(p1: UnitaryPath, p2: UnitaryPath) -> UnitaryPath:
    """Sample the pointwise product at the union of the two time grids."""
    if p1.n != p2.n:
        raise ValueError("paths must share one dimension")
    ts = sorted(set(p1.ts) | set(p2.ts))
    mats = tuple(p1.at(t) @ p2.at(t) for t in ts)
    return unitary_path(ts, mats)


# ---------------------------------------------------------------------------
# the trace-determinant on paths and its descent to the circle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceValue:
    value: float
    method: str
    error_estimate: float


def dlhs_path(path: UnitaryPath, quad_panels: int | None = None
              ) -> TraceValue:
    """(1/2 pi i) integral of tau(path^{-1} path') over [0, 1].

    The integrand is constant on geodesic segments, so by default the
    integral is evaluated segment-exactly; pass quad_panels to force
    composite Simpson quadrature with a Richardson error estimate
    (useful for validating dense user-supplied samples).
    """
    logs = [path.segment_log(k) for k in range(len(path.ts) - 1)]
    if quad_panels is None:
        value = sum(tau(log).real for log in logs) / (2 * pi)
        return TraceValue(value, "segment-exact", 0.0)
    if quad_panels < 1:
        raise ValueError("need at least one quadrature panel")
    rates = [tau(log).real / (path.ts[k + 1] - path.ts[k]) / (2 * pi)
             for k, log in enumerate(logs)]

    def integrand(t: float) -> float:
        k = min(bisect_right(path.ts, t) - 1, len(rates) - 1)
        return rates[k]

    def simpson(panels: int) -> float:
        xs = np.linspace(0.0, 1.0, 2 * panels + 1)
        ys = np.array([integrand(t) for t in xs])
        return _simpson(ys, xs)

    coarse, fine = simpson(quad_panels), simpson(2 * quad_panels)
    return TraceValue(fine + (fine - coarse) / 15, "simpson",
                      abs(fine - coarse) / 15)


def _simpson(ys: np.ndarray, xs: np.ndarray) -> float:
    """Composite Simpson on an odd number of increasing samples, as
    ``scipy.integrate.simpson(ys, x=xs)`` computes it, operation for
    operation (its irregular-spacing formula)."""
    h = np.diff(xs)
    h0, h1 = h[0::2], h[1::2]
    hsum, hprod = h0 + h1, h0 * h1
    h0divh1 = h0 / h1
    tmp = hsum / 6.0 * (ys[:-1:2] * (2.0 - 1.0 / h0divh1)
                        + ys[1::2] * (hsum * (hsum / hprod))
                        + ys[2::2] * (2.0 - h0divh1))
    return float(np.sum(tmp))


@dataclass(frozen=True)
class CircleValue:
    """A real number reduced modulo the lattice (1/lattice_n)Z."""

    value: float
    lattice_n: int
    snap_tol: float = field(default=DEFAULT_EQ_TOL, compare=False)

    @cached_property
    def snap(self) -> Fraction | None:
        """The nearest fraction with denominator at most 1000 * lattice_n,
        or None when it lies farther than snap_tol; 1/lattice_n reads 0.
        Computed on first read, since the reports never read it."""
        snap = Fraction(self.value).limit_denominator(1000 * self.lattice_n)
        if abs(float(snap) - self.value) > self.snap_tol:
            return None
        return Fraction(0) if snap == Fraction(1, self.lattice_n) else snap

    def distance_to(self, other: float) -> float:
        period = 1.0 / self.lattice_n
        d = (self.value - other) % period
        return min(d, period - d)

    def is_zero(self, tol: float = DEFAULT_EQ_TOL) -> bool:
        return self.distance_to(0.0) <= tol


def circle_value(raw: float, lattice_n: int,
                 snap_tol: float = DEFAULT_EQ_TOL) -> CircleValue:
    return CircleValue(raw % (1.0 / lattice_n), lattice_n, snap_tol)


def dlhs_delta(u, tol: float = DEFAULT_UNITARITY_TOL,
               angle_tol: float = 1e-8, seed: int = 0,
               check_tol: float = 1e-8) -> CircleValue:
    """Descent of the trace-determinant to a unitary, modulo (1/n)Z.

    The default path is the spectral geodesic t -> e^{i delta t} e^{t log v}
    with v = e^{-i delta} u, where the recorded rotation delta moves the
    spectrum's widest gap across the branch cut; delta's contribution is
    added back exactly.  The value is cross-checked along a randomized
    two-segment path.
    """
    u = as_unitary(u, tol)
    n = u.shape[0]
    lam, _ = _eig_unitary(u)
    delta, half_gap = _widest_gap_rotation(np.angle(lam))
    if half_gap < angle_tol:
        raise ValueError(
            f"the spectrum leaves no branch gap wider than {angle_tol:g} "
            f"(half-width {half_gap:.3e}); the cut cannot be resolved")
    ang = np.angle(lam * np.exp(-1j * delta))
    value = delta / (2 * pi) + float(np.sum(ang)) / (2 * pi * n)

    seed = index(seed)
    for draw in range(8):
        first_leg = _midpoint(n, seed, angle_tol, draw)
        if first_leg is None:
            continue
        mid, first = first_leg
        try:
            two_leg = first + np.trace(principal_log(mid.conj().T @ u,
                                                     margin=angle_tol))
        except ValueError:
            continue
        alt = float(two_leg.real) / (2 * pi * n)
        diff = (value - alt) % (1.0 / n)
        if min(diff, 1.0 / n - diff) > check_tol:
            raise RuntimeError(
                "path-choice independence failed: default and randomized "
                f"paths disagree by {min(diff, 1.0 / n - diff):.3e}")
        return circle_value(value, n)
    raise ValueError("could not draw a cross-check midpoint with spectrum "
                     "clear of the branch cut")


@lru_cache(maxsize=256)
def _midpoint(n: int, seed: int, angle_tol: float, draw: int):
    """The cross-check midpoint that dlhs_delta draws ``draw``-th from a
    fresh default_rng(seed), read-only, with the trace of its principal
    logarithm; None when its spectrum comes within angle_tol of -1."""
    rng = np.random.default_rng(seed)
    for _ in range(draw + 1):
        mid = random_unitary(n, rng)
    try:
        first = np.trace(principal_log(mid, margin=angle_tol))
    except ValueError:
        return None
    mid.flags.writeable = False
    return mid, first


# ---------------------------------------------------------------------------
# the special-unitary kernel, exponential length, and its metric
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SUMembership:
    """On membership, ``log_norm`` is the operator norm of the traceless
    logarithm h that the certificate factors."""

    member: bool
    det_value: complex
    certificate: tuple | None
    residual: float | None
    log_norm: float | None = None


def su_tau_member(u, tol: float = DEFAULT_EQ_TOL,
                  unitarity_tol: float = DEFAULT_UNITARITY_TOL
                  ) -> SUMembership:
    """Membership in ker(trace-determinant) within U(n)_0, i.e. det u = 1.

    On membership, returns a factorization certificate u = prod e^{ih_j}
    with tau(h_j) = 0: the spectral logarithm rebalanced to total angle
    zero, used directly below norm pi and split in half above.
    """
    u = as_unitary(u, unitarity_tol)
    n = u.shape[0]
    det = complex(np.linalg.det(u))
    if abs(abs(det) - 1.0) > max(tol, n * unitarity_tol * 10):
        raise ValueError(f"determinant modulus {abs(det):.12f} strays "
                         "from 1; input is not unitary")
    if abs(det - 1.0) > tol:
        return SUMembership(False, det, None, None)

    lam, z = _eig_unitary(u)
    ang = np.angle(lam)
    k = int(round(float(np.sum(ang)) / (2 * pi)))
    if k:
        order = np.argsort(ang)
        shift = order[-k:] if k > 0 else order[:-k]
        ang = ang.copy()
        ang[shift] -= 2 * pi * np.sign(k)
    h = as_selfadjoint((z * ang) @ z.conj().T, tol=np.inf)
    h = h - (tau(h).real * np.eye(n))
    log_norm = operator_norm(h)
    if log_norm < pi:
        certificate = (h,)
        recomposed = exp_selfadjoint(h)
    else:
        certificate = (h / 2, h / 2)
        half = exp_selfadjoint(h / 2)
        recomposed = half @ half
    residual = operator_norm(recomposed - u)
    if residual > max(tol, 1e-9):
        raise RuntimeError("membership certificate failed re-multiplication "
                           f"(residual {residual:.3e})")
    if any(abs(tau(hj)) > max(tol, 1e-12) for hj in certificate):
        raise RuntimeError("membership certificate has a traceful exponent")
    return SUMembership(True, det, certificate, residual, log_norm)


@dataclass(frozen=True)
class ExponentialLength:
    value: float
    exact: bool


def el_tau(u, tol: float = DEFAULT_EQ_TOL) -> ExponentialLength:
    """Exponential length: exact (= ||log u||) below pi, else a certified
    upper bound from the membership certificate, flagged as bound-only."""
    rep = su_tau_member(u, tol)
    if not rep.member:
        raise ValueError("exponential length is defined only on the "
                         "special-unitary kernel (det u must be 1)")
    if len(rep.certificate) == 1:
        return ExponentialLength(rep.log_norm, rep.log_norm < pi - tol)
    return ExponentialLength(sum(operator_norm(hj)
                                 for hj in rep.certificate), False)


def d_tau(u, v, tol: float = DEFAULT_EQ_TOL) -> ExponentialLength:
    """The bi-invariant metric d(u, v) = exponential length of u* v."""
    u = as_unitary(u)
    v = as_unitary(v)
    return el_tau(u.conj().T @ v, tol)


# ---------------------------------------------------------------------------
# exponential-map inequalities
# ---------------------------------------------------------------------------

# Trials per block of check_exp_inequalities: bounds the draws held at once.
_BLOCK = 256


@dataclass(frozen=True)
class InequalityReport:
    trials: int
    max_dim: int
    seed: int
    min_upper_slack: float
    min_lower_slack: float
    violations: int
    threshold: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def check_exp_inequalities(max_dim: int, trials: int, seed: int = 0,
                           threshold: float = 1e-9) -> InequalityReport:
    """Sample the two-sided exponential estimate on random self-adjoint
    pairs with norm <= 1:

        ||h1 - h2|| (1 - (||h1|| + ||h2||)/2) <= ||e^{ih1} - e^{ih2}||
                                              <= ||h1 - h2||.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    min_upper = min_lower = np.inf
    violations = 0
    for start in range(0, trials, _BLOCK):
        dims, draws = [], []
        for _ in range(min(_BLOCK, trials - start)):
            dims.append(int(rng.integers(1, max_dim + 1)))
            draws.append((_gaussian_draw(dims[-1], rng),
                          _gaussian_draw(dims[-1], rng)))
        upper, lower = np.empty(len(dims)), np.empty(len(dims))
        for dim in set(dims):
            idx = np.flatnonzero(np.equal(dims, dim))
            h1 = _selfadjoint_stack([draws[i][0] for i in idx], 1.0)
            h2 = _selfadjoint_stack([draws[i][1] for i in idx], 1.0)
            dist = operator_norms(exp_selfadjoint(h1) - exp_selfadjoint(h2))
            hdist = operator_norms(h1 - h2)
            upper[idx] = hdist - dist
            lower[idx] = dist - hdist * (1 - (operator_norms(h1)
                                              + operator_norms(h2)) / 2)
        min_upper = min(min_upper, *upper.tolist())
        min_lower = min(min_lower, *lower.tolist())
        violations += int(np.count_nonzero(upper < -threshold)
                          + np.count_nonzero(lower < -threshold))
    return InequalityReport(trials, max_dim, seed, float(min_upper),
                            float(min_lower), violations, threshold)


# ---------------------------------------------------------------------------
# the R x SU decomposition of based paths
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PathDecomposition:
    ts: tuple
    h: tuple
    g: tuple
    max_reconstruction_error: float
    max_det_error: float


def decompose_path(path: UnitaryPath,
                   tol: float = DEFAULT_EQ_TOL) -> PathDecomposition:
    """Split a based path as f(t) = e^{2 pi i h(t)} g(t) with h real,
    h(0) = 0, and det g = 1 throughout.

    h is the continuous lift of arg det f divided by 2 pi n, accumulated
    segment-exactly (the determinant of a geodesic segment winds by the
    trace of the segment logarithm); uniqueness is pinned at the basepoint.
    """
    n = path.n
    lift = 0.0
    hs = [0.0]
    for k in range(len(path.ts) - 1):
        lift += float(np.trace(path.segment_log(k)).real)
        hs.append(lift / (2 * pi * n))
    mats = np.stack(path.mats)
    lifts = np.array(hs)[:, None, None]
    gs = np.exp(-2j * pi * lifts) * mats
    # Python's complex abs: numpy's differs from it in the last bit
    det_err = max(abs(complex(d) - 1.0) for d in np.linalg.det(gs))
    recon = max(operator_norms(np.exp(2j * pi * lifts) * gs - mats).tolist())
    if det_err > tol or recon > tol:
        raise RuntimeError(
            f"decomposition residuals exceed {tol:g} "
            f"(det {det_err:.3e}, reconstruction {recon:.3e})")
    return PathDecomposition(path.ts, tuple(hs), tuple(gs), recon, det_err)


# ---------------------------------------------------------------------------
# seeded generators for property runs
# ---------------------------------------------------------------------------

def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    if n == 1:
        return np.array([[np.exp(2j * pi * rng.uniform())]])
    # scipy.stats.unitary_group.rvs(n, random_state=rng), draw for draw
    z = 1 / sqrt(2) * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    q, r = np.linalg.qr(z)
    d = r.diagonal()
    return q * (d / abs(d))


def random_special_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    u = random_unitary(n, rng)
    return u * np.exp(-1j * np.angle(np.linalg.det(u)) / n)


def random_selfadjoint(n: int, rng: np.random.Generator,
                       bound: float = 1.0) -> np.ndarray:
    """The self-adjoint part of a complex Gaussian matrix, scaled to a
    uniformly drawn fraction of ``bound`` in norm (zero stays zero)."""
    return _selfadjoint_stack([_gaussian_draw(n, rng)], bound)[0]


def _gaussian_draw(n: int, rng: np.random.Generator) -> tuple:
    """What random_selfadjoint(n, rng) draws, in its order: the real and
    imaginary parts of a Gaussian matrix a, then a uniform unless
    (a + a^*)/2 is zero, which needs re[0, 0] == 0."""
    re, im = rng.normal(size=(n, n)), rng.normal(size=(n, n))
    if re[0, 0] == 0:
        a = re + 1j * im
        if not ((a + a.conj().T) / 2).any():
            return re, im, 0.0
    return re, im, rng.uniform()


def _selfadjoint_stack(draws: list, bound: float) -> np.ndarray:
    """random_selfadjoint of each of a list of same-size draws of
    _gaussian_draw, as one (k, n, n) stack."""
    re, im, u = (np.array(part) for part in zip(*draws))
    a = re + 1j * im
    h = (a + a.conj().swapaxes(-1, -2)) / 2
    norms = operator_norms(h)
    return h * (bound * u / np.where(norms == 0.0, 1.0, norms))[:, None, None]


def ball_element(n: int, eps: float, rng: np.random.Generator) -> np.ndarray:
    """A point of the trace-zero exponential ball of radius eps."""
    h = random_selfadjoint(n, rng, bound=1.0)
    h = h - tau(h).real * np.eye(n)
    norm = operator_norm(h)
    if norm == 0.0:
        return np.eye(n, dtype=complex)
    return exp_selfadjoint(h * (eps * 0.999 * rng.uniform() / norm))


def random_based_path(n: int, segments: int, rng: np.random.Generator,
                      max_step: float = 0.9) -> UnitaryPath:
    """A random piecewise-geodesic based path with trackable steps."""
    steps = exp_selfadjoint(_selfadjoint_stack(
        [_gaussian_draw(n, rng) for _ in range(segments)], max_step))
    mats = [np.eye(n, dtype=complex)]
    for step in steps:
        mats.append(mats[-1] @ step)
    ts = np.linspace(0.0, 1.0, segments + 1)
    return unitary_path(ts, mats)
