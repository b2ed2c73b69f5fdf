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
Segment logarithms and the trial families of a battery are stacked too.  The
Schur form is LAPACK zgees, which numpy does not wrap: it is called through
ctypes from the LAPACK numpy's own build loads, matrix by matrix in one loop
over a stack.
Haar unitaries are drawn by Mezzadri's QR construction (Notices AMS 54, 2007).
"""

from __future__ import annotations

import ctypes
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import pi, sqrt
from operator import index

import numpy as np
import numpy.random  # noqa: F401  np.random is lazy: load it at start-up
from numpy.linalg import _umath_linalg

DEFAULT_UNITARITY_TOL = 1e-10
DEFAULT_EQ_TOL = 1e-9

# A stack of trials or of path samples ends at _BLOCK matrices, or once its
# matrices reach _CELLS entries in all, so that the draws and stacks held at
# once stay bounded in any dimension.  Block sizes do not change results.
_BLOCK = 256
_CELLS = 1 << 16


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


def _taus(a: np.ndarray) -> list:
    """tau of each matrix of a stack."""
    n = a.shape[-1]
    return [t / n for t in np.trace(a, axis1=-2, axis2=-1).tolist()]


def _traceless(h: np.ndarray) -> np.ndarray:
    """h - Re tau(h) for each self-adjoint matrix of a stack."""
    re_taus = np.array([t.real for t in _taus(h)])
    return h - re_taus[:, None, None] * np.eye(h.shape[-1])


def as_unitary(entries, tol: float = DEFAULT_UNITARITY_TOL) -> np.ndarray:
    u = np.asarray(entries, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("expected a square matrix")
    _check_unitary(u, tol)
    return u


def _unitary_stack(entries, tol: float) -> tuple[np.ndarray, bool]:
    """A matrix or a (k, n, n) stack as a stack, refused by one stacked
    unitarity gate, and whether it was one matrix."""
    u = np.asarray(entries, dtype=complex)
    single = u.ndim == 2
    if single:
        u = u[None]
    if u.ndim != 3 or u.shape[1] != u.shape[2]:
        raise ValueError("expected a square matrix")
    _check_unitary(u, tol)
    return u, single


def _check_unitary(u: np.ndarray, tol: float) -> None:
    """Refuse the first matrix of a stack (or the one matrix) whose defect
    ||u^* u - 1|| exceeds tol."""
    defects = operator_norms(u.conj().swapaxes(-1, -2) @ u
                             - np.eye(u.shape[-1]))
    bad = defects > tol
    if bad.any():
        raise ValueError(f"matrix is not unitary within {tol:g} "
                         f"(defect {defects[bad].flat[0]:.3e})")


def exp_selfadjoint(h) -> np.ndarray:
    """e^{ih} for self-adjoint h (or each matrix of a stack), exactly
    unitary up to rounding."""
    w, v = np.linalg.eigh(np.asarray(h, dtype=complex))
    return (v * np.exp(1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _bind_zgees():
    """LAPACK zgees from the library that numpy's linear algebra is linked
    against.

    dlsym on the handle of ``numpy.linalg._umath_linalg`` searches that
    object's dependencies too, so it finds the LAPACK numpy has loaded.
    The hidden lengths of zgees's two character arguments close the
    argument list, as gfortran passes them."""
    lib = ctypes.CDLL(_umath_linalg.__file__)
    for name in _ZGEES_NAMES:
        fn = getattr(lib, name, None)
        if fn is not None:
            break
    else:
        raise ImportError("numpy's LAPACK exports none of "
                          + ", ".join(_ZGEES_NAMES))
    fn.restype = None
    fn.argtypes = ([ctypes.c_char_p] * 2 + [ctypes.c_void_p] * 13
                   + [ctypes.c_size_t] * 2)
    return fn


# numpy 2 wheels export an ILP64 OpenBLAS under a scipy_ prefix; other
# builds link a LAPACK whose names end in 64_ for 64-bit integers, or not
_ZGEES_NAMES = ("scipy_zgees_64_", "zgees_64_", "zgees_")
_zgees = _bind_zgees()
# the integers of its interface, LOGICAL included
_LAPACK_INT = (ctypes.c_int64 if _zgees.__name__.endswith("64_")
               else ctypes.c_int32)


def _gees(a: np.ndarray, w: np.ndarray, vs: np.ndarray, work, lwork: int):
    """zgees with Schur vectors and no sorting on each n x n matrix of the
    C-contiguous (k, n, n) stack a, read column-major and overwritten by its
    Schur form.  The eigenvalues go to the rows of the (k, n) stack w, the
    Schur vectors, column-major, to the matrices of vs.  ``work`` is a
    ctypes double array of 2 * lwork entries; lwork = -1 is a workspace
    query.  Returns the first nonzero info, else 0."""
    k, n = a.shape[:2]
    if (a.shape != (k, n, n) or w.shape != (k, n) or vs.shape != a.shape
            or len(work) < 2 * max(lwork, 1)
            or not all(x.dtype == np.complex128 and x.flags.c_contiguous
                       for x in (a, w, vs))):
        raise ValueError("zgees takes C-contiguous complex128 stacks of "
                         "matching shapes and a workspace of lwork entries")
    # N (= LDA = LDVS), LWORK, SDIM, INFO; the scratch is ctypes arrays,
    # whose addresses cost less to read than an ndarray's
    ints = (_LAPACK_INT * 4)(n, lwork, 0, 0)
    size = ctypes.sizeof(_LAPACK_INT)
    pn, plwork, sdim, pinfo = (ctypes.byref(ints, i * size) for i in range(4))
    rwork = (ctypes.c_double * n)()
    bwork = (_LAPACK_INT * n)()
    pa, pw, pvs = a.ctypes.data, w.ctypes.data, vs.ctypes.data
    for i in range(k):
        _zgees(b"V", b"N", None, pn, pa + i * a.strides[0], pn, sdim,
               pw + i * w.strides[0], pvs + i * vs.strides[0], pn, work,
               plwork, rwork, bwork, pinfo, 1, 1)
        if ints[3]:
            return ints[3]
    return 0


@lru_cache(maxsize=64)
def _gees_lwork(n: int) -> int:
    """zgees's optimal workspace for n x n input (a function of n only)."""
    work = (ctypes.c_double * 2)()
    _gees(np.zeros((1, n, n), dtype=complex), np.empty((1, n), dtype=complex),
          np.empty((1, n, n), dtype=complex), work, -1)
    return int(work[0])


def _eig_unitaries(us: np.ndarray):
    """Eigenvalues and a unitary diagonalizer (Schur form of a normal
    matrix) of each matrix of a (k, n, n) stack, by one zgees call each, as
    ``scipy.linalg.schur(u, output="complex")`` computes them: the
    eigenvalues as a (k, n) stack and the Schur vectors as a stack whose
    matrices keep zgees's column-major layout, so that products with them
    run as they do on one matrix."""
    # each matrix of the C-order copy of the transposed stack is that
    # matrix in column-major order, which zgees reads and overwrites
    a = np.array(np.swapaxes(us, -1, -2), dtype=complex, order="C")
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    lam = np.empty(a.shape[:2], dtype=complex)
    zt = np.empty(a.shape, dtype=complex)
    if len(a):
        lwork = _gees_lwork(a.shape[1])
        info = _gees(a, lam, zt, (ctypes.c_double * (2 * lwork))(), lwork)
        if info:
            raise np.linalg.LinAlgError(
                f"Schur form not found (zgees info {info})")
    return lam, zt.swapaxes(-1, -2)


def _spectral_logs(z: np.ndarray, ang: np.ndarray) -> np.ndarray:
    """The self-adjoint part of z diag(ang) z^* for each matrix of a
    stack."""
    h = (z * ang[..., None, :]) @ z.conj().swapaxes(-1, -2)
    return (h + h.conj().swapaxes(-1, -2)) / 2


def principal_log(u, margin: float = 0.0) -> np.ndarray:
    """Self-adjoint h with u = e^{ih} and spectrum of h in (-pi, pi], for a
    matrix or for each matrix of a stack.

    With margin > 0, refuses inputs whose spectrum comes within that angle
    of the branch cut at -1.
    """
    u = np.asarray(u)
    lam, z = _eig_unitaries(u.reshape(-1, *u.shape[-2:]))
    ang = np.angle(lam)
    if margin > 0 and float(np.min(pi - np.abs(ang))) < margin:
        raise ValueError(f"an eigenvalue lies within {margin:g} of the "
                         "branch cut at -1")
    return _spectral_logs(z, ang).reshape(u.shape)


def _widest_gap_rotation(angles: np.ndarray):
    """Rotations delta placing the widest spectral gap across the cut, for
    each row of a (k, n) stack of angles.

    Returns (delta, half_gap) arrays: the spectrum of e^{-i delta} u stays
    at angular distance >= half_gap from -1.
    """
    th = np.sort(np.mod(angles, 2 * pi), axis=-1)
    gaps = np.diff(np.concatenate([th, th[:, :1] + 2 * pi], axis=-1))
    rows = np.arange(len(th))
    j = np.argmax(gaps, axis=-1)
    mid = th[rows, j] + gaps[rows, j] / 2
    return mid - pi, gaps[rows, j] / 2


def _chunks(count: int, cells: int) -> list[slice]:
    """Slices of range(count) for stacks of items of ``cells`` entries
    each: a slice ends at _BLOCK items or once it reaches _CELLS entries."""
    step = min(_BLOCK, -(-_CELLS // cells))
    return [slice(i, i + step) for i in range(0, count, step)]


# ---------------------------------------------------------------------------
# sampled paths with geodesic interpolation
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class UnitaryPath:
    """Based path in U(n), sampled at ascending times, geodesic in between.

    The segment logarithms are computed together, once per path, on first
    use, and kept read-only.
    """

    ts: tuple
    mats: tuple

    @property
    def n(self) -> int:
        return self.mats[0].shape[0]

    @cached_property
    def logs(self) -> np.ndarray:
        """The (segments, n, n) stack of segment logarithms."""
        return _segment_logs(self.ts, self.mats)

    def segment_log(self, k: int) -> np.ndarray:
        return self.logs[k]

    def at(self, t: float) -> np.ndarray:
        """Evaluate the geodesic interpolation at time t."""
        if not self.ts[0] <= t <= self.ts[-1]:
            raise ValueError("time outside the sampled range")
        k = min(bisect_right(self.ts, t) - 1, len(self.ts) - 2)
        s = (t - self.ts[k]) / (self.ts[k + 1] - self.ts[k])
        return self.mats[k] @ exp_selfadjoint(s * self.segment_log(k))


def _segment_logs(ts: tuple, mats: tuple) -> np.ndarray:
    """The principal logarithm of a^* b for each segment (a, b), refused at
    the first step ||b - a|| >= 1, as one read-only stack."""
    n = mats[0].shape[0]
    logs = np.empty((len(mats) - 1, n, n), dtype=complex)
    for part in _chunks(len(logs), n * n):
        samples = np.stack(mats[part.start:part.stop + 1])
        a, b = samples[:-1], samples[1:]
        for k, step in enumerate(operator_norms(b - a).tolist(),
                                 part.start):
            if step >= 1:
                raise ValueError(
                    f"samples at t={ts[k]:g} and t={ts[k + 1]:g} are "
                    f"{step:.3f} apart (>= 1); the winding is untrackable, "
                    "refine the sampling")
        lam, z = _eig_unitaries(a.conj().swapaxes(-1, -2) @ b)
        logs[part] = _spectral_logs(z, np.angle(lam))
    logs.flags.writeable = False
    return logs


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
    path.logs       # computed here, so that untrackable steps are refused
    return path


def refine_path(path: UnitaryPath, factor: int = 2) -> UnitaryPath:
    """Insert factor-1 geodesic midpoints into every segment."""
    if factor < 2:
        return path
    segments = len(path.ts) - 1
    s = np.arange(1, factor) / factor
    mids = np.empty((segments, factor - 1, path.n, path.n), dtype=complex)
    for part in _chunks(segments, (factor - 1) * path.n ** 2):
        starts = np.stack(path.mats[:-1][part])[:, None]
        mids[part] = starts @ exp_selfadjoint(
            s[:, None, None] * path.logs[part, None])
    ts, mats = [path.ts[0]], [path.mats[0]]
    for k in range(segments):
        for j in range(1, factor):
            sj = j / factor
            ts.append(path.ts[k] * (1 - sj) + path.ts[k + 1] * sj)
            mats.append(mids[k, j - 1])
        ts.append(path.ts[k + 1])
        mats.append(path.mats[k + 1])
    fine = UnitaryPath(tuple(ts), tuple(mats))
    fine.logs       # computed here, as for every path built from samples
    return fine


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
               check_tol: float = 1e-8):
    """Descent of the trace-determinant to a unitary, modulo (1/n)Z.

    The default path is the spectral geodesic t -> e^{i delta t} e^{t log v}
    with v = e^{-i delta} u, where the recorded rotation delta moves the
    spectrum's widest gap across the branch cut; delta's contribution is
    added back exactly.  The value is cross-checked along a randomized
    two-segment path.

    A (k, n, n) stack gives the list of its k values; when some of its
    matrices fail, the error is one that such a matrix raises alone.
    """
    us, single = _unitary_stack(u, tol)
    n = us.shape[1]
    lam, _ = _eig_unitaries(us)
    delta, half_gap = _widest_gap_rotation(np.angle(lam))
    narrow = half_gap < angle_tol
    if narrow.any():
        raise ValueError(
            f"the spectrum leaves no branch gap wider than {angle_tol:g} "
            f"(half-width {half_gap[narrow][0]:.3e}); the cut cannot be "
            "resolved")
    ang = np.angle(lam * np.exp(-1j * delta)[:, None])
    values = (delta / (2 * pi) + np.sum(ang, axis=-1) / (2 * pi * n)).tolist()

    seed = index(seed)
    alts = [None] * len(us)
    todo = np.arange(len(us))
    for draw in range(8):
        first_leg = _midpoint(n, seed, angle_tol, draw)
        if first_leg is None:
            continue
        mid, first = first_leg
        lam, z = _eig_unitaries(mid.conj().T @ us[todo])
        ang = np.angle(lam)
        clear = ~(np.min(pi - np.abs(ang), axis=-1) < angle_tol)
        legs = first + np.trace(_spectral_logs(z[clear], ang[clear]),
                                axis1=-2, axis2=-1)
        for i, leg in zip(todo[clear].tolist(), legs.real.tolist()):
            alts[i] = leg / (2 * pi * n)
        todo = todo[~clear]
        if not todo.size:
            break
    if todo.size:
        raise ValueError("could not draw a cross-check midpoint with "
                         "spectrum clear of the branch cut")
    out = []
    for value, alt in zip(values, alts):
        diff = (value - alt) % (1.0 / n)
        if min(diff, 1.0 / n - diff) > check_tol:
            raise RuntimeError(
                "path-choice independence failed: default and randomized "
                f"paths disagree by {min(diff, 1.0 / n - diff):.3e}")
        out.append(circle_value(value, n))
    return out[0] if single else out


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
                  unitarity_tol: float = DEFAULT_UNITARITY_TOL):
    """Membership in ker(trace-determinant) within U(n)_0, i.e. det u = 1.

    On membership, returns a factorization certificate u = prod e^{ih_j}
    with tau(h_j) = 0: the spectral logarithm rebalanced to total angle
    zero, used directly below norm pi and split in half above.  A stack
    gives a list, as dlhs_delta does.
    """
    us, single = _unitary_stack(u, unitarity_tol)
    n = us.shape[1]
    dets = np.linalg.det(us).tolist()
    for det in dets:
        if abs(abs(det) - 1.0) > max(tol, n * unitarity_tol * 10):
            raise ValueError(f"determinant modulus {abs(det):.12f} strays "
                             "from 1; input is not unitary")
    out = [SUMembership(False, det, None, None) for det in dets]
    members = [i for i, det in enumerate(dets) if not abs(det - 1.0) > tol]
    if members:
        us = us[members]
        lam, z = _eig_unitaries(us)
        ang = np.angle(lam)
        for row, total in zip(ang, np.sum(ang, axis=-1).tolist()):
            k = int(round(total / (2 * pi)))
            if k:
                order = np.argsort(row)
                row[order[-k:] if k > 0 else order[:-k]] -= (
                    2 * pi * np.sign(k))
        h = _traceless(_spectral_logs(z, ang))
        log_norms = operator_norms(h).tolist()
        whole = np.array(log_norms) < pi
        factor = np.where(whole[:, None, None], h, h / 2)
        expo = exp_selfadjoint(factor)
        recomposed = np.where(whole[:, None, None], expo, expo @ expo)
        residuals = operator_norms(recomposed - us).tolist()
        factor_taus = _taus(factor)
        for j, (i, residual) in enumerate(zip(members, residuals)):
            if residual > max(tol, 1e-9):
                raise RuntimeError("membership certificate failed "
                                   f"re-multiplication (residual "
                                   f"{residual:.3e})")
            if abs(factor_taus[j]) > max(tol, 1e-12):
                raise RuntimeError("membership certificate has a traceful "
                                   "exponent")
            certificate = (h[j],) if whole[j] else (factor[j], factor[j])
            out[i] = SUMembership(True, dets[i], certificate, residual,
                                  log_norms[j])
    return out[0] if single else out


@dataclass(frozen=True)
class ExponentialLength:
    value: float
    exact: bool


def el_tau(u, tol: float = DEFAULT_EQ_TOL):
    """Exponential length: exact (= ||log u||) below pi, else a certified
    upper bound from the membership certificate, flagged as bound-only.
    A stack gives a list, as dlhs_delta does."""
    single = np.ndim(u) == 2
    reps = su_tau_member(u, tol)
    reps = [reps] if single else reps
    if not all(rep.member for rep in reps):
        raise ValueError("exponential length is defined only on the "
                         "special-unitary kernel (det u must be 1)")
    halves = [hj for rep in reps if len(rep.certificate) > 1
              for hj in rep.certificate]
    norms = iter(operator_norms(np.stack(halves)).tolist() if halves else ())
    out = [ExponentialLength(rep.log_norm, rep.log_norm < pi - tol)
           if len(rep.certificate) == 1 else
           ExponentialLength(sum(next(norms) for _ in rep.certificate), False)
           for rep in reps]
    return out[0] if single else out


def d_tau(u, v, tol: float = DEFAULT_EQ_TOL):
    """The bi-invariant metric d(u, v) = exponential length of u* v, or the
    list of the metrics of two stacks of equal shape."""
    us, single = _unitary_stack(u, DEFAULT_UNITARITY_TOL)
    vs, _ = _unitary_stack(v, DEFAULT_UNITARITY_TOL)
    if us.shape != vs.shape:
        raise ValueError("u and v must share one shape")
    w = us.conj().swapaxes(-1, -2) @ vs
    return el_tau(w[0] if single else w, tol)


# ---------------------------------------------------------------------------
# exponential-map inequalities
# ---------------------------------------------------------------------------

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

    def draw(n, rng):
        return _gaussian_draw(n, rng), _gaussian_draw(n, rng)

    def slacks(n, ks, draws):
        h1 = _selfadjoint_stack([d[0] for d in draws], 1.0)
        h2 = _selfadjoint_stack([d[1] for d in draws], 1.0)
        dist = operator_norms(exp_selfadjoint(h1) - exp_selfadjoint(h2))
        hdist = operator_norms(h1 - h2)
        lower = dist - hdist * (1 - (operator_norms(h1)
                                     + operator_norms(h2)) / 2)
        return zip((hdist - dist).tolist(), lower.tolist())

    min_upper = min_lower = np.inf
    violations = 0
    for block in run_trials(trials, max_dim, np.random.default_rng(seed),
                            draw, slacks):
        upper, lower = zip(*block)
        min_upper = min(min_upper, *upper)
        min_lower = min(min_lower, *lower)
        violations += sum(x < -threshold for x in upper + lower)
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
    for trace in np.trace(path.logs, axis1=-2, axis2=-1).real.tolist():
        lift += trace
        hs.append(lift / (2 * pi * n))
    gs, det_errs, recons = [], [], []
    for part in _chunks(len(hs), n * n):
        mats = np.stack(path.mats[part])
        lifts = np.array(hs[part])[:, None, None]
        g = np.exp(-2j * pi * lifts) * mats
        gs += list(g)
        # Python's complex abs: numpy's differs from it in the last bit
        det_errs += [abs(d - 1.0) for d in np.linalg.det(g).tolist()]
        recons += operator_norms(np.exp(2j * pi * lifts) * g - mats).tolist()
    det_err, recon = max(det_errs), max(recons)
    if det_err > tol or recon > tol:
        raise RuntimeError(
            f"decomposition residuals exceed {tol:g} "
            f"(det {det_err:.3e}, reconstruction {recon:.3e})")
    return PathDecomposition(path.ts, tuple(hs), tuple(gs), recon, det_err)


# ---------------------------------------------------------------------------
# seeded generators for property runs
# ---------------------------------------------------------------------------

def run_trials(trials: int, max_dim: int, rng: np.random.Generator,
               draw, run):
    """Draw ``trials`` trials in order, each a dimension n from
    rng.integers(1, max_dim + 1) and then draw(n, rng), and yield the
    values of each block of trials in trial order.  run(n, ks, draws) takes
    the trial numbers and draws of the trials of one dimension in a block,
    and gives one value for each.  A block ends at _BLOCK trials or once its
    trials reach _CELLS cells of n x n.  When a block fails, its trials run
    again one at a time, so that the first failing trial raises its own
    error."""
    block, cells = [], 0
    for k in range(trials):
        n = int(rng.integers(1, max_dim + 1))
        block.append((k, n, draw(n, rng)))
        cells += n * n
        if len(block) == _BLOCK or cells >= _CELLS or k == trials - 1:
            yield _run_block(block, run)
            block, cells = [], 0


def _run_block(block: list, run) -> list:
    out = [None] * len(block)
    try:
        for n in {n for _, n, _ in block}:
            pos = [i for i, (_, m, _) in enumerate(block) if m == n]
            got = run(n, [block[i][0] for i in pos],
                      [block[i][2] for i in pos])
            for i, value in zip(pos, got):
                out[i] = value
    except (ValueError, RuntimeError):
        for k, n, d in block:
            run(n, [k], [d])
        raise
    return out


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    return haar_unitaries(n, [haar_draw(n, rng)])[0]


def haar_draw(n: int, rng: np.random.Generator):
    """What random_unitary(n, rng) draws, in its order."""
    if n == 1:
        return rng.uniform()
    return rng.normal(size=(n, n)), rng.normal(size=(n, n))


def haar_unitaries(n: int, draws: list) -> np.ndarray:
    """random_unitary of each of a list of same-size draws of haar_draw, as
    one (k, n, n) stack: for n >= 2, scipy.stats.unitary_group.rvs draw for
    draw."""
    if n == 1:
        return np.exp(2j * pi * np.array(draws))[:, None, None]
    re, im = (np.array(part) for part in zip(*draws))
    q, r = np.linalg.qr(1 / sqrt(2) * (re + 1j * im))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / abs(d))[:, None, :]


def _gaussian_draw(n: int, rng: np.random.Generator) -> tuple:
    """One random self-adjoint draw, in its order: the real and imaginary
    parts of a Gaussian matrix a, then a uniform unless (a + a^*)/2 is
    zero, which needs re[0, 0] == 0."""
    re, im = rng.normal(size=(n, n)), rng.normal(size=(n, n))
    if re[0, 0] == 0:
        a = re + 1j * im
        if not ((a + a.conj().T) / 2).any():
            return re, im, 0.0
    return re, im, rng.uniform()


def _selfadjoint_stack(draws: list, bound: float) -> np.ndarray:
    """For each of a list of same-size draws (re, im, u) of _gaussian_draw,
    the self-adjoint part of a = re + i im scaled to norm u * bound (zero
    stays zero), as one (k, n, n) stack."""
    re, im, u = (np.array(part) for part in zip(*draws))
    a = re + 1j * im
    h = (a + a.conj().swapaxes(-1, -2)) / 2
    norms = operator_norms(h)
    return h * (bound * u / np.where(norms == 0.0, 1.0, norms))[:, None, None]


def ball_draw(n: int, rng: np.random.Generator) -> tuple:
    """One draw of a point of the trace-zero exponential ball, in its
    order: a _gaussian_draw, then a uniform, or None in its place when the
    traceless part of the self-adjoint matrix made from the draw is zero,
    as it is for n = 1."""
    draw = _gaussian_draw(n, rng)
    return draw, None if _traceless_is_zero(n, draw) else rng.uniform()


def _traceless_is_zero(n: int, draw: tuple) -> bool:
    """Whether the traceless part of h = u (a + a^*) / ||a + a^*||, made by
    _selfadjoint_stack from the draw (re, im, u) of a = re + i im, is zero.
    For n >= 2 an entry (0, 1) of (a + a^*)/2 that the scale cannot take
    below 2^-900 shows that it is not, since ||(a + a^*)/2|| is at most
    n (max |re| + max |im|); failing that, h is made and its part tested."""
    if n == 1:
        return True
    re, im, u = draw
    entry = max(abs(re[0, 1] + re[1, 0]), abs(im[0, 1] - im[1, 0])) / 2
    if entry * u > 2.0 ** -900 * n * (abs(re).max() + abs(im).max()):
        return False
    return operator_norm(_traceless(_selfadjoint_stack([draw], 1.0))[0]) == 0


def ball_elements(n: int, eps: float, draws: list) -> np.ndarray:
    """The point of the trace-zero exponential ball of radius eps for each
    of a list of same-size draws of ball_draw, as one (k, n, n) stack."""
    out = np.empty((len(draws), n, n), dtype=complex)
    out[:] = np.eye(n)
    live = [i for i, (_, u) in enumerate(draws) if u is not None]
    if live:
        h = _traceless(_selfadjoint_stack([draws[i][0] for i in live], 1.0))
        scales = [eps * 0.999 * draws[i][1] / norm
                  for i, norm in zip(live, operator_norms(h).tolist())]
        out[live] = exp_selfadjoint(h * np.array(scales)[:, None, None])
    return out


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
