"""Lifting obstructions for central extensions of crossed modules.

A central extension here is a surjection phi0: H0 ->> H1 of crossed modules
over the same group G (identity on G), whose kernel K is central in H0 and
killed by the boundary.  A 1-cocycle (alpha, u) on the quotient crossed
module acquires a degree-3 obstruction: choose a set-level lift v of u
through phi0 and measure its failure to satisfy the cocycle relation,

    omega(g,h,k) = alpha_g.v(h,k) * v(g,hk) * v(gh,k)^-1 * v(g,h)^-1 in K,

a 3-cocycle for the K-module structure induced by alpha.  Its class theta is
independent of the lift and of the representative; it vanishes exactly on
the image of H^1 of the covering crossed module.

One builder computes omega, for one lift or for many: a lift is a row of an
int array with |G|^2 columns, and omega is four fancy-index gathers into the
multiplication, inverse and alpha-action tables of H0 through index maps
computed once per base group and cocycle, then a lookup of each value's
kernel coordinates.  The lift sweep, which checks that theta does not
depend on the lift, takes the lifts in ``itertools.product`` order in
chunks of LIFT_CHUNK, builds each chunk's omega tables at once and
classifies them with one ``CohomologyGroup.classify_tables`` call, which
checks every table closed and in the cocycle lattice.

The numeric variant extracts the same kind of class from a family of unitary
matrices indexed by the group whose products agree up to scalars.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import lcm

import numpy as np
import numpy.random  # noqa: F401  np.random is lazy: load it at start-up

from .coefficients import AbelianCoefficients, finite_abelian, rational_circle
from .cohomology import (Cochain, CohomologyGroup, cochain_from_coords,
                         cohomology, evaluate, is_cocycle)
from .crossed import (Cocycle1, CrossedModule, H1PointedSet, XModMorphism,
                      cocycle_violations, compute_H1, pushforward)
from .errors import InvariantError, ResourceLimit
from .groups import FiniteGroup, abelian_basis
from .unitary import operator_norm


@lru_cache(maxsize=64)
def _h_cached(group, module, degree, denominator=None):
    """Reuse classification machinery across repeated identical targets."""
    return cohomology(group, module, degree, denominator=denominator)


# ---------------------------------------------------------------------------
# central extensions of crossed modules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CentralXModExtension:
    """phi0: (H0 -> G) ->> (H1 -> G) with central kernel killed by boundary0."""

    ggroup: FiniteGroup
    h0group: FiniteGroup
    h1group: FiniteGroup
    phi0: tuple[int, ...]
    boundary0: tuple[int, ...]
    boundary1: tuple[int, ...]
    action0: tuple[tuple[int, ...], ...]
    action1: tuple[tuple[int, ...], ...]
    label: str = ""

    def __post_init__(self):
        problems = self.violations()
        if problems:
            raise ValueError("not a central crossed-module extension: "
                             + "; ".join(problems))

    def violations(self) -> list[str]:
        from .crossed import xmod_violations
        from .groups import hom_violations
        problems = []
        problems += [f"covering module: {p}" for p in xmod_violations(
            self.h0group, self.ggroup, self.boundary0, self.action0)]
        problems += [f"quotient module: {p}" for p in xmod_violations(
            self.h1group, self.ggroup, self.boundary1, self.action1)]
        problems += [f"phi0: {p}" for p in hom_violations(
            self.h0group, self.h1group, self.phi0)]
        if problems:
            return problems
        if len(set(self.phi0)) != self.h1group.order:
            problems.append("phi0 must be surjective")
        for a in self.h0group.elements():
            if self.boundary0[a] != self.boundary1[self.phi0[a]]:
                problems.append(f"boundary0 != boundary1 o phi0 at {a}")
        for g in self.ggroup.elements():
            for a in self.h0group.elements():
                if self.phi0[self.action0[g][a]] != \
                        self.action1[g][self.phi0[a]]:
                    problems.append(f"phi0 is not equivariant at ({g}, {a})")
        e1 = self.h1group.identity
        kernel = [a for a in self.h0group.elements() if self.phi0[a] == e1]
        for k in kernel:
            for a in self.h0group.elements():
                if self.h0group.mul[k][a] != self.h0group.mul[a][k]:
                    problems.append(f"kernel element {k} is not central")
                    break
        eg = self.ggroup.identity
        for k in kernel:
            if self.boundary0[k] != eg:
                problems.append(f"kernel element {k} survives boundary0")
        return problems

    def xmod0(self) -> CrossedModule:
        return CrossedModule(self.h0group, self.ggroup, self.boundary0,
                             self.action0, (self.label or "ext") + ".cover")

    def xmod1(self) -> CrossedModule:
        return CrossedModule(self.h1group, self.ggroup, self.boundary1,
                             self.action1, (self.label or "ext") + ".quot")

    def morphism(self) -> XModMorphism:
        return XModMorphism(self.xmod0(), self.xmod1(), self.phi0,
                            tuple(self.ggroup.elements()))

    def kernel_elements(self) -> tuple[int, ...]:
        e1 = self.h1group.identity
        return tuple(a for a in self.h0group.elements()
                     if self.phi0[a] == e1)

    def fibers(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {b: [] for b in self.h1group.elements()}
        for a in self.h0group.elements():
            out[self.phi0[a]].append(a)
        return out


@dataclass(frozen=True)
class InducedModule:
    """The kernel of phi0 as a module over the base group via a 1-cocycle.

    The action of a base-group element g is action0 of alpha_g restricted to
    the kernel, written in an invariant-factor basis.  ``module_label`` is
    the canonical key: the tuple of action matrices.
    """

    extension: CentralXModExtension
    base_cocycle: Cocycle1
    module: AbelianCoefficients
    basis: object  # AbelianBasis of the kernel inside h0group

    def to_vector(self, k_elem: int) -> tuple[int, ...]:
        return self.basis.vector_of(k_elem)

    def from_vector(self, vec) -> int:
        return self.basis.element_of(vec)

    @property
    def module_label(self) -> tuple:
        return self.module.action


def induced_module(ext: CentralXModExtension, group: FiniteGroup,
                   c: Cocycle1) -> InducedModule:
    problems = cocycle_violations(group, ext.xmod1(), c)
    if problems:
        raise ValueError("base cocycle invalid: " + "; ".join(problems))
    kernel = ext.kernel_elements()
    basis = abelian_basis(ext.h0group, kernel)
    kset = set(kernel)
    k = len(basis.orders)
    mats = []
    for g in group.elements():
        a = c.alpha[g]
        cols = []
        for gen in basis.gens:
            img = ext.action0[a][gen]
            if img not in kset:
                raise ValueError(
                    f"action of alpha_{g} does not preserve the kernel")
            cols.append(basis.vector_of(img))
        mats.append(tuple(tuple(cols[j][i] for j in range(k))
                          for i in range(k)))
    module = finite_abelian(group, basis.orders, tuple(mats),
                            label="ker(phi0)")
    return InducedModule(ext, c, module, basis)


# ---------------------------------------------------------------------------
# the boundary map theta
# ---------------------------------------------------------------------------

@dataclass
class ObstructionClass:
    """theta of a 1-cocycle: a classified degree-3 class over the kernel."""

    induced: InducedModule
    h3: CohomologyGroup
    cocycle: Cochain
    coordinates: tuple[int, ...]

    @property
    def is_zero(self) -> bool:
        return not any(self.coordinates)

    def witness(self) -> Cochain | None:
        return self.h3.coboundary_witness(self.cocycle)


def _lift_fibers(ext: CentralXModExtension, group: FiniteGroup,
                 c: Cocycle1) -> tuple[list[int], list[list[int]]]:
    """The positions g*n+h of the pairs of non-identity elements, in (g, h)
    order, and the fiber of phi0 over u(g, h) at each."""
    e = group.identity
    positions = [g * group.order + h for g in group.elements()
                 for h in group.elements() if g != e and h != e]
    fibers = ext.fibers()
    return positions, [fibers[c.u[pos]] for pos in positions]


def _lift_table(ext: CentralXModExtension, group: FiniteGroup, positions,
                choice) -> tuple[int, ...]:
    """The normalized lift taking choice[i] at positions[i]."""
    lift = [ext.h0group.identity] * (group.order ** 2)
    for pos, v in zip(positions, choice):
        lift[pos] = v
    return tuple(lift)


def canonical_lift(ext: CentralXModExtension, group: FiniteGroup,
                   c: Cocycle1) -> tuple[int, ...]:
    """Least-preimage set-level lift of the u-table, normalized."""
    positions, fibers = _lift_fibers(ext, group, c)
    return _lift_table(ext, group, positions, [min(f) for f in fibers])


def _check_lift(ext: CentralXModExtension, group: FiniteGroup,
                c: Cocycle1, lift) -> None:
    n = group.order
    e = group.identity
    e0 = ext.h0group.identity
    if len(lift) != n * n:
        raise ValueError("lift table has the wrong size")
    for g in group.elements():
        for h in group.elements():
            v = lift[g * n + h]
            if ext.phi0[v] != c.u[g * n + h]:
                raise ValueError(f"lift does not cover u at ({g}, {h})")
            if (g == e or h == e) and v != e0:
                raise ValueError("lift must be normalized")


def _omega_builder(ext: CentralXModExtension, group: FiniteGroup,
                   c: Cocycle1, induced: InducedModule):
    """The omega tables of many lifts at once.

    The returned function takes lifts as the rows of an int array with
    |group|^2 columns and returns their omega tables as rows, in the layout
    of ``Cochain.coords``.  omega at t = (g, h, k) is four gathers into the
    multiplication and inverse tables of h0group, through index maps into
    the lift computed here once: h*n+k (under the alpha_g-action), g*n+hk,
    gh*n+k and g*n+h.  A lookup from h0group to kernel slots, -1 outside
    the kernel, then gives each value's kernel vector; a value outside the
    kernel raises.
    """
    n = group.order
    h0 = ext.h0group
    g, h, k = np.indices((n, n, n)).reshape(3, -1)
    mul = np.array(group.mul)
    hk, g_hk, gh_k, g_h = h * n + k, g * n + mul[h, k], mul[g, h] * n + k, \
        g * n + h
    alpha_g = np.array(c.alpha)[g]
    action, h0mul = np.array(ext.action0), np.array(h0.mul)
    h0inv = np.array(h0.inv)
    kernel = ext.kernel_elements()
    slot = np.full(h0.order, -1)
    slot[list(kernel)] = np.arange(len(kernel))
    vectors = np.array([induced.to_vector(a) for a in kernel],
                       dtype=np.int64).reshape(len(kernel), -1)

    def build(lifts: np.ndarray) -> np.ndarray:
        w = h0mul[action[alpha_g, lifts[:, hk]], lifts[:, g_hk]]
        w = h0mul[w, h0inv[lifts[:, gh_k]]]
        w = slot[h0mul[w, h0inv[lifts[:, g_h]]]]
        if (w < 0).any():
            t = np.argwhere(w < 0)[0, 1]
            raise InvariantError(f"obstruction value escapes the kernel at "
                                 f"({g[t]}, {h[t]}, {k[t]})")
        return vectors[w].reshape(len(lifts), -1)

    return build


def obstruction_cocycle(ext: CentralXModExtension, group: FiniteGroup,
                        c: Cocycle1, lift, induced: InducedModule) -> Cochain:
    """omega(g,h,k) as a degree-3 cochain over the induced kernel module:
    the one-row case of ``_omega_builder``."""
    build = _omega_builder(ext, group, c, induced)
    return cochain_from_coords(group, induced.module, 3,
                               build(np.array([lift], dtype=np.int64))[0])


def theta(ext: CentralXModExtension, group: FiniteGroup, c: Cocycle1,
          lift=None, check_second_lift: bool = False,
          rng_seed: int = 0) -> ObstructionClass:
    """The obstruction class of a 1-cocycle on the quotient crossed module.

    ``lift`` overrides the canonical least-preimage lift.  With
    ``check_second_lift`` a pseudorandom second lift is used to recompute the
    class, and a mismatch raises (the class must not depend on the lift).
    """
    induced = induced_module(ext, group, c)
    if lift is None:
        lift = canonical_lift(ext, group, c)
    _check_lift(ext, group, c, lift)
    omega = obstruction_cocycle(ext, group, c, lift, induced)
    if not is_cocycle(group, induced.module, omega):
        raise RuntimeError("obstruction cochain is not a 3-cocycle")
    h3 = _h_cached(group, induced.module, 3)
    coords = h3.classify(omega)
    if check_second_lift:
        rng = np.random.default_rng(rng_seed)
        positions, fibers = _lift_fibers(ext, group, c)
        other = _lift_table(ext, group, positions,
                            [f[int(rng.integers(len(f)))] for f in fibers])
        omega2 = obstruction_cocycle(ext, group, c, other, induced)
        if h3.classify(omega2) != coords:
            raise RuntimeError("theta depends on the chosen lift")
    return ObstructionClass(induced, h3, omega, coords)


# lifts whose omega tables are built and classified together in the sweep
LIFT_CHUNK = 4096


def theta_lift_sweep(ext: CentralXModExtension, group: FiniteGroup,
                     c: Cocycle1, budget: int = 1_000_000) -> list[tuple]:
    """Classes of omega over every normalized lift (should be a singleton).

    The lifts are taken in ``itertools.product`` order, LIFT_CHUNK at a
    time: one gather builds the chunk's omega tables and one batched
    classification checks each closed and in the cocycle lattice.
    """
    induced = induced_module(ext, group, c)
    h3 = _h_cached(group, induced.module, 3)
    positions, fibers = _lift_fibers(ext, group, c)
    total = 1
    for fiber in fibers:
        total *= len(fiber)
        if total > budget:
            raise ResourceLimit("lift sweep size", total, budget)
    build = _omega_builder(ext, group, c, induced)
    choices = itertools.product(*fibers)
    seen = set()
    while chunk := list(itertools.islice(choices, LIFT_CHUNK)):
        lifts = np.full((len(chunk), group.order ** 2), ext.h0group.identity)
        lifts[:, positions] = np.array(chunk, dtype=np.int64).reshape(
            len(chunk), len(positions))
        seen.update(h3.classify_tables(build(lifts)))
    return sorted(seen)


# ---------------------------------------------------------------------------
# exactness of   H^2(G, K) -> H^1(cover) -> H^1(quotient) --theta--> H^3
# ---------------------------------------------------------------------------

@dataclass
class ExactnessReport:
    h1_cover: H1PointedSet
    h1_quotient: H1PointedSet
    push_map: tuple[int, ...]
    theta_zero: tuple[bool, ...]
    image_classes: tuple[int, ...]
    zero_classes: tuple[int, ...]
    exact_at_quotient: bool
    middle_counterexamples: tuple
    h2_order: int
    h2_image_classes: tuple[int, ...]
    basepoint_preimage: tuple[int, ...]
    exact_at_cover: bool
    cover_counterexamples: tuple

    @property
    def exact(self) -> bool:
        return self.exact_at_quotient and self.exact_at_cover


def verify_exactness(ext: CentralXModExtension, group: FiniteGroup,
                     strict: bool = False,
                     budget: int = 100_000_000) -> ExactnessReport:
    """Check both exactness statements of the obstruction sequence.

    At H^1 of the quotient: the pushforward image must equal theta^-1(0).
    At H^1 of the cover: the classes arriving from H^2(group, kernel)
    (trivial action, embedded via alpha = 1) must be exactly the classes
    pushing to the basepoint.
    """
    morphism = ext.morphism()
    h1_cover = compute_H1(group, ext.xmod0(), strict=strict, budget=budget)
    h1_quot = compute_H1(group, ext.xmod1(), strict=strict, budget=budget)
    push_map = tuple(
        h1_quot.class_of(pushforward(morphism, group, cls.representative))
        for cls in h1_cover.classes)
    theta_zero = tuple(
        theta(ext, group, cls.representative).is_zero
        for cls in h1_quot.classes)
    image = tuple(sorted(set(push_map)))
    zero = tuple(i for i, z in enumerate(theta_zero) if z)
    mid_bad = []
    for i in image:
        if not theta_zero[i]:
            mid_bad.append(("image class has nonzero theta", i))
    for i in zero:
        if i not in image:
            mid_bad.append(("theta-zero class misses the image", i))

    kernel = ext.kernel_elements()
    basis = abelian_basis(ext.h0group, kernel)
    module2 = finite_abelian(group, basis.orders)
    h2 = _h_cached(group, module2, 2)
    n = group.order
    h2_image = set()
    for coords in h2.all_classes():
        z = h2.representative_of(coords)
        u = tuple(basis.element_of(evaluate(group, z, (g, h)))
                  for g in group.elements() for h in group.elements())
        cocycle = Cocycle1((ext.ggroup.identity,) * n, u)
        problems = cocycle_violations(group, ext.xmod0(), cocycle)
        if problems:
            raise InvariantError("kernel class embeds badly: "
                                 + "; ".join(problems))
        h2_image.add(h1_cover.class_of(cocycle))
    base_pre = tuple(i for i, j in enumerate(push_map)
                     if j == h1_quot.basepoint)
    cover_bad = []
    for i in sorted(h2_image):
        if i not in base_pre:
            cover_bad.append(("kernel-class image pushes forward "
                              "nontrivially", i))
    for i in base_pre:
        if i not in h2_image:
            cover_bad.append(("basepoint preimage misses the kernel image",
                              i))
    return ExactnessReport(
        h1_cover=h1_cover, h1_quotient=h1_quot, push_map=push_map,
        theta_zero=theta_zero, image_classes=image, zero_classes=zero,
        exact_at_quotient=not mid_bad,
        middle_counterexamples=tuple(mid_bad),
        h2_order=h2.order, h2_image_classes=tuple(sorted(h2_image)),
        basepoint_preimage=base_pre, exact_at_cover=not cover_bad,
        cover_counterexamples=tuple(cover_bad))


# ---------------------------------------------------------------------------
# numeric kernel obstruction from unitary families
# ---------------------------------------------------------------------------

@dataclass
class KernelObstructionReport:
    """Result of extracting the scalar-defect class of a matrix family."""

    dimension: int
    denominator: int
    module_label: str
    invariant_factors: tuple[int, ...]
    coordinates: tuple[int, ...]
    is_zero: bool
    max_scalar_residual: float
    max_snap_residual: float
    defect_phases: tuple        # raw scalar-defect phases in [0, 1), floats
    omega: Cochain              # snapped degree-3 obstruction cocycle
    h3: CohomologyGroup
    witness: Cochain | None     # lambda with d(lambda) = omega, if zero

    def representative(self) -> Cochain:
        return self.h3.representative_of(self.coordinates)


def matrix_kernel_obstruction(group: FiniteGroup, mats, tol: float = 1e-8,
                              snap_denominator: int | None = None
                              ) -> KernelObstructionReport:
    """Classify the scalar defect of a projective unitary family.

    ``mats`` assigns each group element a unitary matrix; products must agree
    with the group law up to scalars.  The scalar defects form a phase table
    whose coboundary is the obstruction 3-cocycle over Q/Z (with trivial
    induced action, since conjugation is trivial on scalars); the cocycle's
    phases are snapped to ``snap_denominator`` (default dim * |group|, which
    bounds the scalar orders of finite projective families) and the class is
    computed exactly.
    """
    mats = [np.asarray(m, dtype=complex) for m in mats]
    if len(mats) != group.order:
        raise ValueError("need one matrix per group element")
    n_dim = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape != (n_dim, n_dim):
            raise ValueError(f"matrix {i} has shape {m.shape}")
        if operator_norm(m @ m.conj().T - np.eye(n_dim)) > 1e-10:
            raise ValueError(f"matrix {i} is not unitary within 1e-10")
    e = group.identity
    ce = np.trace(mats[e]) / n_dim
    if abs(abs(ce) - 1) > tol or \
            operator_norm(mats[e] - ce * np.eye(n_dim)) > tol:
        raise ValueError("identity matrix must be scalar")
    mats = [m / ce if i == e else m for i, m in enumerate(mats)]

    n = group.order
    denom = snap_denominator if snap_denominator else n_dim * n
    u_float = [0.0] * (n * n)
    max_scalar = 0.0
    for g in group.elements():
        for h in group.elements():
            gh = group.mul[g][h]
            defect = mats[g] @ mats[h] @ mats[gh].conj().T
            c = np.trace(defect) / n_dim
            resid = max(abs(abs(c) - 1),
                        operator_norm(defect - c * np.eye(n_dim)))
            max_scalar = max(max_scalar, float(resid))
            if resid > tol:
                raise ValueError(
                    f"products deviate from scalars at ({g}, {h}): "
                    f"residual {resid:.3e} > {tol:.1e}")
            u_float[g * n + h] = float(np.angle(c)) / (2 * np.pi) % 1.0

    # the obstruction is the coboundary of the defect phases; the defects
    # themselves shift by an exact coboundary under scalar re-lifting, so
    # only omega (never the raw table) is guaranteed to sit on the grid
    module = rational_circle(group)
    omega_float = []
    for g in group.elements():
        for h in group.elements():
            for k in group.elements():
                omega_float.append(
                    (u_float[h * n + k]
                     + u_float[g * n + group.mul[h][k]]
                     - u_float[group.mul[g][h] * n + k]
                     - u_float[g * n + h]) % 1.0)
    max_snap = 0.0
    numerators = []
    for idx, x in enumerate(omega_float):
        r = round(x * denom)
        dist = abs(x - r / denom)
        dist = min(dist, 1 - dist) * 2 * np.pi
        max_snap = max(max_snap, float(dist))
        if dist > tol:
            g, rest = divmod(idx, n * n)
            h, k = divmod(rest, n)
            raise ValueError(
                f"obstruction phase {x} at ({g}, {h}, {k}) is {dist:.3e} "
                f"away from the 1/{denom} grid; this points to numeric "
                "precision loss")
        numerators.append(r)
    omega = cochain_from_coords(group, module, 3, numerators, denom)
    h3, coords, witness = _classify_circle_cocycle(group, denom, omega)
    return KernelObstructionReport(
        dimension=n_dim, denominator=denom, module_label="Q/Z",
        invariant_factors=h3.invariant_factors, coordinates=coords,
        is_zero=not any(coords), max_scalar_residual=max_scalar,
        max_snap_residual=max_snap, defect_phases=tuple(u_float),
        omega=omega, h3=h3, witness=witness)


@lru_cache(maxsize=256)
def _classify_circle_cocycle(group: FiniteGroup, denom: int,
                             omega: Cochain):
    """Classify an exact circle-valued 3-cocycle (cached: scalar-perturbed
    lifts of one kernel all produce the identical snapped cocycle)."""
    module = rational_circle(group)
    if not is_cocycle(group, module, omega):
        raise InvariantError("scalar-defect coboundary is not a cocycle")
    h3 = _h_cached(group, module, 3, denominator=lcm(group.order, denom))
    return h3, h3.classify(omega), h3.coboundary_witness(omega)
