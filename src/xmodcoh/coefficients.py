"""Abelian coefficient modules for group cohomology.

Two kinds are supported:

* ``finite-abelian`` — a direct sum of cyclic groups Z/d1 + ... + Z/dk with
  d1 | d2 | ... ; elements are integer vectors reduced mod the factors, and
  the group acts by one integer matrix per group element.
* ``rational-circle`` — Q/Z; elements are reduced fractions p/q in [0, 1),
  and the group acts by one integer multiplier per group element (the
  identity multiplier 1 by default, -1 for inversion-type actions).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .groups import FiniteGroup

FINITE = "finite-abelian"
CIRCLE = "rational-circle"


def coefficients_violations(group: FiniteGroup, kind: str, factors,
                            action) -> list[str]:
    problems: list[str] = []
    if kind == FINITE:
        k = len(factors)
        if any(d < 1 for d in factors):
            return ["factors must be positive"]
        for i in range(k - 1):
            if factors[i + 1] % factors[i]:
                problems.append(
                    f"factors must divide in order: {factors[i]} does not "
                    f"divide {factors[i + 1]}")
        if len(action) != group.order:
            return problems + ["action must give one matrix per group element"]
        for g, mat in enumerate(action):
            if len(mat) != k or any(len(row) != k for row in mat):
                return problems + [f"action matrix for element {g} is not {k}x{k}"]
        ident = action[group.identity]
        if any(ident[i][j] % factors[i] != (1 if i == j else 0)
               for i in range(k) for j in range(k)):
            problems.append("identity element must act as the identity matrix")
        # well-defined on Z/d1 + ... : column j may only feed row i in
        # multiples of d_i / gcd(d_i, d_j) ... equivalently A * (d_j e_j) = 0
        for g, mat in enumerate(action):
            for j in range(k):
                for i in range(k):
                    if (mat[i][j] * factors[j]) % factors[i]:
                        problems.append(
                            f"action of {g} is not well-defined on factor {j}")
        for g in group.elements():
            for h in group.elements():
                gh = group.mul[g][h]
                for i in range(k):
                    for j in range(k):
                        lhs = sum(action[g][i][t] * action[h][t][j]
                                  for t in range(k))
                        if (lhs - action[gh][i][j]) % factors[i]:
                            problems.append(
                                f"action is not multiplicative at ({g}, {h})")
        # invertibility: matrix mod factors must permute the element set
        if not problems:
            total = 1
            for d in factors:
                total *= d
            if total <= 4096:
                for g, mat in enumerate(action):
                    seen = set()
                    for vec in product(*[range(d) for d in factors]):
                        img = tuple(
                            sum(mat[i][j] * vec[j] for j in range(k)) % factors[i]
                            for i in range(k))
                        seen.add(img)
                    if len(seen) != total:
                        problems.append(f"action of {g} is not invertible")
    elif kind == CIRCLE:
        if factors:
            problems.append("rational-circle coefficients take no factors")
        if len(action) != group.order:
            return problems + ["action must give one multiplier per element"]
        if any(not isinstance(t, int) for t in action):
            return problems + ["multipliers must be integers"]
        if action[group.identity] != 1:
            problems.append("identity element must act by multiplier 1")
        for g in group.elements():
            for h in group.elements():
                if action[g] * action[h] != action[group.mul[g][h]]:
                    problems.append(
                        f"multipliers are not multiplicative at ({g}, {h})")
    else:
        problems.append(f"unknown coefficient kind {kind!r}")
    return sorted(set(problems))


@dataclass(frozen=True)
class AbelianCoefficients:
    """A coefficient module for the cohomology of ``group``."""

    group: FiniteGroup
    kind: str
    factors: tuple[int, ...]
    action: tuple
    label: str = ""

    def __post_init__(self):
        problems = coefficients_violations(self.group, self.kind,
                                           self.factors, self.action)
        if problems:
            raise ValueError("bad coefficient module: " + "; ".join(problems))


def trivial_matrices(group: FiniteGroup, k: int):
    ident = tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
    return (ident,) * group.order


def finite_abelian(group: FiniteGroup, factors, action=None,
                   label: str = "") -> AbelianCoefficients:
    factors = tuple(int(d) for d in factors)
    if action is None:
        action = trivial_matrices(group, len(factors))
    else:
        action = tuple(tuple(tuple(row) for row in mat) for mat in action)
    if not label:
        label = "+".join(f"Z/{d}" for d in factors) or "0"
    return AbelianCoefficients(group, FINITE, factors, action, label)


def rational_circle(group: FiniteGroup, multipliers=None,
                    label: str = "Q/Z") -> AbelianCoefficients:
    if multipliers is None:
        multipliers = (1,) * group.order
    return AbelianCoefficients(group, CIRCLE, (), tuple(multipliers), label)
