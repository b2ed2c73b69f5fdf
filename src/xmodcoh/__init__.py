"""Cohomology of finite groups with crossed-module coefficients.

Subpackages/modules:

* ``groups`` — finite groups as multiplication tables and abelian
  decompositions.
* ``coefficients`` / ``cohomology`` — abelian coefficient modules and
  H^n (n <= 4) over the normalized bar complex, with exact integer algebra.
* ``crossed`` — crossed modules, nonabelian 1-cocycles and their pointed
  cohomology set H^1, the free-and-faithful variant, and the shift
  identifying H^1 with abelian H^2 when the target group is trivial.
* ``obstruction`` — central extensions of crossed modules, the boundary map
  theta into H^3, exactness checks, and the numeric kernel-obstruction
  extractor for unitary matrix families.
* ``simplicial`` / ``nerves`` — truncated simplicial sets, Duskin and
  monoidal-diagonal nerves, integral homology.
* ``retraction`` — the strictification retraction of the appendix.
* ``homotopies`` — cocycle-induced simplicial maps and coboundary-induced
  homotopies; no task reaches it yet.
* ``unitary`` — finite-dimensional unitary numerics: winding numbers,
  exponential length, membership certificates, path decomposition.
* ``cli`` — the JSON problem-bundle command line.
"""

__version__ = "0.1.0"

from .groups import (FiniteGroup, group_violations, make_cyclic,  # noqa: E402
                     make_product, make_symmetric, trivial_group)
from .coefficients import finite_abelian, rational_circle  # noqa: E402
from .crossed import (CrossedModule, abelian_shift, compute_H1,  # noqa: E402
                      compute_H1_ff, validate_xmod, xmod_violations)
from .obstruction import (CentralXModExtension,  # noqa: E402
                          matrix_kernel_obstruction, theta,
                          theta_lift_sweep, verify_exactness)
from .simplicial import homology  # noqa: E402
from .nerves import (duskin_nerve, monoidal_diag_nerve,  # noqa: E402
                     ordinary_nerve)
from .retraction import verify_appendix_retraction  # noqa: E402
from .unitary import (check_exp_inequalities, d_tau,  # noqa: E402
                      decompose_path, dlhs_delta, dlhs_path, el_tau,
                      su_tau_member, unitary_path)
from .errors import ResourceLimit  # noqa: E402

__all__ = [
    "__version__", "FiniteGroup", "group_violations", "make_cyclic",
    "make_product", "make_symmetric", "trivial_group", "finite_abelian",
    "rational_circle", "CrossedModule", "abelian_shift",
    "compute_H1", "compute_H1_ff", "validate_xmod", "xmod_violations",
    "CentralXModExtension", "matrix_kernel_obstruction", "theta",
    "theta_lift_sweep", "verify_exactness", "homology", "duskin_nerve",
    "monoidal_diag_nerve", "ordinary_nerve", "verify_appendix_retraction",
    "check_exp_inequalities", "d_tau", "decompose_path", "dlhs_delta",
    "dlhs_path", "el_tau", "su_tau_member", "unitary_path", "ResourceLimit",
]
