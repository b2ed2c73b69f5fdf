"""JSON problem bundles: strict schema checks with JSON-pointer paths,
shorthand parsing for groups / coefficient modules / crossed modules /
extensions, matrix and path (de)serialization, and the deterministic
rounding used by printed reports (12 significant digits, rationals "p/q").
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite, prod

import numpy as np

from .coefficients import AbelianCoefficients, finite_abelian, rational_circle
from .crossed import CrossedModule
from .errors import MAX_DIGITS
from .groups import (FiniteGroup, group_violations, make_cyclic, make_product,
                     make_symmetric, trivial_group)
from .obstruction import CentralXModExtension


MAX_SHORTHAND_ORDER = 720
MAX_MODULUS = 2 ** 31 - 1
# bounds a chain length or a sample size: guard estimates from it print
MAX_COUNT = 2 ** 63 - 1


class BundleError(Exception):
    """Schema or input failure, located by a JSON pointer."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer or "/"
        self.message = message
        super().__init__(f"{self.pointer}: {message}")


def expect_object(value, pointer: str, required: dict, optional: dict
                  ) -> dict:
    """Validate a JSON object against per-field type specs; unknown fields
    are rejected.  Type specs are a type or tuple of types."""
    if not isinstance(value, dict):
        raise BundleError(pointer, "expected a JSON object")
    for key in value:
        if key not in required and key not in optional:
            raise BundleError(f"{pointer}/{key}", "unknown field")
    for key, spec in required.items():
        if key not in value:
            raise BundleError(f"{pointer}/{key}", "missing required field")
        _check_type(value[key], f"{pointer}/{key}", spec)
    for key, spec in optional.items():
        if key in value:
            _check_type(value[key], f"{pointer}/{key}", spec)
    return value


def _check_type(value, pointer: str, spec):
    if spec is float:
        spec = (int, float)
    if not isinstance(value, spec) or isinstance(value, bool) and \
            spec in ((int, float), int):
        names = getattr(spec, "__name__", None) or \
            "/".join(t.__name__ for t in spec)
        raise BundleError(pointer, f"expected {names}")
    if spec == (int, float) and not _finite(value):
        raise BundleError(pointer, "expected a finite number")


def _finite(x) -> bool:
    """Whether x has a finite float value; JSON admits NaN and Infinity."""
    try:
        return isfinite(x)
    except OverflowError:  # an integer past the float range
        return False


def expect_int(value, pointer: str, low: int | None = None,
               high: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise BundleError(pointer, "expected an integer")
    if low is not None and value < low:
        raise BundleError(pointer, f"must be >= {low}")
    if high is not None and value > high:
        raise BundleError(pointer, f"must be <= {high}")
    return value


# ---------------------------------------------------------------------------
# groups, coefficient modules, crossed modules, extensions
# ---------------------------------------------------------------------------

def _shorthand_int(text: str, pointer: str) -> int:
    """int(text), refused at ``pointer`` past MAX_DIGITS characters."""
    if len(text) > MAX_DIGITS:
        raise BundleError(pointer, f"shorthand number has more than "
                                   f"{MAX_DIGITS} digits")
    return int(text)


def group_from_spec(spec, pointer: str) -> FiniteGroup:
    """"1", "C<n>", "C<a>xC<b>", "S<n>", or an explicit {"mul": [[...]]}.

    A shorthand names a group of order at most MAX_SHORTHAND_ORDER, the
    order of S6; a larger one is refused before any table is built."""
    if isinstance(spec, str):
        try:
            if spec == "1":
                return trivial_group()
            if spec.startswith("S") and spec[1:].isdigit():
                n = _shorthand_int(spec[1:], pointer)
                if not 1 <= n <= 6:
                    raise BundleError(pointer, "symmetric rank must be 1..6")
                return make_symmetric(n)
            if spec.startswith("C"):
                parts = spec[1:].split("xC")
                orders = [_shorthand_int(p, pointer) for p in parts]
                if not orders or any(o < 1 for o in orders):
                    raise ValueError
                if prod(orders) > MAX_SHORTHAND_ORDER:
                    raise BundleError(pointer, f"group order must be at most "
                                               f"{MAX_SHORTHAND_ORDER}")
                g = make_cyclic(orders[0])
                for o in orders[1:]:
                    g = make_product(g, make_cyclic(o))
                return g
        except (ValueError, IndexError):
            pass
        raise BundleError(pointer, f"unknown group shorthand {spec!r}")
    expect_object(spec, pointer, {"mul": list}, {})
    mul = spec["mul"]
    problems = group_violations(mul)
    if problems:
        raise BundleError(f"{pointer}/mul", problems[0])
    return FiniteGroup(tuple(tuple(row) for row in mul))


def module_from_spec(spec, group: FiniteGroup,
                     pointer: str) -> AbelianCoefficients:
    """"Z<m>-trivial" with 2 <= m <= MAX_MODULUS, or "QZ-trivial"
    (trivial action)."""
    if not isinstance(spec, str):
        raise BundleError(pointer, "expected a module shorthand string")
    if spec == "QZ-trivial":
        return rational_circle(group)
    if spec.startswith("Z") and spec.endswith("-trivial"):
        body = spec[1:-len("-trivial")]
        m = _shorthand_int(body, pointer) if body.isdigit() else 0
        if m > MAX_MODULUS:
            raise BundleError(pointer, f"modulus must be at most "
                                       f"{MAX_MODULUS}")
        if m >= 2:
            return finite_abelian(group, (m,))
    raise BundleError(pointer, f"unknown module shorthand {spec!r}")


def xmod_parts_from_spec(spec, pointer: str):
    """Parse crossed-module data without constructing (for validation).

    Shorthands: "<G>->1", "1-><G>", "<G>->id" with <G> a group shorthand.
    Explicit: {"h": group, "g": group, "boundary": [...], "action": [[...]]}.
    Returns (hgroup, ggroup, boundary, action, label).
    """
    if isinstance(spec, str):
        if spec.endswith("->1"):
            h = group_from_spec(spec[:-3], pointer)
            g = trivial_group()
            return (h, g, (0,) * h.order,
                    (tuple(h.elements()),), spec)
        if spec.endswith("->id"):  # before "1->", which "1->id" also fits
            g = group_from_spec(spec[:-4], pointer)
            action = tuple(tuple(g.conj(a, b) for b in g.elements())
                           for a in g.elements())
            return (g, g, tuple(g.elements()), action, spec)
        if spec.startswith("1->"):
            g = group_from_spec(spec[3:], pointer)
            h = trivial_group()
            return (h, g, (g.identity,),
                    tuple((0,) for _ in g.elements()), spec)
        raise BundleError(pointer, f"unknown crossed-module shorthand "
                                   f"{spec!r}")
    expect_object(spec, pointer, {"h": (str, dict), "g": (str, dict),
                                  "boundary": list, "action": list}, {})
    h = group_from_spec(spec["h"], f"{pointer}/h")
    g = group_from_spec(spec["g"], f"{pointer}/g")
    boundary = _int_tuple(spec["boundary"], f"{pointer}/boundary", h.order,
                          g.order)
    action = _perm_table(spec["action"], f"{pointer}/action", g.order,
                         h.order)
    return h, g, boundary, action, "explicit"


def xmod_from_spec(spec, pointer: str) -> CrossedModule:
    h, g, boundary, action, label = xmod_parts_from_spec(spec, pointer)
    try:
        return CrossedModule(h, g, boundary, action, label)
    except ValueError as exc:
        raise BundleError(pointer, str(exc)) from None


def _int_tuple(values, pointer: str, length: int, bound: int
               ) -> tuple[int, ...]:
    if len(values) != length:
        raise BundleError(pointer, f"expected {length} entries")
    out = []
    for i, v in enumerate(values):
        out.append(expect_int(v, f"{pointer}/{i}", 0, bound - 1))
    return tuple(out)


def _perm_table(rows, pointer: str, nrows: int, ncols: int):
    if len(rows) != nrows:
        raise BundleError(pointer, f"expected {nrows} rows")
    return tuple(_int_tuple(row, f"{pointer}/{i}", ncols, ncols)
                 for i, row in enumerate(rows))


def extension_from_spec(spec, pointer: str) -> CentralXModExtension:
    """"C2-C4-C2" / "C2-C4-C2-inv" (the order-4 cover of the order-2
    quotient, trivial boundaries, base group 1 resp. C2 acting by
    inversion), or the explicit field-by-field form."""
    if isinstance(spec, str):
        if spec in ("C2-C4-C2", "C2-C4-C2-inv"):
            h0 = make_cyclic(4)
            h1 = make_cyclic(2)
            if spec.endswith("-inv"):
                g = make_cyclic(2)
                action0 = (tuple(h0.elements()),
                           tuple(h0.inv[a] for a in h0.elements()))
                action1 = (tuple(h1.elements()), tuple(h1.elements()))
            else:
                g = trivial_group()
                action0 = (tuple(h0.elements()),)
                action1 = (tuple(h1.elements()),)
            return CentralXModExtension(
                g, h0, h1, phi0=tuple(a % 2 for a in h0.elements()),
                boundary0=(g.identity,) * 4, boundary1=(g.identity,) * 2,
                action0=action0, action1=action1, label=spec)
        raise BundleError(pointer, f"unknown extension shorthand {spec!r}")
    expect_object(spec, pointer,
                  {"g": (str, dict), "h0": (str, dict), "h1": (str, dict),
                   "phi0": list, "boundary0": list, "boundary1": list,
                   "action0": list, "action1": list}, {})
    g = group_from_spec(spec["g"], f"{pointer}/g")
    h0 = group_from_spec(spec["h0"], f"{pointer}/h0")
    h1 = group_from_spec(spec["h1"], f"{pointer}/h1")
    try:
        return CentralXModExtension(
            g, h0, h1,
            phi0=_int_tuple(spec["phi0"], f"{pointer}/phi0", h0.order,
                            h1.order),
            boundary0=_int_tuple(spec["boundary0"], f"{pointer}/boundary0",
                                 h0.order, g.order),
            boundary1=_int_tuple(spec["boundary1"], f"{pointer}/boundary1",
                                 h1.order, g.order),
            action0=_perm_table(spec["action0"], f"{pointer}/action0",
                                g.order, h0.order),
            action1=_perm_table(spec["action1"], f"{pointer}/action1",
                                g.order, h1.order))
    except ValueError as exc:
        raise BundleError(pointer, str(exc)) from None


# ---------------------------------------------------------------------------
# matrices and paths
# ---------------------------------------------------------------------------

def matrix_from_json(rows, pointer: str) -> np.ndarray:
    """A matrix as rows of [re, im] entry pairs."""
    if not isinstance(rows, list) or not rows:
        raise BundleError(pointer, "expected a nonempty list of rows")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != len(rows):
            raise BundleError(f"{pointer}/{i}", "matrix must be square")
        line = []
        for j, entry in enumerate(row):
            if (not isinstance(entry, list) or len(entry) != 2 or
                    not all(isinstance(p, (int, float))
                            and not isinstance(p, bool) for p in entry)):
                raise BundleError(f"{pointer}/{i}/{j}",
                                  "expected an [re, im] pair")
            if not all(map(_finite, entry)):
                raise BundleError(f"{pointer}/{i}/{j}",
                                  "expected a finite number")
            line.append(complex(entry[0], entry[1]))
        out.append(line)
    return np.array(out, dtype=complex)


def matrix_to_json(m: np.ndarray) -> list:
    return [[[round12(z.real), round12(z.imag)] for z in row]
            for row in np.asarray(m, dtype=complex)]


def path_from_json(spec, pointer: str):
    from .unitary import unitary_path
    expect_object(spec, pointer, {"ts": list, "mats": list}, {})
    if len(spec["ts"]) != len(spec["mats"]):
        raise BundleError(pointer, "ts and mats lengths differ")
    for i, t in enumerate(spec["ts"]):
        _check_type(t, f"{pointer}/ts/{i}", float)
    mats = [matrix_from_json(m, f"{pointer}/mats/{i}")
            for i, m in enumerate(spec["mats"])]
    try:
        return unitary_path(spec["ts"], mats)
    except ValueError as exc:
        raise BundleError(pointer, str(exc)) from None


# ---------------------------------------------------------------------------
# deterministic report serialization
# ---------------------------------------------------------------------------

def round12(x: float) -> float:
    """Round to the declared printed precision (12 significant digits)."""
    return float(f"{float(x):.12g}")


def to_jsonable(obj):
    """Recursive rounding/encoding: floats to 12 significant digits,
    rationals to "p/q", complex numbers to [re, im]."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return round12(obj)
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, complex):
        return [round12(obj.real), round12(obj.imag)]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return round12(float(obj))
    if isinstance(obj, np.complexfloating):
        return [round12(float(obj.real)), round12(float(obj.imag))]
    if isinstance(obj, np.ndarray):
        return to_jsonable(obj.tolist())
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def simplicial_to_json(s) -> dict:
    """Truncated simplicial set as {"N", "counts", "faces", "degens"}."""
    return {
        "N": s.N,
        "counts": list(s.counts()),
        "faces": {str(k): [list(tbl) for tbl in s.face[k]]
                  for k in sorted(s.face)},
        "degens": {str(k): [list(tbl) for tbl in s.degen[k]]
                   for k in sorted(s.degen)},
    }


def homology_to_json(h) -> list:
    """Homology as a list of {"degree", "factors"} entries (0 marks Z)."""
    return [{"degree": q, "factors": list(h.factors[q])}
            for q in range(h.maxdeg + 1)]
