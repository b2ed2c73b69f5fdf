"""A catalogue of mutants of the program, so that the claim that a check
can fail stays rerunnable.

Each mutant names one source file, an exact fragment of it, the
replacement, and the test node ids that must fail with the replacement in
place.  ``tools/mutate.py`` applies them one at a time to a copy of the
repository and reports which are killed; ``test_mutants.py`` checks that
every fragment still occurs exactly once, so a refactor that moves one
must update its entry here."""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str          # relative to the repository root
    fragment: str
    replacement: str
    tests: tuple[str, ...]


REPLAY = ("tests/test_modsnf_replay.py::"
          "test_replayed_transforms_equal_the_eager_ones_bitwise",)
STABLE = ("tests/test_cohomology.py::"
          "test_stable_by_counting_equals_a_second_elimination",)

MUTANTS = [
    Mutant("u-inverse-scaled-by-inv", "src/xmodcoh/modsnf.py",
           "x[t] = x[t] * (unit if inverse else inv) % q",
           "x[t] = x[t] * inv % q", REPLAY),
    Mutant("v-swapped-at-the-pivot-row", "src/xmodcoh/modsnf.py",
           "s, f = (j, f_col) if cols else (i, f_row)",
           "s, f = (i, f_col) if cols else (i, f_row)", REPLAY),
    Mutant("stable-counts-degree-n-cochains", "src/xmodcoh/cohomology.py",
           "self.order * m ** cx.dim(n - 1)",
           "self.order * m ** cx.dim(n)", STABLE),
    Mutant("stable-reuses-the-bockstein-kernel", "src/xmodcoh/cohomology.py",
           "cycles = modsnf.mod_kernel(gens, m)",
           "cycles = cycles", STABLE),
    Mutant("z1-summand-refused", "src/xmodcoh/coefficients.py",
           "if any((ident[i][j] - (i == j)) % factors[i]",
           "if any(ident[i][j] % factors[i] != (1 if i == j else 0)",
           ("tests/test_cohomology.py::test_a_z1_summand_is_the_zero_group",)),
]
