"""Exact symbolic computation in affine wreath product algebras.

The package builds graded Frobenius superalgebras F from structure
constants, forms the affine wreath product algebra A_n(F) with its
normal-form monomial basis x^alpha * b * pi, and computes cyclotomic
quotients together with their trace forms.  All coefficients live in
cyclotomic number fields Q(zeta_m); nothing is approximated.

Sharing: operations never change their operands, and an element's
``terms`` dict is read-only by convention (nothing stops a caller from
mutating it, and doing so corrupts the element).  Algebra contexts are not
immutable: they fill memo caches (products, t-elements, twists, word
products on F, Delta_i(x^alpha)) as they compute, and hand out the stored
dicts, read-only in the same way.  Memos live on F and the contexts, never
at module level, and hold rows and term dicts rather than elements that
would refer back to their owner, so they die with them.  Each cache entry
is a pure function of its key, so filling is idempotent, but the package
does no locking; share a context across threads only if the caller
serializes its use.
"""

from .cyclotomic import (
    CycloElem,
    CycloParams,
    CyclotomicAlgebra,
    InductionStructure,
    make_params,
    nakayama_check,
)
from .engine import AwpaAlgebra, AwpaElem
from .frobenius import (
    AlgElem,
    FrobAlg,
    builtin,
    check_frobenius_morphism,
    clifford_algebra,
    cyclic_group_algebra,
    dual_numbers_algebra,
    group_algebra,
    opposite_algebra,
    parse_alg_elem,
    symmetric_group_algebra,
    taft_algebra,
    trivial_algebra,
)
from .scalars import CycScalar, parse_scalar, root_of_unity
from .textio import element_str, parse_element
from .verify import run_suite

__all__ = [
    "AlgElem",
    "AwpaAlgebra",
    "AwpaElem",
    "CycScalar",
    "CycloElem",
    "CycloParams",
    "CyclotomicAlgebra",
    "FrobAlg",
    "InductionStructure",
    "builtin",
    "check_frobenius_morphism",
    "clifford_algebra",
    "cyclic_group_algebra",
    "dual_numbers_algebra",
    "element_str",
    "group_algebra",
    "make_params",
    "nakayama_check",
    "opposite_algebra",
    "parse_alg_elem",
    "parse_element",
    "parse_scalar",
    "root_of_unity",
    "run_suite",
    "symmetric_group_algebra",
    "taft_algebra",
    "trivial_algebra",
]
