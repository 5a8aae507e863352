"""Exact rational LP dictionaries, primal/dual simplex, and duality checks.

Everything computes exactly: instances and dictionaries are integer
numerators over one common denominator, and certificates are
arbitrary-precision rationals. There is no floating point anywhere, so
every comparison and every certificate is exact.
"""

from dictlp.exact import QMatrix
from dictlp.model import (
    ParseError,
    StandardLP,
    dual_lp,
    parse_lp,
    serialize_lp,
)
from dictlp.dictionary import (
    Dictionary,
    NotABasisError,
    PivotError,
    basic_solution,
    canonical,
    dictionary_from_basis,
    initial_dictionary,
    is_dual_feasible,
    is_primal_feasible,
    negative_transpose,
    pivot,
)
from dictlp.simplex import (
    CertificateError,
    Infeasible,
    Optimal,
    PivotRule,
    SolveOutcome,
    Unbounded,
    check_outcome,
    dual_simplex,
    primal_simplex,
    solve,
)
from dictlp.duality import (
    BasisCountError,
    BijectionReport,
    build_R,
    dictionary_matrix,
    dual_dictionary_direct,
    enumerate_bases,
    in_kernel,
    spans_rowspace_of,
    verify_bases,
    walk_bases,
)

__version__ = "0.1.0"

# The kernel implementation in use: always the pure-Python ``dictlp._kernels``.
BACKEND = "python"

__all__ = [
    "BACKEND",
    "BasisCountError",
    "BijectionReport",
    "CertificateError",
    "Dictionary",
    "Infeasible",
    "NotABasisError",
    "Optimal",
    "ParseError",
    "PivotError",
    "PivotRule",
    "QMatrix",
    "SolveOutcome",
    "StandardLP",
    "Unbounded",
    "basic_solution",
    "build_R",
    "canonical",
    "check_outcome",
    "dictionary_from_basis",
    "dictionary_matrix",
    "dual_dictionary_direct",
    "dual_lp",
    "dual_simplex",
    "enumerate_bases",
    "in_kernel",
    "initial_dictionary",
    "is_dual_feasible",
    "is_primal_feasible",
    "negative_transpose",
    "parse_lp",
    "pivot",
    "primal_simplex",
    "serialize_lp",
    "solve",
    "spans_rowspace_of",
    "verify_bases",
    "walk_bases",
]
