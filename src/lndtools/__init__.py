"""Exact computations with locally nilpotent derivations on affine varieties.

The package works over the rationals with sparse exact polynomials, decides
kernel and plinth membership by bounded certificate search, and produces
cylinder trivializations through slice coordinates.
"""

from .cylinder import (
    CertificateError,
    CylinderCertificate,
    Outcome,
    SearchBounds,
    build_preimage_system,
    cylinder_decision,
    dixmier_image,
    dixmier_reduce,
    maximal_cylinder,
    plinth_claim_verify,
    plinth_membership,
    preimage_search,
    principality_check,
    slice_nonexistence,
)
from .derivation import CapExceededError, Derivation
from .groebner import (
    Ideal,
    buchberger,
    divide_exact,
    gcd_via_lcm,
    lcm_via_intersection,
    radical_membership,
    reduce_poly,
    standard_monomials,
)
from .linalg import Inconsistency, QMatrix, solve_exact
from .parsing import (
    ParseError,
    parse_fraction,
    parse_point,
    parse_polynomial,
    parse_polynomial_list,
    parse_spec,
    spec_derivation,
)
from .poly import DEGREVLEX, LEX, Polynomial, elimination
from .printing import (
    format_exp_action,
    format_ideal,
    format_polynomial,
    format_ratfun,
)
from .ratfun import RationalFunction, ratfun_eq_mod

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "CertificateError",
    "CylinderCertificate",
    "DEGREVLEX",
    "Derivation",
    "Ideal",
    "Inconsistency",
    "LEX",
    "Outcome",
    "ParseError",
    "Polynomial",
    "QMatrix",
    "RationalFunction",
    "SearchBounds",
    "buchberger",
    "build_preimage_system",
    "cylinder_decision",
    "divide_exact",
    "dixmier_image",
    "dixmier_reduce",
    "elimination",
    "format_exp_action",
    "format_ideal",
    "format_polynomial",
    "format_ratfun",
    "gcd_via_lcm",
    "lcm_via_intersection",
    "maximal_cylinder",
    "parse_fraction",
    "parse_point",
    "parse_polynomial",
    "parse_polynomial_list",
    "parse_spec",
    "plinth_claim_verify",
    "plinth_membership",
    "preimage_search",
    "principality_check",
    "radical_membership",
    "ratfun_eq_mod",
    "reduce_poly",
    "slice_nonexistence",
    "solve_exact",
    "spec_derivation",
    "standard_monomials",
]
