"""Exact arithmetic for weak Jacobi forms, Calabi-Yau elliptic genera and
Siegel paramodular lifts.

The library works with sparse Laurent-Puiseux series over big integers in
two variables (q, y) or three (q, y, s), with exponents stored in 1/24,
1/4 and 1/24 units respectively so that every computation stays in exact
integer arithmetic.
"""

from .errors import (
    IdentityError,
    InexactDivisionError,
    JacobiLiftError,
    PrecisionError,
    ValidationError,
)
from .genpoly import GeneratorPolynomial, parse_generator_polynomial
from .genus import (
    CYInvariants,
    ENRIQUES,
    K3,
    chi_y_polynomial,
    divisibility_report,
    elliptic_genus,
    relation_check,
)
from .jacobi import (
    Decomposition,
    JacobiForm,
    basis_psi,
    decompose,
    divide_by_xi06,
    generator,
    hecke_t0_2,
    hecke_tminus,
    linear_residuals,
    phi_threehalf,
    phi_weak_weight_minus1,
    polynomial_form,
    psi2_variant,
    specialize_center,
    specialize_torsion,
    taylor_coeffs,
    theta_jacobi,
    xi06,
)
from .lifts import (
    SiegelSeries,
    arithmetic_lift,
    e_form,
    exp_lift,
    exp_lift_homomorphic,
    factorization_product,
    hodge_anomaly,
    humbert_multiplicity,
    lift_window_for,
    siegel_omega_half_shift,
    siegel_scale,
    sqeg,
    symmetric_product_genus,
)
from .modular import discriminant_form, eta_power, eta_quotient, theta_constant
from .series import Series, series_from_dict, series_to_dict

__version__ = "0.1.0"

__all__ = [
    "CYInvariants",
    "Decomposition",
    "ENRIQUES",
    "GeneratorPolynomial",
    "IdentityError",
    "InexactDivisionError",
    "JacobiForm",
    "JacobiLiftError",
    "K3",
    "PrecisionError",
    "Series",
    "SiegelSeries",
    "ValidationError",
    "arithmetic_lift",
    "basis_psi",
    "chi_y_polynomial",
    "decompose",
    "discriminant_form",
    "divide_by_xi06",
    "divisibility_report",
    "e_form",
    "elliptic_genus",
    "eta_power",
    "eta_quotient",
    "exp_lift",
    "exp_lift_homomorphic",
    "factorization_product",
    "generator",
    "hecke_t0_2",
    "hecke_tminus",
    "hodge_anomaly",
    "humbert_multiplicity",
    "linear_residuals",
    "lift_window_for",
    "parse_generator_polynomial",
    "phi_threehalf",
    "phi_weak_weight_minus1",
    "polynomial_form",
    "psi2_variant",
    "relation_check",
    "run_suite",
    "series_from_dict",
    "series_to_dict",
    "siegel_omega_half_shift",
    "siegel_scale",
    "specialize_center",
    "specialize_torsion",
    "sqeg",
    "symmetric_product_genus",
    "taylor_coeffs",
    "theta_constant",
    "theta_jacobi",
    "xi06",
]


def __getattr__(name):
    """Load the verification suites on first use (PEP 562), so importing
    the package or its CLI does not compile them."""
    if name == "run_suite":
        from .verify import run_suite

        return run_suite
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
