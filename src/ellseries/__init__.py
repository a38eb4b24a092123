"""Arbitrary-precision elliptic integrals, singular moduli, and the constant
Gamma(1/4)^2/pi^(3/2), with every fast series cross-validated against
independent AGM and theta-function oracles."""

from .precision import (BigReal, DomainError, PrecisionContext, PrecisionError,
                        make_context, to_decimal_string)
from .oracle import E_ref, K_ref, agm, b_quarter, nome, theta3
from .moduli import (ModulusPair, MultiplierResult, PrintedFormComparison,
                     RootSelectionError, chain_printed_comparison,
                     chain_to_6400, eq2_residual,
                     k100_closed_form, k100_radical_coefficient,
                     k_scale_16, k_scale_64, landen_up,
                     multiplier, solve_kr)
from .series import (ConvergenceReport, SeriesConvergenceError,
                     SingularSeriesError, closed_form,
                     derivative_weighted_sum, eval_series, four_E_over_pi,
                     gamma_quarter_series, legendre_P, phi_and_derivative,
                     two_K_over_pi)
from .verify import CheckResult, run_verify

__version__ = "0.1.0"

__all__ = [
    "BigReal", "PrecisionContext", "PrecisionError", "DomainError",
    "make_context", "to_decimal_string",
    "agm", "K_ref", "E_ref", "theta3", "b_quarter", "nome",
    "ModulusPair", "MultiplierResult", "PrintedFormComparison",
    "RootSelectionError", "solve_kr", "landen_up", "k100_closed_form",
    "chain_to_6400", "chain_printed_comparison", "eq2_residual",
    "multiplier", "k_scale_16", "k_scale_64", "k100_radical_coefficient",
    "ConvergenceReport", "SingularSeriesError",
    "SeriesConvergenceError", "legendre_P",
    "phi_and_derivative", "eval_series", "closed_form",
    "derivative_weighted_sum", "two_K_over_pi", "four_E_over_pi",
    "gamma_quarter_series",
    "CheckResult", "run_verify",
    "__version__",
]
