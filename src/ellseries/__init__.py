"""Arbitrary-precision elliptic integrals, singular moduli, and the constant
Gamma(1/4)^2/pi^(3/2), with every fast series cross-validated against
independent AGM and theta-function oracles."""

__version__ = "0.1.0"

# Home submodule -> its public names, in `__all__` order.  A submodule is
# imported on the first read of one of its names or of the submodule itself
# (PEP 562), so `import ellseries` compiles none of them and
# `ellseries.make_context` only `precision`: where no bytecode cache is
# written, compiling all of them costs a fresh process about 20 ms.
_NAMES = {
    "precision": ("BigReal", "PrecisionContext", "PrecisionError", "DomainError",
                  "make_context", "to_decimal_string"),
    "oracle": ("agm", "K_ref", "E_ref", "theta3", "b_quarter", "nome"),
    "moduli": ("ModulusPair", "MultiplierResult", "PrintedFormComparison",
               "RootSelectionError", "solve_kr", "landen_up", "k100_closed_form",
               "chain_to_6400", "chain_printed_comparison", "eq2_residual",
               "multiplier", "k_scale_16", "k_scale_64", "k100_radical_coefficient"),
    "series": ("ConvergenceReport", "SingularSeriesError", "SeriesConvergenceError",
               "legendre_P", "phi_and_derivative", "eval_series", "closed_form",
               "derivative_weighted_sum", "two_K_over_pi", "four_E_over_pi",
               "gamma_quarter_series"),
    "verify": ("CheckResult", "run_verify"),
}
_HOMES = {name: home for home, names in _NAMES.items() for name in names}
__all__ = [*_HOMES, "__version__"]


def __getattr__(name):
    from importlib import import_module
    if name in _NAMES:
        # importing a submodule binds it in the package globals
        return import_module(f".{name}", __name__)
    home = _HOMES.get(name)
    if home is None:
        # an AttributeError lets the import system fall back to loading a
        # submodule, e.g. `from ellseries import cli`
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_NAMES))
