"""Exact-rational dual-theory risk toolkit.

Lotteries are finite lists of (outcome, probability) states over exact
rationals. The value functional applies a probability weighting function
to the decumulative distribution and integrates outcomes linearly, so
risk attitudes live entirely in the weighting function. On top of that
sit dual moments (expected minima of iid draws), primal and dual
stochastic dominance of arbitrary degree, block constructions that pin
down a single m-th order trait while freezing everything below it,
randomized harnesses for the six characterization statements, and two
worked decision problems (derivative menus, self-protection effort).

Importing the package runs none of its modules. An exported name or a
submodule is imported on first access (PEP 562) and then kept here, so
``dualrisk.dt_value``, ``from dualrisk import *`` and ``dualrisk.weighting``
work as with eager imports.
"""

from importlib import import_module

# each submodule -> the names it exports
_EXPORTS = {
    "applications": (
        "BackgroundEffectReport", "DerivativeMenu", "DigitalZeroAt", "ExponentialEffort",
        "LinearEffort", "LongPut", "PortfolioProblem", "PowerLawEffort",
        "SelfProtectionProblem", "ShortCall", "ShortStraddle", "SPDiagnostics",
        "SPSolution", "Straddle", "background_shift_expression", "build_menu",
        "calibrate_exponential", "calibrate_power_law", "loss_probability",
        "loss_probability_slope", "optimal_alpha", "parse_problem_config",
        "portfolio_value", "sp_background_effect", "sp_foc_lhs", "sp_lottery", "sp_solve",
        "sp_value", "supplemented_prices",
    ),
    "apportionment": (
        "ApportionmentPair", "Block", "attach", "make_block", "make_pair",
        "make_parsimonious_pair", "preference_direction", "squeeze",
    ),
    "cli": (),
    "dominance": ("DominanceReport", "dual_sd_check", "primal_sd_check"),
    "errors": (
        "BadGapSpec", "CaseBoundary", "DomainError",
        "DominanceCheckFailed", "DualRiskError", "FormatError", "InputValidationError",
        "NegativeOutcome", "NonMonotoneUtility", "NonPositiveProbability", "NonUnitMass",
        "PrecedenceViolation", "RankViolation", "UnsupportedFamily",
    ),
    "harness": (
        "THEOREMS", "HarnessReport", "converse_check", "converse_witness_search",
        "direct_battery", "direct_check", "random_base", "random_mixed_tabulated",
        "random_pair", "run_theorem",
    ),
    "lottery": (
        "EqualProbLottery", "Lottery", "canonical_distribution", "equal_prob_from_lottery",
        "format_lottery_text", "make_lottery", "mean", "parse_lottery_text",
    ),
    "piecewise": (),
    "polyops": (),
    "rationals": ("format_exact", "parse_rational", "rat"),
    "valuation": (
        "LinearUtility", "QuadraticUtility", "TabulatedUtility", "dt_value", "dual_moment",
        "eu_value", "primal_moment", "raw_moment",
    ),
    "weighting": (
        "DualPower", "Identity", "Polynomial", "Power", "Prelec", "Quadratic",
        "SignCertificate", "SignClass", "SignWitness", "Tabulated", "TverskyKahneman",
        "analytic_derivative_sign", "dual_power_mixture", "eval_h", "eval_h_prime",
        "eval_hbar", "finite_difference_sign", "format_weighting", "hbar_finite_difference",
        "is_exact", "parse_weighting",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
