"""Monte Carlo laboratory for level-set hitting behavior of SDE coefficient fields."""

__version__ = "0.1.0"

from .coefficients import (CoefficientField, FieldCatalogEntry, catalog,
                           estimate_lipschitz, in_zero_set, level,
                           make_field)
from .engine import (PathRealization, StepPolicy, em_step, path_entropy,
                     simulate_path, sweep_paths)
from .errors import InvalidInputError, InvariantError, NumericalBlowupError
from .stopping import dyadic_escape_batch
from .verification import (BoundCheckReport, EstimateWithCI, IntegralVerdict,
                           accessibility_integral_1d,
                           check_displacement_bound,
                           check_escape_probability_bound,
                           check_halving_persistence,
                           check_level_change_bound,
                           default_escape_time_grid, escape_rate_constant,
                           estimate_with_ci, estimate_zero_hitting,
                           fitted_escape_exponent, persistence_window,
                           strong_order_study)
from .cli import ScenarioConfig, RunReport, parse_scenario, run_scenario

__all__ = [
    "BoundCheckReport", "CoefficientField", "EstimateWithCI",
    "FieldCatalogEntry", "IntegralVerdict", "InvalidInputError",
    "InvariantError", "NumericalBlowupError", "PathRealization", "RunReport",
    "ScenarioConfig", "StepPolicy", "accessibility_integral_1d", "catalog",
    "check_displacement_bound", "check_escape_probability_bound",
    "check_halving_persistence", "check_level_change_bound",
    "default_escape_time_grid", "dyadic_escape_batch", "em_step",
    "escape_rate_constant", "estimate_lipschitz", "estimate_with_ci",
    "estimate_zero_hitting", "fitted_escape_exponent", "in_zero_set", "level",
    "make_field", "parse_scenario", "path_entropy", "persistence_window",
    "run_scenario", "simulate_path", "strong_order_study", "sweep_paths",
]
