"""Weighted-space toolkit for integral equations on unbounded domains.

Compactified coordinates turn prescribed asymptotics into boundary data:
limits at infinity become face values, weighted sup norms become grid
maxima, and the cone fixed-point-index conditions become checkable numbers.
"""

from .casestudy import (NamedProblem, PROBLEM_IDS, load_problem,
                        load_problem_file, run_full_pipeline,
                        validate_closed_forms)
from .compactify import (ExtensionError, FaceLimitError, HalfLineOnePoint,
                         IntervalIdentity, LimitResult, LineOnePoint,
                         LineTwoPoint, ProductCompactification,
                         classify_ladder, default_levels, extend,
                         halfline_metric, kappa_limit)
from .cones import (f_sup_rho, holding_interval, index_one_check,
                    index_one_sweep)
from .funcspace import (WEIGHT_REGISTRY, BumpChain, GammaFunction,
                        WeightedGridFunction, WeightUnderflowError,
                        attach_faces, gamma, gaussian_family,
                        gaussian_family_separation, load_grid_function,
                        precompactness_report, save_grid_function,
                        weighted_norm)
from .greenop import (GridHammersteinOperator, Kernel, Nonlinearity,
                      QuadratureError, apply_T, check_hypotheses,
                      cumulative_weights, kernel_abs_integral,
                      panel_quadrature)
from .solver import (IterationError, SolveConfig, SolveResult,
                     asymptotic_profile, pde_residual, picard_solve,
                     write_outputs)

__version__ = "0.1.0"

__all__ = [
    "BumpChain", "ExtensionError", "FaceLimitError", "GammaFunction",
    "GridHammersteinOperator", "HalfLineOnePoint", "IntervalIdentity",
    "IterationError", "Kernel", "LimitResult", "LineOnePoint", "LineTwoPoint",
    "NamedProblem", "Nonlinearity", "PROBLEM_IDS",
    "ProductCompactification", "QuadratureError", "SolveConfig", "SolveResult",
    "WEIGHT_REGISTRY", "WeightedGridFunction", "WeightUnderflowError",
    "apply_T", "asymptotic_profile", "attach_faces", "check_hypotheses",
    "classify_ladder", "cumulative_weights",
    "default_levels", "extend", "f_sup_rho", "gamma", "gaussian_family",
    "gaussian_family_separation", "halfline_metric", "holding_interval",
    "index_one_check", "index_one_sweep", "kappa_limit", "kernel_abs_integral",
    "load_grid_function", "load_problem", "load_problem_file",
    "panel_quadrature", "pde_residual", "picard_solve",
    "precompactness_report", "run_full_pipeline",
    "save_grid_function", "validate_closed_forms", "weighted_norm",
    "write_outputs",
]
