"""Bayesian estimation of the qubit-cavity coupling strength.

Reduced two-level dynamics through a single-mode cavity, optimal
quadratic-cost (mean-square error) and delta-cost (likelihood) estimation
strategies for Gaussian and uniform priors, their average costs, and
accuracy lower bounds, plus sampling oracles and a scenario-runner CLI.
"""

from .bounds import BoundReport, cr_bound_ml, cr_bound_mmse, sld_general
from .dynamics import FieldState, Scenario, field_for, reduced_state
from .errors import (
    CavbayesError,
    ConfigError,
    DegenerateGamma0,
    InvalidRate,
    SinVanishes,
    TruncationTooSmall,
    UnsupportedCombination,
)
from .ml import (
    MlPovm,
    f_z_moments,
    gaussian_cmax,
    gaussian_cost_max,
    gaussian_ml_povm,
    ml_average_estimate,
    uniform_cmax,
    uniform_cost_max,
    uniform_ml_povm,
)
from .mmse import (
    GammaTriple,
    MmseResult,
    average_estimate,
    find_tau_star,
    gamma_moments,
    limit_eigenvalue_tau0,
    mmse_estimator,
    mse_of_estimator,
)
from .oracle import McReport, conditional_pdf, mc_estimate_distribution, mc_quadratic_cost
from .priors import Prior, QuadratureRule, density, moments, quadrature
from .qubit import Hermitian2, QubitState, eigendecompose, solve_symmetric_product

__version__ = "0.1.0"
