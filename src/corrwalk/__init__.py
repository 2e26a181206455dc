"""Discrete-time quantum walks with long-range correlated coin-phase disorder.

The package simulates a two-component walker on a 1-D chain whose coin
phases carry power-law correlated random inhomogeneities in time and in
space, and provides the statistics (dispersion, Hurst and size-scaling
exponents, regime classification) needed to map out the resulting
dynamical phases.

The package exports the names of the README quick start and the error
types; everything else is imported from its module, for example
``corrwalk.ensemble.phase_diagram_sweep`` or ``corrwalk.noise.derive_seed``.
"""

from .ensemble import EnsembleConfig, run_ensemble, size_scan
from .errors import (
    DegenerateSeriesError,
    InsufficientDataError,
    InvalidParameterError,
    ResourceLimitError,
)
from .noise import generate_coin_phases
from .observables import classify_regime, dispersion, fit_gamma, fit_hurst, probability_profile
from .walk import evolve, initial_state_symmetric

__version__ = "0.1.0"

__all__ = [
    "DegenerateSeriesError",
    "EnsembleConfig",
    "InsufficientDataError",
    "InvalidParameterError",
    "ResourceLimitError",
    "classify_regime",
    "dispersion",
    "evolve",
    "fit_gamma",
    "fit_hurst",
    "generate_coin_phases",
    "initial_state_symmetric",
    "probability_profile",
    "run_ensemble",
    "size_scan",
]
