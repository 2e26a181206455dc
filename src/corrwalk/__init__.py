"""Discrete-time quantum walks with long-range correlated coin-phase disorder.

The package simulates a two-component walker on a 1-D chain whose coin
phases carry power-law correlated random inhomogeneities in time and in
space, and provides the statistics (dispersion, Hurst and size-scaling
exponents, regime classification) needed to map out the resulting
dynamical phases.
"""

from .ensemble import (
    EnsembleConfig,
    EnsembleResult,
    SweepResult,
    phase_diagram_sweep,
    run_ensemble,
    run_realization,
    size_scan,
)
from .errors import (
    DegenerateSeriesError,
    InsufficientDataError,
    InvalidParameterError,
    ResourceLimitError,
)
from .noise import (
    CoinPhases,
    derive_seed,
    generate_coin_phases,
    generate_fbm_trace,
    squash_to_phase,
)
from .observables import (
    RegimeLabel,
    TrajectoryStats,
    classify_regime,
    dispersion,
    fit_gamma,
    fit_hurst,
    longtime_avg_dispersion,
    probability_profile,
)
from .walk import WalkerState, evolve, initial_state_symmetric

__version__ = "0.1.0"

__all__ = [
    "CoinPhases",
    "DegenerateSeriesError",
    "EnsembleConfig",
    "EnsembleResult",
    "InsufficientDataError",
    "InvalidParameterError",
    "RegimeLabel",
    "ResourceLimitError",
    "SweepResult",
    "TrajectoryStats",
    "WalkerState",
    "classify_regime",
    "derive_seed",
    "dispersion",
    "evolve",
    "fit_gamma",
    "fit_hurst",
    "generate_coin_phases",
    "generate_fbm_trace",
    "initial_state_symmetric",
    "longtime_avg_dispersion",
    "phase_diagram_sweep",
    "probability_profile",
    "run_ensemble",
    "run_realization",
    "size_scan",
    "squash_to_phase",
]
