"""Named run presets at two scales.

``desk`` presets finish on a commodity machine (reduced sizes and
realization counts); ``paper`` presets use the full production scale
(lattices up to N = 32000 and 5000 realizations), up to six core-weeks
each (see the README).  A bare preset name resolves to its desk variant.
"""

from __future__ import annotations

import copy

from .errors import InvalidParameterError

# All that differs between the scales: the realizations of every run, the
# lattice sizes and the exponent grid of a sweep, and the sizes of Fig. 3.
_SCALES = {
    "desk": (200, [500, 1000, 2000, 4000], [0.0, 1.0, 2.0, 3.0, 4.0], [1000, 2000]),
    "paper": (
        5000,
        [2000, 4000, 8000, 16000, 32000],
        [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0],
        [1000, 2000, 4000, 8000],
    ),
}

# (alpha_t, beta_s) of Figs. 2 and 3; Fig. 2 shows each case in two panels.
_CASES = [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0), (4.0, 4.0)]


def _presets(scale: str) -> dict[str, tuple[str, str, dict]]:
    """Every preset of one scale as ``name: (command, description, config)``."""
    realizations, sweep_sizes, grid, fig3_sizes = _SCALES[scale]

    def sweep(grid_alpha, grid_beta, seed):
        return {"grid_alpha": grid_alpha, "grid_beta": grid_beta, "sizes": sweep_sizes,
                "realizations": realizations, "seed": seed}

    presets = {}
    for label, nu in zip("abc", (0.0, 1.0, 2.0)):
        presets[f"fig1{label}"] = ("trace", f"single phase-sequence trace, nu={nu}, M=200",
                                   {"nu": nu, "length": 200, "seed": 101})
    for label, (alpha, beta) in zip("abcdefgh", [case for case in _CASES for _ in range(2)]):
        presets[f"fig2{label}"] = (
            "run",
            f"probability snapshots at t=50,200,500: N=1000, T=500, alpha_t={alpha}, beta_s={beta}",
            {"alpha_t": alpha, "beta_s": beta, "realizations": realizations, "seed": 201,
             "N": 1000, "T": 500, "snapshot_times": [50, 200, 500]},
        )
    for label, (alpha, beta) in zip("abcd", _CASES):
        presets[f"fig3{label}"] = (
            "run",
            f"long-horizon dispersion curves (T=5N) for Hurst fits: alpha_t={alpha}, beta_s={beta}",
            {"alpha_t": alpha, "beta_s": beta, "realizations": realizations, "seed": 301,
             "sizes": fig3_sizes, "t_rule": "5N"},
        )
    for label, value in zip("abc", (0.0, 2.0, 4.0)):
        presets[f"fig4{label}"] = ("phase-diagram", f"size-scaling exponents vs beta_s at fixed alpha_t={value}",
                                   sweep([value], grid, 401))
        presets[f"fig5{label}"] = ("phase-diagram", f"size-scaling exponents vs alpha_t at fixed beta_s={value}",
                                   sweep(grid, [value], 501))
    for name, seed in (("fig6", 601), ("fig7", 701)):
        presets[name] = ("phase-diagram", "full (alpha_t, beta_s) exponent map with regime labels",
                         sweep(grid, grid, seed))
    return presets


PRESETS = {
    f"{name}-{scale}": {"command": command, "description": description, "config": config}
    for scale in _SCALES
    for name, (command, description, config) in _presets(scale).items()
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def resolve_preset(name: str) -> dict:
    """Return a deep copy of the named preset; bare names mean desk scale."""
    if name in PRESETS:
        return copy.deepcopy(PRESETS[name])
    desk = f"{name}-desk"
    if desk in PRESETS:
        return copy.deepcopy(PRESETS[desk])
    raise InvalidParameterError(
        f"unknown preset {name!r}; run 'corrwalk presets' for the available names"
    )
