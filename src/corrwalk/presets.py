"""Named run presets at two scales.

``desk`` presets finish on a commodity machine (reduced sizes and
realization counts); ``paper`` presets use the full production scale
(lattices up to N = 32000 and 5000 realizations), up to six core-weeks
each (see the README).  A bare preset name resolves to its desk variant.
"""

from __future__ import annotations

import copy

from .errors import InvalidParameterError

_FIG2_CASES = {
    "a": (0.0, 0.0),
    "b": (0.0, 0.0),
    "c": (4.0, 0.0),
    "d": (4.0, 0.0),
    "e": (0.0, 4.0),
    "f": (0.0, 4.0),
    "g": (4.0, 4.0),
    "h": (4.0, 4.0),
}

_FIG3_CASES = {"a": (0.0, 0.0), "b": (4.0, 0.0), "c": (0.0, 4.0), "d": (4.0, 4.0)}

_DESK_SIZES = [500, 1000, 2000, 4000]
_PAPER_SIZES = [2000, 4000, 8000, 16000, 32000]
_DESK_GRID = [0.0, 1.0, 2.0, 3.0, 4.0]
_PAPER_GRID = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]


def _trace_preset(nu: float, seed: int, description: str) -> dict:
    return {
        "command": "trace",
        "description": description,
        "config": {"nu": nu, "length": 200, "seed": seed},
    }


def _run_preset(alpha, beta, *, scale, seed, description, **fields) -> dict:
    """A ``run`` preset; ``fields`` are further config fields, such as ``N``."""
    config = {
        "alpha_t": alpha,
        "beta_s": beta,
        "realizations": 200 if scale == "desk" else 5000,
        "seed": seed,
        **fields,
    }
    return {"command": "run", "description": description, "config": config}


def _sweep_preset(grid_alpha, grid_beta, *, scale, seed, description) -> dict:
    return {
        "command": "phase-diagram",
        "description": description,
        "config": {
            "grid_alpha": list(grid_alpha),
            "grid_beta": list(grid_beta),
            "sizes": list(_DESK_SIZES if scale == "desk" else _PAPER_SIZES),
            "realizations": 200 if scale == "desk" else 5000,
            "seed": seed,
        },
    }


def _build() -> dict[str, dict]:
    presets: dict[str, dict] = {}

    for label, nu in (("a", 0.0), ("b", 1.0), ("c", 2.0)):
        preset = _trace_preset(nu, seed=101, description=f"single phase-sequence trace, nu={nu}, M=200")
        presets[f"fig1{label}-desk"] = preset
        presets[f"fig1{label}-paper"] = copy.deepcopy(preset)

    for label, (alpha, beta) in _FIG2_CASES.items():
        for scale in ("desk", "paper"):
            presets[f"fig2{label}-{scale}"] = _run_preset(
                alpha,
                beta,
                scale=scale,
                seed=201,
                N=1000,
                T=500,
                snapshot_times=[50, 200, 500],
                description=(
                    f"probability snapshots at t=50,200,500: N=1000, T=500, "
                    f"alpha_t={alpha}, beta_s={beta}"
                ),
            )

    for label, (alpha, beta) in _FIG3_CASES.items():
        for scale, sizes in (("desk", [1000, 2000]), ("paper", [1000, 2000, 4000, 8000])):
            presets[f"fig3{label}-{scale}"] = _run_preset(
                alpha,
                beta,
                scale=scale,
                seed=301,
                sizes=sizes,
                t_rule="5N",
                description=(
                    f"long-horizon dispersion curves (T=5N) for Hurst fits: "
                    f"alpha_t={alpha}, beta_s={beta}"
                ),
            )

    for label, alpha in (("a", 0.0), ("b", 2.0), ("c", 4.0)):
        for scale in ("desk", "paper"):
            grid_beta = _DESK_GRID if scale == "desk" else _PAPER_GRID
            presets[f"fig4{label}-{scale}"] = _sweep_preset(
                [alpha],
                grid_beta,
                scale=scale,
                seed=401,
                description=f"size-scaling exponents vs beta_s at fixed alpha_t={alpha}",
            )

    for label, beta in (("a", 0.0), ("b", 2.0), ("c", 4.0)):
        for scale in ("desk", "paper"):
            grid_alpha = _DESK_GRID if scale == "desk" else _PAPER_GRID
            presets[f"fig5{label}-{scale}"] = _sweep_preset(
                grid_alpha,
                [beta],
                scale=scale,
                seed=501,
                description=f"size-scaling exponents vs alpha_t at fixed beta_s={beta}",
            )

    for name, seed in (("fig6", 601), ("fig7", 701)):
        for scale in ("desk", "paper"):
            grid = _DESK_GRID if scale == "desk" else _PAPER_GRID
            presets[f"{name}-{scale}"] = _sweep_preset(
                grid,
                grid,
                scale=scale,
                seed=seed,
                description="full (alpha_t, beta_s) exponent map with regime labels",
            )

    return presets


PRESETS = _build()


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
