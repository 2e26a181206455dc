"""Command-line driver: single runs, sweeps, and noise-trace dumps.

Configuration comes from a JSON file and/or a named preset; command-line
flags override file fields.  Every command validates its whole
configuration, then writes a manifest and deterministic CSV data files
(``phase-diagram`` writes its manifest last), so re-running from the
manifest reproduces the data byte for byte.  Exit codes: 0 success,
2 configuration error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

from . import __version__, io
from .ensemble import (
    DEFAULT_UPDATE_CAP,
    EnsembleConfig,
    _grid,
    _scan_sizes,
    phase_diagram_sweep,
    run_ensemble,
    size_configs,
)
from .errors import (
    DegenerateSeriesError,
    InsufficientDataError,
    InvalidParameterError,
    ResourceLimitError,
    _integer,
)
from .noise import generate_fbm_trace, squash_to_phase
from .observables import classify_regime, fit_gamma, fit_hurst, longtime_avg_dispersion, scaled_windows
from .presets import preset_names, resolve_preset

log = logging.getLogger("corrwalk")

DEFAULT_OUT_ROOT = "qwalk_out"


def _load_config_file(path: str, command: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameterError(f"config file {path} cannot be read: {exc}")
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise InvalidParameterError(f"config file {path} must hold a JSON object")
    # Manifests are accepted in place of bare configs.
    if "config" in payload and "command" in payload:
        if payload["command"] != command:
            raise InvalidParameterError(
                f"manifest {path} was written by command {payload['command']!r}, "
                f"not {command!r}"
            )
        payload = payload["config"]
        if not isinstance(payload, dict):
            raise InvalidParameterError(f"manifest {path} holds a malformed config")
    return payload


def _resolved_config(args, command: str, flag_fields: dict) -> dict:
    config: dict = {}
    if args.preset:
        preset = resolve_preset(args.preset)
        if preset["command"] != command:
            raise InvalidParameterError(
                f"preset {args.preset!r} belongs to command {preset['command']!r}, not {command!r}"
            )
        config.update(preset["config"])
    if args.config:
        config.update(_load_config_file(args.config, command))
    for key, value in flag_fields.items():
        if value is not None:
            config[key] = value
    if args.seed is not None:
        config["seed"] = args.seed
    return _parse(config, command)


# Marks a field that has no default.
_REQUIRED = object()


def _field(config: dict, name: str, kind, default=_REQUIRED):
    """Field ``name`` as ``kind`` (``int``, ``float``, ``bool``, ``str``, or
    ``[kind]`` for a list of that kind); ``default`` when unset or null."""
    if name not in config or config[name] is None:
        if default is _REQUIRED:
            raise InvalidParameterError(f"field {name!r}: required but missing")
        return default
    value = config[name]
    if isinstance(kind, list) and isinstance(value, (list, tuple)):
        return [_field({name: v}, name, kind[0]) for v in value]
    # JSON true and false are Python ints, but not numbers in a config.
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    # Finite, also for an integer too large for a float.
    if kind is float and number and abs(value) <= sys.float_info.max:
        return float(value)
    if kind in (bool, str) and isinstance(value, kind):
        return value
    expected = f"list of {kind[0].__name__}" if isinstance(kind, list) else kind.__name__
    raise InvalidParameterError(f"field {name!r}: expected {expected}, got {value!r}")


# Fields that `run` and `phase-diagram` both read.
_ENSEMBLE_FIELDS = {
    "realizations": (int, 200),
    "seed": (int, 0),
    "sigma_window": (int, 100),
    "normalize_variance": (bool, False),
    "update_cap": (int, DEFAULT_UPDATE_CAP),
}
# Each command's fields, as ``name: (kind, default or _REQUIRED)``.
_FIELDS = {
    "trace": {
        "nu": (float, _REQUIRED),
        "length": (int, _REQUIRED),
        "seed": (int, 0),
        "raw": (bool, False),
    },
    "run": {
        "N": (int, None),
        "sizes": ([int], None),
        "T": (int, None),
        "t_rule": (str, None),
        "alpha_t": (float, _REQUIRED),
        "beta_s": (float, _REQUIRED),
        "snapshot_times": ([int], ()),
        "fit_window": ([int], None),
        "snapshot_single": (bool, False),
        **_ENSEMBLE_FIELDS,
    },
    "phase-diagram": {
        "grid_alpha": ([float], _REQUIRED),
        "grid_beta": ([float], _REQUIRED),
        "sizes": ([int], _REQUIRED),
        **_ENSEMBLE_FIELDS,
    },
}


def _parse(config: dict, command: str) -> dict:
    """Every field of ``command`` read from ``config`` as its kind, or its
    default; a field the command does not read, such as a misspelt one, is refused."""
    fields = _FIELDS[command]
    unknown = sorted(set(config) - set(fields))
    if unknown:
        raise InvalidParameterError(f"unknown field(s) {unknown}; known fields are {sorted(fields)}")
    return {name: _field(config, name, kind, default) for name, (kind, default) in fields.items()}


def _checked(name: str, rule, *args):
    """``rule(*args)``, reporting a refusal as one of field ``name``."""
    try:
        return rule(*args)
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"field {name!r}: {exc}") from None


def _ensemble_config(config: dict, N: int, T: int, alpha_t: float, beta_s: float, **extra) -> EnsembleConfig:
    """One run's ``EnsembleConfig``; the rows of ``_ENSEMBLE_FIELDS`` come from ``config``."""
    return EnsembleConfig(
        N=N, T=T, alpha_t=alpha_t, beta_s=beta_s, realizations=config["realizations"],
        master_seed=config["seed"], normalize_variance=config["normalize_variance"],
        update_cap=config["update_cap"], **extra,
    )


def _out_dir(args, command: str) -> Path:
    if args.out:
        return Path(args.out)
    root = Path(os.environ.get("QWALK_OUT", DEFAULT_OUT_ROOT))
    if args.preset:
        name = args.preset
    elif args.config:
        name = Path(args.config).stem
    else:
        name = command
    return root / name


def _write_manifest(out_dir: Path, command: str, config: dict, seed: int) -> None:
    io.write_json(
        out_dir / "manifest.json",
        {
            "tool": "corrwalk",
            "version": __version__,
            "command": command,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "out_dir": str(out_dir),
            "master_seed": seed,
            "config": config,
        },
    )


def _hurst_entry(stats, fit_window) -> dict:
    try:
        fit = fit_hurst(stats, fit_window)
    except (InsufficientDataError, DegenerateSeriesError, InvalidParameterError) as exc:
        return {"error": str(exc), "window": list(exc.window)}
    entry = {"H": fit.H, "stderr": fit.stderr, "window": list(fit.window)}
    if fit.fallback:
        entry["window_fallback"] = True
    return entry


# --------------------------------------------------------------------------
# trace


def _cmd_trace(args) -> int:
    config = _resolved_config(args, "trace", {"nu": args.nu, "length": args.length, "raw": args.raw or None})
    trace = generate_fbm_trace(config["length"], config["nu"], config["seed"])

    out_dir = _out_dir(args, "trace")
    _write_manifest(out_dir, "trace", config, config["seed"])

    if config["raw"]:
        path = io.write_series_csv(out_dir / "trace.csv", trace, ("j", "value"))
    else:
        path = io.write_series_csv(out_dir / "trace.csv", squash_to_phase(trace), ("j", "V"))
    print(f"wrote {path}")
    return 0


# --------------------------------------------------------------------------
# run


def _check_run_config(config: dict) -> dict:
    """A parsed run config through its cross-field rules, with ``t_rule``
    resolved and ``snapshot_single`` dropped."""
    # Manifests of earlier versions hold "snapshot_single": false; snapshots are always averaged.
    if config.pop("snapshot_single"):
        raise InvalidParameterError("field 'snapshot_single': no longer supported; snapshots are averaged")
    if (config["N"] is None) == (config["sizes"] is None):
        raise InvalidParameterError("fields 'N'/'sizes': exactly one must be set")

    if config["t_rule"] not in (None, "N/2", "5N"):
        raise InvalidParameterError(f"field 't_rule': expected 'N/2' or '5N', got {config['t_rule']!r}")
    if config["T"] is not None and config["t_rule"] is not None:
        raise InvalidParameterError("fields 'T'/'t_rule': at most one may be set")
    if config["T"] is None and config["t_rule"] is None:
        config["t_rule"] = "N/2"

    if config["snapshot_times"] and config["sizes"] is not None:
        raise InvalidParameterError("field 'snapshot_times': only supported for single-size runs")

    fit_window = config["fit_window"]
    if fit_window is not None and not (len(fit_window) == 2 and 0 <= fit_window[0] < fit_window[1]):
        raise InvalidParameterError(
            f"field 'fit_window': expected [t_min, t_max] with 0 <= t_min < t_max, got {fit_window}"
        )
    return config


def _time_horizon(N: int, T: int | None, t_rule: str) -> int:
    if T is not None:
        return T
    return 5 * N if t_rule == "5N" else N // 2


def _cmd_run(args) -> int:
    config = _check_run_config(_resolved_config(args, "run", {}))
    out_dir = _out_dir(args, "run")

    sizes = config["sizes"]
    if sizes is not None:
        _checked("sizes", _scan_sizes, sizes, 1)
    # With sizes, the largest run, whose traces are the longest.
    N = config["N"] if sizes is None else max(sizes)
    horizon = partial(_time_horizon, T=config["T"], t_rule=config["t_rule"])
    first = _ensemble_config(
        config, N, horizon(N), config["alpha_t"], config["beta_s"],
        snapshot_times=tuple(config["snapshot_times"]),
    )
    # A single size is the one run and keeps sigma_window; nothing is fitted
    # from its sigma_bar, which is null when the run is shorter than the
    # window.  Multi-size runs average over windows proportional to each
    # horizon so that the gamma fit is unbiased, and every run must record
    # its whole window.
    if sizes is None:
        runs = [(first, _integer("sigma_window", config["sigma_window"], 1))]
    else:
        runs = _checked("sigma_window", size_configs, first, sizes, config["sigma_window"], horizon)
    fit_window, last = config["fit_window"], min(cfg.T for cfg, _ in runs)
    if fit_window is not None and fit_window[1] > last:
        raise InvalidParameterError(f"field 'fit_window': ends at t = {fit_window[1]}, past a run of T = {last}")
    _write_manifest(out_dir, "run", config, config["seed"])

    entries = []
    points = []
    for cfg, window in runs:
        N, T = cfg.N, cfg.T
        log.info("run N=%d T=%d alpha_t=%g beta_s=%g R=%d", N, T, cfg.alpha_t, cfg.beta_s, cfg.realizations)
        result = run_ensemble(cfg, workers=args.workers)
        stats = result.stats

        io.write_trajectory_csv(out_dir / f"trajectory_N{N}.csv", stats)
        for t in sorted(stats.snapshots):
            io.write_series_csv(out_dir / f"snapshot_N{N}_t{t}.csv", stats.snapshots[t], ("n", "P"))

        entry = {
            "N": N,
            "T": T,
            "master_seed": cfg.master_seed,
            "hurst": _hurst_entry(stats, config["fit_window"]),
            "boundary_contact_time": stats.boundary_contact_time,
            "contacted_realizations": result.contacted_realizations,
            "elapsed_seconds": result.elapsed_seconds,
        }
        try:
            sigma_bar = longtime_avg_dispersion(stats, window)
            entry["sigma_bar"] = sigma_bar
            points.append((N, sigma_bar))
        except InsufficientDataError:
            entry["sigma_bar"] = None
        entry["sigma_window"] = window
        entries.append(entry)

    summary = {"config": config, "results": entries}
    if len(points) >= 3:
        gamma, err = fit_gamma(points)
        summary["gamma"] = {
            "value": gamma,
            "stderr": err,
            "regime": classify_regime(gamma).value,
            "points": [[n, s] for n, s in points],
        }
    io.write_json(out_dir / "summary.json", summary)
    print(f"wrote {out_dir / 'summary.json'}")
    return 0


# --------------------------------------------------------------------------
# phase-diagram


def _cmd_phase_diagram(args) -> int:
    config = _resolved_config(args, "phase-diagram", {})
    out_dir = _out_dir(args, "phase-diagram")

    sizes = _checked("sizes", _scan_sizes, config["sizes"])
    alphas = _checked("grid_alpha", _grid, "alpha_t", config["grid_alpha"])
    betas = _checked("grid_beta", _grid, "beta_s", config["grid_beta"])
    _checked("sigma_window", scaled_windows, config["sigma_window"], [sizes[0] // 2])
    base = _ensemble_config(config, sizes[0], sizes[0] // 2, alphas[0], betas[0])

    cells = phase_diagram_sweep(
        config["grid_alpha"],
        config["grid_beta"],
        base,
        config["sizes"],
        window_len=config["sigma_window"],
        workers=args.workers,
        out_dir=out_dir,
        force=args.force,
    )
    path = io.write_sweep_csv(out_dir / "grid.csv", cells)
    # Last, so that a sweep refused on resume leaves the manifest of its data.
    _write_manifest(out_dir, "phase-diagram", config, config["seed"])
    print(f"wrote {path}")
    return 0


# --------------------------------------------------------------------------
# presets


def _cmd_presets(args) -> int:
    for name in preset_names():
        preset = resolve_preset(name)
        print(f"{name:16s} [{preset['command']}] {preset['description']}")
    return 0


# --------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config file (or a previous manifest)")
    parser.add_argument("--preset", metavar="NAME", help="named preset; see 'corrwalk presets'")
    parser.add_argument("--seed", type=int, metavar="U64", help="override the master seed")
    parser.add_argument("--out", metavar="DIR", help="output directory (default: $QWALK_OUT/<name>)")


def _worker_count(text: str) -> int:
    try:
        return _integer("--workers", int(text), 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"need an integer >= 1, got {text!r}") from None


def _add_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=_worker_count, metavar="INT", help="worker processes (default: serial)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrwalk",
        description="Quantum walks on a chain with correlated coin-phase disorder.",
    )
    parser.add_argument("--version", action="version", version=f"corrwalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    trace = sub.add_parser("trace", help="dump one correlated phase sequence as CSV")
    trace.add_argument("--nu", type=float, help="power-law exponent of the sequence")
    trace.add_argument("--length", type=int, help="sequence length M")
    trace.add_argument("--raw", action="store_true", help="dump the pre-squash trace instead")
    _add_common(trace)
    trace.set_defaults(func=_cmd_trace)

    run = sub.add_parser("run", help="disorder-averaged run(s): trajectories, snapshots, fits")
    _add_common(run)
    _add_workers(run)
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("phase-diagram", help="exponent map over an (alpha_t, beta_s) grid")
    _add_common(sweep)
    _add_workers(sweep)
    sweep.add_argument("--force", action="store_true", help="recompute completed sweep cells")
    sweep.set_defaults(func=_cmd_phase_diagram)

    presets = sub.add_parser("presets", help="list the bundled presets")
    presets.set_defaults(func=_cmd_presets)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    try:
        return args.func(args)
    except (InvalidParameterError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
