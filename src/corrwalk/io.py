"""Deterministic CSV and JSON writers for run outputs.

All CSV files carry a header row, LF line endings, UTF-8 encoding, and
full round-trip decimal precision for floats, so identical data always
produces identical bytes.
"""

from __future__ import annotations

import json
from enum import Enum
from pathlib import Path

import numpy as np


def format_value(value) -> str:
    """Render one CSV cell; floats use shortest round-trip representation."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, Enum):
        return str(value.value)
    return str(value)


def write_csv(path, header, rows) -> Path:
    """Write rows to ``path`` as CSV with the given header."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\n")
    return path


def _json_default(obj):
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serialisable")


def write_json(path, payload) -> Path:
    """Write a JSON document with sorted keys and a trailing newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    return path


def write_trajectory_csv(path, stats) -> Path:
    """Dump a trajectory as ``t,mean,sigma`` rows."""
    rows = zip(stats.times, stats.mean_position, stats.dispersion)
    return write_csv(path, ("t", "mean", "sigma"), rows)


def write_profile_csv(path, profile) -> Path:
    """Dump a probability profile as ``n,P`` rows (sites 1-based)."""
    profile = np.asarray(profile)
    rows = zip(range(1, profile.size + 1), profile)
    return write_csv(path, ("n", "P"), rows)


def write_phase_csv(path, values, value_label: str = "V") -> Path:
    """Dump a phase or trace sequence as ``j,<label>`` rows (1-based j)."""
    values = np.asarray(values)
    rows = zip(range(1, values.size + 1), values)
    return write_csv(path, ("j", value_label), rows)


def write_sweep_csv(path, sweep) -> Path:
    """Dump a sweep grid as ``alpha,beta,gamma,stderr,regime`` rows."""
    return write_csv(path, ("alpha", "beta", "gamma", "stderr", "regime"), sweep.rows())
