"""Deterministic CSV and JSON writers for run outputs.

All CSV files carry a header row, LF line endings, UTF-8 encoding, and
full round-trip decimal precision for floats, so identical data always
produces identical bytes.  Every file is written whole or not at all.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path

import numpy as np

from .observables import _one_trajectory


def format_value(value) -> str:
    """Render one CSV cell; floats use shortest round-trip representation."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_atomic(path, chunks) -> Path:
    """Stream text ``chunks`` into a temporary file beside ``path``, then
    rename it to ``path``; on any error the temporary file is removed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def write_csv(path, header, rows) -> Path:
    """Write rows to ``path`` as CSV with the given header."""
    lines = (",".join(format_value(v) for v in row) + "\n" for row in rows)
    return _write_atomic(path, itertools.chain([",".join(header) + "\n"], lines))


def write_json(path, payload) -> Path:
    """Write a JSON document with sorted keys and a trailing newline."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    return _write_atomic(path, itertools.chain(chunks, ["\n"]))


def write_trajectory_csv(path, stats) -> Path:
    """Dump one trajectory (a batch raises ``InvalidParameterError``) as ``t,mean,sigma`` rows."""
    rows = zip(itertools.count(), _one_trajectory(stats).mean_position, stats.dispersion)
    return write_csv(path, ("t", "mean", "sigma"), rows)


def write_series_csv(path, values, header) -> Path:
    """Dump a sequence as ``index,value`` rows under ``header``, indices 1-based."""
    values = np.asarray(values)
    return write_csv(path, header, zip(range(1, values.size + 1), values))


def write_sweep_csv(path, cells) -> Path:
    """Dump sweep cell records as ``alpha,beta,gamma,stderr,regime`` rows."""
    header = ("alpha", "beta", "gamma", "stderr", "regime")
    return write_csv(path, header, ([cell[key] for key in header] for cell in cells))
