"""Run the ``corrwalk`` command line as its console script does, observed from outside.

Usage: ``python3 perfbench/launch.py <corrwalk arguments>``

``run.py`` starts every workload command through this file.  Two
environment variables, read when the file is imported, add observation
without changing anything under ``src/``:

``PERFBENCH_PROBE``
    A file.  The first realization that starts in each process appends its
    ``time.monotonic()`` start time to it, so the parent can time set-up
    (interpreter start to first realization) from outside.

``PERFBENCH_TRACE``
    A file.  Spans are wrapped around the calls into each layer's public
    functions, summed per process, and appended as one JSON line whenever
    the process has no span open: after every realization in a pool worker,
    after the command in the main process.  Pool workers end without
    running exit handlers, hence a line per realization.

The patches are installed at import time because a ``spawn`` or
``forkserver`` pool worker imports this file again (as ``__mp_main__``)
and would otherwise run unobserved; a ``fork`` worker inherits them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import corrwalk.cli as cli  # noqa: E402
import corrwalk.ensemble as ensemble  # noqa: E402
import corrwalk.io as cwio  # noqa: E402


def _append_line(path: str, text: str) -> None:
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, (text + "\n").encode())
    finally:
        os.close(fd)


def install_probe(path: str) -> None:
    """Record when the first realization of each process starts.

    A realization starts with its phase synthesis; whichever of the two
    calls comes first marks the start.
    """
    started_in = set()

    def probed(inner):
        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            pid = os.getpid()
            if pid not in started_in:
                started_in.add(pid)
                _append_line(path, repr(time.monotonic()))
            return inner(*args, **kwargs)

        return wrapper

    for name in ("run_realization", "generate_coin_phases"):
        if hasattr(ensemble, name):
            setattr(ensemble, name, probed(getattr(ensemble, name)))


class Tracer:
    """Per-process span totals, keyed ``<layer>.<what>``."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.pid = None
        self.totals: dict[str, float] = defaultdict(float)
        self.depth: dict[str, int] = defaultdict(int)
        self.open_spans = 0

    def _own(self) -> None:
        # A forked worker inherits its parent's unflushed totals: drop them.
        if self.pid != os.getpid():
            self.pid = os.getpid()
            self.totals = defaultdict(float)
            self.depth = defaultdict(int)
            self.open_spans = 0

    def flush(self) -> None:
        if self.totals:
            _append_line(self.path, json.dumps({"pid": os.getpid(), "totals": self.totals}))
            self.totals = defaultdict(float)

    def span(self, name: str, fn, account=None):
        """Wrap ``fn``; only the outermost of nested calls named ``name`` counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._own()
            self.depth[name] += 1
            self.open_spans += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.depth[name] -= 1
                self.open_spans -= 1
            if self.depth[name] == 0:
                self.totals[name + ".s"] += elapsed
                self.totals[name + ".calls"] += 1
                if account is not None:
                    account(self.totals, elapsed, args, kwargs, result)
            if self.open_spans == 0:
                self.flush()
            return result

        return wrapper

    def observer_span(self, fn):
        """Per-step span: no process check and no flush, it runs inside a realization."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.totals["ensemble.observe.s"] += time.perf_counter() - start
                self.totals["ensemble.observe.calls"] += 1

        return wrapper


def _account_evolve(totals, elapsed, args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    steps = args[2] if len(args) > 2 else kwargs["T"]
    totals["walk.site_updates"] += state.lattice_size * int(steps)


def _account_realization(totals, elapsed, args, kwargs, result):
    # What _realization_task hands to the reducer: sigma, mean, snapshots.
    size = result.dispersion.nbytes + result.mean_position.nbytes
    size += sum(p.nbytes for p in (result.snapshots or {}).values())
    totals["ensemble.result_bytes"] += size


def _account_run(totals, elapsed, args, kwargs, result):
    workers = kwargs.get("workers", args[1] if len(args) > 1 else None)
    totals["ensemble.run.worker_s"] += max(1, workers or 1) * elapsed


def _account_io(totals, elapsed, args, kwargs, result):
    totals["io.bytes"] += Path(result).stat().st_size


def install_tracer(path: str) -> Tracer:
    tracer = Tracer(path)
    recorder = ensemble._StatsRecorder
    observe = tracer.observer_span(recorder.record)
    recorder.record = observe
    recorder.__call__ = observe

    evolve = ensemble.evolve

    @functools.wraps(evolve)
    def evolve_self(*args, **kwargs):
        # The observer runs inside evolve; keep the kernel's own time apart.
        before = tracer.totals["ensemble.observe.s"]
        start = time.perf_counter()
        result = evolve(*args, **kwargs)
        tracer.totals["walk.kernel.s"] += time.perf_counter() - start - (
            tracer.totals["ensemble.observe.s"] - before
        )
        return result

    ensemble.evolve = tracer.span("walk.evolve", evolve_self, _account_evolve)
    ensemble.generate_coin_phases = tracer.span("noise.synth", ensemble.generate_coin_phases)
    ensemble.run_realization = tracer.span(
        "ensemble.realization", ensemble.run_realization, _account_realization
    )
    run = tracer.span("ensemble.run", ensemble.run_ensemble, _account_run)
    ensemble.run_ensemble = cli.run_ensemble = run
    ensemble.size_scan = tracer.span("ensemble.size_scan", ensemble.size_scan)
    cli.phase_diagram_sweep = tracer.span("ensemble.sweep", ensemble.phase_diagram_sweep)
    for module in (cli, ensemble):
        for fit in ("fit_hurst", "fit_gamma"):
            if hasattr(module, fit):
                setattr(module, fit, tracer.span("observables.fit", getattr(module, fit)))
    for name in dir(cwio):
        if name.startswith("write_"):
            setattr(cwio, name, tracer.span("io.write", getattr(cwio, name), _account_io))
    return tracer


_PROBE = os.environ.get("PERFBENCH_PROBE")
_TRACE = os.environ.get("PERFBENCH_TRACE")
TRACER = install_tracer(_TRACE) if _TRACE else None
if _PROBE:
    install_probe(_PROBE)


if __name__ == "__main__":
    try:
        status = cli.main(sys.argv[1:])
    finally:
        if TRACER is not None:
            TRACER.flush()
    sys.exit(status)
