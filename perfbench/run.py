"""Benchmark of the corrwalk command line, timed end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload's ``corrwalk`` command again and again, each time into a
fresh output directory, for about ``S`` seconds (whole rounds, at least
one), checks every output (``checks.py``), recomputes one realization per
lattice size with the independent reference (``reference.py``), and
prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
commands of the run.  With ``--trace 1`` each round is one plain and one
traced command (see ``launch.py``) and the metrics are the per-layer ones,
medians over the traced commands, plus the tracing overhead.  The line
before the result holds the environment and every sample.  Work files go
to ``perfbench_runs/`` at the root of the checkout.

The program runs under the environment this process was given: BLAS thread
variables are passed on as they are, neither set nor cleared.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable

import checks
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCH = HERE / "launch.py"
RUNS = ROOT / "perfbench_runs"

# A run must end within 180 s; commands stop being started before this.
RUN_DEADLINE_S = 150.0

END_TO_END = {"wall_s": "s", "mupd_per_s": "Mupd/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "noise.synth_s": "s",
    "noise.calls": "count",
    "walk.evolve_s": "s",
    "walk.site_updates": "count",
    "walk.mupd_per_s": "Mupd/s",
    "ensemble.realization_s": "s",
    "ensemble.observe_s": "s",
    "ensemble.observe_share": "ratio",
    "ensemble.run_s": "s",
    "ensemble.parallel_efficiency": "ratio",
    "ensemble.result_bytes": "bytes",
    "observables.fit_s": "s",
    "io.write_s": "s",
    "io.bytes": "bytes",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Ensemble:
    """One disorder average the command computes (before seed derivation)."""

    N: int
    T: int
    alpha: float
    beta: float
    R: int
    cell: tuple[int, int] | None = None  # sweep cell indices; None for ``run``


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    ensembles: tuple[Ensemble, ...]
    expect: dict  # fields of manifest.json's config the command must have resolved
    config: dict | None = None  # written to config.json and passed with --config
    workers: int | None = None
    check: Callable[[Path, int], None] | None = None  # check(out_dir, seed)

    @property
    def site_updates(self) -> int:
        return sum(e.N * e.T * e.R for e in self.ensembles)

    def master_seed(self, ensemble: Ensemble, seed: int) -> int:
        if ensemble.cell is None:
            return seed
        cell_seed = reference.derive_seed(seed, "cell", *ensemble.cell)
        return reference.derive_seed(cell_seed, "size", ensemble.N)


def _sweep(alphas, betas, sizes, R) -> tuple[Ensemble, ...]:
    return tuple(
        Ensemble(N, N // 2, a, b, R, (i, j))
        for i, a in enumerate(alphas)
        for j, b in enumerate(betas)
        for N in sizes
    )


def _workloads() -> dict[str, Workload]:
    fig2g = dict(N=1000, T=500, alpha_t=4.0, beta_s=4.0, realizations=200, snapshot_times=[50, 200, 500])
    gamma = dict(grid_alpha=[4.0], grid_beta=[4.0], sizes=[500, 1000, 2000, 4000], realizations=16)
    sweep = dict(grid_alpha=[0.0, 2.0, 4.0], grid_beta=[0.0, 2.0, 4.0], sizes=[64, 128, 256],
                 realizations=200, sigma_window=16)
    paper = dict(N=16000, T=2000, alpha_t=4.0, beta_s=4.0, realizations=8)

    def check_fig2g(out, seed):
        checks.check_run_output(out, 1000, 500, (50, 200, 500), two_peak_time=500)

    def check_gamma(out, seed):
        grid = checks.read_grid(out, seed, gamma["grid_alpha"], gamma["grid_beta"], gamma["sizes"])
        checks.check_gamma_cell(grid)

    def check_sweep(out, seed):
        checks.check_sweep(checks.read_grid(out, seed, sweep["grid_alpha"], sweep["grid_beta"], sweep["sizes"]))

    def check_paper(out, seed):
        checks.check_hurst(checks.check_run_output(out, 16000, 2000, ()), (0.93, 1.07))

    return {
        "fig2g-desk": Workload(
            "fig2g-desk", ("run", "--preset", "fig2g-desk"),
            (Ensemble(1000, 500, 4.0, 4.0, 200),), fig2g, check=check_fig2g,
        ),
        "gamma-cell": Workload(
            "gamma-cell", ("phase-diagram",),
            _sweep(gamma["grid_alpha"], gamma["grid_beta"], gamma["sizes"], gamma["realizations"]),
            gamma, config=gamma, check=check_gamma,
        ),
        "sweep-small": Workload(
            "sweep-small", ("phase-diagram",),
            _sweep(sweep["grid_alpha"], sweep["grid_beta"], sweep["sizes"], sweep["realizations"]),
            sweep, config=sweep, workers=2, check=check_sweep,
        ),
        # Not in BENCHMARK.json: its wall time is not steady as shipped (README).
        "paper-n": Workload(
            "paper-n", ("run",), (Ensemble(16000, 2000, 4.0, 4.0, 8),),
            paper, config=paper, workers=2, check=check_paper,
        ),
    }


# --------------------------------------------------------------------------
# one command


@dataclass
class Sample:
    traced: bool
    returncode: int
    wall_s: float
    setup_s: float | None = None
    peak_rss_mb: float = 0.0
    layers: dict = field(default_factory=dict)
    error: str | None = None


def _child_env(probe: Path, trace: Path | None) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PERFBENCH_")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PERFBENCH_PROBE"] = str(probe)
    if trace is not None:
        env["PERFBENCH_TRACE"] = str(trace)
    return env


def _stop_group(pgid: int) -> None:
    """Kill what is left of a command's process group and wait until it is gone."""
    for _ in range(500):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_command(wl: Workload, seed: int, out: Path, traced: bool, timeout: float) -> Sample:
    """Run the workload's command once into ``out`` and time it from outside."""
    probe = out.with_name(out.name + ".probe")
    trace = out.with_name(out.name + ".trace.jsonl") if traced else None
    argv = [sys.executable, str(LAUNCH), *wl.argv]
    if wl.config is not None:
        argv += ["--config", str(out.parent / "config.json")]
    argv += ["--seed", str(seed), "--out", str(out)]
    if wl.workers:
        argv += ["--workers", str(wl.workers)]
    with open(out.with_name(out.name + ".log"), "wb") as log:
        launched = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(probe, trace), stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            # wait4 reports the peak resident set of the command and of the
            # pool workers it reaped: the largest of their peaks.
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _stop_group(proc.pid)
    sample = Sample(traced, proc.returncode, ended - launched, peak_rss_mb=usage.ru_maxrss / 1024.0)
    if proc.returncode != 0:
        sample.error = f"exit code {proc.returncode}; see {out.name}.log"
        return sample
    try:
        starts = [float(line) for line in probe.read_text().split()]
    except FileNotFoundError:
        starts = []
    if not starts:
        sample.error = "no realization started"
        return sample
    sample.setup_s = min(starts) - launched
    if trace is not None:
        sample.layers = layer_metrics(trace)
    return sample


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(trace: Path) -> dict:
    """Sum the span totals of every process of one traced command."""
    tot: dict[str, float] = {}
    for line in trace.read_text().splitlines():
        for key, value in json.loads(line)["totals"].items():
            tot[key] = tot.get(key, 0.0) + value
    get = lambda key: tot.get(key, 0.0)  # noqa: E731
    realization = get("ensemble.realization.s")
    return {
        "noise.synth_s": get("noise.synth.s"),
        "noise.calls": get("noise.synth.calls"),
        "walk.evolve_s": get("walk.kernel.s"),
        "walk.site_updates": get("walk.site_updates"),
        "walk.mupd_per_s": _ratio(get("walk.site_updates"), get("walk.kernel.s")) / 1e6,
        "ensemble.realization_s": realization,
        "ensemble.observe_s": get("ensemble.observe.s"),
        "ensemble.observe_share": _ratio(get("ensemble.observe.s"), realization),
        "ensemble.run_s": get("ensemble.run.s"),
        "ensemble.parallel_efficiency": _ratio(realization, get("ensemble.run.worker_s")),
        "ensemble.result_bytes": get("ensemble.result_bytes"),
        "observables.fit_s": get("observables.fit.s"),
        "io.write_s": get("io.write.s"),
        "io.bytes": get("io.bytes"),
    }


# --------------------------------------------------------------------------
# checks outside the timed commands


def check_output(wl: Workload, out: Path, seed: int) -> None:
    with open(out / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    config = manifest["config"]
    if manifest["master_seed"] != seed:
        raise checks.CheckError(f"manifest.json: master seed {manifest['master_seed']}, expected {seed}")
    for key, value in wl.expect.items():
        if config.get(key) != value:
            raise checks.CheckError(f"manifest.json: {key} = {config.get(key)!r}, expected {value!r}")
    wl.check(out, seed)


def reference_checks(wl: Workload, seed: int) -> None:
    """One realization per lattice size, chosen by the seed, against the reference."""
    from corrwalk.ensemble import run_realization

    by_size: dict[int, list[Ensemble]] = {}
    for e in wl.ensembles:
        by_size.setdefault(e.N, []).append(e)
    for group in by_size.values():
        e = group[seed % len(group)]
        r = 1 + seed % e.R
        s = reference.derive_seed(wl.master_seed(e, seed), r)
        checks.check_reference(run_realization, e.N, e.T, e.alpha, e.beta, s)


# --------------------------------------------------------------------------
# environment


def environment(workers: int | None) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {k: os.environ.get(k) for k in thread_vars},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "workers": workers,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# --------------------------------------------------------------------------


def end_to_end(wl: Workload, samples: list[Sample]) -> dict:
    walls = [s.wall_s for s in samples]
    return {
        "wall_s": median(walls),
        "mupd_per_s": median(wl.site_updates / w / 1e6 for w in walls),
        "setup_s": median(s.setup_s for s in samples),
        "peak_rss_mb": median(s.peak_rss_mb for s in samples),
    }


def per_layer(plain: list[Sample], traced: list[Sample]) -> dict:
    metrics = {name: median(s.layers[name] for s in traced) for name in PER_LAYER if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = median(s.wall_s for s in traced) - median(s.wall_s for s in plain)
    return metrics


def measure(wl: Workload, seed: int, seconds: float, trace: bool, run_dir: Path, started: float):
    """Whole rounds of commands for about ``seconds``; returns the samples and
    the check errors (a failed command carries its own error instead).

    A new round starts only if a round of median length still fits in
    ``seconds``, so every run attempts at least one whole round.
    """
    samples: list[Sample] = []
    errors: list[str] = []
    round_times: list[float] = []
    loop_start = time.monotonic()
    while True:
        round_start = time.monotonic()
        for traced in (False, True) if trace else (False,):
            out = run_dir / f"cmd{len(samples):03d}"
            timeout = max(1.0, RUN_DEADLINE_S - (time.monotonic() - started))
            sample = run_command(wl, seed, out, traced, timeout)
            samples.append(sample)
            if sample.error is None:
                try:
                    check_output(wl, out, seed)
                except (checks.CheckError, OSError, KeyError, ValueError) as exc:
                    errors.append(f"{out.name}: {exc}")
            if out.is_dir():
                shutil.rmtree(out)
        now = time.monotonic()
        round_times.append(now - round_start)
        next_round = median(round_times)
        if now - loop_start + next_round > seconds or now - started + next_round > RUN_DEADLINE_S:
            return samples, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "corrwalk" / "cli.py").is_file():
        print(f"error: no corrwalk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = _workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(workloads)}", file=sys.stderr)
        return 2
    wl = workloads[args.workload]
    seed = args.seed % 2**64

    run_dir = RUNS / f"{wl.name}-seed{seed}-trace{args.trace}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    if wl.config is not None:
        (run_dir / "config.json").write_text(json.dumps(wl.config))

    samples, errors = measure(wl, seed, args.seconds, bool(args.trace), run_dir, started)
    try:
        reference_checks(wl, seed)
    except checks.CheckError as exc:
        errors.append(f"reference: {exc}")

    good = [s for s in samples if s.error is None]
    plain = [s for s in good if not s.traced]
    traced = [s for s in good if s.traced]
    if not plain or (args.trace and not traced):
        failures = "; ".join(f"cmd{i:03d}: {s.error}" for i, s in enumerate(samples) if s.error)
        print(f"error: no command completed: {failures}", file=sys.stderr)
        return 1
    values = per_layer(plain, traced) if args.trace else end_to_end(wl, plain)
    units = PER_LAYER if args.trace else END_TO_END
    details = {
        "workload": wl.name,
        "seed": seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "site_updates": wl.site_updates,
        "environment": environment(wl.workers),
        "samples": [vars(s) for s in samples],
        "errors": errors,
    }
    (run_dir / "result.json").write_text(json.dumps(details, indent=1) + "\n")
    print(json.dumps(details))
    print(json.dumps({
        "correct": not errors,
        "attempted": len(samples),
        "failed": len(samples) - len(good),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
