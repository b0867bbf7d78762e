"""Layered benchmark for orbita's exact solvers.

    python3 perfbench/run.py --workload rotated-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json
    python3 -m pytest perfbench                # the benchmark's self-tests

Runs from the root of a checkout and imports the package from its ``src``.
One process, one thread, BLAS pinned to one thread.  Inputs come from the
seed (see ``workloads.py``); each is solved once per process, so the
solver's caches are cold for it, as for a user with a new input.  Rounds of
inputs are solved until ``--seconds`` have passed, and at least the first
two rounds always are.  Every output is checked; the last line printed is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics of ``spec.END_TO_END``.  Times
are seconds at a nominal machine speed (``speed.py``); the wall times are
printed to stderr beside them.  Set-up is timed in fresh interpreters.

``--trace 1`` wraps the solver's public functions (``spans.py``), checks
each winner against the brute-force oracle as well, and reports the
per-layer metrics of ``spec.PER_LAYER`` in wall seconds.  Inputs of round 0
are solved once untraced and once traced, with the caches emptied before
each, and ``trace.overhead_frac`` compares the two.
"""

from __future__ import annotations

import os

# One BLAS thread: the pool reads these when NumPy is first imported, which
# the imports below do.
os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spec  # noqa: E402
from spans import Tracer, clear_solver_caches, layer_metrics, tracing  # noqa: E402
from speed import NOMINAL_KERNEL_S, SpeedProbe, wall_clock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_ROUNDS = 2
SETUP_PROBES = 7


class Tally:
    """Inputs attempted and failed; each failure is printed to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED {what}", file=sys.stderr)


def _solve_checked(workload, inp, tally: Tally, label: str, clock=wall_clock):
    """Solve and check one input; returns (Timing, output) or None on failure.

    ``clock()`` times the solve alone, not the check.
    """
    try:
        with clock() as timing:
            out = workload.solve(inp)
        problems = workload.check(inp, out)
    except Exception:  # the loop must go on; the failure is counted and shown
        tally.fail(f"{label}:\n{traceback.format_exc()}")
        return None
    if problems:
        tally.fail(f"{label}: {problems}")
        return None
    return timing, out


def _rounds(workload, seed: int, seconds: float):
    """Rounds of inputs, until ``seconds`` have passed after MIN_ROUNDS."""
    start = time.perf_counter()
    for k, batch in enumerate(workload.rounds(seed)):
        if k >= MIN_ROUNDS and time.perf_counter() - start >= seconds:
            return
        yield k, batch


def measure(workload, seed: int, seconds: float) -> tuple[dict, Tally]:
    tally = Tally()
    times = []
    with SpeedProbe() as probe:
        for k, batch in _rounds(workload, seed, seconds):
            for j, inp in enumerate(batch):
                tally.attempted += 1
                label = f"round {k} input {j}"
                got = _solve_checked(workload, inp, tally, label, probe.clock)
                if got is not None:
                    times.append(got[0].seconds)
                    print(f"{label}: {got[0].seconds:.4f} s nominal, {got[0].wall_s:.4f} s wall",
                          file=sys.stderr)
    if not times:
        raise SystemExit("no input was solved")
    p99 = statistics.quantiles(times, n=100, method="inclusive")[98] if len(times) > 1 else times[0]
    print(f"{len(times)} inputs solved and checked", file=sys.stderr)
    return {
        "solve_s_p50": statistics.median(times),
        "solve_s_p99": p99,
        "solves_per_s": len(times) / sum(times),
        "ok_rate": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, tally


def setup_seconds() -> float:
    """Median set-up time over SETUP_PROBES fresh interpreters, at nominal speed."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        setup_s, kernel_s = map(float, done.stdout.split()[-2:])
        samples.append(setup_s * NOMINAL_KERNEL_S / kernel_s)
    return statistics.median(samples)


def measure_traced(workload, seed: int, seconds: float) -> tuple[dict, Tally]:
    import workloads

    tracer = Tracer()
    tally = Tally()
    counted, timed = set(), set()
    untraced_s = traced_s = 0.0

    @contextlib.contextmanager
    def solve_span(clock=wall_clock):
        with tracer.span("bench.solve"), clock() as timing:
            yield timing

    for k, batch in _rounds(workload, seed, seconds):
        # round 0 is solved both ways, from cold caches and in alternating
        # order, to price the tracing; the speed probe steadies that
        # comparison and adds its samples (about 2% of the time) to the
        # round's spans
        with SpeedProbe() if k == 0 else contextlib.nullcontext() as probe:
            for j, inp in enumerate(batch):
                tally.attempted += 1
                label = f"round {k} input {j}"
                tracer.input_id = tally.attempted
                timed.add(tracer.input_id)
                if k < MIN_ROUNDS:
                    counted.add(tracer.input_id)
                if k == 0:
                    for traced in (False, True) if j % 2 == 0 else (True, False):
                        clear_solver_caches()
                        if traced:
                            with tracing(tracer):
                                got = _solve_checked(workload, inp, tally, label,
                                                     lambda: solve_span(probe.clock))
                        else:
                            plain = _solve_checked(workload, inp, Tally(), label + " untraced",
                                                   probe.clock)
                    if got is not None and plain is not None:
                        traced_s += got[0].seconds
                        untraced_s += plain[0].seconds
                else:
                    with tracing(tracer):
                        got = _solve_checked(workload, inp, tally, label, solve_span)
                if got is None:
                    continue
                with tracing(tracer), tracer.span("bench.oracle") as span:
                    span.attrs["gap"] = workload.oracle_gap(inp, got[1])
                if not span.attrs["gap"] <= workloads.WINNER_TOL:
                    tally.fail(f"{label}: winner loses to the oracle by {span.attrs['gap']!r} (relative)")
    overhead = traced_s / untraced_s - 1.0 if untraced_s > 0 else 0.0
    return layer_metrics(tracer.spans, timed, counted, "bench.solve", overhead), tally


def import_solver():
    """Import the package from this checkout's ``src``; exit 2 when absent."""
    if not (SRC / "orbita" / "__init__.py").is_file():
        print(f"no solver source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import orbita

    if Path(orbita.__file__).resolve().parent != (SRC / "orbita").resolve():
        print(f"orbita imported from {orbita.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.write_spec:
        text = json.dumps(spec.benchmark_json(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    import_solver()
    setup_s = setup_seconds() if args.trace == 0 else None

    import workloads

    workloads.warm_up()
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        values, tally = measure_traced(workload, args.seed, args.seconds)
        units = {name: unit for name, (unit, _) in spec.PER_LAYER.items()}
    else:
        values, tally = measure(workload, args.seed, args.seconds)
        values["setup_s"] = setup_s
        units = {name: unit for name, (unit, _, _) in spec.END_TO_END.items()}

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name:58s} {m['value']!r:>24} {m['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
