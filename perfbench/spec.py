"""What the benchmark measures: workloads, metrics and the layer map.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``); the self-tests check that the
two agree and that a run prints exactly these metric names.

``LAYER_MAP`` says, for each per-layer metric, which end-to-end metric on
which workload it should move.  ``BENCHMARK.json`` has a fixed key set, so
the map lives here.
"""

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

WORKLOADS = {
    "rotated-sweep": (
        "generic rotated-ellipse cells, one per input-bit-size band, plus REF; "
        "the degree-166 antipodal elimination (case2b) dominates"
    ),
    "rotated-flat": (
        "alpha = 180 cells: the generic antipodal eliminant is skipped and the "
        "case-1 Newton solver dominates; should not move when only case2b changes"
    ),
    "fixed-endpoint": (
        "thousands of millisecond lambert_pp solves: small resultants and isolations "
        "on large coefficients, so per-call cost in poly_kernel shows here"
    ),
}

# name -> (unit, better, bound).  Ten runs per workload on a shared 2-vCPU
# VM put the quartile spread of every solve-time metric at or below 0.10
# (rotated-sweep's solve_s_p99, the slowest of its five cells); the time
# bounds are 0.25 because that machine's speed swings by up to 2x.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "solve_s_p50": ("s", "lower", 0.25),
    "solve_s_p99": ("s", "lower", 0.25),
    "solves_per_s": ("1/s", "higher", 0.25),
    "ok_rate": ("ratio", "higher", 0.01),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

_ISO = "poly_kernel.roots.isolate_real_roots"
_REF = "poly_kernel.roots.refine_root"
_RES = "poly_kernel.resultant.sylvester_resultant"
_C2B = "rotated_ellipses.case2b_solutions"
_C2A = "rotated_ellipses.case2a_general"
_C1 = "rotated_ellipses.case1_numeric"
_PIV = "transfer_model.plan_is_valid"

# name -> (unit, better).  Times are wall seconds per traced input; counts
# cover rounds 0 and 1 of the seed's inputs, so they repeat exactly.
PER_LAYER = {
    f"{_ISO}.calls": ("count", "lower"),
    f"{_ISO}.busy_s": ("s", "lower"),
    f"{_ISO}.roots_out": ("count", "lower"),
    f"{_ISO}.in_degree_max": ("count", "lower"),
    f"{_ISO}.in_coeff_bits_max": ("bits", "lower"),
    f"{_REF}.calls": ("count", "lower"),
    f"{_REF}.busy_s": ("s", "lower"),
    "poly_kernel.roots.strip_known_factors.busy_s": ("s", "lower"),
    f"{_RES}.calls": ("count", "lower"),
    f"{_RES}.busy_s": ("s", "lower"),
    "poly_kernel.euclid.euclidean_last_linear.busy_s": ("s", "lower"),
    f"{_C2B}.busy_s": ("s", "lower"),
    f"{_C2B}.self_s": ("s", "lower"),
    f"{_C2B}.candidates": ("count", "higher"),
    f"{_C2B}.share": ("ratio", "lower"),
    f"{_C2A}.busy_s": ("s", "lower"),
    f"{_C2A}.self_s": ("s", "lower"),
    f"{_C2A}.candidates": ("count", "higher"),
    f"{_C2A}.share": ("ratio", "lower"),
    f"{_C1}.busy_s": ("s", "lower"),
    f"{_C1}.candidates": ("count", "higher"),
    f"{_C1}.share": ("ratio", "lower"),
    "rotated_ellipses.apogee_to_apogee_cost.busy_s": ("s", "lower"),
    f"{_PIV}.calls": ("count", "lower"),
    f"{_PIV}.accept_ratio": ("ratio", "higher"),
    "lambert_pp.critical_eliminant.busy_s": ("s", "lower"),
    "lambert_pp.solve.busy_s": ("s", "lower"),
    "lambert_pp.solve.candidates": ("count", "higher"),
    "oracle.planar_two_impulse_min.busy_s": ("s", "lower"),
    "oracle.fixed_endpoint_min.busy_s": ("s", "lower"),
    "oracle.winner_gap_max": ("ratio", "lower"),
    "trace.solve_s_mean": ("s", "lower"),
    "trace.inputs": ("count", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}

# per-layer metric prefix -> end-to-end metrics (on workloads) it should move
LAYER_MAP = {
    _ISO: "solve_s_p50 on rotated-sweep, predicted flat on rotated-flat; "
    "in_degree_max (104 now) checks the antipodal core reduction",
    _REF: "solve_s_p50/p99 on fixed-endpoint most, rotated-sweep second",
    "poly_kernel.roots.strip_known_factors": "solve_s_p50 on rotated-sweep",
    _RES: "solve_s_p50 on rotated-sweep; must not slow fixed-endpoint",
    "poly_kernel.euclid.euclidean_last_linear": "solve_s_p50 on rotated-sweep and rotated-flat",
    _C2B: "solve_s_p50 on rotated-sweep; self_s covers the equation build, "
    "l-unit stripping and back-substitution",
    _C2A: "solve_s_p50 on rotated-flat and rotated-sweep",
    _C1: "solve_s_p50 on rotated-flat, rotated-sweep second",
    "rotated_ellipses.apogee_to_apogee_cost": "solve_s_p50 on both rotated workloads",
    _PIV: "counts wasted back-substitution (accept_ratio = valid / checked)",
    "lambert_pp": "solve_s_p50/p99 on fixed-endpoint",
    "oracle": "none: the independent check, run in the traced run only",
    "trace": "none: traced solve time per input and the cost of tracing",
}


def benchmark_json() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, (u, b) in PER_LAYER.items()
        ],
    }
