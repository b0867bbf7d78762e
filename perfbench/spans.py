"""Spans around the solver's public functions, recorded from outside.

``tracing(tracer)`` replaces the names that ``orbita.rotated_ellipses``,
``orbita.lambert_pp`` and ``orbita.oracle`` expose (for the kernel
functions: the names the two solver modules bound at import) with wrappers
that record one span per call, and puts every original back on exit.  No
file of the package changes.  Spans stay in memory until the run ends;
``layer_metrics`` turns them into the per-layer metrics of ``spec.PER_LAYER``.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index of the enclosing span in Tracer.spans
    input_id: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; the caller sets ``input_id`` before each solve."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.input_id = -1
        self._open: list[int] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, input_id=self.input_id))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._open.pop()
        return span

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)


def _coeff_bits(p) -> int:
    return max(
        (max(int(c.numerator).bit_length(), int(c.denominator).bit_length()) for c in p.coeffs),
        default=0,
    )


def _observe_isolate(args, kwargs, result) -> dict:
    p = args[0]
    return {"degree": p.degree(), "bits": _coeff_bits(p), "out": len(result)}


def _observe_len(args, kwargs, result) -> dict:
    return {"out": len(result)}


def _observe_bool(args, kwargs, result) -> dict:
    return {"ok": bool(result)}


# (module, attribute, span name, observer of (args, kwargs, result))
_KERNEL = [
    ("isolate_real_roots", "poly_kernel.roots.isolate_real_roots", _observe_isolate),
    ("refine_root", "poly_kernel.roots.refine_root", None),
    ("strip_known_factors", "poly_kernel.roots.strip_known_factors", None),
    ("sylvester_resultant", "poly_kernel.resultant.sylvester_resultant", None),
]
TARGETS = (
    [("orbita.rotated_ellipses", a, n, o) for a, n, o in _KERNEL]
    + [("orbita.lambert_pp", a, n, o) for a, n, o in _KERNEL]
    + [
        ("orbita.rotated_ellipses", "euclidean_last_linear", "poly_kernel.euclid.euclidean_last_linear", None),
        ("orbita.rotated_ellipses", "plan_is_valid", "transfer_model.plan_is_valid", _observe_bool),
        ("orbita.rotated_ellipses", "best_rotated_transfer", "rotated_ellipses.best_rotated_transfer", None),
        ("orbita.rotated_ellipses", "case2a_general", "rotated_ellipses.case2a_general", _observe_len),
        ("orbita.rotated_ellipses", "case2b_solutions", "rotated_ellipses.case2b_solutions", _observe_len),
        ("orbita.rotated_ellipses", "case1_numeric", "rotated_ellipses.case1_numeric", _observe_len),
        ("orbita.rotated_ellipses", "apogee_to_apogee_cost", "rotated_ellipses.apogee_to_apogee_cost", None),
        ("orbita.lambert_pp", "critical_eliminant", "lambert_pp.critical_eliminant", None),
        ("orbita.lambert_pp", "solve", "lambert_pp.solve", _observe_len),
        ("orbita.oracle", "planar_two_impulse_min", "oracle.planar_two_impulse_min", None),
        ("orbita.oracle", "fixed_endpoint_min", "oracle.fixed_endpoint_min", None),
    ]
)


def _wrap(tracer: Tracer, name: str, fn, observe):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = tracer.close(index)
        if observe is not None:
            span.attrs = observe(args, kwargs, result)
        return result

    return traced


@contextlib.contextmanager
def tracing(tracer: Tracer):
    """Route every name in ``TARGETS`` through ``tracer`` inside the block."""
    saved = []
    try:
        for module_name, attr, name, observe in TARGETS:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, name, original, observe))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def clear_solver_caches() -> None:
    """Empty every ``lru_cache`` in the package, so a repeated input is cold."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "orbita" or module_name.startswith("orbita."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


# ------------------------------------------------------------- metrics ---


def layer_metrics(spans: list[Span], timed_ids: set[int], counted_ids: set[int],
                  solve_span: str, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced run.

    Times (``busy_s``, ``self_s``) are seconds per input, averaged over the
    inputs in ``timed_ids``; ``share`` divides a layer's busy time by the
    solve time of the same inputs.  Counts cover only ``counted_ids``, a
    prefix of the input stream fixed by the seed, so they repeat exactly.
    """
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.seconds

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    n_timed = max(len(timed_ids), 1)

    def timed(name):
        return [i for i in by_name.get(name, []) if spans[i].input_id in timed_ids]

    def counted(name):
        return [spans[i] for i in by_name.get(name, []) if spans[i].input_id in counted_ids]

    def busy(name):
        return sum(spans[i].seconds for i in timed(name)) / n_timed

    def self_s(name):
        return sum(spans[i].seconds - child_s[i] for i in timed(name)) / n_timed

    solve_mean = busy(solve_span)

    def share(name):
        return busy(name) / solve_mean if solve_mean > 0 else 0.0

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in counted(name))

    def attr_max(name, key):
        return max((s.attrs.get(key, 0) for s in counted(name)), default=0)

    iso = "poly_kernel.roots.isolate_real_roots"
    ref = "poly_kernel.roots.refine_root"
    res = "poly_kernel.resultant.sylvester_resultant"
    piv = "transfer_model.plan_is_valid"
    c2b = "rotated_ellipses.case2b_solutions"
    c2a = "rotated_ellipses.case2a_general"
    c1 = "rotated_ellipses.case1_numeric"
    checked = len(counted(piv))
    gaps = [s.attrs["gap"] for s in spans if "gap" in s.attrs and s.input_id in timed_ids]
    return {
        f"{iso}.calls": len(counted(iso)),
        f"{iso}.busy_s": busy(iso),
        f"{iso}.roots_out": attr_sum(iso, "out"),
        f"{iso}.in_degree_max": attr_max(iso, "degree"),
        f"{iso}.in_coeff_bits_max": attr_max(iso, "bits"),
        f"{ref}.calls": len(counted(ref)),
        f"{ref}.busy_s": busy(ref),
        "poly_kernel.roots.strip_known_factors.busy_s": busy("poly_kernel.roots.strip_known_factors"),
        f"{res}.calls": len(counted(res)),
        f"{res}.busy_s": busy(res),
        "poly_kernel.euclid.euclidean_last_linear.busy_s": busy("poly_kernel.euclid.euclidean_last_linear"),
        f"{c2b}.busy_s": busy(c2b),
        f"{c2b}.self_s": self_s(c2b),
        f"{c2b}.candidates": attr_sum(c2b, "out"),
        f"{c2b}.share": share(c2b),
        f"{c2a}.busy_s": busy(c2a),
        f"{c2a}.self_s": self_s(c2a),
        f"{c2a}.candidates": attr_sum(c2a, "out"),
        f"{c2a}.share": share(c2a),
        f"{c1}.busy_s": busy(c1),
        f"{c1}.candidates": attr_sum(c1, "out"),
        f"{c1}.share": share(c1),
        "rotated_ellipses.apogee_to_apogee_cost.busy_s": busy("rotated_ellipses.apogee_to_apogee_cost"),
        f"{piv}.calls": checked,
        f"{piv}.accept_ratio": attr_sum(piv, "ok") / checked if checked else 0.0,
        "lambert_pp.critical_eliminant.busy_s": busy("lambert_pp.critical_eliminant"),
        "lambert_pp.solve.busy_s": busy("lambert_pp.solve"),
        "lambert_pp.solve.candidates": attr_sum("lambert_pp.solve", "out"),
        "oracle.planar_two_impulse_min.busy_s": busy("oracle.planar_two_impulse_min"),
        "oracle.fixed_endpoint_min.busy_s": busy("oracle.fixed_endpoint_min"),
        "oracle.winner_gap_max": max(gaps, default=0.0),
        "trace.solve_s_mean": solve_mean,
        "trace.inputs": len(timed_ids),
        "trace.overhead_frac": overhead_frac,
    }
