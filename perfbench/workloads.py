"""Seeded inputs, the solve under test, and output checks per workload.

Each workload yields its inputs in rounds.  Round 0 holds the fixed
reference input(s); every later round is one stratified draw, so every run
covers the same spread of input difficulty whatever its seed.  The solver
only ever receives the generated inputs.

The solve functions call the solver through its modules' attributes, so
the wrappers that ``spans.tracing`` installs are the ones that run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from orbita import lambert_pp, oracle, rotated_ellipses, transfer_model
from orbita.kepler import Vec3

# plan equality residuals accepted by the check (the solver's own gate)
_PLAN_TOL = 1e-9
# a winner may exceed its upper bound by this much, or the oracle by this
# much relatively
WINNER_TOL = 1e-9
_STATIONARITY_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    rounds: Callable[[int], Iterator[list]]  # seed -> rounds of inputs
    solve: Callable[[object], object]
    check: Callable[[object, object], list[str]]  # problems, empty when correct
    oracle_gap: Callable[[object, object], float]  # (winner - oracle) / |oracle|
    key: Callable[[object], object]  # identifies an input, for distinctness


# ------------------------------------------------------ rotated ellipses ---

REF = rotated_ellipses.RotatedInput(s0x="3/10", s0y="2/5")
FLAT_REF = rotated_ellipses.RotatedInput(s0x="1/2", s0y="0")

# Seeded cells fall into these bands of input size: the bit lengths of the
# numerators and denominators of s0x and s0y, summed.  The antipodal
# elimination's cost grows with it (correlation 0.96 over 31 cells), so one
# cell per band keeps every run's difficulty mix alike.  REF has 11 bits.
SWEEP_BITS = ((50, 53), (62, 65), (74, 77), (86, 89))
# flat cells: e = k/1000, one cell per band of k
FLAT_K = ((100, 299), (300, 499), (500, 699), (700, 900))


def _rotated_key(inp) -> tuple:
    return (inp.s0x, inp.s0y)


def input_bits(inp) -> int:
    return sum(
        q.numerator.bit_length() + q.denominator.bit_length() for q in (inp.s0x, inp.s0y)
    )


def sweep_rounds(seed: int) -> Iterator[list]:
    """REF, then rounds of one generic cell per input-size band.

    Cells are ``params_from_angle(e, alpha)`` with e on the 0.01 grid in
    [0.1, 0.9] and alpha uniform in [15, 165] degrees, redrawn until the
    cell falls in the band and is new to the run.
    """
    rng = random.Random(seed)
    seen = {_rotated_key(REF)}
    yield [REF]
    while True:
        batch = []
        for lo, hi in SWEEP_BITS:
            while True:
                inp = rotated_ellipses.params_from_angle(
                    rng.randint(10, 90) / 100, rng.uniform(15.0, 165.0)
                )
                if lo <= input_bits(inp) <= hi and _rotated_key(inp) not in seen:
                    break
            seen.add(_rotated_key(inp))
            batch.append(inp)
        yield batch


def flat_rounds(seed: int) -> Iterator[list]:
    """(1/2, 0), then rounds of one alpha = 180 cell per band of e.

    e is on a 0.001 grid (e = 0.5 excluded) so a fast solver still finds
    new cells for a whole run; each band holds about 200 values, and a run
    that has used them all ends there.
    """
    rng = random.Random(seed)
    yield [FLAT_REF]
    unused = [[k for k in range(lo, hi + 1) if k != 500] for lo, hi in FLAT_K]
    for pool in unused:
        rng.shuffle(pool)
    while all(unused):
        yield [rotated_ellipses.params_from_angle(pool.pop() / 1000, 180.0) for pool in unused]


def solve_rotated(inp):
    winner, ranked = rotated_ellipses.best_rotated_transfer(inp)
    return winner, ranked, rotated_ellipses.apogee_to_apogee_cost(inp)


def _plan_failures(plan) -> list[str]:
    return [
        r.name
        for r in transfer_model.validate_plan(plan)
        if (r.kind == "equality" and not r.value < _PLAN_TOL)
        or (r.kind == "margin" and not r.value > 0.0)
    ]


def check_rotated(inp, result) -> list[str]:
    winner, ranked, apogee = result
    problems = []
    if not ranked or winner is not ranked[0] or winner.f1 != min(c.f1 for c in ranked):
        problems.append("winner is not the minimum of the ranked pool")
    for c in ranked:
        failures = _plan_failures(c.plan)
        if failures:
            problems.append(f"{c.case_tag} candidate f1={c.f1!r} fails {failures}")
    bound = min(2.0 * abs(inp.s0x_float), apogee)
    if not winner.f1 <= bound + WINNER_TOL:
        problems.append(f"winner f1={winner.f1!r} exceeds min(2|s0x|, apogee cost)={bound!r}")
    return problems


def _relative_gap(value: float, reference: float) -> float:
    return (value - reference) / max(abs(reference), 1e-300)


def rotated_oracle_gap(inp, result) -> float:
    _, best = oracle.planar_two_impulse_min(inp.orbit0, inp.orbit2)
    return _relative_gap(result[0].f1, best)


# -------------------------------------------------------- fixed endpoint ---


def _near_circular_instance(rng: random.Random) -> lambert_pp.LambertInput:
    """Canonical-frame endpoints with near-circular velocities.

    The same recipe as the lambert_pp tests' random instances; the solver
    turns each float into the exact 53-bit rational it holds.
    """
    k0 = math.exp(rng.uniform(-0.7, 0.7))
    k1 = math.exp(rng.uniform(-0.7, 0.7))
    ang = rng.uniform(0.15, math.pi - 0.15)
    x1, y1 = math.cos(ang), math.sin(ang)

    def near_circular(k: float, rhat: Vec3) -> Vec3:
        tangent = Vec3(-rhat.y, rhat.x, 0.0)
        noise = Vec3(rng.gauss(0.0, 0.15), rng.gauss(0.0, 0.15), rng.gauss(0.0, 0.1))
        return math.sqrt(k) * tangent + noise

    return lambert_pp.LambertInput(
        r0=Vec3(1.0 / k0, 0.0, 0.0),
        r1=Vec3(x1 / k1, y1 / k1, 0.0),
        w0=near_circular(k0, Vec3(1.0, 0.0, 0.0)),
        w1star=near_circular(k1, Vec3(x1, y1, 0.0)),
    )


FIXED_ROUND = 64


def fixed_rounds(seed: int) -> Iterator[list]:
    rng = random.Random(seed)
    while True:
        yield [_near_circular_instance(rng) for _ in range(FIXED_ROUND)]


def solve_fixed(inp):
    return lambert_pp.solve(inp)


def _lambert_key(inp) -> tuple:
    return tuple(v.as_tuple() for v in (inp.r0, inp.r1, inp.w0, inp.w1star))


def check_fixed(inp, sols) -> list[str]:
    if not sols:
        return ["no solution"]
    problems = []
    for s in sols:
        if not s.stationarity_residual < _STATIONARITY_TOL:
            problems.append(f"stationarity residual {s.stationarity_residual!r}")
    if any(a.f2 > b.f2 for a, b in zip(sols, sols[1:])):
        problems.append("solutions not sorted by f2")
    if not sols[0].is_minimum or any(s.is_minimum for s in sols[1:]):
        problems.append("minimum not flagged on the first solution alone")
    return problems


def fixed_oracle_gap(inp, sols) -> float:
    framed, _ = lambert_pp.canonical_frame(inp)
    _, best = oracle.fixed_endpoint_min(framed)
    return _relative_gap(sols[0].f2, best)


WORKLOADS = {
    "rotated-sweep": Workload(sweep_rounds, solve_rotated, check_rotated, rotated_oracle_gap, _rotated_key),
    "rotated-flat": Workload(flat_rounds, solve_rotated, check_rotated, rotated_oracle_gap, _rotated_key),
    "fixed-endpoint": Workload(fixed_rounds, solve_fixed, check_fixed, fixed_oracle_gap, _lambert_key),
}


def warm_up() -> None:
    """Run each solver entry point once on inputs no workload generates."""
    lambert_pp.solve(
        lambert_pp.LambertInput(
            r0=Vec3(1.0, 0.0, 0.0),
            r1=Vec3(0.0, 1.25, 0.0),
            w0=Vec3(0.0, 1.0, 0.0),
            w1star=Vec3(-0.9, 0.0, 0.0),
        )
    )
    inp = rotated_ellipses.params_from_angle(0.5, 90.0)
    rotated_ellipses.case2a_axis_solutions(inp)
    rotated_ellipses.case2b_solutions(inp, include_general=False)
    rotated_ellipses.apogee_to_apogee_cost(inp)
