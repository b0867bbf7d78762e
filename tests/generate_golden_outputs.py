"""Record the solvers' outputs on fixed inputs as golden JSON.

    python tests/generate_golden_outputs.py

rewrites ``tests/golden_outputs.json`` (a few seconds on one core).
``tests/test_golden_outputs.py`` solves the same inputs again and asserts
that every output is byte-identical to the recorded one, so a change meant
to leave the results alone (a faster kernel, a simpler pipeline) is checked
on every run of the test suite.  Regenerate only when a change is meant to
move the outputs, and say so with it.

- Rotated ellipses: ``[(case_tag, repr(f1))]`` of ``best_rotated_transfer``
  and ``repr(apogee_to_apogee_cost)`` for the benchmark's REF and FLAT_REF
  cells, ``params_from_angle(0.9, 90)``, ``params_from_angle(0.5, 37)``,
  ``params_from_angle(0.7, 37)`` (whose case-2b fiber roots tie in the
  float gate, so the exact residual decides) and the first three drawn
  rounds (twelve cells) of the seed-7 ``rotated-sweep`` inputs.
- Fixed endpoints: ``repr(f2)`` of every ``lambert_pp.solve`` solution on
  the first 16 seed-7 ``fixed-endpoint`` inputs.

The inputs are stored with the outputs (exact rationals as strings, floats
as JSON numbers, which round-trip), so the test does not read the
benchmark's generators.
"""

from __future__ import annotations

import json
import sys
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_PATH = Path(__file__).resolve().parent / "golden_outputs.json"

SWEEP_SEED = 7
SWEEP_ROUNDS = 3
FIXED_SEED = 7
FIXED_COUNT = 16


def rotated_record(inp) -> dict:
    from orbita import rotated_ellipses

    _, ranked = rotated_ellipses.best_rotated_transfer(inp)
    return {
        "s0x": str(inp.s0x),
        "s0y": str(inp.s0y),
        "e": inp.e,
        "a": inp.a,
        "b": inp.b,
        "pool": [[c.case_tag, repr(c.f1)] for c in ranked],
        "apogee_to_apogee_cost": repr(rotated_ellipses.apogee_to_apogee_cost(inp)),
    }


def fixed_record(inp) -> dict:
    from orbita import lambert_pp

    return {
        name: list(getattr(inp, name).as_tuple()) for name in ("r0", "r1", "w0", "w1star")
    } | {"f2": [repr(s.f2) for s in lambert_pp.solve(inp)]}


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from orbita import rotated_ellipses

    rotated = [
        workloads.REF,
        workloads.FLAT_REF,
        rotated_ellipses.params_from_angle(0.9, 90.0),
        rotated_ellipses.params_from_angle(0.5, 37.0),
        rotated_ellipses.params_from_angle(0.7, 37.0),
    ]
    # round 0 of the sweep is REF alone; rounds 1, 2, ... are drawn
    for batch in islice(workloads.sweep_rounds(SWEEP_SEED), 1, 1 + SWEEP_ROUNDS):
        rotated += batch
    fixed = next(workloads.fixed_rounds(FIXED_SEED))[:FIXED_COUNT]
    golden = {
        "rotated": [rotated_record(inp) for inp in rotated],
        "fixed_endpoint": [fixed_record(inp) for inp in fixed],
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH.name}: {len(rotated)} rotated, {len(fixed)} fixed-endpoint inputs")


if __name__ == "__main__":
    main()
