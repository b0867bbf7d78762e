"""The solvers' outputs on fixed inputs, byte for byte.

``golden_outputs.json`` is written by ``generate_golden_outputs.py``; see
there for the inputs.  A change that claims to leave the outputs alone must
pass these tests unedited.
"""

import json
from pathlib import Path

import pytest

from orbita import lambert_pp, rotated_ellipses
from orbita.kepler import Vec3

GOLDEN = json.loads((Path(__file__).resolve().parent / "golden_outputs.json").read_text())


@pytest.mark.parametrize("record", GOLDEN["rotated"], ids=lambda r: f"{r['s0x']},{r['s0y']}")
def test_rotated_pool_and_apogee_cost(record):
    inp = rotated_ellipses.RotatedInput(
        s0x=record["s0x"], s0y=record["s0y"], e=record["e"], a=record["a"], b=record["b"]
    )
    _, ranked = rotated_ellipses.best_rotated_transfer(inp)
    assert [[c.case_tag, repr(c.f1)] for c in ranked] == record["pool"]
    assert repr(rotated_ellipses.apogee_to_apogee_cost(inp)) == record["apogee_to_apogee_cost"]


def test_fixed_endpoint_costs():
    for record in GOLDEN["fixed_endpoint"]:
        inp = lambert_pp.LambertInput(
            *(Vec3(*record[name]) for name in ("r0", "r1", "w0", "w1star"))
        )
        assert [repr(s.f2) for s in lambert_pp.solve(inp)] == record["f2"]
