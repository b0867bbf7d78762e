"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench``.

The end-to-end cases start the benchmark from the command line, in a child
process; the slowest (two traced rotated-flat runs) takes about a minute.
"""

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _keys(workload, seed, rounds):
    return [[workload.key(inp) for inp in batch] for batch in islice(workload.rounds(seed), rounds)]


def _run(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return done


def _result(*args):
    done = _run(*args)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    w = workloads.WORKLOADS[name]
    assert _keys(w, 5, 3) == _keys(w, 5, 3)
    assert _keys(w, 5, 3)[1:] != _keys(w, 6, 3)[1:]


@pytest.mark.parametrize("name,rounds", [("rotated-sweep", 6), ("rotated-flat", 200), ("fixed-endpoint", 4)])
def test_inputs_within_a_run_are_distinct(name, rounds):
    keys = [k for batch in _keys(workloads.WORKLOADS[name], 11, rounds) for k in batch]
    assert len(keys) == len(set(keys))


def test_sweep_cells_fall_in_their_bands():
    batch = next(islice(workloads.sweep_rounds(2), 1, None))
    bits = [workloads.input_bits(inp) for inp in batch]
    assert all(lo <= b <= hi for b, (lo, hi) in zip(bits, workloads.SWEEP_BITS))


def test_wrappers_restore_the_originals():
    originals = [(sys.modules[m], a, getattr(sys.modules[m], a)) for m, a, _, _ in spans.TARGETS]
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.tracing(tracer):
            for module, attr, original in originals:
                wrapped = getattr(module, attr)
                assert wrapped is not original and wrapped.__wrapped__ is original
            raise RuntimeError("leave the block early")
    for module, attr, original in originals:
        assert getattr(module, attr) is original


def test_spans_record_parents_and_self_time():
    tracer = spans.Tracer()
    tracer.input_id = 1
    with tracer.span("outer"):
        with tracer.span("rotated_ellipses.case2b_solutions"):
            with tracer.span("poly_kernel.roots.isolate_real_roots") as inner:
                inner.attrs.update(degree=7, bits=30, out=2)
    outer, c2b, iso = tracer.spans
    assert (outer.parent, c2b.parent, iso.parent) == (None, 0, 1)
    assert all(s.input_id == 1 for s in tracer.spans)
    m = spans.layer_metrics(tracer.spans, {1}, {1}, "outer", 0.0)
    assert m["rotated_ellipses.case2b_solutions.self_s"] == pytest.approx(c2b.seconds - iso.seconds)
    assert m["poly_kernel.roots.isolate_real_roots.in_degree_max"] == 7
    assert m["poly_kernel.roots.isolate_real_roots.roots_out"] == 2
    assert set(m) == set(spec.PER_LAYER)


def test_speed_probe_samples_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        with probe.clock() as timing:
            deadline = time.perf_counter() + 3.5 * speed.INTERVAL
            while time.perf_counter() < deadline:
                pass
        taken, spent = len(probe.samples), probe.spent
        with probe.clock():
            pass  # a short solve is not interrupted
        assert probe.spent == spent
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert taken >= speed.MIN_SAMPLES + 3
    assert timing.wall_s >= 3.5 * speed.INTERVAL and timing.seconds > 0


def test_benchmark_json_matches_the_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()
    assert list(spec.WORKLOADS) == list(workloads.WORKLOADS)
    names = [m["name"] for m in on_disk["end_to_end"] + on_disk["per_layer"]]
    names += [w["name"] for w in on_disk["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in on_disk["end_to_end"] + on_disk["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in on_disk["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in on_disk["workloads"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in on_disk["end_to_end"]


@pytest.mark.parametrize("trace,metrics", [("0", spec.END_TO_END), ("1", spec.PER_LAYER)])
def test_printed_metrics_match_the_spec(trace, metrics):
    out = _result("--workload", "fixed-endpoint", "--seed", "1", "--seconds", "1", "--trace", trace)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert list(out["metrics"]) == list(metrics)
    assert all(out["metrics"][n]["unit"] == metrics[n][0] for n in metrics)


@pytest.mark.parametrize("name", ["fixed-endpoint", "rotated-flat"])
def test_counts_repeat_for_one_seed(name):
    counted = [n for n, (unit, _) in spec.PER_LAYER.items() if unit in ("count", "bits") and n != "trace.inputs"]
    runs = [_result("--workload", name, "--seed", "4", "--seconds", "1", "--trace", "1") for _ in range(2)]
    first, second = ({n: r["metrics"][n]["value"] for n in counted} for r in runs)
    assert first == second
    assert any(first.values())


def test_exits_nonzero_without_the_solver_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "fixed-endpoint", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
