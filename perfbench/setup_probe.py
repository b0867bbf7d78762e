"""One set-up of the solver, timed from inside a fresh interpreter.

Imports the package from the checkout's ``src``, runs the warm-up, and
prints the seconds both took and then the mean time of the speed kernel
run straight after, so ``run.py`` can scale the set-up to the nominal
machine speed as it does solve times.  ``run.py`` starts this several
times and reports the median as ``setup_s``.
"""

import time

start = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.warm_up()
setup_s = time.perf_counter() - start

import speed  # noqa: E402

print(setup_s, speed.mean_kernel_seconds())
