"""One timed set-up in a fresh process: import solvharm, build the inputs.

Usage: python3 perfbench/setup_once.py WORKLOAD SEED OUTDIR

Prints the set-up's wall seconds and its seconds scaled to the
calibration reference speed (see ``calibrate.py``) as its last line.
``run.py`` runs this a few times and reports the median as ``setup_s``,
so that work moved into import or input construction shows up.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from calibrate import Sampler  # noqa: E402


def main(argv):
    workload, seed, outdir = argv
    with Sampler() as sampler:
        import solvharm  # noqa: F401
        from workloads import build_inputs
        build_inputs(workload, int(seed), outdir)
        work = time.perf_counter() - START - sampler.spent
    print(repr(work), repr(work * sampler.factor(0, len(sampler.samples))))


if __name__ == "__main__":
    main(sys.argv[1:])
