"""Time one set-up: import mdma_relay and build a workload's inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

run.py starts this in a fresh process several times and reports the median
as `setup_s`.  Before the clock starts only the standard library and
workloads.py (standard library only) are loaded, so the package's whole
import cost, numpy and scipy included, is in the time.  Prints the seconds.
"""

import sys
from pathlib import Path
from time import perf_counter

from workloads import make_workload, write_inputs


def main(argv: list[str]) -> int:
    workload, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was loaded before the set-up clock started")
    t0 = perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import mdma_relay.cli  # noqa: F401  (what a user's first command loads)

    write_inputs(make_workload(workload, seed), workdir)
    print(repr(perf_counter() - t0))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
