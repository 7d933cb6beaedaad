"""Time one set-up in a fresh interpreter, as a CLI call pays it.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED INPUTS_DIR

Prints one JSON object: the time from just before `import powercut` until
the inputs are parsed and the pools or state exist (`setup_s`), and its
steps.  `run.py` starts this several times per run and takes medians.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    name, seed, inputs_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import powercut

    t_import = perf_counter()
    _, steps = workloads.setup(powercut, name, seed, inputs_dir)
    t_end = perf_counter()
    if Path(powercut.__file__).resolve().parent != SRC / "powercut":
        raise SystemExit(f"imported powercut from {powercut.__file__}, not {SRC}")
    print(json.dumps(dict(steps, import_s=t_import - t0, setup_s=t_end - t0)))


if __name__ == "__main__":
    main()
