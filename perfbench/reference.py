"""Reference figure: dense vs sparse batch on the feeder-sparse inputs.

    python3 perfbench/reference.py --seed 1

Generates the ``feeder-sparse`` inputs for the seed (1,001 buses), then
prints the median of three passes of ``batch_solve_dense`` and of
``batch_solve_sparse`` on them, with one BLAS thread. Not part of the
benchmark's metrics; the README quotes its output.
"""

from __future__ import annotations

import argparse
import contextlib
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    work = BENCH / "_work" / f"reference-seed{args.seed}"
    if not args.child:
        from run import _env

        work.mkdir(parents=True, exist_ok=True)
        try:
            return subprocess.run([sys.executable, __file__, "--seed", str(args.seed),
                                   "--child"], env=_env()).returncode
        finally:
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):
                work.parent.rmdir()

    from tpflow import LoadMatrix, batch_solve_dense, batch_solve_sparse, fileio
    from workloads import generate

    import numpy as np

    generate("feeder-sparse", args.seed, work)
    model = fileio.read_network(work / "net.json")
    loads = LoadMatrix(np.load(work / "loads.npy"))
    for name, solve in (("dense", batch_solve_dense), ("sparse", batch_solve_sparse)):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            batch = solve(model, loads)
            times.append(time.perf_counter() - t0)
        print(f"{name:>6}: {statistics.median(times):.3f} s median of 3, "
              f"{batch.iterations} iterations, {model.n_demand + 1} buses, "
              f"{loads.tau} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
