"""Run one tpflow benchmark workload and print its metrics.

    python3 perfbench/run.py --workload feeder-dense --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; tpflow is imported from ``src/``.
The steps, each in its own fresh process with the BLAS thread count fixed:

1. generate the inputs for ``--seed`` into a work directory (not timed);
2. start ``SETUP_SAMPLES`` processes that import tpflow and read the
   network; set-up time runs from each process's start until it is ready;
3. the last of them goes on to time passes for ``--seconds``, then checks
   every output (see check.py).

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of one extra traced pass, and
the spans go to ``perfbench/traces/``. Stdlib only: this process does no
numerical work.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 7
# one BLAS thread per process: steady timings, and never more than the cores
BLAS_THREADS = "1"
TIMEOUT_S = 170


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class Child:
    """A worker process whose first stdout line says set-up is done.

    A timer kills it at the run's deadline, so no wait below can hang.
    """

    def __init__(self, role: str, args, work: Path, deadline: float) -> None:
        cmd = [sys.executable, str(BENCH / "worker.py"), role,
               "--workload", args.workload, "--seed", str(args.seed),
               "--work", str(work), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        self.role = role
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                     env=_env(), cwd=ROOT)
        self.watchdog = threading.Timer(max(0.0, deadline - time.monotonic()),
                                        self.proc.kill)
        self.watchdog.daemon = True
        self.watchdog.start()

    def ready(self) -> tuple[float, dict]:
        line = self.proc.stdout.readline()
        setup_s = time.perf_counter() - self.start
        if not line:
            raise RuntimeError(f"{self.role} worker exited before set-up finished")
        return setup_s, json.loads(line)

    def finish(self) -> str:
        """Wait for the process; returns the rest of its stdout."""
        out, _ = self.proc.communicate()
        if self.proc.returncode != 0:
            raise RuntimeError(f"{self.role} worker exited with code "
                               f"{self.proc.returncode}")
        return out

    def close(self) -> None:
        self.watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def measure(args, work: Path) -> dict:
    deadline = time.monotonic() + TIMEOUT_S
    gen = Child("gen", args, work, deadline)
    try:
        gen.finish()
    finally:
        gen.close()
    setup_s, import_s = [], []
    for k in range(SETUP_SAMPLES):
        child = Child("run" if k == SETUP_SAMPLES - 1 else "setup", args, work, deadline)
        try:
            secs, info = child.ready()
            setup_s.append(secs)
            import_s.append(info["import_s"])
            out = child.finish()
        finally:
            child.close()
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    result["import_s"] = import_s
    return result


def report(args, result: dict) -> dict:
    problems = result["problems"]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if args.trace:
        layers = dict(result["layers"], **{"setup.import_s": statistics.median(result["import_s"])})
        metrics = {k: {"value": layers[k], "unit": u} for k, u in result["layer_units"].items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(result["times"]), "unit": "s"},
            "setup_s": {"value": statistics.median(result["setup_s"]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": not problems, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "tpflow" / "__init__.py").is_file():
        print(f"error: no tpflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = BENCH / "_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, work)
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    print("# env " + json.dumps(result["env"]))
    print("# passes_s " + json.dumps(result["times"]) + " setup_s " + json.dumps(result["setup_s"]))
    print(f"# outputs checked {result['distinct_outputs']}, "
          f"Newton-Raphson oracle {result['nr_ms_per_case']:.2f} ms/case"
          + (f", trace {result['trace_file']}" if "trace_file" in result else ""))
    print(json.dumps(report(args, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
