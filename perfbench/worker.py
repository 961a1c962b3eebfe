"""One fresh process of a benchmark workload.

Roles:

* ``gen``: write the workload's inputs into the work directory;
* ``setup``: import tpflow and read the network, then report and exit;
* ``run``: the same set-up, then timed passes for ``--seconds`` (at least
  ``MIN_PASSES``), an optional traced pass, and the correctness checks.

After set-up the process prints one JSON line, so the parent can time the
set-up from process start; ``run`` ends with one JSON line of results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

MIN_PASSES = 3
TRACE_DIR = Path(__file__).resolve().parent / "traces"


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
    }


def _digest(out) -> str:
    h = hashlib.sha256()
    if isinstance(out, Path):
        h.update(out.read_bytes())
    else:
        h.update(out.values.tobytes())
        h.update(out.converged_mask.tobytes())
    return h.hexdigest()


class Passes:
    """Timed passes of one workload; each distinct output is kept for the
    checks, which run after the timed region."""

    def __init__(self, op, work: Path) -> None:
        self.op = op
        self.work = work
        self.outputs: dict = {}
        self.attempted = self.failed = 0

    def loop(self, seconds: float, tracer_cls=None) -> list[tuple]:
        """Passes for ``seconds``, at least ``MIN_PASSES``; returns
        (seconds, tracer, sparse factorizations) per successful pass."""
        import tpflow

        count = getattr(tpflow.sparse, "factorization_count", lambda: 0)
        done = []
        n = 0
        start = time.perf_counter()
        while n < MIN_PASSES or time.perf_counter() - start < seconds:
            n += 1
            self.attempted += 1
            tracer = tracer_cls() if tracer_cls else None
            f0 = count()
            if tracer:
                tracer.install()
            t0 = time.perf_counter()
            try:
                out = self.op.run()
            except Exception:  # a failed operation is counted, not fatal
                traceback.print_exc()
                self.failed += 1
                continue
            finally:
                secs = time.perf_counter() - t0
                if tracer:
                    tracer.uninstall()
            done.append((secs, tracer, count() - f0))
            digest = _digest(out)
            if digest not in self.outputs:
                self.outputs[digest] = self._keep(out)
            del out
        return done

    def _keep(self, out):
        if isinstance(out, Path):
            copy = self.work / f"checked-{len(self.outputs)}.csv"
            shutil.copyfile(out, copy)
            return copy
        return out


def _check(op, outputs, seed: int) -> tuple[list[str], float]:
    """Check every distinct pass output; returns problems and NR ms/case."""
    import numpy as np

    from check import check_batch, read_load_csv, read_voltage_csv, stamp_network
    from tpflow import nr_solve

    inputs = json.loads((op.work / "inputs.json").read_text())
    b, tau = inputs["buses"] - 1, inputs["tau"]
    expected = np.ones(tau, dtype=bool)
    expected[inputs["expected_nonconverged"]] = False
    net = stamp_network(op.work / "net.json")
    s = op.loads.values if hasattr(op, "loads") else read_load_csv(op.work / "loads.csv")
    oracle_s = []

    def oracle(s_col):
        t = time.perf_counter()
        res = nr_solve(op.model, s_col)
        oracle_s.append(time.perf_counter() - t)
        return res.v, res.converged

    problems = []
    for out in outputs.values():
        if isinstance(out, Path):
            try:
                v, flags = read_voltage_csv(out, b, tau)
            except ValueError as exc:
                problems.append(str(exc))
                continue
        else:
            v, flags = out.values, out.converged_mask
        problems += check_batch(net, v, flags, s, expected, oracle, seed)
    return problems, 1e3 * statistics.median(oracle_s) if oracle_s else 0.0


def _layers(op, out, times, traced) -> tuple[dict, dict]:
    """Layer metrics from the median traced pass, and its trace."""
    import tpflow
    from spans import LAYER_UNITS, layer_metrics

    secs, tracer, factorizations = sorted(traced, key=lambda r: r[0])[len(traced) // 2]
    layers = layer_metrics(tracer.spans)
    layers["sparse.factorizations"] = factorizations
    layers["trace.overhead_s"] = (statistics.median(r[0] for r in traced)
                                  - statistics.median(times))
    # column-iterations the healthy columns needed over those computed
    frac = 0.0
    if layers["dense.iterations"]:
        frac = 1.0
        if not isinstance(out, Path) and not out.converged_mask.all():
            keep = out.converged_mask
            healthy = tpflow.batch_solve_dense(
                op.model, tpflow.LoadMatrix(op.loads.values[:, keep]))
            frac = healthy.iterations * int(keep.sum()) / (out.iterations * out.tau)
    layers["dense.useful_column_iter_frac"] = frac
    trace = {"spans": tracer.relative_spans(), "counts": tracer.counts(),
             "absent": tracer.absent, "traced_pass_s": secs, "layer_units": LAYER_UNITS}
    return layers, trace


def run(args, work: Path, model) -> dict:
    from spans import Tracer
    from workloads import Pass

    op = Pass(args.workload, work, model)
    passes = Passes(op, work)
    # a traced run splits its time between untraced and traced passes
    budget = args.seconds / 2 if args.trace else args.seconds
    times = [r[0] for r in passes.loop(budget)]
    result = {"times": times, "env": environment()}
    traced = passes.loop(budget, Tracer) if args.trace and times else []
    if traced:
        first = next(iter(passes.outputs.values()))
        layers, trace = _layers(op, first, times, traced)
        result.update(layers=layers, layer_units=trace["layer_units"])
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(dict(trace, workload=args.workload, seed=args.seed,
                                        layers=layers, env=result["env"])))
        result["trace_file"] = str(path.relative_to(TRACE_DIR.parent.parent))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    outputs = passes.outputs
    problems, nr_ms = _check(op, outputs, args.seed) if outputs else (["no pass succeeded"], 0.0)
    if args.trace and not traced:
        problems.append("no traced pass succeeded")
    result.update(attempted=passes.attempted, failed=passes.failed, problems=problems,
                  distinct_outputs=len(outputs), nr_ms_per_case=nr_ms)
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("gen", "setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if args.role == "gen":
        from workloads import WORKLOADS, generate

        if args.workload not in WORKLOADS:
            print(f"unknown workload {args.workload!r}; choose from "
                  f"{', '.join(WORKLOADS)}", file=sys.stderr)
            return 2
        generate(args.workload, args.seed, args.work)
        return 0

    t0 = time.perf_counter()
    import tpflow
    import tpflow.cli  # noqa: F401  (the year-csv entry point)
    import_s = time.perf_counter() - t0
    model = tpflow.fileio.read_network(args.work / "net.json")
    print(json.dumps({"import_s": import_s}), flush=True)
    if args.role == "setup":
        return 0
    print(json.dumps(run(args, args.work, model)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
