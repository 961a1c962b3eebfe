"""Command-line front end.

Subcommands: solve, gen-net, gen-loads, twobus {circles|region|basin},
bench, fit.  All outputs are delimited text or JSON metadata; data files
contain no timestamps, so identical invocations with identical seeds
produce byte-identical data files (timings live in the metadata document).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import fileio, twobus
from .bench import BenchConfig, METHODS, fit_complexity, run_benchmark, solve_batch
from .fileio import FileFormatError
from .fpi import SolveOptions
from .network import NetworkError
from .synth import GenSpec, build_network, gen_scenarios

__all__ = ["main"]


def _options(args) -> SolveOptions:
    return SolveOptions(tolerance=args.tol, max_iterations=args.max_iter)


def _add_solver_flags(parser) -> None:
    parser.add_argument("--tol", type=float, default=1e-10,
                        help="voltage step tolerance (default 1e-10)")
    parser.add_argument("--max-iter", type=int, default=100,
                        help="iteration cap (default 100)")


def _cmd_solve(args) -> int:
    opts = _options(args)
    t0 = time.perf_counter()
    model = fileio.read_network(args.network)
    t1 = time.perf_counter()
    loads = fileio.read_loads(args.loads)
    t2 = time.perf_counter()
    batch = solve_batch(args.method, model, loads, opts)
    t3 = time.perf_counter()
    fileio.write_voltages(args.out, batch)
    t4 = time.perf_counter()
    meta = {
        "method": args.method,
        "n_demand": model.n_demand,
        "tau": batch.tau,
        "iterations": batch.iterations,
        "converged_cases": int(batch.converged_mask.sum()),
        "nonconverged_cases": [
            int(j) for j in np.where(~batch.converged_mask)[0]
        ],
        "max_residual": float(np.nanmax(batch.residuals)),
        "tolerance": opts.tolerance,
        "wall_seconds": t3 - t2,
        "phase_seconds": {"read_network": t1 - t0, "read_loads": t2 - t1,
                          "solve": t3 - t2, "write_voltages": t4 - t3},
    }
    fileio.write_metadata(args.meta or f"{args.out}.meta.json", meta)
    return 0


def _cmd_gen_net(args) -> int:
    spec = GenSpec(
        n_buses=args.buses, k_max=args.kmax, seed=args.seed,
        r_range=(args.r_min, args.r_max), x_range=(args.x_min, args.x_max),
    )
    fileio.write_network(args.out, build_network(spec))
    return 0


def _cmd_gen_loads(args) -> int:
    model = fileio.read_network(args.network)
    spec = GenSpec(
        n_buses=model.n_demand + 1, seed=args.seed,
        load_scale=args.scale, correlation=args.correlation,
    )
    fileio.write_loads(args.out, gen_scenarios(model, args.tau, spec))
    return 0


def _circle_rows(center, radius, kind, n_points):
    if not np.isfinite(radius):
        return []
    t = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    r = center[0] + radius * np.cos(t)
    x = center[1] + radius * np.sin(t)
    return list(zip([kind] * n_points, r.tolist(), x.tolist()))


def _cmd_twobus_circles(args) -> int:
    sys_ = twobus.TwoBusSystem(
        z_s=complex(args.rs, args.xs), v0=args.v0, s_l=complex(args.p, args.q)
    )
    pair = twobus.load_circles(sys_)
    rows = _circle_rows(pair.center_p, pair.radius_p, "circle_p", args.points)
    rows += _circle_rows(pair.center_q, pair.radius_q, "circle_q", args.points)
    rows += [("intersection", *rx) for rx in twobus.circle_intersections(pair)]
    fileio.write_table(args.out, "kind,r,x", rows, "%s,%.17g,%.17g")
    return 0


def _cmd_twobus_region(args) -> int:
    coeffs = twobus.feasibility_parabola(args.rs, args.xs, args.v0)
    locus = twobus.parabola_locus(coeffs, n_points=args.points)
    fileio.write_float_table(args.out, "p,q,dist", locus)
    return 0


def _cmd_twobus_basin(args) -> int:
    sys_ = twobus.TwoBusSystem(
        z_s=complex(args.rs, args.xs), v0=args.v0, s_l=complex(args.p, args.q)
    )
    basin = twobus.basin_scan(
        sys_, method=args.method,
        re_range=(args.re_min, args.re_max),
        im_range=(args.im_min, args.im_max),
        resolution=args.resolution, opts=_options(args),
    )
    re, im = np.meshgrid(basin.re_grid, basin.im_grid, indexing="ij")
    names = np.asarray(twobus.CLASS_NAMES)[basin.classes]
    rows = zip(*(c.ravel().tolist() for c in (re, im, names, basin.iterations)))
    fileio.write_table(args.out, "re,im,class,iters", rows, "%.17g,%.17g,%s,%d")
    return 0


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise ValueError(f"expected a comma-separated integer list: {text!r}") from exc


def _cmd_bench(args) -> int:
    config = BenchConfig(
        methods=tuple(args.methods.split(",")),
        sizes=_parse_int_list(args.sizes),
        taus=_parse_int_list(args.taus),
        seed=args.seed,
        repeats=args.repeats,
        timeout=args.timeout,
        options=_options(args),
    )
    records = run_benchmark(config)
    fileio.write_bench_records(args.out, records)
    fileio.write_metadata(
        args.meta or f"{args.out}.meta.json",
        {
            "methods": list(config.methods),
            "sizes": list(config.sizes),
            "taus": list(config.taus),
            "seed": config.seed,
            "repeats": config.repeats,
            "failed_cells": sum(not r.ok for r in records),
        },
    )
    for rec in records:
        status = "ok" if rec.ok else f"FAILED ({rec.error})"
        print(
            f"{rec.method:>6}  b_phi={rec.b_phi:<5} tau={rec.tau:<7} "
            f"t={rec.wall_seconds:.6g}s  iters={rec.iterations}  {status}"
        )
    return 0


def _cmd_fit(args) -> int:
    records = fileio.read_bench_records(args.records)
    if args.method:
        records = [r for r in records if r.method == args.method]
    fit = fit_complexity(records, args.variable)
    print(
        f"t = {fit.c:.6g} * {fit.variable}^{fit.k:.4f}   "
        f"(R^2 = {fit.r_squared:.6f}, {fit.n_points} points)"
    )
    if args.out:
        fileio.write_metadata(
            args.out,
            {"c": fit.c, "k": fit.k, "r_squared": fit.r_squared,
             "variable": fit.variable, "n_points": fit.n_points},
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpflow",
        description="Batched fixed-point power flow for distribution networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a load batch against a network")
    p_solve.add_argument("--network", required=True)
    p_solve.add_argument("--loads", required=True)
    p_solve.add_argument("--out", required=True)
    p_solve.add_argument("--meta", default=None,
                         help="metadata path (default <out>.meta.json)")
    p_solve.add_argument("--method", choices=METHODS, default="dense")
    _add_solver_flags(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_net = sub.add_parser("gen-net", help="generate a random radial network")
    p_net.add_argument("--buses", type=int, required=True)
    p_net.add_argument("--kmax", type=int, default=5)
    p_net.add_argument("--seed", type=int, default=0)
    p_net.add_argument("--r-min", type=float, default=0.001)
    p_net.add_argument("--r-max", type=float, default=0.01)
    p_net.add_argument("--x-min", type=float, default=0.001)
    p_net.add_argument("--x-max", type=float, default=0.01)
    p_net.add_argument("--out", required=True)
    p_net.set_defaults(func=_cmd_gen_net)

    p_loads = sub.add_parser("gen-loads", help="generate a load scenario batch")
    p_loads.add_argument("--network", required=True)
    p_loads.add_argument("--tau", type=int, required=True)
    p_loads.add_argument("--seed", type=int, default=0)
    p_loads.add_argument("--scale", type=float, default=1.0)
    p_loads.add_argument("--correlation", type=float, default=0.5)
    p_loads.add_argument("--out", required=True)
    p_loads.set_defaults(func=_cmd_gen_loads)

    p_two = sub.add_parser("twobus", help="two-bus geometry and basin tools")
    two_sub = p_two.add_subparsers(dest="twobus_command", required=True)

    p_circ = two_sub.add_parser("circles", help="impedance-plane power circles")
    p_circ.add_argument("--rs", type=float, required=True)
    p_circ.add_argument("--xs", type=float, required=True)
    p_circ.add_argument("--v0", type=float, default=1.0)
    p_circ.add_argument("--p", type=float, required=True)
    p_circ.add_argument("--q", type=float, required=True)
    p_circ.add_argument("--points", type=int, default=360)
    p_circ.add_argument("--out", required=True)
    p_circ.set_defaults(func=_cmd_twobus_circles)

    p_reg = two_sub.add_parser("region", help="max-power-transfer curve")
    p_reg.add_argument("--rs", type=float, required=True)
    p_reg.add_argument("--xs", type=float, required=True)
    p_reg.add_argument("--v0", type=float, default=1.0)
    p_reg.add_argument("--points", type=int, default=720)
    p_reg.add_argument("--out", required=True)
    p_reg.set_defaults(func=_cmd_twobus_region)

    p_basin = two_sub.add_parser("basin", help="basin-of-attraction scan")
    p_basin.add_argument("--method", choices=("fpi", "nr"), default="fpi")
    p_basin.add_argument("--rs", type=float, default=1.0)
    p_basin.add_argument("--xs", type=float, default=0.5)
    p_basin.add_argument("--v0", type=float, default=1.0)
    p_basin.add_argument("--p", type=float, default=0.18)
    p_basin.add_argument("--q", type=float, default=0.11)
    p_basin.add_argument("--re-min", type=float, default=-2.0)
    p_basin.add_argument("--re-max", type=float, default=2.0)
    p_basin.add_argument("--im-min", type=float, default=-2.0)
    p_basin.add_argument("--im-max", type=float, default=2.0)
    p_basin.add_argument("--resolution", type=int, default=200)
    p_basin.add_argument("--out", required=True)
    _add_solver_flags(p_basin)
    p_basin.set_defaults(func=_cmd_twobus_basin)

    p_bench = sub.add_parser("bench", help="time methods over sizes and taus")
    p_bench.add_argument("--methods", default=",".join(METHODS))
    p_bench.add_argument("--sizes", default="9,100")
    p_bench.add_argument("--taus", default="1,100")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.add_argument("--timeout", type=float, default=300.0,
                         help="seconds; a cell whose solve took longer is "
                         "recorded as failed (a running solve is not "
                         "interrupted)")
    p_bench.add_argument("--out", required=True)
    p_bench.add_argument("--meta", default=None)
    _add_solver_flags(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_fit = sub.add_parser("fit", help="fit t = c * n^k to benchmark records")
    p_fit.add_argument("--records", required=True)
    p_fit.add_argument("--variable", choices=("tau", "b_phi"), required=True)
    p_fit.add_argument("--method", choices=METHODS, default=None)
    p_fit.add_argument("--out", default=None)
    p_fit.set_defaults(func=_cmd_fit)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileFormatError, NetworkError, ValueError, MemoryError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
