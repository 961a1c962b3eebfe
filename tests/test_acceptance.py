"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line once its assertions hold, so a verbose
run reads as a checklist.  Expected runtimes are noted per test; the whole
module stays within a few minutes on a desk machine.
"""

import math

import numpy as np
import pytest

from tpflow.bench import BenchConfig, fit_complexity, run_benchmark
from tpflow.dense import LoadMatrix, batch_solve_dense
from tpflow.fpi import contraction_estimate, fpi_solve
from tpflow.network import NetworkModel, ZipCoefficients
from tpflow.newton import nr_solve
from tpflow.sparse import batch_solve_sparse
from tpflow.synth import GenSpec, build_network, gen_scenarios
from tpflow.twobus import (
    TwoBusSystem,
    basin_scan,
    circle_intersections,
    closed_form_solutions,
    feasibility_parabola,
    load_circles,
    parabola_vertex_distance,
    radical_intercept,
    tangency_altitude,
    tangency_load,
)

from conftest import two_bus_model

V_REF = (1.0 + math.sqrt(0.96)) / 2.0  # 0.98989794855663564


def _report(n: int, text: str) -> None:
    print(f"\nACCEPTANCE CRITERION {n}: PASS — {text}")


def test_criterion_1_two_bus_closed_form_agreement():
    """All four methods hit (1 + sqrt(0.96))/2 within 1e-10.  Milliseconds."""
    model = two_bus_model(0.1 + 0j, v0=1.0)
    loads = LoadMatrix([[0.1 + 0j]])

    v_fpi = fpi_solve(model, [0.1 + 0j]).v[0]
    v_nr = nr_solve(model, [0.1 + 0j]).v[0]
    v_dense = batch_solve_dense(model, loads).values[0, 0]
    v_sparse = batch_solve_sparse(model, loads).values[0, 0]

    for name, v in [("fpi", v_fpi), ("nr", v_nr), ("dense", v_dense),
                    ("sparse", v_sparse)]:
        assert abs(v - V_REF) < 1e-10, f"{name}: {v!r} vs {V_REF!r}"
    _report(1, f"fpi/nr/dense/sparse all at {V_REF:.11f} within 1e-10")


def test_criterion_2_cross_method_oracle():
    """20 networks x 50 scenarios: FPI vs NR < 1e-8, residuals < 1e-8.

    Four seeds per size in {9, 50, 100, 500, 1000}.  Runs in well under the
    five-minute budget.
    """
    sizes = (9, 50, 100, 500, 1000)
    worst_dev = 0.0
    worst_residual = 0.0
    n_networks = 0
    for size in sizes:
        for rep in range(4):
            seed = 1000 * size + rep
            spec = GenSpec(n_buses=size + 1, seed=seed)
            model = build_network(spec)
            loads = gen_scenarios(model, 50, spec)
            n_networks += 1
            for j in range(loads.tau):
                s = loads.values[:, j]
                r_fpi = fpi_solve(model, s)
                r_nr = nr_solve(model, s)
                assert r_fpi.converged, f"FPI failed: size {size} seed {seed} case {j}"
                assert r_nr.converged, f"NR failed: size {size} seed {seed} case {j}"
                worst_dev = max(worst_dev, float(np.abs(r_fpi.v - r_nr.v).max()))
                worst_residual = max(worst_residual, r_fpi.residual, r_nr.residual)
    assert n_networks == 20
    assert worst_dev < 1e-8, f"max |v_FPI - v_NR| = {worst_dev:.3e}"
    assert worst_residual < 1e-8, f"max residual = {worst_residual:.3e}"
    _report(2, f"20 networks x 50 cases: max dev {worst_dev:.2e}, "
               f"max residual {worst_residual:.2e}")


def test_criterion_3_dense_sparse_equivalence(factorizations):
    """Identical batches: agreement < 1e-10, equal iterations, 1 factorization."""
    for n_buses, tau, seed in ((9, 300, 5), (101, 100, 6)):
        spec = GenSpec(n_buses=n_buses, seed=seed)
        model = build_network(spec)
        loads = gen_scenarios(model, tau, spec)

        dense_out = batch_solve_dense(model, loads)
        before = factorizations.call_count
        sparse_out = batch_solve_sparse(model, loads)
        n_lus = factorizations.call_count - before

        dev = float(np.abs(dense_out.values - sparse_out.values).max())
        assert dev < 1e-10, f"paths diverge by {dev:.3e}"
        assert dense_out.iterations == sparse_out.iterations
        assert n_lus == 1
        assert dense_out.converged_mask.all() and sparse_out.converged_mask.all()
    _report(3, "dense and sparse agree < 1e-10 with equal iteration counts; "
               "exactly one factorization per batch")


def test_criterion_4_geometry_suite():
    """1000 random feasible draws: the impedance-plane geometric identities."""
    rng = np.random.default_rng(2024)
    worst_beta = 0.0
    worst_h = 0.0
    worst_disc = 0.0
    worst_vertex = 0.0
    for _ in range(1000):
        z_mag = rng.uniform(0.1, 2.0)
        z_arg = rng.uniform(0.05, math.pi / 2 - 0.05)
        z_s = z_mag * math.cos(z_arg) + 1j * z_mag * math.sin(z_arg)
        s_mag = rng.uniform(0.05, 0.95) / (4.0 * z_mag)
        s_arg = rng.uniform(0.05, math.pi / 2 - 0.05)
        s = s_mag * math.cos(s_arg) + 1j * s_mag * math.sin(s_arg)
        sys_ = TwoBusSystem(z_s=z_s, v0=1.0, s_l=s)

        pair = load_circles(sys_)
        worst_beta = max(worst_beta, abs(radical_intercept(pair)))

        pts = circle_intersections(pair)
        assert len(pts) == 2, "feasible draw must intersect twice"
        lo, hi = sorted(math.hypot(r, x) for r, x in pts)
        assert lo < z_mag < hi, "impedance roots must bracket ||z_s||"

        tangent_sys = TwoBusSystem(z_s=z_s, v0=1.0, s_l=tangency_load(z_s))
        h = tangency_altitude(load_circles(tangent_sys))
        worst_h = max(worst_h, abs(h - z_mag))

        coeffs = feasibility_parabola(z_s.real, z_s.imag, 1.0)
        worst_disc = max(worst_disc, abs(coeffs.discriminant))
        vertex = parabola_vertex_distance(coeffs)
        worst_vertex = max(worst_vertex, abs(vertex - 1.0 / (4.0 * z_mag)))

    assert worst_beta < 1e-10, f"radical intercept up to {worst_beta:.3e}"
    assert worst_h < 1e-9, f"altitude error up to {worst_h:.3e}"
    assert worst_disc < 1e-12, f"discriminant up to {worst_disc:.3e}"
    assert worst_vertex < 1e-6, f"vertex distance error up to {worst_vertex:.3e}"
    _report(4, f"1000 draws: |beta| <= {worst_beta:.1e}, |h - ||z_s||| <= "
               f"{worst_h:.1e}, |disc| <= {worst_disc:.1e}, vertex err <= "
               f"{worst_vertex:.1e}")


def test_criterion_5_basin_reproduction():
    """200x200 scan over [-2, 2]^2 at the reference two-bus parameters.

    FPI must classify >= 99.9% of nonzero starts as the high-voltage root,
    NR must land on the low root for > 0.5% of starts, and the contraction
    scalar at every FPI solution must be below 1.  Under two minutes.
    """
    sys_ = TwoBusSystem(z_s=1.0 + 0.5j, v0=1.0, s_l=0.18 + 0.11j)
    fpi_map = basin_scan(sys_, method="fpi", resolution=200)
    nr_map = basin_scan(sys_, method="nr", resolution=200)

    high_frac = fpi_map.fraction_nonzero("high")
    low_frac = nr_map.fraction("low")
    assert high_frac >= 0.999, f"FPI high fraction {high_frac:.6f}"
    assert low_frac > 0.005, f"NR low fraction {low_frac:.6f}"

    # FPI solutions all sit at the high root, where the contraction scalar
    # for the equivalent one-node network is ||z_s|| ||s|| / |v|^2
    v_high = closed_form_solutions(sys_)[0]
    k_scan = abs(sys_.z_s) * abs(sys_.s_l) / abs(v_high) ** 2
    model = sys_.to_network()
    k_model = contraction_estimate(model, [v_high], [sys_.s_l])
    assert abs(k_scan - k_model) < 1e-12
    assert k_model < 1.0, f"contraction {k_model:.4f} at the FPI solution"

    res = fpi_solve(model, [sys_.s_l])
    assert res.converged
    assert contraction_estimate(model, res.v, [sys_.s_l]) < 1.0
    _report(5, f"FPI high {high_frac:.4%} of starts, NR low {low_frac:.2%}, "
               f"contraction at solution {k_model:.3f} < 1")


@pytest.fixture(scope="module")
def scaling_records():
    """Timed dense cells plus one sequential-NR cell at (bphi=100, tau=10000)."""
    dense_config = BenchConfig(
        methods=("dense",), sizes=(100,), taus=(100, 1000, 10000),
        repeats=5, warmup=1, seed=77,
    )
    dense_records = run_benchmark(dense_config)
    nr_config = BenchConfig(
        methods=("nr",), sizes=(100,), taus=(10000,),
        repeats=1, warmup=0, seed=77, timeout=600.0,
    )
    nr_records = run_benchmark(nr_config)
    return dense_records, nr_records


def test_criterion_6_scaling_and_speedup(scaling_records):
    """Dense wall time ~ c * tau^k with k in [0.8, 1.3], R^2 > 0.95, and the
    dense batch at tau=10000 beats a sequential NR loop by >= 5x."""
    dense_records, nr_records = scaling_records
    assert all(r.ok for r in dense_records), [r.error for r in dense_records]
    fit = fit_complexity(dense_records, "tau")
    assert 0.8 <= fit.k <= 1.3, f"k = {fit.k:.3f}"
    assert fit.r_squared > 0.95, f"R^2 = {fit.r_squared:.4f}"

    assert nr_records[0].ok, nr_records[0].error
    t_dense = next(r.wall_seconds for r in dense_records if r.tau == 10000)
    t_nr = nr_records[0].wall_seconds
    speedup = t_nr / t_dense
    assert speedup >= 5.0, f"speedup {speedup:.1f}x"
    _report(6, f"k = {fit.k:.3f}, R^2 = {fit.r_squared:.4f}; dense "
               f"{t_dense:.2f}s vs NR loop {t_nr:.1f}s = {speedup:.0f}x")


def test_criterion_7_zero_load_and_zip_limits():
    """s = 0 batches, the alpha_z = 1 linear limit, and mixed zero loads."""
    spec = GenSpec(n_buses=13, seed=99)
    model = build_network(spec)
    b = model.n_demand

    # zero-load batch: no-load voltages in <= 1 iteration on both paths
    zeros = LoadMatrix(np.zeros((b, 4), dtype=complex))
    for solver in (batch_solve_dense, batch_solve_sparse):
        out = solver(model, zeros)
        assert out.converged_mask.all()
        assert out.iterations <= 1, f"{solver.__name__}: {out.iterations}"
        from scipy.sparse.linalg import spsolve

        no_load = spsolve(model.y_dd.tocsc(), -model.source_injection())
        assert np.abs(out.values - no_load[:, None]).max() < 1e-12

    # alpha_z = 1: the fixed-point answer equals the direct linear solve
    zmodel = NetworkModel(
        model.y_dd, model.y_ds, slack=model.slack,
        zip=ZipCoefficients(alpha_z=np.ones(b), alpha_i=np.zeros(b),
                            alpha_p=np.zeros(b)),
        branches=model.branches,
    )
    s = gen_scenarios(model, 1, spec).values[:, 0]
    res = fpi_solve(zmodel, s)
    from scipy.sparse import diags
    from scipy.sparse.linalg import spsolve

    # the linear oracle from the model: (diag(s*) + Y_dd) v = -Y_ds v_s
    B = diags(np.conj(s)) + zmodel.y_dd
    direct = spsolve(B.tocsc(), -zmodel.source_injection())
    assert res.converged
    assert np.abs(res.v - direct).max() < 1e-12

    # mixed batches with zero-load nodes: dense and sparse stay together
    vals = gen_scenarios(model, 40, spec).values.copy()
    vals[1, :] = 0.0
    vals[5, ::3] = 0.0
    mixed = LoadMatrix(vals)
    dense_out = batch_solve_dense(model, mixed)
    sparse_out = batch_solve_sparse(model, mixed)
    assert dense_out.converged_mask.all() and sparse_out.converged_mask.all()
    dev = float(np.abs(dense_out.values - sparse_out.values).max())
    assert dev < 1e-10, f"mixed-batch deviation {dev:.3e}"
    _report(7, "zero-load batches converge in <= 1 iteration; alpha_z = 1 "
               "equals the linear solve < 1e-12; mixed batches agree < 1e-10")
