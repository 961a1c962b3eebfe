import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from tpflow.fpi import (
    SingularSystemError,
    SolveOptions,
    contraction_estimate,
    fixed_point,
    fpi_solve,
    power_residual,
    residual_per_case,
)
from tpflow.network import NetworkModel, ZipCoefficients
from tpflow.newton import nr_solve

from conftest import (
    feasible_batch, phase_coupled_model, two_bus_model, two_bus_roots_oracle,
)

# frozen two-bus roots for z_s=0.1, v0=1, s=0.1: (1 +/- sqrt(0.96)) / 2
V_HIGH = (1 + np.sqrt(0.96)) / 2  # 0.98989794855663564
V_LOW = (1 - np.sqrt(0.96)) / 2


class TestAssemble:
    def test_two_bus_f_and_w(self):
        # hand algebra: B = 1/z_s, Y_ds v_s = -v0/z_s, so F = [-z_s s*] and
        # w = [v0]; one step from the flat start v0 = 1 lands at F / v0* + w
        model = two_bus_model(0.1 + 0j)
        one_step = SolveOptions(max_iterations=1)
        w = fpi_solve(model, [0j], one_step).v[0]
        assert w == pytest.approx(1.0 + 0j, abs=1e-15)
        for s in (0.1 + 0j, 0.3 - 0.2j, 1.5 + 0.9j):
            v1 = fpi_solve(model, [s], one_step).v[0]
            assert v1 - w == pytest.approx(-0.1 * np.conj(s), abs=1e-15)

    def test_zero_load_gives_no_load_voltage(self, nine_bus_model):
        b = nine_bus_model.n_demand
        # F = 0, so one step from any start lands at w
        start = 0.9 + 0.1j * np.arange(b)
        res = fpi_solve(nine_bus_model, np.zeros(b),
                        SolveOptions(max_iterations=1, initial_voltage=start))
        # independent no-load voltage: solve Y_dd v = -Y_ds v_s directly
        y_dd = nine_bus_model.y_dd
        rhs = -nine_bus_model.source_injection()
        expected = spsolve(y_dd.tocsc(), rhs)
        assert res.converged
        assert np.abs(res.v - expected).max() < 1e-12

    def test_constant_impedance_is_linear(self, nine_bus_model):
        b = nine_bus_model.n_demand
        model = NetworkModel(
            nine_bus_model.y_dd, nine_bus_model.y_ds,
            slack=nine_bus_model.slack,
            zip=ZipCoefficients(
                alpha_z=np.ones(b), alpha_i=np.zeros(b), alpha_p=np.zeros(b)
            ),
            branches=nine_bus_model.branches,
        )
        s = feasible_batch(nine_bus_model, 1, seed=3).values[:, 0]
        res = fpi_solve(model, s)
        assert res.converged and res.iterations == 1
        # F = 0: the answer does not depend on the start
        again = fpi_solve(model, s, SolveOptions(initial_voltage=2.0 * res.v))
        assert np.array_equal(again.v, res.v)

    def test_singular_b_reports_degenerate_nodes(self):
        model = NetworkModel(
            y_dd=[[10.0, 0.0], [0.0, 0.0]], y_ds=[[-10.0], [0.0]]
        )
        with pytest.raises(SingularSystemError, match=r"rows \[1\]"):
            fpi_solve(model, [0.1, 0.1])

    def test_length_mismatch(self, nine_bus_model):
        with pytest.raises(ValueError, match="expected 8"):
            fpi_solve(nine_bus_model, [0.1])
        with pytest.raises(ValueError, match="expected 8"):
            contraction_estimate(nine_bus_model, [1.0], [0.1])

    # rejected at the boundary, as LoadMatrix rejects one in a batch, before
    # numpy warns on it
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(0.1, -np.inf)])
    @pytest.mark.parametrize("solve", [
        fpi_solve, nr_solve,
        lambda model, s: contraction_estimate(model, np.ones(s.size), s),
    ], ids=["fpi_solve", "nr_solve", "contraction_estimate"])
    def test_non_finite_load_rejected(self, nine_bus_model, solve, bad):
        s = feasible_batch(nine_bus_model, 1, seed=3).values[:, 0]
        s[3] = bad
        with pytest.raises(ValueError, match=r"non-finite load .* at node 3$"):
            solve(nine_bus_model, s)


class TestSolve:
    def test_two_bus_high_root(self):
        model = two_bus_model(0.1 + 0j)
        res = fpi_solve(model, [0.1 + 0j])
        assert res.converged
        assert res.v[0] == pytest.approx(V_HIGH, abs=1e-12)

    def test_zero_load_one_iteration(self, nine_bus_model):
        res = fpi_solve(nine_bus_model, np.zeros(nine_bus_model.n_demand))
        assert res.converged and res.iterations == 1
        expected = spsolve(
            nine_bus_model.y_dd.tocsc(),
            -nine_bus_model.source_injection(),
        )
        assert np.abs(res.v - expected).max() < 1e-12

    def test_reference_parameters_hit_closed_form(self):
        z_s, s = 1.0 + 0.5j, 0.18 + 0.11j
        model = two_bus_model(z_s)
        res = fpi_solve(model, [s])
        assert res.converged
        roots = two_bus_roots_oracle(z_s, 1.0, s)
        assert abs(res.v[0] - roots[0]) < 1e-9

    def test_nonconvergence_is_data_not_exception(self):
        model = two_bus_model(0.1 + 0j)
        res = fpi_solve(model, [0.1], SolveOptions(max_iterations=1, tolerance=1e-14))
        assert not res.converged
        assert res.iterations == 1

    def test_nan_start_flags_divergence(self):
        model = two_bus_model(0.1 + 0j)
        res = fpi_solve(
            model, [0.1],
            SolveOptions(initial_voltage=np.array([np.nan + 0j])),
        )
        assert not res.converged
        assert "diverged" in (res.diagnostic or "")

    def test_near_zero_start_survives_guard(self):
        model = two_bus_model(0.1 + 0j)
        res = fpi_solve(
            model, [0.1],
            SolveOptions(initial_voltage=np.array([0.0 + 0j])),
        )
        assert res.converged
        assert res.v[0] == pytest.approx(V_HIGH, abs=1e-9)
        assert "zero-voltage guard" in (res.diagnostic or "")

    def test_options_validated(self):
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="tolerance must be positive"):
                SolveOptions(tolerance=bad)
            with pytest.raises(ValueError, match="residual_tolerance must be positive"):
                SolveOptions(residual_tolerance=bad)
        with pytest.raises(ValueError):
            SolveOptions(max_iterations=0)
        # an infinite tolerance is a valid "accept the first step"
        SolveOptions(tolerance=np.inf, residual_tolerance=np.inf)


class TestFixedPoint:
    def test_columns_recorded_and_nan_column_does_not_hold_run_open(self):
        # two-bus map v <- z_s (a / v* + c) = v0 - z_s s* / v*, with
        # Z_B = z_s, a = -s* and c = v0 / z_s, both shared by the three starts
        z_s, s, tol = 0.1, 0.1 + 0j, 1e-10
        expected, v = 0, 1.0 + 0j
        while True:
            expected += 1
            v_next = z_s * (-np.conj(s) / np.conj(v) + 1.0 / z_s)
            if abs(v_next - v) < tol:
                break
            v = v_next
        starts = np.array([[V_HIGH, 1.0, np.nan]], dtype=complex)
        run = fixed_point(lambda u: z_s * u, np.array([[-np.conj(s)]]),
                          np.array([[1.0 / z_s + 0j]]), starts, tol, 100)
        assert expected > 1
        assert list(run.first_converged) == [1, expected, 0]
        assert list(run.non_finite) == [False, False, True]
        assert run.iterations == expected < 100
        assert abs(run.v[0, 1] - V_HIGH) < 1e-12
        assert run.v[0, 1] == v_next
        # the run returns its own array and leaves the start as it was
        assert np.isnan(starts[0, 2]) and starts[0, 1] == 1.0

    def test_recorded_columns_leave_the_working_arrays(self):
        # two-bus map with a per-column a: a start at the high root (recorded
        # at step 1), a flat start (several steps) and a load with z_s s > 1/4,
        # which has no root, so its column runs to the cap
        z_s, tol, cap = 0.1, 1e-10, 100
        a = np.array([[-0.1, -0.1, -3.0]], dtype=complex)
        c = np.array([[1.0 / z_s + 0j]])
        starts = np.array([[V_HIGH, 1.0, 1.0]], dtype=complex)
        widths = []

        def apply_z(u):
            widths.append(u.shape[1])
            return z_s * u

        run = fixed_point(apply_z, a, c, starts, tol, cap)
        assert run.iterations == cap == len(widths)
        assert run.first_converged[0] == 1 < run.first_converged[1]
        assert run.first_converged[2] == 0 and not run.non_finite.any()
        assert widths[0] == 3 and widths[-1] == 1
        assert all(x >= y for x, y in zip(widths, widths[1:]))
        assert widths.index(1) == run.first_converged[1] < cap
        for j in (0, 1):
            alone = fixed_point(lambda u: z_s * u, a[:, j:j + 1], c,
                                starts[:, j:j + 1], tol, cap)
            assert alone.iterations == run.first_converged[j]
            assert np.array_equal(run.v[:, j], alone.v[:, 0])

    def test_shared_inputs_broadcast_against_per_column_ones(self):
        # each of a, c and the start may be the one per-column term: every
        # column equals its own run with all three given per column
        z_s, tol, cap = 0.1, 1e-10, 100
        a = np.array([[-0.1, -0.2, -0.05]], dtype=complex)
        c = np.array([[10.0, 9.0, 11.0]], dtype=complex)
        starts = np.array([[1.0, 0.9, 1.1]], dtype=complex)
        per_column = (a, c, starts)
        for k in range(3):
            terms = [t[:, :1] for t in per_column]
            terms[k] = per_column[k]
            run = fixed_point(lambda u: z_s * u, *terms, tol, cap)
            assert run.v.shape == (1, 3)
            for j in range(3):
                alone = fixed_point(lambda u: z_s * u, *terms[:k],
                                    terms[k][:, j:j + 1], *terms[k + 1:],
                                    tol, cap)
                assert alone.iterations == run.first_converged[j] > 0
                assert run.v[0, j] == alone.v[0, 0]


class TestResidual:
    def test_exact_solution_residual_tiny(self):
        model = two_bus_model(0.1 + 0j)
        assert power_residual(model, [V_HIGH + 0j], [0.1 + 0j]) < 1e-12
        # the low root satisfies the balance equation just as well
        assert power_residual(model, [V_LOW + 0j], [0.1 + 0j]) < 1e-12

    def test_flat_start_residual_equals_load(self, nine_bus_model):
        # no current flows at a flat start in a shunt-free network, so the
        # mismatch is exactly the demanded power
        s = feasible_batch(nine_bus_model, 1, seed=1).values[:, 0]
        flat = np.ones(nine_bus_model.n_demand, dtype=complex)
        assert power_residual(nine_bus_model, flat, s) == pytest.approx(
            np.abs(s).max(), rel=1e-12
        )

    def test_batch_residual_matches_single_case_for_zip_loads(self, nine_bus_model):
        # one ZIP law serves both shapes: each column of a b x tau residual
        # equals the residual of that case alone
        b = nine_bus_model.n_demand
        rng = np.random.default_rng(4)
        mix = rng.dirichlet(np.ones(3), size=b).T
        model = NetworkModel(
            nine_bus_model.y_dd, nine_bus_model.y_ds,
            zip=ZipCoefficients(alpha_z=mix[0], alpha_i=mix[1], alpha_p=mix[2]),
        )
        loads = feasible_batch(nine_bus_model, 5, seed=5).values
        v = 1.0 + 0.01 * (rng.standard_normal(loads.shape)
                          + 1j * rng.standard_normal(loads.shape))
        batch = residual_per_case(model, v, loads)
        single = [power_residual(model, v[:, j], loads[:, j]) for j in range(5)]
        assert np.array_equal(batch, single)

    def test_converged_runs_pass_post_check(self, nine_bus_model):
        loads = feasible_batch(nine_bus_model, 20, seed=2)
        for j in range(loads.tau):
            res = fpi_solve(nine_bus_model, loads.values[:, j])
            assert res.converged
            assert res.residual < 1e-8


class TestContraction:
    def test_high_root_contracts(self):
        model = two_bus_model(0.1 + 0j)
        k = contraction_estimate(model, [V_HIGH + 0j], [0.1 + 0j])
        # z_l = |v|^2 / s = 9.7989794855663...; k = 0.1 / z_l
        assert k == pytest.approx(0.1 / (V_HIGH**2 / 0.1), rel=1e-12)
        assert k == pytest.approx(0.010205144336438, abs=1e-12)
        assert k < 1

    def test_low_root_expands(self):
        model = two_bus_model(0.1 + 0j)
        k = contraction_estimate(model, [V_LOW + 0j], [0.1 + 0j])
        assert k == pytest.approx(0.1 / (V_LOW**2 / 0.1), rel=1e-12)
        assert k > 1  # ~98: only the high-impedance point is a contraction

    def test_zero_load_contraction_zero(self, nine_bus_model):
        v = np.ones(nine_bus_model.n_demand, dtype=complex)
        assert contraction_estimate(nine_bus_model, v, np.zeros(8)) == 0.0


class TestMatrixSuppliedModels:
    def test_matrix_route_matches_branch_route(self, nine_bus_model):
        from tpflow.newton import nr_solve

        direct = NetworkModel(
            nine_bus_model.y_dd,
            nine_bus_model.y_ds,
            slack=nine_bus_model.slack,
        )
        s = feasible_batch(nine_bus_model, 1, seed=17).values[:, 0]
        via_branches = fpi_solve(nine_bus_model, s)
        via_matrix = fpi_solve(direct, s)
        assert np.array_equal(via_branches.v, via_matrix.v)
        nr = nr_solve(direct, s)
        assert nr.converged
        assert np.abs(nr.v - via_matrix.v).max() < 1e-8
        # the batch paths accept matrix-supplied models just the same
        from tpflow.dense import LoadMatrix, batch_solve_dense
        from tpflow.sparse import batch_solve_sparse

        for solver in (batch_solve_dense, batch_solve_sparse):
            out = solver(direct, LoadMatrix(s[:, None]))
            assert out.converged_mask.all()
            assert np.abs(out.values[:, 0] - via_matrix.v).max() < 1e-10

    def test_phase_coupled_asymmetric_blocks(self):
        # bus-phase systems enter as raw matrices; nothing assumes symmetry
        from tpflow.newton import nr_solve

        rng = np.random.default_rng(18)
        n = 6
        model = phase_coupled_model(rng, n)
        s = 0.01 * (rng.uniform(0.5, 1, n) + 0.3j * rng.uniform(0, 1, n))
        r_fp = fpi_solve(model, s)
        r_nr = nr_solve(model, s)
        assert r_fp.converged and r_nr.converged
        assert np.abs(r_fp.v - r_nr.v).max() < 1e-8

    def test_off_nominal_slack_magnitude(self):
        z_s, v0, s = 0.08 + 0.02j, 1.05, 0.12 + 0.03j
        model = two_bus_model(z_s, v0=v0)
        res = fpi_solve(model, [s])
        assert res.converged
        roots = two_bus_roots_oracle(z_s, v0, s)
        assert abs(res.v[0] - roots[0]) < 1e-10


class TestInvariants:
    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_converged_solutions_are_contractions(self, nine_bus_model, seed):
        loads = feasible_batch(nine_bus_model, 10, seed=seed)
        for j in range(loads.tau):
            s = loads.values[:, j]
            res = fpi_solve(nine_bus_model, s)
            assert res.converged
            assert contraction_estimate(nine_bus_model, res.v, s) < 1

    def test_late_stage_l1_steps_non_increasing(self):
        # heavier loading so several iterations happen before convergence;
        # with one demand node the max-norm step is the 1-norm step
        model = two_bus_model(1.0 + 0.5j)
        res = fpi_solve(model, [0.18 + 0.11j])
        assert res.converged and len(res.step_inf) >= 6
        tail = res.step_inf[-5:]
        assert np.all(np.diff(tail) <= 1e-15)

    def test_fixed_point_stable_under_reapplication(self, nine_bus_model):
        s = feasible_batch(nine_bus_model, 1, seed=6).values[:, 0]
        opts = SolveOptions()
        res = fpi_solve(nine_bus_model, s, opts)
        again = fpi_solve(
            nine_bus_model, s,
            SolveOptions(max_iterations=1, initial_voltage=res.v),
        )
        assert np.abs(again.v - res.v).max() < opts.tolerance

    def test_constant_impedance_limit_matches_linear_solve(self, nine_bus_model):
        b = nine_bus_model.n_demand
        model = NetworkModel(
            nine_bus_model.y_dd, nine_bus_model.y_ds,
            slack=nine_bus_model.slack,
            zip=ZipCoefficients(
                alpha_z=np.ones(b), alpha_i=np.zeros(b), alpha_p=np.zeros(b)
            ),
            branches=nine_bus_model.branches,
        )
        s = feasible_batch(nine_bus_model, 1, seed=8).values[:, 0]
        res = fpi_solve(model, s)
        # alpha_z = 1: (diag(s*) + Y_dd) v = -Y_ds v_s
        B = sparse.diags(np.conj(s)) + model.y_dd
        direct = spsolve(B.tocsc(), -model.source_injection())
        assert np.abs(res.v - direct).max() < 1e-12
