import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import spsolve

from tpflow import dense
from tpflow.dense import (
    LoadMatrix,
    PowerTensor,
    VoltageBatch,
    batch_solve_dense,
    reshape_tensor,
    unreshape,
)
from tpflow.fpi import SolveOptions, factorization_count, fpi_solve
from tpflow.network import NetworkModel, ZipCoefficients
from tpflow.newton import nr_solve
from tpflow.sparse import batch_solve_sparse
from tpflow.synth import GenSpec, build_network, gen_scenarios

from conftest import feasible_batch, two_bus_model

V_HIGH = (1 + np.sqrt(0.96)) / 2


def with_zip(model, alpha_z, alpha_i, alpha_p):
    """``model`` with the same (alpha_z, alpha_i, alpha_p) at every node."""
    b = model.n_demand
    return NetworkModel(
        admittance=model.admittance,
        slack=model.slack,
        zip=ZipCoefficients(
            alpha_z=np.full(b, alpha_z), alpha_i=np.full(b, alpha_i),
            alpha_p=np.full(b, alpha_p),
        ),
        branches=model.branches,
    )


class TestReshape:
    def test_fig4_layout(self):
        # dims (2, 2, 3), 3 nodes -> 3 x 12; case (i, j, k) lands in column
        # i*6 + j*3 + k, in row-major case order
        rng = np.random.default_rng(0)
        tensor = PowerTensor(rng.standard_normal((2, 2, 3, 3)) * (1 + 1j))
        loads = reshape_tensor(tensor)
        assert loads.values.shape == (3, 12)
        assert loads.tau == 12
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    col = i * 6 + j * 3 + k
                    assert np.array_equal(
                        loads.values[:, col], tensor.values[i, j, k, :]
                    )

    def test_single_case_single_column(self):
        vec = np.array([0.1 + 0.05j, 0.2 - 0.01j])
        loads = reshape_tensor(PowerTensor(vec[None, :]))
        assert loads.values.shape == (2, 1)
        assert np.array_equal(loads.values[:, 0], vec)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(1)
        tensor = PowerTensor(
            rng.standard_normal((4, 2, 5, 6)) + 1j * rng.standard_normal((4, 2, 5, 6))
        )
        back = unreshape(reshape_tensor(tensor))
        assert np.array_equal(back.values, tensor.values)
        assert back.dims == tensor.dims


class TestLoadMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.1, np.nan)])
    def test_non_finite_load_named(self, bad):
        vals = np.full((4, 9), 0.1 + 0.05j)
        vals[3, 5] = bad
        vals[1, 7] = np.inf
        with pytest.raises(ValueError, match="non-finite load .* at node 3, case 5"):
            LoadMatrix(vals)

    def test_dims_must_match_case_count(self):
        with pytest.raises(ValueError, match=r"dims \(3, 3\) describe 9 cases, .* has 5"):
            LoadMatrix(np.ones((2, 5)), dims=(3, 3))
        with pytest.raises(ValueError, match=r"dims \(2, 0\) describe 0 cases, .* has 6"):
            LoadMatrix(np.ones((2, 6)), dims=(2, 0))
        assert LoadMatrix(np.ones((2, 6)), dims=(2, 3)).dims == (2, 3)

    @pytest.mark.parametrize("solver", [batch_solve_dense, batch_solve_sparse])
    def test_empty_batch_rejected_for_both_paths(self, nine_bus_model, solver):
        with pytest.raises(ValueError, match="no cases"):
            solver(nine_bus_model,
                   LoadMatrix(np.zeros((nine_bus_model.n_demand, 0), dtype=complex)))


class TestBatchSolve:
    def test_replicated_case_gives_identical_columns(self, nine_bus_model):
        s = feasible_batch(nine_bus_model, 1, seed=20).values
        loads = LoadMatrix(np.repeat(s, 7, axis=1))
        out = batch_solve_dense(nine_bus_model, loads)
        assert out.converged_mask.all()
        for j in range(1, 7):
            assert np.array_equal(out.values[:, j], out.values[:, 0])

    def test_matches_per_case_solver(self, nine_bus_model):
        loads = feasible_batch(nine_bus_model, 500, seed=21)
        out = batch_solve_dense(nine_bus_model, loads)
        assert out.converged_mask.all()
        worst = 0.0
        for j in range(loads.tau):
            single = fpi_solve(nine_bus_model, loads.values[:, j])
            worst = max(worst, float(np.abs(out.values[:, j] - single.v).max()))
        assert worst < 1e-10

    def test_batch_iterations_is_max_of_single(self, nine_bus_model):
        loads = feasible_batch(nine_bus_model, 40, seed=22)
        out = batch_solve_dense(nine_bus_model, loads)
        singles = [
            fpi_solve(nine_bus_model, loads.values[:, j]).iterations
            for j in range(loads.tau)
        ]
        assert out.iterations == max(singles)

    def test_infeasible_column_flagged_others_converge(self):
        model = two_bus_model(1.0 + 0.5j)
        # middle column far beyond the norm-condition bound 0.2236
        cols = np.array([[0.05 + 0.02j, 3.0 + 2.0j, 0.18 + 0.11j]])
        out = batch_solve_dense(model, LoadMatrix(cols), SolveOptions())
        assert list(out.converged_mask) == [True, False, True]
        assert out.residuals[0] < 1e-8 and out.residuals[2] < 1e-8

    def test_permutation_equivariance(self, nine_bus_model):
        loads = feasible_batch(nine_bus_model, 31, seed=23)
        perm = np.random.default_rng(3).permutation(31)
        out = batch_solve_dense(nine_bus_model, loads)
        out_p = batch_solve_dense(nine_bus_model, LoadMatrix(loads.values[:, perm]))
        assert np.array_equal(out_p.values, out.values[:, perm])

    def test_two_bus_reference(self):
        out = batch_solve_dense(two_bus_model(0.1 + 0j), LoadMatrix([[0.1 + 0j]]))
        assert out.values[0, 0] == pytest.approx(V_HIGH, abs=1e-12)

    def test_row_count_mismatch_rejected(self, nine_bus_model):
        with pytest.raises(ValueError, match="rows"):
            batch_solve_dense(nine_bus_model, LoadMatrix([[0.1 + 0j]]))

    @pytest.mark.parametrize("solver", [batch_solve_dense, batch_solve_sparse])
    def test_mixed_zip_routed_per_case(self, nine_bus_model, solver):
        b = nine_bus_model.n_demand
        model = NetworkModel(
            admittance=nine_bus_model.admittance,
            slack=nine_bus_model.slack,
            zip=ZipCoefficients(
                alpha_z=np.full(b, 0.2), alpha_i=np.full(b, 0.1),
                alpha_p=np.full(b, 0.7),
            ),
            branches=nine_bus_model.branches,
        )
        loads = feasible_batch(nine_bus_model, 5, seed=25)
        out = solver(model, loads)
        assert out.converged_mask.all()
        for j in range(loads.tau):
            single = fpi_solve(model, loads.values[:, j])
            assert np.array_equal(out.values[:, j], single.v)

    @pytest.mark.parametrize("solver", [batch_solve_dense, batch_solve_sparse])
    def test_zip_without_impedance_share_runs_as_one_batch(self, nine_bus_model, solver):
        model = with_zip(nine_bus_model, 0.0, 0.3, 0.7)
        loads = feasible_batch(nine_bus_model, 20, seed=27)
        before = factorization_count()
        out = solver(model, loads)
        # one Z_B for the batch: the sparse path's single LU, no per-case LUs
        assert factorization_count() - before == (solver is batch_solve_sparse)
        assert out.converged_mask.all()
        singles = []
        for j in range(loads.tau):
            single = fpi_solve(model, loads.values[:, j])
            newton = nr_solve(model, loads.values[:, j])
            assert np.abs(out.values[:, j] - single.v).max() < 1e-10
            if solver is batch_solve_sparse:
                # the same LU and the same chunk solve: equal to the bit
                column = np.ascontiguousarray(out.values[:, j])
                assert np.array_equal(column.view(np.uint64),
                                      single.v.view(np.uint64))
            assert np.abs(out.values[:, j] - newton.v).max() < 1e-8
            singles.append(single.iterations)
        assert out.iterations == max(singles)

    @pytest.mark.parametrize("solver", [batch_solve_dense, batch_solve_sparse])
    def test_constant_current_batch_is_one_linear_solve(self, nine_bus_model, solver):
        model = with_zip(nine_bus_model, 0.0, 1.0, 0.0)
        loads = feasible_batch(nine_bus_model, 12, seed=28)
        out = solver(model, loads)
        assert out.converged_mask.all() and out.iterations == 1
        # Y_dd v = -(Y_ds v_s + s*): the current injection does not depend on v
        rhs = -(model.source_injection()[:, None] + np.conj(loads.values))
        direct = spsolve(model.admittance.y_dd, rhs)
        assert np.abs(out.values - direct).max() < 1e-12

    @pytest.mark.parametrize("solver", [batch_solve_dense, batch_solve_sparse])
    def test_start_at_solved_voltage_takes_one_iteration(self, nine_bus_model, solver):
        s = feasible_batch(nine_bus_model, 1, seed=26).values
        solved = fpi_solve(nine_bus_model, s[:, 0]).v
        loads = LoadMatrix(np.repeat(s, 3, axis=1))
        assert solver(nine_bus_model, loads).iterations > 1
        out = solver(nine_bus_model, loads, SolveOptions(initial_voltage=solved))
        assert out.converged_mask.all() and out.iterations == 1
        with pytest.raises(ValueError, match="initial voltage length"):
            solver(nine_bus_model, loads, SolveOptions(initial_voltage=solved[:3]))

    def test_zero_load_batch_single_iteration(self, nine_bus_model):
        loads = LoadMatrix(np.zeros((nine_bus_model.n_demand, 6), dtype=complex))
        out = batch_solve_dense(nine_bus_model, loads)
        assert out.converged_mask.all()
        assert out.iterations <= 1


class TestChunks:
    @staticmethod
    def _batch_with_stalled_column(model):
        loads = feasible_batch(model, 40, seed=29).values.copy()
        loads[:, 13] *= 100.0
        return LoadMatrix(loads)

    def test_chunked_matches_single_chunk(self, nine_bus_model, monkeypatch):
        loads = self._batch_with_stalled_column(nine_bus_model)
        whole = {}
        for solver in (batch_solve_dense, batch_solve_sparse):
            monkeypatch.setattr(dense, "_CHUNK_BYTES", 1 << 40)
            whole[solver] = solver(nine_bus_model, loads)
        # 7 columns per chunk: six chunks, the stalled column in the second
        monkeypatch.setattr(dense, "_CHUNK_BYTES", 16 * nine_bus_model.n_demand * 7)
        chunked = {s: s(nine_bus_model, loads) for s in whole}
        for solver, out in chunked.items():
            ref = whole[solver]
            assert not out.converged_mask[13] and out.converged_mask.sum() == 39
            assert np.array_equal(out.converged_mask, ref.converged_mask)
            assert out.iterations == ref.iterations
            ok = out.converged_mask
            assert np.abs(out.values[:, ok] - ref.values[:, ok]).max() < 1e-10
            assert out.values.flags.c_contiguous
        dense_out, sparse_out = chunked.values()
        assert dense_out.iterations == sparse_out.iterations
        assert np.array_equal(dense_out.converged_mask, sparse_out.converged_mask)

    @pytest.mark.parametrize("solver", [batch_solve_dense, batch_solve_sparse])
    def test_stalled_column_with_per_case_w(self, nine_bus_model, solver):
        # a constant-current share gives every column its own w, which the
        # kernel gathers as the other columns leave around the stalled one
        model = with_zip(nine_bus_model, 0.0, 0.3, 0.7)
        loads = self._batch_with_stalled_column(nine_bus_model)
        out = solver(model, loads)
        assert out.iterations == SolveOptions().max_iterations
        assert not out.converged_mask[13] and out.converged_mask.sum() == 39
        for j in np.flatnonzero(out.converged_mask):
            ref = fpi_solve(model, loads.values[:, j])
            assert np.abs(out.values[:, j] - ref.v).max() < 1e-12

    @settings(max_examples=25)
    @given(
        n_buses=st.integers(10, 50),
        seed=st.integers(0, 2**16),
        alpha_i=st.floats(0.0, 1.0, exclude_max=True),
        tau=st.integers(1, 40),
        data=st.data(),
    )
    def test_sparse_batch_is_per_case_solve(self, n_buses, seed, alpha_i, tau, data):
        # one LU and one chunk solve serve both paths, so each column of a
        # chunked sparse batch is the single-case answer to the bit
        spec = GenSpec(n_buses=n_buses, seed=seed)
        model = with_zip(build_network(spec), 0.0, alpha_i, 1.0 - alpha_i)
        loads = gen_scenarios(model, tau, spec).values.copy()
        # a column overloaded x100 has no root and runs to the cap
        stalled = data.draw(st.none() | st.integers(0, tau - 1), label="stalled")
        if stalled is not None:
            loads[:, stalled] *= 100.0
        width = data.draw(st.integers(1, tau), label="chunk columns")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dense, "_CHUNK_BYTES", 16 * model.n_demand * width)
            out = batch_solve_sparse(model, LoadMatrix(loads))
        singles = [fpi_solve(model, loads[:, j]) for j in range(tau)]
        v = np.stack([r.v for r in singles], axis=1)
        assert np.array_equal(out.values.view(np.uint64), v.view(np.uint64))
        assert out.converged_mask.tolist() == [r.converged for r in singles]
        assert out.iterations == max(r.iterations for r in singles)

    @pytest.mark.parametrize("solver", [batch_solve_dense, batch_solve_sparse])
    def test_scratch_memory_does_not_grow_with_tau(self, nine_bus_model, solver):
        loads = feasible_batch(nine_bus_model, 40_000, seed=30)
        scratch = []
        for tau in (8_000, 40_000):
            part = LoadMatrix(np.ascontiguousarray(loads.values[:, :tau]))
            tracemalloc.start()
            try:
                out = solver(nine_bus_model, part)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.converged_mask.all()
            kept = out.values.nbytes + out.converged_mask.nbytes + out.residuals.nbytes
            scratch.append(peak - kept)
        assert scratch[1] < 1.25 * scratch[0], scratch


def test_voltage_batch_accessors():
    vals = np.array([[0.5 + 0.5j, 1.0 + 0j]])
    batch = VoltageBatch(
        values=vals, iterations=3,
        converged_mask=np.array([True, True]), residuals=np.zeros(2),
    )
    assert batch.tau == 2
    assert np.abs(batch.values)[0, 0] == pytest.approx(np.sqrt(0.5))
    assert np.angle(batch.values)[0, 0] == pytest.approx(np.pi / 4)
