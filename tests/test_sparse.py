import numpy as np
import pytest
from scipy import sparse as sp

from tpflow.dense import LoadMatrix, batch_solve_dense
from tpflow.fpi import SingularSystemError, SolveOptions
from tpflow.sparse import batch_solve_sparse, factorization_count, factorize

from conftest import feasible_batch, two_bus_model

V_HIGH = (1 + np.sqrt(0.96)) / 2


class TestFactorize:
    def test_identity_solve(self):
        lu = factorize(sp.eye(5, format="csc"))
        b = np.arange(5, dtype=complex)
        assert np.array_equal(lu.solve(b), b)

    def test_diagonal_solve(self):
        lu = factorize(sp.csc_matrix(np.array([[2.0, 0.0], [0.0, 4.0]])))
        assert lu.solve(np.array([2.0 + 0j, 4.0])) == pytest.approx([1.0, 1.0])

    def test_random_diagonally_dominant_residual(self):
        rng = np.random.default_rng(36)
        n = 100
        dense = sp.random(n, n, density=0.05, random_state=36).toarray()
        dense = dense + 1j * sp.random(n, n, density=0.05, random_state=37).toarray()
        dense += np.diag(np.abs(dense).sum(axis=1) + 1.0)
        m = sp.csc_matrix(dense)
        lu = factorize(m)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = lu.solve(b)
        assert np.abs(m @ x - b).max() / np.abs(b).max() < 1e-10

    def test_singular_names_location(self):
        m = sp.csc_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(SingularSystemError, match=r"rows \[1\]"):
            factorize(m)

    def test_counter_increments(self):
        before = factorization_count()
        factorize(sp.eye(3, format="csc"))
        assert factorization_count() == before + 1


class TestBatchSolve:
    def test_matches_dense_path(self, nine_bus_model):
        loads = feasible_batch(nine_bus_model, 50, seed=38)
        dense_out = batch_solve_dense(nine_bus_model, loads)
        sparse_out = batch_solve_sparse(nine_bus_model, loads)
        assert np.abs(dense_out.values - sparse_out.values).max() < 1e-10
        assert dense_out.iterations == sparse_out.iterations
        assert np.array_equal(dense_out.converged_mask, sparse_out.converged_mask)

    def test_two_bus_reference(self):
        out = batch_solve_sparse(two_bus_model(0.1 + 0j), LoadMatrix([[0.1 + 0j]]))
        assert out.values[0, 0] == pytest.approx(V_HIGH, abs=1e-12)

    def test_zero_load_rows_match_dense(self, nine_bus_model):
        vals = feasible_batch(nine_bus_model, 12, seed=39).values.copy()
        vals[0, :] = 0.0
        vals[4, 6] = 0.0
        loads = LoadMatrix(vals)
        dense_out = batch_solve_dense(nine_bus_model, loads)
        sparse_out = batch_solve_sparse(nine_bus_model, loads)
        assert dense_out.converged_mask.all() and sparse_out.converged_mask.all()
        assert np.abs(dense_out.values - sparse_out.values).max() < 1e-10

    def test_exactly_one_factorization_per_batch(self, nine_bus_model):
        loads = feasible_batch(nine_bus_model, 25, seed=40)
        before = factorization_count()
        batch_solve_sparse(nine_bus_model, loads)
        assert factorization_count() == before + 1

    def test_iterate_sequences_match_dense(self, nine_bus_model):
        # per-iteration voltage iterates of the two formulations agree within
        # accumulated floating error
        loads = feasible_batch(nine_bus_model, 8, seed=41)
        for cap in (1, 2, 3, 5, 8):
            opts = SolveOptions(tolerance=1e-16, max_iterations=cap,
                                residual_tolerance=np.inf)
            a = batch_solve_dense(nine_bus_model, loads, opts)
            b = batch_solve_sparse(nine_bus_model, loads, opts)
            assert a.iterations == b.iterations == cap
            assert np.abs(a.values - b.values).max() < 1e-9

    def test_chunking_over_cases_preserves_results(self, nine_bus_model):
        loads = feasible_batch(nine_bus_model, 30, seed=42)
        whole = batch_solve_sparse(nine_bus_model, loads)
        parts = [
            batch_solve_sparse(nine_bus_model, LoadMatrix(loads.values[:, :13])),
            batch_solve_sparse(nine_bus_model, LoadMatrix(loads.values[:, 13:])),
        ]
        stitched = np.hstack([p.values for p in parts])
        assert np.abs(whole.values - stitched).max() < 1e-10

    def test_infeasible_column_flagged(self):
        model = two_bus_model(1.0 + 0.5j)
        cols = np.array([[0.05 + 0.02j, 3.0 + 2.0j, 0.18 + 0.11j]])
        out = batch_solve_sparse(model, LoadMatrix(cols))
        assert list(out.converged_mask) == [True, False, True]
