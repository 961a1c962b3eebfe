import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import spsolve

from tpflow import dense
from tpflow.dense import LoadMatrix, VoltageBatch, batch_solve_dense
from tpflow.fpi import (
    SolveOptions, factorize, fixed_point, fpi_solve,
)
from tpflow.network import Branch, NetworkModel, ZipCoefficients
from tpflow.newton import nr_solve
from tpflow.sparse import batch_solve_sparse
from tpflow.synth import GenSpec, gen_kary_tree, gen_scenarios

from conftest import feasible_batch, phase_coupled_model, two_bus_model

V_HIGH = (1 + np.sqrt(0.96)) / 2


def with_zip(model, alpha_z, alpha_i, alpha_p):
    """``model`` with the same (alpha_z, alpha_i, alpha_p) at every node."""
    b = model.n_demand
    return NetworkModel(
        model.y_dd, model.y_ds,
        slack=model.slack,
        zip=ZipCoefficients(
            alpha_z=np.full(b, alpha_z), alpha_i=np.full(b, alpha_i),
            alpha_p=np.full(b, alpha_p),
        ),
        branches=model.branches,
    )


def drawn_feeder(topology, n_buses, seed):
    """A model of ``n_buses`` buses and the spec its loads are drawn from.

    ``"radial"`` is the ``GenSpec`` tree; ``"meshed"`` closes one to five
    loops in it between seeded bus pairs; ``"phase-coupled"`` is conftest's
    asymmetric, fully coupled ``y_dd``.  Neither of the last two is a tree,
    so their load scaling reads the Thevenin impedance off an LU too.
    """
    spec = GenSpec(n_buses=n_buses, seed=seed)
    rng = np.random.default_rng(seed)
    if topology == "phase-coupled":
        return phase_coupled_model(rng, n_buses - 1), spec
    branches = gen_kary_tree(spec)
    if topology == "meshed":
        for _ in range(rng.integers(1, 6)):
            i, j = rng.choice(n_buses, size=2, replace=False)
            branches.append(Branch(int(i), int(j), *rng.uniform(0.001, 0.01, 2)))
    return NetworkModel.from_branches(branches, n_buses), spec


TOPOLOGIES = st.sampled_from(["radial", "meshed", "phase-coupled"])


class TestLoadMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.1, np.nan)])
    def test_non_finite_load_named(self, bad):
        vals = np.full((4, 9), 0.1 + 0.05j)
        vals[3, 5] = bad
        vals[1, 7] = np.inf
        with pytest.raises(ValueError, match="non-finite load .* at node 3, case 5"):
            LoadMatrix(vals)

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
            nine_bus_model.y_dd, nine_bus_model.y_ds,
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
    def test_zip_without_impedance_share_runs_as_one_batch(
        self, nine_bus_model, solver, factorizations,
    ):
        model = with_zip(nine_bus_model, 0.0, 0.3, 0.7)
        loads = feasible_batch(nine_bus_model, 20, seed=27)
        out = solver(model, loads)
        # one Z_B for the batch: the sparse path's single LU, no per-case LUs
        assert factorizations.call_count == (solver is batch_solve_sparse)
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
        direct = spsolve(model.y_dd, rhs)
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

    @settings(max_examples=20)
    @given(
        topology=TOPOLOGIES,
        n_buses=st.integers(10, 50),
        seed=st.integers(0, 2**16),
        tau=st.integers(1, 5),
    )
    def test_newton_agrees_with_every_column(self, topology, n_buses, seed, tau):
        model, spec = drawn_feeder(topology, n_buses, seed)
        loads = gen_scenarios(model, tau, spec).values
        out = batch_solve_dense(model, LoadMatrix(loads))
        assert out.converged_mask.all()
        for j in range(tau):
            res = nr_solve(model, loads[:, j])
            assert res.converged
            assert np.abs(res.v - out.values[:, j]).max() < 1e-8

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
        # and 5 columns in the last
        monkeypatch.setattr(dense, "_CHUNK_BYTES", 16 * nine_bus_model.n_demand * 7)
        chunked = {}
        threads = threading.active_count()
        for workers in (1, 2, 3):
            monkeypatch.setattr(dense, "_chunk_workers", lambda chunks: workers)
            for solver in whole:
                out = solver(nine_bus_model, loads)
                assert out.chunk_workers == workers
                assert threading.active_count() == threads
                # each chunk's bits, whichever thread solved it
                ref = chunked.setdefault(solver, out)
                assert np.array_equal(out.values.view(np.uint64),
                                      ref.values.view(np.uint64))
                assert np.array_equal(out.residuals.view(np.uint64),
                                      ref.residuals.view(np.uint64))
                assert np.array_equal(out.converged_mask, ref.converged_mask)
                assert out.iterations == ref.iterations
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
        # a constant-current share gives every column its own c, which the
        # kernel gathers as the other columns leave around the stalled one
        model = with_zip(nine_bus_model, 0.0, 0.3, 0.7)
        loads = self._batch_with_stalled_column(nine_bus_model)
        out = solver(model, loads)
        assert out.iterations == SolveOptions().max_iterations
        assert not out.converged_mask[13] and out.converged_mask.sum() == 39
        for j in np.flatnonzero(out.converged_mask):
            ref = fpi_solve(model, loads.values[:, j])
            assert np.abs(out.values[:, j] - ref.v).max() < 1e-12

    @settings(max_examples=30)
    @given(
        topology=TOPOLOGIES,
        n_buses=st.integers(10, 50),
        seed=st.integers(0, 2**16),
        alpha_i=st.floats(0.0, 1.0, exclude_max=True),
        tau=st.integers(1, 40),
        data=st.data(),
    )
    def test_sparse_batch_is_per_case_solve(self, topology, n_buses, seed,
                                            alpha_i, tau, data):
        # one LU and one chunk solve serve both paths, so each column of a
        # chunked sparse batch is the single-case answer to the bit
        feeder, spec = drawn_feeder(topology, n_buses, seed)
        model = with_zip(feeder, 0.0, alpha_i, 1.0 - alpha_i)
        loads = gen_scenarios(model, tau, spec).values.copy()
        # a column overloaded x100 has no root and runs to the cap
        stalled = data.draw(st.none() | st.integers(0, tau - 1), label="stalled")
        if stalled is not None:
            loads[:, stalled] *= 100.0
        width = data.draw(st.integers(1, tau), label="chunk columns")
        workers = data.draw(st.integers(1, 3), label="chunk workers")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dense, "_CHUNK_BYTES", 16 * model.n_demand * width)
            mp.setattr(dense, "_chunk_workers", lambda chunks: workers)
            out = batch_solve_sparse(model, LoadMatrix(loads))
        singles = [fpi_solve(model, loads[:, j]) for j in range(tau)]
        v = np.stack([r.v for r in singles], axis=1)
        assert np.array_equal(out.values.view(np.uint64), v.view(np.uint64))
        assert out.converged_mask.tolist() == [r.converged for r in singles]
        assert out.iterations == max(r.iterations for r in singles)

    @settings(max_examples=15)
    @given(
        topology=TOPOLOGIES,
        n_buses=st.integers(10, 50),
        seed=st.integers(0, 2**16),
        alpha_i=st.floats(0.0, 1.0, exclude_max=True),
        tau=st.integers(1, 40),
        data=st.data(),
    )
    def test_dense_and_sparse_batches_agree(self, topology, n_buses, seed,
                                            alpha_i, tau, data):
        feeder, spec = drawn_feeder(topology, n_buses, seed)
        model = with_zip(feeder, 0.0, alpha_i, 1.0 - alpha_i)
        loads = LoadMatrix(gen_scenarios(model, tau, spec).values)
        width = data.draw(st.integers(1, tau), label="chunk columns")
        workers = data.draw(st.integers(1, 3), label="chunk workers")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dense, "_CHUNK_BYTES", 16 * model.n_demand * width)
            mp.setattr(dense, "_chunk_workers", lambda chunks: workers)
            out = batch_solve_dense(model, loads)
            ref = batch_solve_sparse(model, loads)
        assert out.converged_mask.all()
        assert np.array_equal(out.converged_mask, ref.converged_mask)
        assert out.iterations == ref.iterations
        assert np.abs(out.values - ref.values).max() < 1e-10

    @settings(max_examples=20)
    @given(
        # not phase-coupled: its strong source keeps a x100 column solvable
        topology=st.sampled_from(["radial", "meshed"]),
        n_buses=st.integers(10, 50),
        seed=st.integers(0, 2**16),
        tau=st.integers(2, 40),
        data=st.data(),
    )
    def test_overloaded_column_leaves_the_others(self, topology, n_buses, seed,
                                                 tau, data):
        model, spec = drawn_feeder(topology, n_buses, seed)
        loads = gen_scenarios(model, tau, spec).values.copy()
        stalled = data.draw(st.integers(0, tau - 1), label="stalled")
        loads[:, stalled] *= 100.0
        rest = np.delete(loads, stalled, axis=1)
        width = data.draw(st.integers(1, tau), label="chunk columns")
        workers = data.draw(st.integers(2, 3), label="chunk workers")
        for solver in (batch_solve_sparse, batch_solve_dense):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dense, "_CHUNK_BYTES", 16 * model.n_demand * width)
                mp.setattr(dense, "_chunk_workers", lambda chunks: 1)
                out = solver(model, LoadMatrix(loads))
                ref = solver(model, LoadMatrix(rest))
                mp.setattr(dense, "_chunk_workers", lambda chunks: workers)
                shared = solver(model, LoadMatrix(loads))
            # the same bits, the stalled column's too, on any worker count
            assert np.array_equal(shared.values.view(np.uint64),
                                  out.values.view(np.uint64))
            assert np.array_equal(shared.converged_mask, out.converged_mask)
            assert shared.iterations == out.iterations
            assert not out.converged_mask[stalled]
            others = np.delete(out.values, stalled, axis=1)
            assert np.array_equal(
                np.delete(out.converged_mask, stalled), ref.converged_mask)
            if solver is batch_solve_sparse:
                # each column is its own LU solve, whatever its neighbours
                assert np.array_equal(others.view(np.uint64),
                                      ref.values.view(np.uint64))
            else:
                # the GEMM's blocking follows the chunk's width, which moves
                # the last bits in about half the draws
                assert np.abs(others - ref.values).max() < 1e-12

    @settings(max_examples=20)
    @given(
        topology=TOPOLOGIES,
        n_buses=st.integers(10, 50),
        seed=st.integers(0, 2**16),
        alpha_i=st.just(0.0) | st.floats(0.0, 1.0, exclude_max=True),
        tau=st.integers(2, 40),
        data=st.data(),
    )
    def test_dense_batch_does_not_depend_on_chunk_width(self, topology, n_buses,
                                                        seed, alpha_i, tau,
                                                        data):
        # alpha_i = 0 gives the chunks one shared c, any other share a c
        # column per case that each chunk slices from its own loads
        feeder, spec = drawn_feeder(topology, n_buses, seed)
        model = with_zip(feeder, 0.0, alpha_i, 1.0 - alpha_i)
        loads = LoadMatrix(gen_scenarios(model, tau, spec).values)
        width = data.draw(st.integers(1, tau - 1), label="chunk columns")
        workers = data.draw(st.integers(1, 3), label="chunk workers")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dense, "_CHUNK_BYTES", 16 * model.n_demand * width)
            mp.setattr(dense, "_chunk_workers", lambda chunks: workers)
            out = batch_solve_dense(model, loads)
        ref = batch_solve_dense(model, loads)
        assert np.array_equal(out.converged_mask, ref.converged_mask)
        assert out.iterations == ref.iterations
        assert np.abs(out.values - ref.values).max() < 1e-12

    @settings(max_examples=20)
    @given(
        # not phase-coupled: its strong source keeps a x100 column solvable
        topology=st.sampled_from(["radial", "meshed"]),
        n_buses=st.integers(10, 50),
        seed=st.integers(0, 2**16),
        tau=st.integers(2, 40),
        data=st.data(),
    )
    def test_wild_column_leaves_the_others_bit_identical(self, topology,
                                                         n_buses, seed, tau,
                                                         data):
        # a column scaled by 1e300 swings between iterates near 1e298 and
        # near 1; its neighbours must not see any of it.  It runs to the
        # cap, as a x100 column does, so the dense chunks keep the same
        # widths at every step with either, and the GEMM the same blocking.
        # No constant-current share: c would then hold the 1e300 load too,
        # which can pin the iterate and let the column leave early
        model, spec = drawn_feeder(topology, n_buses, seed)
        loads = gen_scenarios(model, tau, spec).values
        wild = data.draw(st.integers(0, tau - 1), label="wild column")
        width = data.draw(st.integers(1, tau), label="chunk columns")
        batches = []
        for scale in (1e300, 100.0):
            scaled = loads.copy()
            scaled[:, wild] *= scale
            batches.append(LoadMatrix(scaled))
        rest = LoadMatrix(np.delete(loads, wild, axis=1))
        for solver in (batch_solve_dense, batch_solve_sparse):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dense, "_CHUNK_BYTES", 16 * model.n_demand * width)
                out, ref = (solver(model, batch) for batch in batches)
                alone = solver(model, rest)
            assert not out.converged_mask[wild] and not ref.converged_mask[wild]
            others = np.delete(out.values, wild, axis=1)
            twins = [np.delete(ref.values, wild, axis=1)]
            if solver is batch_solve_sparse:
                # each column is its own LU solve; on the dense path one
                # column fewer would move the GEMM's blocking
                twins.append(alone.values)
            for twin in twins:
                assert np.array_equal(others.view(np.uint64),
                                      twin.view(np.uint64))
            assert np.array_equal(np.delete(out.converged_mask, wild),
                                  alone.converged_mask)

    @settings(max_examples=20)
    @given(
        topology=TOPOLOGIES,
        n_buses=st.integers(10, 50),
        seed=st.integers(0, 2**16),
        tau=st.integers(2, 40),
        data=st.data(),
    )
    def test_non_finite_column_leaves_the_others_bit_identical(
            self, topology, n_buses, seed, tau, data):
        # a NaN start sends one column non-finite at the first step, and a
        # zero load records its column at the first step: either leaves the
        # kernel after one step, so the other columns see the same widths
        model, spec = drawn_feeder(topology, n_buses, seed)
        s = gen_scenarios(model, tau, spec).values
        bad = data.draw(st.integers(0, tau - 1), label="non-finite column")
        a = -np.conj(s)
        c = -model.source_injection()[:, None]
        flat = np.full((model.n_demand, 1), abs(model.slack.v_s), dtype=complex)
        start = np.repeat(flat, tau, axis=1)
        start[:, bad] = np.nan
        quiet = a.copy()
        quiet[:, bad] = 0.0
        opts = SolveOptions()
        for make_z in (dense._dense_z, lambda y_dd: factorize(y_dd).solve):
            apply_z = make_z(model.y_dd)
            run = fixed_point(apply_z, a, c, start, opts.tolerance,
                              opts.max_iterations)
            ref = fixed_point(apply_z, quiet, c, flat, opts.tolerance,
                              opts.max_iterations)
            assert np.flatnonzero(run.non_finite).tolist() == [bad]
            assert ref.first_converged[bad] == 1
            others, twin = (np.delete(r.v, bad, axis=1) for r in (run, ref))
            assert others.tobytes() == twin.tobytes()
            assert np.array_equal(np.delete(run.first_converged, bad),
                                  np.delete(ref.first_converged, bad))

    @pytest.mark.parametrize("solver", [batch_solve_dense, batch_solve_sparse])
    def test_failing_chunk_raises_after_helpers_end(self, nine_bus_model,
                                                    monkeypatch, solver):
        loads = feasible_batch(nine_bus_model, 40, seed=31)
        third = loads.values[:, 14:21]

        class ChunkFailed(Exception):
            pass

        failure = ChunkFailed("third chunk")
        solve_chunk = dense.solve_chunk

        def failing(model, s, *args):
            if np.array_equal(s, third):
                raise failure
            return solve_chunk(model, s, *args)

        monkeypatch.setattr(dense, "solve_chunk", failing)
        monkeypatch.setattr(dense, "_CHUNK_BYTES", 16 * nine_bus_model.n_demand * 7)
        monkeypatch.setattr(dense, "_chunk_workers", lambda chunks: 3)
        threads = threading.active_count()
        with pytest.raises(ChunkFailed) as err:
            solver(nine_bus_model, loads)
        assert err.value is failure
        assert threading.active_count() == threads

    @pytest.mark.parametrize("alpha_i", [0.0, 0.3])
    @pytest.mark.parametrize("make_z", [dense._dense_z,
                                        lambda y_dd: factorize(y_dd).solve],
                             ids=["dense", "sparse"])
    def test_one_map_per_chunk_iteration(self, nine_bus_model, monkeypatch,
                                         make_z, alpha_i):
        # every column runs to the cap, so each iteration maps one whole
        # chunk of 7 (or, last, 5) columns, and nothing else is mapped: the
        # no-load term rides in the right-hand side, shared or per case
        model = with_zip(nine_bus_model, 0.0, alpha_i, 1.0 - alpha_i)
        loads = feasible_batch(nine_bus_model, 40, seed=31)
        opts = SolveOptions(tolerance=1e-16, max_iterations=3,
                            residual_tolerance=np.inf)
        monkeypatch.setattr(dense, "_CHUNK_BYTES", 16 * model.n_demand * 7)
        monkeypatch.setattr(dense, "_chunk_workers", lambda chunks: 2)
        widths = []

        def counted(y_dd):
            apply_z = make_z(y_dd)

            def apply(u):
                widths.append(u.shape[1])
                return apply_z(u)
            return apply

        out = dense.solve_columns(model, loads, opts, counted)
        assert out.iterations == 3 and out.chunk_workers == 2
        chunks = 6
        assert len(widths) == 3 * chunks
        assert sorted(widths) == [5] * 3 + [7] * 3 * (chunks - 1)

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


class TestChunkWorkers:
    """One worker per core the BLAS threads leave idle, as OpenBLAS reads
    its thread count from the environment."""

    @pytest.fixture
    def cores(self, monkeypatch):
        for var in dense._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)

        def cores(n):
            monkeypatch.setattr(dense.os, "sched_getaffinity",
                                lambda pid: set(range(n)))
        return cores

    def test_unset_leaves_blas_every_core(self, cores):
        cores(4)
        assert dense._chunk_workers(100) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_one_blas_thread_frees_every_core(self, cores, monkeypatch, n):
        cores(n)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert dense._chunk_workers(100) == n
        assert dense.usable_cores() == n

    def test_blas_threads_on_every_core(self, cores, monkeypatch):
        cores(2)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert dense._chunk_workers(100) == 1

    @pytest.mark.parametrize("value", ["abc", "0", "-1", ""])
    def test_bad_value_counts_as_unset(self, cores, monkeypatch, value):
        cores(2)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
        assert dense._chunk_workers(100) == 1
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert dense._chunk_workers(100) == 2

    def test_openblas_order_of_precedence(self, cores, monkeypatch):
        cores(4)
        monkeypatch.setenv("OMP_NUM_THREADS", "4")
        monkeypatch.setenv("GOTO_NUM_THREADS", "2")
        assert dense._chunk_workers(100) == 2
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert dense._chunk_workers(100) == 4

    def test_capped_at_chunk_count(self, cores, monkeypatch):
        cores(8)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert [dense._chunk_workers(c) for c in (0, 1, 3, 8, 9)] == [1, 1, 3, 8, 8]


def test_voltage_batch_accessors():
    vals = np.array([[0.5 + 0.5j, 1.0 + 0j]])
    batch = VoltageBatch(
        values=vals, iterations=3,
        converged_mask=np.array([True, True]), residuals=np.zeros(2),
    )
    assert batch.tau == 2
    assert np.abs(batch.values)[0, 0] == pytest.approx(np.sqrt(0.5))
    assert np.angle(batch.values)[0, 0] == pytest.approx(np.pi / 4)
