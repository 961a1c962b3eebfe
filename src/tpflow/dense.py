"""Batched fixed-point power flow as dense matrix-matrix iterations.

Load cases are stacked as columns of a bphi x tau :class:`LoadMatrix` and
updated jointly:

    V <- Z_B (A / V* + C),   A = -alpha_p . S*,   C = -(Y_ds v_s + alpha_i . S*)

with Z_B = Y_dd^(-1) materialized once (dense); C is one column broadcast
across the cases when there is no constant-current share.  This is the
paper's ``V <- F (V*)^(-1) + W`` with ``F = -Z_B diag(alpha_p . s*)`` and
``W = Z_B C``, folded into one GEMM per iteration, which does the work of
many independent solves.  The batch driver shared with the sparse path
lives here too: it walks the columns in chunks of a fixed byte budget, so
scratch memory does not grow with tau, solving each chunk with
:func:`tpflow.fpi.solve_chunk` (the single-case solver's own chunk solve),
and sends models with a constant-impedance share (``alpha_z != 0``, a
different B per case) through the per-case loop.

The chunks are independent, and numpy releases the interpreter lock in
``matmul`` and in the elementwise kernels, so the driver solves them on as
many threads as the BLAS threads leave cores idle: one per usable core
divided by the BLAS thread count that ``OPENBLAS_NUM_THREADS`` (or, unset,
``GOTO_NUM_THREADS`` then ``OMP_NUM_THREADS``) sets.  With none set, BLAS
takes every core and the chunks run one after another.  At a fixed BLAS
thread count the worker count changes no bit of the result.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .fpi import SolveOptions, fpi_solve, solve_chunk
from .network import NetworkModel

__all__ = ["LoadMatrix", "VoltageBatch", "batch_solve_dense"]


@dataclass(frozen=True)
class LoadMatrix:
    """Loads as a bphi x tau matrix; column j is case j.

    The one way a load batch enters the solvers.  An array that is not 2-D,
    an empty batch (tau = 0) and non-finite entries are rejected with
    :class:`ValueError`.  A ``(*dims, bphi)`` array of cases enters as
    ``LoadMatrix(t.reshape(-1, bphi).T)``, its cases in row-major order, and
    ``values.T.reshape(*dims, bphi)`` gives the tensor back.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim != 2:
            raise ValueError("load matrix must be 2-D (nodes x cases)")
        if vals.shape[1] == 0:
            raise ValueError("load matrix has no cases: the batch is empty (tau = 0)")
        finite = np.isfinite(vals)
        if not finite.all():
            case, node = np.argwhere(~finite.T)[0]
            raise ValueError(
                f"non-finite load {vals[node, case]} at node {node}, case {case}"
            )
        object.__setattr__(self, "values", vals)

    @property
    def n_demand(self) -> int:
        return self.values.shape[0]

    @property
    def tau(self) -> int:
        return self.values.shape[1]


@dataclass
class VoltageBatch:
    """Solved voltages per case, the iterations run and per-case flags."""

    values: np.ndarray  # bphi x tau complex
    iterations: int
    converged_mask: np.ndarray
    residuals: np.ndarray
    chunk_workers: int = 1  # threads that solved the column chunks

    @property
    def tau(self) -> int:
        return self.values.shape[1]


# bytes of one b x width complex chunk; the batch driver walks columns by it.
# At 256 KiB / 512 KiB / 1 MiB: stalled-dense 0.033 / 0.034 / 0.038 s,
# feeder-dense 0.225 / 0.225 / 0.214 s (medians of 5 fresh processes, 2 cores,
# 1 BLAS thread, 2 chunk workers); the feeder's runs spread over 0.20-0.25 s,
# wider than its gaps
_CHUNK_BYTES = 256 * 1024


def batch_solve_dense(
    model: NetworkModel,
    loads: LoadMatrix,
    opts: SolveOptions = SolveOptions(),
) -> VoltageBatch:
    """Solve all columns jointly with one dense ``Z_B = Y_dd^(-1)``.

    See :func:`solve_columns` for the stop rule and the ZIP routing.
    """
    return solve_columns(model, loads, opts, _dense_z)


def _dense_z(y_dd):
    zb = np.linalg.inv(y_dd.toarray())
    # a Fortran-ordered product keeps every b x tau operand column-major
    return lambda u: np.matmul(zb, u, order="F")


def solve_columns(
    model: NetworkModel, loads: LoadMatrix, opts: SolveOptions, make_z
) -> VoltageBatch:
    """Batch driver shared by the dense and sparse paths.

    ``make_z(y_dd)`` returns the map applying ``Z_B = Y_dd^(-1)`` to a
    b x tau array; it is built once per batch.  With no constant-impedance
    share (``alpha_z = 0``, so ``B = Y_dd`` for every case) each chunk of
    columns runs through :func:`tpflow.fpi.solve_chunk`, the single-case
    solver's own terms, iteration and converged rule; the source injection
    ``Y_ds v_s`` that every chunk shares is computed once, on the calling
    thread, before the first chunk.  A model with some
    ``alpha_z != 0`` has a different ``B`` per case and goes case by case
    through :func:`tpflow.fpi.fpi_solve`.

    The columns are walked in chunks of ``_CHUNK_BYTES // (16 b)`` cases,
    which bounds the scratch memory and keeps the elementwise work
    cache-resident; results are written into one C-ordered batch.  The
    first chunk is solved on the calling thread; the rest are shared out
    between it and :func:`_chunk_workers` ``- 1`` helper threads, each
    writing its own columns.  A chunk's result does not depend on the
    thread that solved it, so at a fixed BLAS thread count the batch is
    the same to the bit for any worker count.

    Stop rule, per column: a column is recorded at the first iteration its
    max |dv| falls under ``opts.tolerance`` and leaves the kernel with that
    iterate, as does a column gone non-finite; a chunk runs until no column
    in it is left, or to ``opts.max_iterations``.  A stalled column thus
    costs one column's work per iteration, not its chunk's.  ``iterations``
    is the max over the chunks, so when steps shrink it is the max of the
    per-case counts.
    """
    if loads.n_demand != model.n_demand:
        raise ValueError(
            f"load matrix has {loads.n_demand} rows, model has {model.n_demand}"
        )
    if model.zip.alpha_z.any():
        return solve_cases(fpi_solve, model, loads, opts)

    b, tau = loads.values.shape
    apply_z = make_z(model.y_dd)
    src = model.source_injection()[:, None]
    width = max(1, _CHUNK_BYTES // (16 * b))
    chunks = [slice(j, min(j + width, tau)) for j in range(0, tau, width)]
    mask = np.empty(tau, dtype=bool)
    residuals = np.empty(tau)
    iterations = [0] * len(chunks)
    v = None

    def solve(k):
        nonlocal v
        cols = chunks[k]
        run, res, converged = solve_chunk(
            model, loads.values[:, cols], apply_z, opts, src
        )
        if v is None:
            # chunk 0, before any helper starts.  Allocated once its scratch
            # is free; allocated before it, glibc returned that scratch to
            # the OS and faulted it back on every call (+15% on a 100-node,
            # 100-case batch)
            v = np.empty((b, tau), dtype=complex)
        v[:, cols] = run.v
        mask[cols] = converged
        residuals[cols] = res
        iterations[k] = run.iterations

    solve(0)
    rest = range(1, len(chunks))
    workers = _chunk_workers(len(rest))
    _run_all(solve, rest, workers)
    return VoltageBatch(
        values=v, iterations=max(iterations), converged_mask=mask,
        residuals=residuals, chunk_workers=workers,
    )


# the variables OpenBLAS reads its thread count from, first to last
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def usable_cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunk_workers(chunks: int) -> int:
    """Threads to solve ``chunks`` column chunks on: one per core that the
    BLAS threads leave free, at least one and at most one per chunk.

    The BLAS thread count is the first of ``_BLAS_THREAD_VARS`` set to a
    positive integer, as OpenBLAS takes it; with none, OpenBLAS starts one
    thread per core and leaves no core free.
    """
    usable = usable_cores()
    blas = usable
    for var in _BLAS_THREAD_VARS:
        try:
            n = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if n > 0:
            blas = n
            break
    return max(1, min(chunks, usable // blas))


def _run_all(solve, items, workers: int) -> None:
    """Call ``solve(k)`` for each ``k`` of ``items`` on the calling thread
    and ``workers - 1`` helper threads, each taking the next item when done.

    Every helper is joined before this returns.  The first exception any
    call raises stops the threads taking new items and is raised here.
    """
    todo = iter(items)
    lock = threading.Lock()
    failed: list[BaseException] = []

    def work():
        try:
            while not failed:
                with lock:
                    k = next(todo, None)
                if k is None:
                    return
                solve(k)
        except BaseException as exc:  # raised again in the calling thread
            failed.append(exc)

    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for t in helpers:
        t.start()
    try:
        work()
    finally:
        for t in helpers:
            t.join()
    if failed:
        raise failed[0]


def solve_cases(
    case_solver, model: NetworkModel, loads: LoadMatrix, opts: SolveOptions
) -> VoltageBatch:
    """Run ``case_solver(model, s, opts)`` on each column; ``iterations`` is
    the max over the cases."""
    tau = loads.tau
    v = np.empty((model.n_demand, tau), dtype=complex)
    mask = np.zeros(tau, dtype=bool)
    residuals = np.empty(tau)
    iterations = 0
    for j in range(tau):
        res = case_solver(model, loads.values[:, j], opts)
        v[:, j] = res.v
        mask[j] = res.converged
        residuals[j] = res.residual
        iterations = max(iterations, res.iterations)
    return VoltageBatch(
        values=v, iterations=iterations, converged_mask=mask, residuals=residuals
    )
