"""Batched fixed-point power flow as dense matrix-matrix iterations.

Load cases are stacked as columns of a bphi x tau matrix and updated
jointly:

    V <- -Z_B (alpha_p . S* / V*) + W,   W = -Z_B (Y_ds v_s + alpha_i . S*)

with Z_B = Y_dd^(-1) materialized once (dense); W is the no-load voltage
broadcast across columns when there is no constant-current share.  One GEMM
per iteration does the work of many independent solves.  The batch driver
shared with the sparse path lives here too: it walks the columns in chunks
of a fixed byte budget, so scratch memory does not grow with tau, solving
each chunk with :func:`tpflow.fpi.solve_chunk` (the single-case solver's own
chunk solve), and sends models with a constant-impedance share
(``alpha_z != 0``, a different B per case) through the per-case loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fpi import SolveOptions, fpi_solve, solve_chunk
from .network import NetworkModel

__all__ = [
    "PowerTensor",
    "LoadMatrix",
    "VoltageBatch",
    "reshape_tensor",
    "unreshape",
    "batch_solve_dense",
]


@dataclass(frozen=True)
class PowerTensor:
    """Multidimensional batch of load cases; the last axis is the node axis."""

    values: np.ndarray  # complex, shape (*dims, bphi)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=complex)
        )
        if self.values.ndim < 2:
            raise ValueError("power tensor needs at least one batch dimension")

    @property
    def dims(self) -> tuple[int, ...]:
        return self.values.shape[:-1]


@dataclass(frozen=True)
class LoadMatrix:
    """Loads reshaped to bphi x tau; column j is case j in row-major order.

    An empty batch (tau = 0), non-finite entries and ``dims`` whose product
    is not tau are rejected with :class:`ValueError`.
    """

    values: np.ndarray
    dims: tuple[int, ...] = ()

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
        if not self.dims:
            object.__setattr__(self, "dims", (vals.shape[1],))
        if math.prod(self.dims) != vals.shape[1]:
            raise ValueError(
                f"dims {tuple(self.dims)} describe {math.prod(self.dims)} cases, "
                f"but the load matrix has {vals.shape[1]}"
            )

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

    @property
    def tau(self) -> int:
        return self.values.shape[1]


def reshape_tensor(tensor: PowerTensor) -> LoadMatrix:
    """Flatten all batch dimensions; the node axis becomes the row axis."""
    bphi = tensor.values.shape[-1]
    flat = tensor.values.reshape(-1, bphi).T
    return LoadMatrix(values=flat, dims=tensor.dims)


def unreshape(loads: LoadMatrix) -> PowerTensor:
    """Inverse of :func:`reshape_tensor`; exact round trip."""
    bphi = loads.n_demand
    return PowerTensor(values=loads.values.T.reshape(*loads.dims, bphi))


# bytes of one b x width complex chunk; the batch driver walks columns by it.
# At 256 KiB / 512 KiB / 1 MiB: stalled-dense 0.049 / 0.052 / 0.067 s,
# feeder-dense 0.52 / 0.50 / 0.48 s (medians of 5 fresh processes, 2 cores,
# 1 BLAS thread); the feeder's runs spread over +-15%, wider than its gaps
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
    solver's own terms, iteration and converged rule.  A model with some
    ``alpha_z != 0`` has a different ``B`` per case and goes case by case
    through :func:`tpflow.fpi.fpi_solve`.

    The columns are walked in chunks of ``_CHUNK_BYTES // (16 b)`` cases,
    which bounds the scratch memory and keeps the elementwise work
    cache-resident; results are written into one C-ordered batch.

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
    apply_z = make_z(model.admittance.y_dd)
    mask = np.empty(tau, dtype=bool)
    residuals = np.empty(tau)
    iterations = 0
    width = max(1, _CHUNK_BYTES // (16 * b))
    for start in range(0, tau, width):
        cols = slice(start, min(start + width, tau))
        run, res, converged = solve_chunk(
            model, loads.values[:, cols], apply_z, opts
        )
        if start == 0:
            # allocated once the first chunk's scratch is free; allocated
            # before it, glibc returned that scratch to the OS and faulted it
            # back on every call (+15% on a 100-node, 100-case batch)
            v = np.empty((b, tau), dtype=complex)
        v[:, cols] = run.v
        mask[cols] = converged
        residuals[cols] = res
        iterations = max(iterations, run.iterations)
    return VoltageBatch(
        values=v, iterations=iterations, converged_mask=mask, residuals=residuals
    )


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
