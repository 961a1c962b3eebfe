"""Batched fixed-point power flow as dense matrix-matrix iterations.

All load cases are stacked as columns of a bphi x tau matrix and updated
jointly:

    V <- -Z_B (S / V)* + W

with Z_B = Y_dd^(-1) materialized once (dense) and W the no-load voltage
broadcast across columns.  One GEMM per iteration does the work of tau
independent solves; columns are independent, so the batch can be chunked
across worker threads without changing any column's arithmetic.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .fpi import SolveOptions, ZERO_VOLTAGE_GUARD, fpi_solve, residual_per_case
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

    @property
    def n_cases(self) -> int:
        return math.prod(self.dims)


@dataclass(frozen=True)
class LoadMatrix:
    """Loads reshaped to bphi x tau; column j is case j in row-major order.

    An empty batch (tau = 0) and non-finite entries are rejected with
    :class:`ValueError`.
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

    @property
    def n_demand(self) -> int:
        return self.values.shape[0]

    @property
    def tau(self) -> int:
        return self.values.shape[1]


@dataclass
class VoltageBatch:
    """Solved voltages per case plus joint iteration count and per-case flags."""

    values: np.ndarray  # bphi x tau complex
    iterations: int
    converged_mask: np.ndarray
    residuals: np.ndarray

    @property
    def tau(self) -> int:
        return self.values.shape[1]

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.values)

    def angles(self) -> np.ndarray:
        return np.angle(self.values)


def reshape_tensor(tensor: PowerTensor) -> LoadMatrix:
    """Flatten all batch dimensions; the node axis becomes the row axis."""
    bphi = tensor.values.shape[-1]
    flat = tensor.values.reshape(-1, bphi).T
    return LoadMatrix(values=flat, dims=tensor.dims)


def unreshape(loads: LoadMatrix) -> PowerTensor:
    """Inverse of :func:`reshape_tensor`; exact round trip."""
    bphi = loads.n_demand
    return PowerTensor(values=loads.values.T.reshape(*loads.dims, bphi))


def _iterate_chunk(zb_neg, s_conj, w, v, v_next, u, lo, hi):
    """One update on columns [lo, hi); returns the chunk's max |dv|.

    ``u`` is scratch sized like ``v``; everything runs in place so the large
    arrays are touched a minimal number of times per iteration.
    """
    sl = slice(lo, hi)
    np.conjugate(v[:, sl], out=u[:, sl])
    np.divide(s_conj[:, sl], u[:, sl], out=u[:, sl])
    np.matmul(zb_neg, u[:, sl], out=v_next[:, sl])
    np.add(v_next[:, sl], w[:, None], out=v_next[:, sl])
    np.subtract(v_next[:, sl], v[:, sl], out=u[:, sl])
    return float(np.abs(u[:, sl]).max(initial=0.0))


def batch_solve_dense(
    model: NetworkModel,
    loads: LoadMatrix,
    opts: SolveOptions = SolveOptions(),
    workers: int = 1,
) -> VoltageBatch:
    """Solve all columns jointly until every column meets the tolerance.

    The joint stop rule is the max-norm over the whole batch, so the batch
    iteration count is the max of the per-case counts; converged columns
    keep iterating until the global stop (their arithmetic is unaffected).
    Requires pure constant-power loads; mixed ZIP models are routed through
    the single-case solver column by column.
    """
    if loads.n_demand != model.n_demand:
        raise ValueError(
            f"load matrix has {loads.n_demand} rows, model has {model.n_demand}"
        )
    if not model.zip.is_constant_power:
        return _batch_via_single(model, loads, opts)

    tau = loads.tau
    zb_neg = -np.linalg.inv(model.admittance.y_dd.toarray())
    w = zb_neg @ model.source_injection()

    s_conj = np.asfortranarray(np.conj(loads.values))
    v = np.full((model.n_demand, tau), abs(model.slack.v_s) * (1.0 + 0.0j), order="F")
    v_next = np.empty_like(v)
    scratch = np.empty_like(v)

    workers = max(1, workers)
    bounds = np.linspace(0, tau, workers + 1).astype(int)
    chunks = [
        (lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
    ]
    pool = ThreadPoolExecutor(max_workers=workers) if len(chunks) > 1 else None

    n = 0
    try:
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            while n < opts.max_iterations:
                small = np.abs(v) < ZERO_VOLTAGE_GUARD
                if small.any():
                    np.copyto(v, ZERO_VOLTAGE_GUARD * (1.0 + 0.0j), where=small)
                if pool is None:
                    deltas = [
                        _iterate_chunk(zb_neg, s_conj, w, v, v_next, scratch, lo, hi)
                        for lo, hi in chunks
                    ]
                else:
                    deltas = list(
                        pool.map(
                            lambda c, vv=v, vn=v_next: _iterate_chunk(
                                zb_neg, s_conj, w, vv, vn, scratch, *c
                            ),
                            chunks,
                        )
                    )
                v, v_next = v_next, v
                n += 1
                d = np.asarray(deltas)
                # non-finite deltas (diverging columns) hold the loop open to
                # the cap; healthy columns keep refining meanwhile
                if np.all(np.isfinite(d)) and d.max() < opts.tolerance:
                    break
    finally:
        if pool is not None:
            pool.shutdown()

    residuals = _safe_residuals(model, v, loads.values)
    converged = np.isfinite(residuals) & (residuals < opts.residual_tolerance)
    return VoltageBatch(
        values=np.ascontiguousarray(v),
        iterations=n,
        converged_mask=converged,
        residuals=residuals,
    )


def _safe_residuals(model, v, s) -> np.ndarray:
    with np.errstate(invalid="ignore", over="ignore"):
        res = residual_per_case(model, v, s)
    return np.atleast_1d(np.asarray(res, dtype=float))


def _batch_via_single(
    model: NetworkModel, loads: LoadMatrix, opts: SolveOptions
) -> VoltageBatch:
    tau = loads.tau
    v = np.empty((model.n_demand, tau), dtype=complex)
    mask = np.zeros(tau, dtype=bool)
    residuals = np.empty(tau)
    iterations = 0
    for j in range(tau):
        res = fpi_solve(model, loads.values[:, j], opts)
        v[:, j] = res.v
        mask[j] = res.converged
        residuals[j] = res.residual
        iterations = max(iterations, res.iterations)
    return VoltageBatch(
        values=v, iterations=iterations, converged_mask=mask, residuals=residuals
    )
