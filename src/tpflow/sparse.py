"""Batched fixed-point power flow through one sparse LU of Y_dd.

The dense path's update ``V <- -Z_B (S / V)* + W`` with ``Z_B = Y_dd^(-1)``
is applied here without forming the inverse: every iteration solves

    Y_dd V_(n+1) = -(S* / V_(n)*) - Y_ds v_s

for the whole bphi x tau right-hand side with one LU factorization of Y_dd,
computed once per batch.  A zero-load entry contributes an exact zero to the
right-hand side, so such nodes need no special handling.

The factorization count is observable through :func:`factorization_count`
so reuse (exactly one analysis+factorization per batch) can be asserted.
"""

from __future__ import annotations

import threading

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .dense import LoadMatrix, VoltageBatch, _safe_residuals
from .fpi import SingularSystemError, SolveOptions, ZERO_VOLTAGE_GUARD
from .network import NetworkModel

__all__ = [
    "factorize",
    "batch_solve_sparse",
    "factorization_count",
]

_factorizations = 0
_counter_lock = threading.Lock()


def factorization_count() -> int:
    """Monotone count of sparse factorizations performed by this module."""
    return _factorizations


def factorize(matrix):
    """Fill-reducing ordering, symbolic analysis and numeric factorization.

    Returns scipy's ``SuperLU`` object, whose ``solve`` accepts one or many
    right-hand sides.  Singular input raises :class:`SingularSystemError`
    naming structurally empty rows/columns when those are the cause.
    """
    global _factorizations
    m = sparse.csc_matrix(matrix, dtype=complex)
    if m.shape[0] != m.shape[1]:
        raise ValueError("factorize requires a square matrix")
    try:
        lu = splu(m)
    except RuntimeError as exc:
        csr = m.tocsr()
        empty_rows = np.where(np.diff(csr.indptr) == 0)[0]
        empty_cols = np.where(np.diff(m.indptr) == 0)[0]
        where = []
        if empty_rows.size:
            where.append(f"empty rows {empty_rows[:8].tolist()}")
        if empty_cols.size:
            where.append(f"empty columns {empty_cols[:8].tolist()}")
        detail = f" ({'; '.join(where)})" if where else ""
        raise SingularSystemError(
            f"sparse factorization failed: {exc}{detail}"
        ) from exc
    with _counter_lock:
        _factorizations += 1
    return lu


def batch_solve_sparse(
    model: NetworkModel,
    loads: LoadMatrix,
    opts: SolveOptions = SolveOptions(),
) -> VoltageBatch:
    """Iterate all columns jointly with a single reused LU of Y_dd.

    Matches :func:`tpflow.dense.batch_solve_dense` column for column (same
    update, same joint stop rule), applying ``Y_dd^(-1)`` through one sparse
    factorization instead of a dense inverse.  Requires pure constant-power
    loads; mixed ZIP models raise :class:`ValueError`.
    """
    if not model.zip.is_constant_power:
        raise ValueError("the sparse batch path supports constant-power loads only")
    if loads.n_demand != model.n_demand:
        raise ValueError(
            f"load matrix has {loads.n_demand} rows, model has {model.n_demand}"
        )
    lu = factorize(model.admittance.y_dd)

    neg_s_conj = -np.conj(loads.values)
    src = model.source_injection()[:, None]
    v = np.full(loads.values.shape, abs(model.slack.v_s) * (1.0 + 0.0j))
    n = 0
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        while n < opts.max_iterations:
            v = np.where(np.abs(v) < ZERO_VOLTAGE_GUARD,
                         ZERO_VOLTAGE_GUARD * (1.0 + 0.0j), v)
            v_next = lu.solve(neg_s_conj / np.conj(v) - src)
            delta = np.abs(v_next - v).max(initial=0.0)
            v = v_next
            n += 1
            if np.isfinite(delta) and delta < opts.tolerance:
                break

    residuals = _safe_residuals(model, v, loads.values)
    converged = np.isfinite(residuals) & (residuals < opts.residual_tolerance)
    return VoltageBatch(
        values=np.ascontiguousarray(v),
        iterations=n,
        converged_mask=converged,
        residuals=residuals,
    )
