"""Batched fixed-point power flow through one sparse LU of Y_dd.

The dense path's update ``V <- -Z_B (S / V)* + W`` with ``Z_B = Y_dd^(-1)``
is applied here without forming the inverse: every iteration solves

    Y_dd X = -(S* / V_(n)*),    V_(n+1) = X + W

for the whole bphi x tau right-hand side with one LU factorization of Y_dd,
computed once per batch, where Y_dd W = -Y_ds v_s.  A zero-load entry
contributes an exact zero to the right-hand side, so such nodes need no
special handling.

The factorization count is observable through :func:`factorization_count`
so reuse (exactly one analysis+factorization per batch) can be asserted.
"""

from __future__ import annotations

import threading

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .dense import LoadMatrix, VoltageBatch, solve_columns
from .fpi import SingularSystemError, SolveOptions
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

    Matches :func:`tpflow.dense.batch_solve_dense` column for column: the
    same driver (:func:`tpflow.dense.solve_columns`, which states the stop
    rule and the ZIP routing), applying ``Y_dd^(-1)`` through one sparse
    factorization instead of a dense inverse.
    """
    return solve_columns(model, loads, opts, lambda y_dd: factorize(y_dd).solve)
