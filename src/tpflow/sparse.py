"""Batched fixed-point power flow through one sparse LU of Y_dd.

The dense path's update ``V <- -Z_B (alpha_p . S* / V*) + W`` with
``Z_B = Y_dd^(-1)`` is applied here without forming the inverse: every
iteration solves

    Y_dd X = -(alpha_p . S* / V_(n)*),    V_(n+1) = X + W

for a whole bphi x chunk right-hand side with one LU factorization of Y_dd,
computed once per batch and reused by every column chunk, where
``Y_dd W = -(Y_ds v_s + alpha_i . S*)``.  A zero-load entry contributes an
exact zero to the right-hand side, so such nodes need no special handling.

The factorization is :func:`tpflow.fpi.factorize`, re-exported here with
its counter :func:`factorization_count`, so reuse (exactly one
factorization per batch) can be asserted.
"""

from __future__ import annotations

from .dense import LoadMatrix, VoltageBatch, solve_columns
from .fpi import SolveOptions, factorization_count, factorize
from .network import NetworkModel

__all__ = [
    "factorize",
    "batch_solve_sparse",
    "factorization_count",
]


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
