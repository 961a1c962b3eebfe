"""Batched fixed-point power flow through one sparse LU of Y_dd.

The dense path's update ``V <- Z_B (A / V* + C)`` with ``Z_B = Y_dd^(-1)``
is applied here without forming the inverse: every iteration solves

    Y_dd V_(n+1) = A / V_(n)* + C,   A = -alpha_p . S*,
                                     C = -(Y_ds v_s + alpha_i . S*)

for a whole bphi x chunk right-hand side with one LU factorization of Y_dd,
computed once per batch and reused by every column chunk.  It is the
paper's ``V <- F (V*)^(-1) + W``, ``F = -Y_dd^(-1) diag(alpha_p . s*)`` and
``W = Y_dd^(-1) C``, as one solve per step: the no-load voltage ``W`` is
never solved for on its own.  A zero-load entry contributes an exact zero
to ``A / V*``, so such nodes need no special handling.
"""

from __future__ import annotations

from .dense import LoadMatrix, VoltageBatch, solve_columns
from .fpi import SolveOptions, factorize
from .network import NetworkModel

__all__ = ["batch_solve_sparse"]


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
