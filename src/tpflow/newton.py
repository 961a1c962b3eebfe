"""Newton-Raphson power flow in polar coordinates.

Serves as the independent correctness oracle for the fixed-point solvers and
as the per-case comparison baseline in benchmarks.  PQ demand buses plus one
slack; the Jacobian's pattern is built once per solve, and its values are
refilled and refactorized every iteration (no LU is reusable across them).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .fpi import SolveOptions, SolveResult, power_residual, start_voltage, zip_power
from .network import NetworkModel

__all__ = ["nr_solve"]

# Divergence: the max mismatch stays this many times above the best one seen
# for this many iterations running (see nr_solve).
_BLOW_UP = 1e3
_BLOW_UP_STEPS = 3


def _jacobian(y, rows, cols, v, i_d):
    """Real Jacobian of demand-bus power w.r.t. (Va, Vm) on the ``rows, cols``
    pattern; conversion to CSC sums the diagonal terms into place.

    dS/dVa = j diag(V) conj(diag(I) - Y_dd diag(V))
    dS/dVm = diag(V) conj(Y_dd diag(Vn)) + diag(conj(I) Vn),  Vn = V/|V|
    """
    vn = v / np.abs(v)
    vy = v[y.row] * np.conj(y.data)
    ds_dva = np.concatenate([-1j * vy * np.conj(v[y.col]), 1j * v * np.conj(i_d)])
    ds_dvm = np.concatenate([vy * np.conj(vn[y.col]), np.conj(i_d) * vn])
    data = np.concatenate([ds_dva.real, ds_dvm.real, ds_dva.imag, ds_dvm.imag])
    return sparse.csc_matrix((data, (rows, cols)), shape=(2 * v.size,) * 2)


def nr_solve(
    model: NetworkModel, s: np.ndarray, opts: SolveOptions = SolveOptions()
) -> SolveResult:
    """Full-Newton polar power flow to tolerance on the max power mismatch.

    The ZIP load is folded into the specified injection at each iterate, so
    only the constant-power fraction contributes Jacobian terms implicitly;
    this matches treating the load power as locally constant per step.

    The run stops with ``diagnostic="diverged: ..."`` when the mismatch turns
    non-finite, or when it stays over ``_BLOW_UP`` (1e3) times the best
    mismatch seen for ``_BLOW_UP_STEPS`` (3) iterations running.  A
    converging run overshoots its best by a few times at most, on its first
    steps from a flat start (under 3x on every converging case of the test
    suite), and near the root its mismatch falls quadratically.  Iterates
    held three orders of magnitude above the best have left the region where
    Newton's linear model holds; on the feeders measured such runs went on to
    |v| ~ 1e22, to non-finite values or to the iteration cap, never to a
    root, so stepping them on only costs time.
    """
    # imported here, so that only a run using Newton loads scipy's LU stack
    from scipy.sparse.linalg import splu

    s = np.asarray(s, dtype=complex).ravel()
    b = model.n_demand
    if s.shape[0] != b:
        raise ValueError(f"load vector sized {s.shape[0]}, expected {b}")
    y_dd = model.admittance.y_dd
    y = y_dd.tocoo()  # each real Jacobian block: Y_dd's pattern plus its diagonal
    r, c = (np.concatenate([k, np.arange(b, dtype=k.dtype)]) for k in (y.row, y.col))
    rows, cols = np.concatenate([r, r, r + b, r + b]), np.concatenate([c, c + b, c, c + b])
    src = model.source_injection()

    v = start_voltage(model, opts)[:, 0]
    vm, va = np.abs(v), np.angle(v)

    diagnostic = None
    converged = False
    history: list[float] = []
    blown_up = 0
    it = 0
    for it in range(opts.max_iterations + 1):
        v = vm * np.exp(1j * va)
        i_d = src + y_dd @ v
        s_calc = v * np.conj(i_d)
        s_spec = -zip_power(model, v, s)
        ds = s_spec - s_calc
        mismatch = np.concatenate([ds.real, ds.imag])
        if not np.all(np.isfinite(mismatch)):
            diagnostic = f"diverged: non-finite mismatch at iteration {it}"
            break
        history.append(float(np.abs(mismatch).max()))
        if history[-1] < opts.tolerance:
            converged = True
            break
        blown_up = blown_up + 1 if history[-1] > _BLOW_UP * min(history) else 0
        if blown_up == _BLOW_UP_STEPS:
            diagnostic = (f"diverged: mismatch {history[-1]:.3g} over {_BLOW_UP:g} "
                          f"times the best {min(history):.3g} for {blown_up} "
                          f"iterations, at iteration {it}")
            break
        if it == opts.max_iterations:
            break
        try:
            dx = splu(_jacobian(y, rows, cols, v, i_d)).solve(mismatch)
        except RuntimeError as exc:
            diagnostic = f"singular Jacobian at iteration {it + 1}: {exc}"
            break
        va = va + dx[:b]
        vm = vm + dx[b:]

    with np.errstate(invalid="ignore", over="ignore"):
        residual = power_residual(model, v, s)
    if converged:
        converged = residual < opts.residual_tolerance
    return SolveResult(
        v=v,
        iterations=it,
        converged=converged,
        residual=residual,
        diagnostic=diagnostic,
        # max power mismatch per iterate, for convergence-rate analysis
        step_inf=np.array(history),
    )
